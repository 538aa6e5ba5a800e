"""Missing-data imputation by iterated forward inference.

Unobserved entries start at the placeholder value (per-channel training
mean) in ``impute`` and at whatever values they are given in
``impute_packed``; then the model's feed-forward pass repeatedly
replaces them with the decoded means until the largest standardized
update falls below ``TOLERANCE``, for at most ``MAX_ITERATIONS``
forwards. Observed entries are never modified. Voltage prediction
(``services.predict_voltages``), state estimation and bid estimation
are all specializations of this loop, and all stop by this one rule.

Batches iterate per sample: each sample exits at its own first hit, so
the forwards shrink as samples converge.

A batch is cut once into blocks by its row count alone, as training
steps are (``diffcore.row_blocks``), and each block runs its whole loop
on its own, on the cores that BLAS leaves free (``diffcore.run_blocks``):
forward, update the holes, drop the converged samples, forward again.
No iteration waits for another block's, and a sample's result is the
one its block gives when imputed alone, whatever the other blocks hold
and however many cores run them. ``blocked_forward`` cuts any untaped
pass over a batch by the same rule, one forward per block
(``training.evaluate_nll`` uses it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .gridgraph import NodeSchema

# The stopping rule: a sample stops at its first update whose largest
# standardized change (L-infinity) falls below TOLERANCE, or after
# MAX_ITERATIONS forwards.
MAX_ITERATIONS = 20
TOLERANCE = 1e-3


class ImputationError(ValueError):
    pass


@dataclass
class ImputationProblem:
    """Physical-unit snapshot with an observed-mask."""

    features: dict[str, np.ndarray]
    observed: dict[str, np.ndarray]


@dataclass
class ImputationResult:
    """Filled values plus per-channel sigma, in physical units."""

    values: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]
    was_observed: dict[str, np.ndarray]
    iterations: int
    converged: bool

    def report_document(self, schemas: dict[str, NodeSchema]) -> dict:
        channels = {}
        for nid, schema in schemas.items():
            for c, ch in enumerate(schema.channels()):
                channels[f"{nid}:{ch.name}"] = {
                    "value": float(self.values[nid][c]),
                    "sigma": float(self.sigma[nid][c]),
                    "was_observed": bool(self.was_observed[nid][c]),
                }
        return {"channels": channels, "iterations": self.iterations,
                "converged": self.converged}


def blocked_forward(model, features: dict[str, np.ndarray],
                    mask: dict[str, np.ndarray]):
    """Untaped ``model.forward`` over the rows of packed (n, B, q)
    arrays, one forward per ``diffcore.row_blocks`` block. Each
    block writes its mu and log-variance into preallocated (n, B, q)
    arrays, which are returned."""
    rows = next(iter(features.values())).shape[1]
    mu = {k: np.empty(v.shape) for k, v in features.items()}
    logvar = {k: np.empty(v.shape) for k, v in features.items()}

    def run(block: tuple[int, int]) -> None:
        cols = slice(*block)
        out = model.forward({k: v[:, cols] for k, v in features.items()},
                            {k: v[:, cols] for k, v in mask.items()})
        for dst, src in zip((mu, logvar), out):
            for k, t in src.items():
                dst[k][:, cols] = t.data

    dc.run_blocks(dc.row_blocks(rows), run)
    return mu, logvar


def impute_packed(model, features: dict[str, np.ndarray],
                  mask: dict[str, np.ndarray],
                  max_iterations: int = MAX_ITERATIONS,
                  tolerance: float = TOLERANCE):
    """Batched imputation over packed standardized arrays (n, B, q), the
    observed-mask bool or float 0/1.

    Each ``diffcore.row_blocks`` block iterates on its own,
    and each forward runs only on the block's samples still pending. A
    sample leaves at its first iteration whose update falls below the
    tolerance and keeps that iteration's values, mu and sigma; a sample
    that never gets there keeps those of iteration ``max_iterations``.

    Returns (values, mu, sigma, first_hit, final_delta) where ``first_hit``
    is, per sample, the first iteration whose update dropped below the
    tolerance (0 when nothing is unobserved or it never converged), and
    ``final_delta`` its last update size.
    """
    if max_iterations < 1:
        raise ImputationError("max_iterations must be at least 1")
    b = next(iter(features.values())).shape[1]
    values = {k: np.empty_like(v) for k, v in features.items()}
    mu_out = {k: np.empty_like(v) for k, v in features.items()}
    sig_out = {k: np.empty_like(v) for k, v in features.items()}
    first_hit = np.zeros(b, dtype=int)
    final_delta = np.zeros(b)

    def run(block: tuple[int, int]) -> None:
        cols = slice(*block)
        cur = {k: v[:, cols].copy() for k, v in features.items()}
        cur_mask = {k: np.array(m[:, cols], dtype=np.float64)
                    for k, m in mask.items()}
        holes = {k: m == 0.0 for k, m in cur_mask.items()}
        rows = np.arange(*block)  # the block's pending samples
        has_holes = np.zeros(len(rows), dtype=bool)
        for h in holes.values():
            has_holes |= h.any(axis=(0, 2))
        for it in range(1, max_iterations + 1):
            mu, logvar = model.forward(cur, cur_mask)
            delta = np.zeros(len(rows))
            for k, h in holes.items():
                if not h.any():
                    continue
                mu_k = mu[k].data
                diff = np.where(h, np.abs(mu_k - cur[k]), 0.0)
                np.maximum(delta, diff.max(axis=(0, 2)), out=delta)
                cur[k][h] = mu_k[h]
            hit = delta < tolerance
            done = hit if it < max_iterations else np.ones(len(rows), bool)
            out = rows[done]
            for k in values:
                values[k][:, out] = cur[k][:, done]
                mu_out[k][:, out] = mu[k].data[:, done]
                sig_out[k][:, out] = np.sqrt(np.exp(logvar[k].data[:, done]))
            first_hit[out] = np.where(hit[done], it, 0)
            final_delta[out] = delta[done]
            if done.all():
                break
            keep = ~done
            rows = rows[keep]
            cur = {k: v[:, keep] for k, v in cur.items()}
            cur_mask = {k: v[:, keep] for k, v in cur_mask.items()}
            holes = {k: v[:, keep] for k, v in holes.items()}
        first_hit[cols][~has_holes] = 0

    dc.run_blocks(dc.row_blocks(b), run)
    return values, mu_out, sig_out, first_hit, final_delta


def impute(model, problem: ImputationProblem) -> ImputationResult:
    """Fill one physical-unit snapshot; observed entries pass through
    exactly. Non-convergence is flagged, not fatal."""
    node_ids = model.topology.ids()
    obs = {nid: np.asarray(problem.observed[nid], bool) for nid in node_ids}
    if not any(o.any() for o in obs.values()):
        raise ImputationError("at least one entry must be observed")

    std_f = {}
    for nid in node_ids:
        x = np.asarray(problem.features[nid], float)
        z = (x - model.std_mean[nid]) / model.std_std[nid]
        std_f[nid] = np.where(obs[nid], z, 0.0)
    packed_f = model.pack(std_f)
    packed_m = model.pack({nid: obs[nid].astype(float) for nid in node_ids})

    n_unobserved = sum((~o).sum() for o in obs.values())
    cur, _, sig, first_hit, _ = impute_packed(model, packed_f, packed_m)
    converged = n_unobserved == 0 or first_hit[0] > 0
    iterations = int(first_hit[0] or MAX_ITERATIONS) if n_unobserved else 0

    values, sigma = {}, {}
    filled = model.unpack({k: v[:, 0, :] for k, v in cur.items()})
    sig_std = model.unpack({k: v[:, 0, :] for k, v in sig.items()})
    for nid in node_ids:
        x = np.asarray(problem.features[nid], float)
        phys = filled[nid] * model.std_std[nid] + model.std_mean[nid]
        values[nid] = np.where(obs[nid], x, phys)
        sigma[nid] = sig_std[nid] * model.std_std[nid]
    return ImputationResult(values, sigma, {nid: obs[nid] for nid in node_ids},
                            iterations, bool(converged))
