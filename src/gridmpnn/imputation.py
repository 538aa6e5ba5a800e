"""Missing-data imputation by iterated forward inference.

Unobserved entries start at the placeholder value (per-channel training
mean) in ``impute`` and at whatever values they are given in
``impute_packed``; then the model's feed-forward pass repeatedly
replaces them with the decoded means until the largest standardized
update falls below the tolerance. Observed entries are
never modified. Voltage prediction, state estimation and bid estimation
are all specializations of this loop.

Batches iterate per sample: each sample exits at its own first hit, so
the forwards shrink as samples converge and a batched result does not
depend on the other samples in the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .gridgraph import VOLTAGE, NodeSchema
from .mpnn import NodePrediction


class ImputationError(ValueError):
    pass


@dataclass
class ImputationProblem:
    """Physical-unit snapshot with an observed-mask and query channels.

    ``query_channels`` (list of (node_id, channel_name)) selects what the
    report focuses on; it must be a subset of the unobserved channels.
    Empty means "all unobserved channels".
    """

    features: dict[str, np.ndarray]
    observed: dict[str, np.ndarray]
    query_channels: list[tuple[str, str]] = field(default_factory=list)
    max_iterations: int = 20
    tolerance: float = 1e-3  # normalized (standardized units), L-infinity


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

    def report_json(self, schemas: dict[str, NodeSchema]) -> str:
        return json.dumps(self.report_document(schemas), indent=2, sort_keys=True)


def impute_packed(model, features: dict[str, np.ndarray],
                  mask: dict[str, np.ndarray], max_iterations: int = 20,
                  tolerance: float = 1e-3):
    """Batched imputation over packed standardized arrays (n, B, q).

    Each forward runs only on the samples still pending. A sample leaves
    the batch at its first iteration whose update falls below the
    tolerance and keeps that iteration's values, mu and sigma; a sample
    that never gets there keeps those of iteration ``max_iterations``.
    Every sample is thus imputed as if it were alone, whatever else is
    in the batch.

    Returns (values, mu, sigma, first_hit, final_delta) where ``first_hit``
    is, per sample, the first iteration whose update dropped below the
    tolerance (0 when nothing is unobserved or it never converged), and
    ``final_delta`` its last update size.
    """
    if max_iterations < 1:
        raise ImputationError("max_iterations must be at least 1")
    b = next(iter(features.values())).shape[1]
    values = {k: v.copy() for k, v in features.items()}
    mu_out = {k: np.empty_like(v) for k, v in values.items()}
    sig_out = {k: np.empty_like(v) for k, v in values.items()}
    first_hit = np.zeros(b, dtype=int)
    final_delta = np.zeros(b)
    holes = {k: m == 0.0 for k, m in mask.items()}
    has_holes = np.zeros(b, dtype=bool)
    for h in holes.values():
        has_holes |= h.any(axis=(0, 2))
    rows = np.arange(b)  # the pending samples, in batch order
    cur, cur_mask = values, mask
    for it in range(1, max_iterations + 1):
        mu, logvar = model.forward(cur, cur_mask, tape=None)
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
    first_hit[~has_holes] = 0
    return values, mu_out, sig_out, first_hit, final_delta


def impute(model, problem: ImputationProblem) -> ImputationResult:
    """Fill one physical-unit snapshot; observed entries pass through
    exactly. Non-convergence is flagged, not fatal."""
    node_ids = model.topology.ids()
    obs = {nid: np.asarray(problem.observed[nid], bool) for nid in node_ids}
    if not any(o.any() for o in obs.values()):
        raise ImputationError("at least one entry must be observed")
    for nid, ch in problem.query_channels:
        c = model.schemas[nid].channel_index()[ch]
        if obs[nid][c]:
            raise ImputationError(
                f"query channel {nid}:{ch} is observed, nothing to impute")

    std_f = {}
    for nid in node_ids:
        x = np.asarray(problem.features[nid], float)
        z = (x - model.std_mean[nid]) / model.std_std[nid]
        std_f[nid] = np.where(obs[nid], z, 0.0)
    packed_f = model.pack(std_f)
    packed_m = model.pack({nid: obs[nid].astype(float) for nid in node_ids})

    n_unobserved = sum((~o).sum() for o in obs.values())
    cur, mu_d, sig, first_hit, final_delta = impute_packed(
        model, packed_f, packed_m, problem.max_iterations, problem.tolerance)
    iterations = int(first_hit[0]) if n_unobserved else 0
    converged = n_unobserved == 0 or float(final_delta[0]) < problem.tolerance
    if n_unobserved and iterations == 0:
        iterations = problem.max_iterations

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


def voltage_channel_indices(schema: NodeSchema) -> list[int]:
    """Indices of current-time voltage channels in a node's feature vector."""
    return [c for c, ch in enumerate(schema.channels())
            if ch.category == VOLTAGE and ch.lag == 0]


def predict_voltages(model, features: dict[str, np.ndarray],
                     observed: dict[str, np.ndarray],
                     max_iterations: int = 20,
                     tolerance: float = 1e-3) -> dict[str, NodePrediction]:
    """Voltage prediction as imputation: mask every current-time voltage
    channel, impute, and report mu/sigma per prosumer node (physical V)."""
    masked = {nid: np.asarray(observed[nid], bool).copy()
              for nid in model.topology.ids()}
    queries = []
    for nid, schema in model.schemas.items():
        for c in voltage_channel_indices(schema):
            masked[nid][c] = False
            queries.append((nid, schema.channels()[c].name))
    problem = ImputationProblem(features=features, observed=masked,
                                query_channels=queries,
                                max_iterations=max_iterations,
                                tolerance=tolerance)
    result = impute(model, problem)
    out = {}
    for nid, schema in model.schemas.items():
        idx = voltage_channel_indices(schema)
        if not idx:
            continue
        out[nid] = NodePrediction(
            nid,
            mu=result.values[nid][idx],
            var=np.square(result.sigma[nid][idx]))
    return out
