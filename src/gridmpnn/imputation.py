"""Missing-data imputation as one forward inference.

A batch of packed standardized samples is forwarded once, untaped, with
every unobserved entry at the placeholder 0 the model is trained with;
its holes take the decoded mean mu, its sigma is sqrt(exp(logvar)), and
observed entries pass through exactly. Voltage prediction
(``services.predict_voltages``), state estimation and bid estimation are
all this one pass.

A batch is cut once into blocks by its row count alone, as training
steps are (``diffcore.row_blocks``), and each block is one forward on
the cores that BLAS leaves free (``diffcore.run_blocks``), through
``blocked_forward``, the pass ``training.evaluate_nll`` runs as well. A
sample's result is the one its block gives when imputed alone, whatever
the other blocks hold and however many cores run them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .gridgraph import NodeSchema


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

    def report_document(self, schemas: dict[str, NodeSchema]) -> dict:
        channels = {}
        for nid, schema in schemas.items():
            for c, ch in enumerate(schema.channels()):
                channels[f"{nid}:{ch.name}"] = {
                    "value": float(self.values[nid][c]),
                    "sigma": float(self.sigma[nid][c]),
                    "was_observed": bool(self.was_observed[nid][c]),
                }
        return {"channels": channels}


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
                dst[k][:, cols] = t

    dc.run_blocks(dc.row_blocks(rows), run)
    return mu, logvar


def impute_packed(model, features: dict[str, np.ndarray],
                  mask: dict[str, np.ndarray]):
    """Batched imputation over packed standardized arrays (n, B, q), the
    observed-mask bool or float 0/1: one ``blocked_forward`` with every
    unobserved entry at the placeholder 0, whatever ``features`` holds
    there.

    Returns (values, mu, sigma, filled): ``values`` holds the observed
    entries of ``features`` exactly and mu in the holes; mu and sigma =
    sqrt(exp(logvar)) are the forward's everywhere; ``filled`` is, per
    sample, 1 if it had a hole to fill, else 0.
    """
    holes = {k: np.asarray(m) == 0 for k, m in mask.items()}
    mu, sigma = blocked_forward(
        model, {k: np.where(holes[k], 0.0, v) for k, v in features.items()},
        mask)
    values = {k: np.where(holes[k], mu[k], v) for k, v in features.items()}
    for s in sigma.values():
        np.sqrt(np.exp(s, out=s), out=s)
    # position 3 stays a per-sample count: benchmarks/tracing.py reads it
    filled = np.zeros(next(iter(features.values())).shape[1], dtype=int)
    for h in holes.values():
        filled |= h.any(axis=(0, 2))
    return values, mu, sigma, filled


def impute(model, problem: ImputationProblem) -> ImputationResult:
    """Fill one physical-unit snapshot; observed entries pass through
    exactly."""
    node_ids = model.topology.ids()
    obs = {nid: np.asarray(problem.observed[nid], bool) for nid in node_ids}
    if not any(o.any() for o in obs.values()):
        raise ImputationError("at least one entry must be observed")

    packed_f = model.pack({
        nid: (np.asarray(problem.features[nid], float) - model.std_mean[nid])
        / model.std_std[nid] for nid in node_ids})
    packed_m = model.pack({nid: obs[nid].astype(float) for nid in node_ids})

    cur, _, sig, _ = impute_packed(model, packed_f, packed_m)
    values, sigma = {}, {}
    filled = model.unpack({k: v[:, 0, :] for k, v in cur.items()})
    sig_std = model.unpack({k: v[:, 0, :] for k, v in sig.items()})
    for nid in node_ids:
        x = np.asarray(problem.features[nid], float)
        phys = filled[nid] * model.std_std[nid] + model.std_mean[nid]
        values[nid] = np.where(obs[nid], x, phys)
        sigma[nid] = sig_std[nid] * model.std_std[nid]
    return ImputationResult(values, sigma, {nid: obs[nid] for nid in node_ids})
