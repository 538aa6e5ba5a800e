"""Missing-data imputation as one forward inference.

A batch of packed standardized samples is forwarded once, untaped, with
every unobserved entry at the placeholder 0 the model is trained with;
its holes take the decoded mean mu, its sigma is sqrt(exp(logvar)), and
observed entries pass through exactly. Voltage prediction
(``services.predict_voltages``), state estimation and bid estimation are
all this one pass; ``impute`` runs it on packed physical-unit arrays,
converted with the statistics ``mpnn.ChannelStats.stacked`` stacks.

A batch is cut once into blocks by its row count alone, as training
steps are (``diffcore.row_blocks``), and each block is one forward on
the cores that BLAS leaves free (``diffcore.run_blocks``), through
``blocked_forward``, the pass ``training.evaluate_nll`` runs as well. A
sample's result is the one its block gives when imputed alone, whatever
the other blocks hold and however many cores run them.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc


class ImputationError(ValueError):
    pass


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


def impute(model, features: dict[str, np.ndarray],
           observed: dict[str, np.ndarray]):
    """Fill packed physical-unit snapshots (n, B, q), the observed-mask
    bool or float 0/1: standardized with the model's statistics, imputed
    by one ``impute_packed`` and restored. Returns packed physical
    (values, sigma); observed entries pass through exactly."""
    obs = {k: np.asarray(m) != 0 for k, m in observed.items()}
    if not any(o.any() for o in obs.values()):
        raise ImputationError("at least one entry must be observed")
    stats = {g.key: model.stats.stacked(g.node_ids) for g in model.groups}
    cur, _, sig, _ = impute_packed(
        model, {k: (np.asarray(features[k], float) - stats[k][0])
                / stats[k][1] for k in obs}, obs)
    values = {k: np.where(o, features[k], cur[k] * stats[k][1] + stats[k][0])
              for k, o in obs.items()}
    sigma = {k: sig[k] * stats[k][1] for k in obs}
    return values, sigma
