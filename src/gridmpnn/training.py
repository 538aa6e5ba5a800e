"""Sample assembly, masked Gaussian NLL and the training loop.

Samples carry standardized features with an observed-mask; unobserved
entries hold the placeholder value (the per-channel training mean,
which is zero after standardization). Augmentation appends
``masked_clones`` of the training set (chosen channels masked from the
inputs, loss targets kept) with ``concat_sample_sets``. The loss,
``nll_loss_packed``, sums over observed entries only

    0.5 * log(var) + 0.5 * (y - mu)^2 / var

with the model's log-variance as input, so var is positive by
construction. Training runs shuffled mini-batches with Adam, records
per-epoch train/validation NLL and stops early when validation stops
improving; the returned parameters are the best-validation checkpoint.
The loop only needs a model exposing ``params`` and
``forward(features, mask, tape) -> (mu, logvar)`` over packed group
arrays, so the centralized baselines train through the same code path.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import AdamState, ContractError, Tape, adam_step, backward
from .gridgraph import ENERGY, NodeSchema, VOLTAGE, sensor_id
from .mpnn import NodeGroup, compute_groups


class DatasetError(ValueError):
    """No usable samples could be assembled."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    max_batch_size: int = 5000
    missing_threshold: float = 0.10
    augmentation_enabled: bool = True
    # additionally clone samples with feeder/substation current energy
    # masked (the bid-imputation pattern); off by default
    bid_augmentation_enabled: bool = False
    early_stopping_patience: int = 10
    max_epochs: int = 100
    batch_size: Optional[int] = None  # defaults to max_batch_size
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if not 0.0 <= self.missing_threshold <= 1.0:
            raise ContractError("missing_threshold must lie in [0, 1]")
        for name in ("max_batch_size", "early_stopping_patience"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.max_epochs < 0:
            raise ContractError("max_epochs cannot be negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ContractError("batch_size must be at least 1")
        if self.batch_size is not None and self.batch_size > self.max_batch_size:
            raise ContractError("batch_size cannot exceed max_batch_size")

    @property
    def effective_batch(self) -> int:
        return self.batch_size or self.max_batch_size

    def to_document(self) -> dict:
        return {k: getattr(self, k) for k in (
            "learning_rate", "max_batch_size", "missing_threshold",
            "augmentation_enabled", "bid_augmentation_enabled",
            "early_stopping_patience", "max_epochs", "batch_size", "seed")}

    @classmethod
    def from_document(cls, doc: dict) -> "TrainingConfig":
        known = cls().to_document()
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ContractError(f"unknown training keys: {', '.join(unknown)}")
        return cls(**doc)


@dataclass
class ChannelStats:
    """Per-node, per-channel standardization statistics."""

    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]


@dataclass
class Sample:
    """One timestamp: standardized per-node features with masks."""

    timestamp: int  # epoch seconds
    features: dict[str, np.ndarray]
    input_mask: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]
    loss_mask: dict[str, np.ndarray]
    missing_fraction: float


class SampleSet:
    """Group-packed sample storage: per node group, arrays of shape
    (n_nodes, n_samples, q)."""

    def __init__(self, groups: list[NodeGroup], stats: ChannelStats,
                 timestamps: np.ndarray):
        self.groups = groups
        self.stats = stats
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.features: dict[str, np.ndarray] = {}
        self.input_mask: dict[str, np.ndarray] = {}
        self.targets: dict[str, np.ndarray] = {}
        self.loss_mask: dict[str, np.ndarray] = {}
        self.missing_fraction = np.zeros(len(self.timestamps))

    def __len__(self) -> int:
        return len(self.timestamps)

    def batch(self, idx: np.ndarray) -> tuple[dict, dict, dict, dict]:
        # np.take keeps the batch C-contiguous (v[:, idx, :] does not), so
        # tape leaves use these arrays as they are instead of copying them
        f = {k: np.take(v, idx, axis=1) for k, v in self.features.items()}
        m = {k: np.take(v, idx, axis=1) for k, v in self.input_mask.items()}
        t = {k: np.take(v, idx, axis=1) for k, v in self.targets.items()}
        lm = {k: np.take(v, idx, axis=1) for k, v in self.loss_mask.items()}
        return f, m, t, lm

    def select(self, idx) -> "SampleSet":
        idx = np.asarray(idx)
        out = SampleSet(self.groups, self.stats, self.timestamps[idx])
        f, m, t, lm = self.batch(idx)
        out.features, out.input_mask, out.targets, out.loss_mask = f, m, t, lm
        out.missing_fraction = self.missing_fraction[idx].copy()
        return out

    def sample(self, i: int) -> Sample:
        feats, imask, targs, lmask = {}, {}, {}, {}
        for g in self.groups:
            for j, nid in enumerate(g.node_ids):
                feats[nid] = self.features[g.key][j, i]
                imask[nid] = self.input_mask[g.key][j, i]
                targs[nid] = self.targets[g.key][j, i]
                lmask[nid] = self.loss_mask[g.key][j, i]
        return Sample(int(self.timestamps[i]), feats, imask, targs, lmask,
                      float(self.missing_fraction[i]))


def compute_stats(dataset, topology, schemas: dict[str, NodeSchema],
                  eligible: np.ndarray) -> ChannelStats:
    """Per-channel mean/std over observed entries of the eligible range.
    Constant channels get std 1 so standardization stays invertible."""
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    for nid, schema in schemas.items():
        chans = schema.channels()
        m = np.zeros(len(chans))
        s = np.ones(len(chans))
        for c, ch in enumerate(chans):
            sid = _sensor_for(nid, schema, ch.var)
            vals = dataset.series[sid][eligible - ch.lag]
            obs = ~dataset.missing[sid][eligible - ch.lag]
            if obs.any():
                m[c] = vals[obs].mean()
                sd = vals[obs].std()
                s[c] = sd if sd > 1e-9 else 1.0
        mean[nid] = m
        std[nid] = s
    return ChannelStats(mean, std)


def _sensor_for(nid: str, schema: NodeSchema, var: str) -> str:
    if var in schema.weather_covariates:
        return sensor_id(nid, var, weather=True)
    return sensor_id(nid, var)


def build_samples(dataset, topology, schemas: dict[str, NodeSchema],
                  config: TrainingConfig,
                  stats: Optional[ChannelStats] = None) -> SampleSet:
    """One sample per eligible timestamp (lags available, missing fraction
    within threshold), standardized with training-period statistics."""
    max_lag = max((lag for s in schemas.values() for lag in s.ar_lags), default=0)
    if dataset.n_steps <= max_lag:
        raise DatasetError("dataset shorter than the lag horizon")
    eligible = np.arange(max_lag, dataset.n_steps)
    groups = compute_groups(topology, schemas)

    # raw values and observed flags, packed (n_nodes, n_eligible, q)
    raw: dict[str, np.ndarray] = {}
    obs: dict[str, np.ndarray] = {}
    for g in groups:
        vals = np.zeros((len(g.node_ids), len(eligible), g.q))
        ok = np.zeros((len(g.node_ids), len(eligible), g.q), dtype=bool)
        for j, nid in enumerate(g.node_ids):
            schema = schemas[nid]
            for c, ch in enumerate(schema.channels()):
                sid = _sensor_for(nid, schema, ch.var)
                if sid not in dataset.series:
                    raise DatasetError(f"dataset lacks series {sid!r}")
                vals[j, :, c] = dataset.series[sid][eligible - ch.lag]
                ok[j, :, c] = ~dataset.missing[sid][eligible - ch.lag]
        raw[g.key] = vals
        obs[g.key] = ok

    total_entries = sum(g.q * len(g.node_ids) for g in groups)
    unobserved = sum((~obs[g.key]).sum(axis=(0, 2)) for g in groups)
    frac = unobserved / total_entries
    keep = frac <= config.missing_threshold
    if not keep.any():
        raise DatasetError("no samples within the missing-data threshold")

    if stats is None:
        stats = compute_stats(dataset, topology, schemas, eligible[keep])

    secs = dataset.epoch_seconds()[eligible[keep]]
    out = SampleSet(groups, stats, secs)
    for g in groups:
        vals = raw[g.key][:, keep, :]
        ok = obs[g.key][:, keep, :]
        m = np.stack([stats.mean[nid] for nid in g.node_ids])[:, None, :]
        s = np.stack([stats.std[nid] for nid in g.node_ids])[:, None, :]
        z = (vals - m) / s
        out.features[g.key] = np.where(ok, z, 0.0)
        out.input_mask[g.key] = ok.astype(np.float64)
        out.targets[g.key] = np.where(ok, z, 0.0)
        out.loss_mask[g.key] = ok.astype(np.float64)
    out.missing_fraction = frac[keep]
    return out


def voltage_lag0_selector(schemas: dict[str, NodeSchema],
                          groups: list[NodeGroup]) -> dict[str, np.ndarray]:
    """Per group, bool (n_nodes, q) marking current-time voltage channels."""
    sel = {}
    for g in groups:
        flags = np.zeros((len(g.node_ids), g.q), dtype=bool)
        for j, nid in enumerate(g.node_ids):
            for c, ch in enumerate(schemas[nid].channels()):
                flags[j, c] = ch.category == VOLTAGE and ch.lag == 0
        sel[g.key] = flags
    return sel


def aggregate_energy_lag0_selector(schemas: dict[str, NodeSchema],
                                   groups: list[NodeGroup],
                                   ) -> dict[str, np.ndarray]:
    """Current-time energy channels at feeder/substation nodes (the pattern
    the bid-estimation service masks)."""
    sel = {}
    for g in groups:
        kind = g.key.split(":")[0]
        flags = np.zeros((len(g.node_ids), g.q), dtype=bool)
        if kind in ("feeder", "substation"):
            for j, nid in enumerate(g.node_ids):
                for c, ch in enumerate(schemas[nid].channels()):
                    flags[j, c] = ch.category == ENERGY and ch.lag == 0
        sel[g.key] = flags
    return sel


def mask_channels(features: dict[str, np.ndarray], mask: dict[str, np.ndarray],
                  sel: dict[str, np.ndarray],
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Copies of packed (n, B, q) features and observed-mask with the
    channels ``sel`` flags (per group, bool (n, q)) masked in every
    sample: placeholder value 0 and mask 0."""
    out_f, out_m = {}, {}
    for key, f in features.items():
        flags = sel[key][:, None, :]
        out_f[key] = np.where(flags, 0.0, f)
        out_m[key] = np.where(flags, 0.0, mask[key])
    return out_f, out_m


def masked_clones(samples: SampleSet, sel: dict[str, np.ndarray]) -> SampleSet:
    """Clones with the selected channels masked from the inputs
    (placeholder value, mask 0); loss targets kept so the clones teach
    imputing the masked channels."""
    if len(samples) == 0:
        raise DatasetError("cannot augment an empty sample set")
    out = SampleSet(samples.groups, samples.stats, samples.timestamps.copy())
    out.features, out.input_mask = mask_channels(
        samples.features, samples.input_mask, sel)
    total_entries = sum(g.q * len(g.node_ids) for g in samples.groups)
    unobserved = np.zeros(len(samples))
    for g in samples.groups:
        out.targets[g.key] = samples.targets[g.key].copy()
        out.loss_mask[g.key] = samples.loss_mask[g.key].copy()
        unobserved += (out.input_mask[g.key] == 0.0).sum(axis=(0, 2))
    out.missing_fraction = unobserved / total_entries
    return out


def concat_sample_sets(parts: Sequence[SampleSet]) -> SampleSet:
    out = SampleSet(parts[0].groups, parts[0].stats,
                    np.concatenate([p.timestamps for p in parts]))
    for g in parts[0].groups:
        for store, name in ((out.features, "features"),
                            (out.input_mask, "input_mask"),
                            (out.targets, "targets"),
                            (out.loss_mask, "loss_mask")):
            store[g.key] = np.concatenate(
                [getattr(p, name)[g.key] for p in parts], axis=1)
    out.missing_fraction = np.concatenate(
        [p.missing_fraction for p in parts])
    return out


# ---------------------------------------------------------------------------
# Loss


def nll_loss_packed(mu: dict, logvar: dict, targets: dict, loss_mask: dict,
                    tape: Optional[Tape]):
    """Taped masked NLL over packed groups; returns (sum tensor, n observed)."""
    total = None
    count = 0.0
    for key in mu:
        lv = logvar[key]
        d = dc.sub(targets[key], mu[key])
        terms = dc.add(dc.scale(lv, 0.5),
                       dc.scale(dc.mul(dc.mul(d, d), dc.exp(dc.neg(lv))), 0.5))
        masked = dc.reduce_sum(dc.mul(terms, loss_mask[key]))
        total = masked if total is None else dc.add(total, masked)
        count += float(np.asarray(loss_mask[key]).sum())
    return total, count


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    model: object
    history: list[dict]
    best_epoch: int
    best_val_nll: float


def evaluate_nll(model, samples: SampleSet, chunk: int = 2048) -> float:
    """Mean NLL per observed entry, forward passes only."""
    total, count = 0.0, 0.0
    for lo in range(0, len(samples), chunk):
        idx = np.arange(lo, min(lo + chunk, len(samples)))
        f, m, t, lm = samples.batch(idx)
        mu, logvar = model.forward(f, m, tape=None)
        loss, c = nll_loss_packed({k: v.data for k, v in mu.items()},
                                  {k: v.data for k, v in logvar.items()},
                                  t, lm, tape=None)
        total += float(loss.data)
        count += c
    if count == 0:
        raise DatasetError("no observed entries to evaluate")
    return total / count


def train(model, train_samples: SampleSet, val_samples: SampleSet,
          config: TrainingConfig) -> TrainResult:
    """Adam over shuffled mini-batches with validation-based early stopping.

    Returns the model carrying the best-validation parameters plus the
    per-epoch history (epoch, train_nll, val_nll, wall_seconds).
    """
    if len(train_samples) == 0:
        raise DatasetError("empty training set")
    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    history: list[dict] = []
    best_params = model.params.copy()
    best_val = evaluate_nll(model, val_samples) if len(val_samples) else np.inf
    best_epoch = 0
    n = len(train_samples)
    bsize = min(config.effective_batch, n)
    t0 = time.perf_counter()
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        run_sum, run_count = 0.0, 0.0
        for lo in range(0, n, bsize):
            idx = perm[lo:lo + bsize]
            f, m, t, lm = train_samples.batch(idx)
            tape = Tape()
            mu, logvar = model.forward(f, m, tape=tape)
            loss_sum, cnt = nll_loss_packed(mu, logvar, t, lm, tape)
            loss = dc.scale(loss_sum, 1.0 / max(cnt, 1.0))
            if not np.isfinite(loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {lo // bsize}")
            backward(tape, loss)
            adam_step(model.params, adam, config.learning_rate)
            run_sum += float(loss_sum.data)
            run_count += cnt
        train_nll = run_sum / max(run_count, 1.0)
        val_nll = evaluate_nll(model, val_samples) if len(val_samples) else train_nll
        history.append({"epoch": epoch, "train_nll": train_nll,
                        "val_nll": val_nll,
                        "wall_seconds": time.perf_counter() - t0})
        if val_nll < best_val:
            best_val = val_nll
            best_epoch = epoch
            best_params = model.params.copy()
        if epoch - best_epoch >= config.early_stopping_patience:
            break
    model.params.load_values(best_params)
    return TrainResult(model, history, best_epoch, float(best_val))


def chronological_split(samples: SampleSet,
                        val_fraction: float = 1.0 / 12.0,
                        ) -> tuple[SampleSet, SampleSet]:
    """Final contiguous slice of the time range becomes the validation set."""
    n = len(samples)
    order = np.argsort(samples.timestamps, kind="stable")
    cut = min(max(1, int(round(n * (1.0 - val_fraction)))), n - 1) if n > 1 else n
    return samples.select(order[:cut]), samples.select(order[cut:])


def write_history_csv(path: str, history: list[dict],
                      header_comment: Optional[str] = None) -> None:
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh)
        w.writerow(["epoch", "train_nll", "val_nll", "wall_seconds"])
        for row in history:
            w.writerow([row["epoch"], format(row["train_nll"], ".10g"),
                        format(row["val_nll"], ".10g"),
                        format(row["wall_seconds"], ".3f")])
