"""Sample assembly, masked Gaussian NLL and the training loop.

``gather_channels`` reads every channel of every node at given time
steps, packed per node group, from the series each channel of the
node's schema names. ``build_samples`` gathers a dataset once and fits
the per-channel standardization on what it gathered. A ``SampleSet``
stores standardized targets (float64, 0 where unobserved) with a bool
input mask and a bool loss mask; the model's input features, the
targets where the input mask is set and the placeholder 0 (the training
mean) elsewhere, are derived where they are read (``batch``, ``sample``,
``mask_channels``), as read-only arrays. Augmentation appends
``masked_clones`` of the training set with the current-time voltages
(``voltage_lag0_selector``) masked from the inputs and the loss targets
kept, joined with ``concat_sample_sets``. The loss, ``nll_loss_packed``,
is one engine layer, ``diffcore.gaussian_nll``: over the observed
entries, 0.5 * log(var) + 0.5 * (y - mu)^2 / var, var taken from the
model's log-variance, so positive by construction.

Training runs shuffled mini-batches of ``batch_size`` samples with Adam,
records per-epoch train/validation NLL, stops early when validation
stops improving and keeps the best-validation parameters. It needs only
a model with ``params`` and ``forward(features, mask, tape) -> (mu,
logvar)`` over packed groups that, on a tape, sets ``Tape.reverse``, so
the centralized baselines train through the same code path. Each
mini-batch trains as the row blocks ``diffcore.row_blocks`` cuts by its
row count alone (512 rows as 4 × 128), on the cores BLAS leaves free
(``diffcore.run_blocks``). A block records its forward on its own fork
of the step's tape, in the ``diffcore.Workspace`` of its worker thread,
scales its NLL sum by the batch's observed count and backpropagates
into a gradient buffer that ``_GradientSlots`` adds into the
parameters' gradients in block order and then reuses; one Adam step
follows the last block. So the trained bytes, and the validation NLL,
whose forwards ``imputation.blocked_forward`` cuts by the same rule,
depend on the block rule, never on the core count.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import AdamState, ContractError, Tape, adam_step, backward
from .gridgraph import VOLTAGE, NodeSchema, lag_horizon
from .imputation import blocked_forward
from .mpnn import NodeGroup, compute_groups

# Samples per validation forward.
EVAL_CHUNK = 2048


class DatasetError(ValueError):
    """No usable samples could be assembled."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    missing_threshold: float = 0.10
    early_stopping_patience: int = 10
    max_epochs: int = 100
    batch_size: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError("learning_rate must be positive and finite, "
                                f"not {self.learning_rate!r}")
        if not 0.0 <= self.missing_threshold <= 1.0:
            raise ContractError("missing_threshold must lie in [0, 1]")
        for name in ("batch_size", "early_stopping_patience"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.max_epochs < 0:
            raise ContractError("max_epochs cannot be negative")


@dataclass
class ChannelStats:
    """Per-node, per-channel standardization statistics."""

    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]


@dataclass
class Sample:
    """One timestamp, per node: read-only standardized features derived
    for this sample alone, the bool input and loss masks and the targets
    (views of the set's arrays)."""

    timestamp: int  # epoch seconds
    features: Mapping[str, np.ndarray]
    input_mask: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]
    loss_mask: dict[str, np.ndarray]


class SampleSet:
    """Group-packed sample storage: per node group, arrays of shape
    (n_nodes, n_samples, q).

    Only what cannot be derived is stored: the float64 ``targets`` and
    the bool ``input_mask`` and ``loss_mask``. The features, the targets
    where the input mask is set and 0 elsewhere, are derived where they
    are read, and are read-only, so a write to them fails instead of
    being lost.
    """

    def __init__(self, groups: list[NodeGroup], stats: ChannelStats,
                 timestamps: np.ndarray):
        self.groups = groups
        self.stats = stats
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.input_mask: dict[str, np.ndarray] = {}
        self.targets: dict[str, np.ndarray] = {}
        self.loss_mask: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.timestamps)

    def batch(self, idx: np.ndarray) -> tuple[Mapping, dict, dict, dict]:
        """Features, input mask, targets and loss mask of the samples
        ``idx``, in the model's and the loss's float64 form (masks 0/1)."""
        t, m, lm = (_take(a, idx) for a in (self.targets, self.input_mask,
                                            self.loss_mask))
        return (_features(t, m), {k: v.astype(np.float64) for k, v in m.items()},
                t, {k: v.astype(np.float64) for k, v in lm.items()})

    def select(self, idx) -> "SampleSet":
        idx = np.asarray(idx)
        out = SampleSet(self.groups, self.stats, self.timestamps[idx])
        out.targets = _take(self.targets, idx)
        out.input_mask = _take(self.input_mask, idx)
        out.loss_mask = _take(self.loss_mask, idx)
        return out

    def sample(self, i: int) -> Sample:
        t = {k: v[:, i] for k, v in self.targets.items()}
        m = {k: v[:, i] for k, v in self.input_mask.items()}
        lm = {k: v[:, i] for k, v in self.loss_mask.items()}
        packed = (_features(t, m), m, t, lm)
        per_node: tuple[dict, ...] = ({}, {}, {}, {})
        for g in self.groups:
            for j, nid in enumerate(g.node_ids):
                for out, arrays in zip(per_node, packed):
                    out[nid] = arrays[g.key][j]
        feats, imask, targs, lmask = per_node
        return Sample(int(self.timestamps[i]), MappingProxyType(feats), imask,
                      targs, lmask)


def _take(arrays: dict[str, np.ndarray], idx) -> dict[str, np.ndarray]:
    # np.take keeps the batch C-contiguous (v[:, idx, :] does not), so
    # tape leaves use these arrays as they are instead of copying them
    return {k: np.take(v, idx, axis=1) for k, v in arrays.items()}


def _features(targets: dict[str, np.ndarray],
              mask: dict[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """Model input features of packed samples: per group, the targets
    where ``mask`` is set and the placeholder 0 elsewhere. The mapping
    and its arrays are read-only: they are derived, so a write would be
    lost."""
    out = {}
    for key, m in mask.items():
        f = np.where(m, targets[key], 0.0)
        f.flags.writeable = False
        out[key] = f
    return MappingProxyType(out)


def gather_channels(dataset, groups: list[NodeGroup],
                    schemas: Mapping[str, NodeSchema], steps: np.ndarray,
                    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Raw values and observed flags of every channel at the time indices
    ``steps``, packed per group (n_nodes, len(steps), q): a channel at
    lag l reads its series at step - l."""
    raw: dict[str, np.ndarray] = {}
    obs: dict[str, np.ndarray] = {}
    for g in groups:
        vals = np.zeros((len(g.node_ids), len(steps), g.q))
        ok = np.zeros(vals.shape, dtype=bool)
        for j, nid in enumerate(g.node_ids):
            for c, ch in enumerate(schemas[nid].channels()):
                if ch.sensor not in dataset.series:
                    raise DatasetError(f"dataset lacks series {ch.sensor!r}")
                vals[j, :, c] = dataset.series[ch.sensor][steps - ch.lag]
                ok[j, :, c] = ~dataset.missing[ch.sensor][steps - ch.lag]
        raw[g.key] = vals
        obs[g.key] = ok
    return raw, obs


def build_samples(dataset, topology, schemas: dict[str, NodeSchema],
                  config: TrainingConfig,
                  stats: Optional[ChannelStats] = None) -> SampleSet:
    """One sample per eligible timestamp (lags available, missing fraction
    within threshold), standardized with ``stats``, which are fitted on
    the kept samples (``_moments``) when none are given."""
    lag = lag_horizon(schemas)
    if dataset.n_steps <= lag:
        raise DatasetError("dataset shorter than the lag horizon")
    eligible = np.arange(lag, dataset.n_steps)
    groups = compute_groups(topology, schemas)
    raw, obs = gather_channels(dataset, groups, schemas, eligible)

    total_entries = sum(g.q * len(g.node_ids) for g in groups)
    unobserved = sum((~obs[g.key]).sum(axis=(0, 2)) for g in groups)
    frac = unobserved / total_entries
    keep = frac <= config.missing_threshold
    if not keep.any():
        raise DatasetError("no samples within the missing-data threshold")

    fit = stats is None
    stats = stats or ChannelStats({}, {})
    secs = dataset.epoch_seconds()[eligible[keep]]
    out = SampleSet(groups, stats, secs)
    for g in groups:
        vals = raw[g.key][:, keep, :]
        ok = obs[g.key][:, keep, :]
        if fit:
            for j, nid in enumerate(g.node_ids):
                stats.mean[nid], stats.std[nid] = _moments(vals[j], ok[j])
        m = np.stack([stats.mean[nid] for nid in g.node_ids])[:, None, :]
        s = np.stack([stats.std[nid] for nid in g.node_ids])[:, None, :]
        z = (vals - m) / s
        out.targets[g.key] = np.where(ok, z, 0.0)
        out.input_mask[g.key] = ok
        out.loss_mask[g.key] = ok.copy()
    return out


def _moments(vals: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per channel of one node's (B, q) values, the mean and std of its
    observed entries: 0 and 1 for a channel never observed, std 1 for a
    constant one (std at most 1e-9), so standardization stays
    invertible."""
    mean, std = np.zeros(vals.shape[1]), np.ones(vals.shape[1])
    for c in range(vals.shape[1]):
        seen = vals[:, c][ok[:, c]]
        if seen.size:
            mean[c] = seen.mean()
            spread = seen.std()
            std[c] = spread if spread > 1e-9 else 1.0
    return mean, std


def voltage_lag0_selector(schemas: dict[str, NodeSchema],
                          groups: list[NodeGroup]) -> dict[str, np.ndarray]:
    """Per group, bool (n_nodes, q) marking current-time voltage channels."""
    sel = {}
    for g in groups:
        flags = np.zeros((len(g.node_ids), g.q), dtype=bool)
        for j, nid in enumerate(g.node_ids):
            flags[j, schemas[nid].lag0_indices(VOLTAGE)] = True
        sel[g.key] = flags
    return sel


def _hide(mask: dict[str, np.ndarray],
          sel: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Bool copies of packed (n, B, q) observed-masks with the channels
    ``sel`` flags (per group, bool (n, q)) unobserved in every sample."""
    return {key: np.logical_and(m, ~sel[key][:, None, :])
            for key, m in mask.items()}


def mask_channels(values: dict[str, np.ndarray], mask: dict[str, np.ndarray],
                  sel: dict[str, np.ndarray],
                  ) -> tuple[Mapping[str, np.ndarray], dict[str, np.ndarray]]:
    """Features and bool observed-mask of packed (n, B, q) samples with
    the channels ``sel`` flags (per group, bool (n, q)) masked in every
    sample: placeholder value 0 and mask False. ``values`` may be the
    targets or the features, which agree wherever the mask is set; the
    features are read-only."""
    masks = _hide(mask, sel)
    return _features(values, masks), masks


def masked_clones(samples: SampleSet, sel: dict[str, np.ndarray]) -> SampleSet:
    """Clones with the selected channels masked from the inputs
    (placeholder value, mask 0); loss targets kept so the clones teach
    imputing the masked channels."""
    if len(samples) == 0:
        raise DatasetError("cannot augment an empty sample set")
    out = SampleSet(samples.groups, samples.stats, samples.timestamps.copy())
    out.input_mask = _hide(samples.input_mask, sel)
    for g in samples.groups:
        out.targets[g.key] = samples.targets[g.key].copy()
        out.loss_mask[g.key] = samples.loss_mask[g.key].copy()
    return out


def concat_sample_sets(parts: Sequence[SampleSet]) -> SampleSet:
    out = SampleSet(parts[0].groups, parts[0].stats,
                    np.concatenate([p.timestamps for p in parts]))
    for g in parts[0].groups:
        for store, name in ((out.input_mask, "input_mask"),
                            (out.targets, "targets"),
                            (out.loss_mask, "loss_mask")):
            store[g.key] = np.concatenate(
                [getattr(p, name)[g.key] for p in parts], axis=1)
    return out


# ---------------------------------------------------------------------------
# Loss


def nll_loss_packed(mu: dict, logvar: dict, targets: dict, loss_mask: dict,
                    tape: Optional[Tape] = None):
    """Masked NLL over packed groups, one ``diffcore.gaussian_nll``
    record on ``tape`` (if any) after the forward's; returns (0-d sum
    array, n observed)."""
    count = sum(float(np.asarray(loss_mask[key]).sum()) for key in mu)
    return dc.gaussian_nll(mu, logvar, targets, loss_mask, tape), count


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    model: object
    history: list[dict]
    best_epoch: int
    best_val_nll: float


def evaluate_nll(model, samples: SampleSet) -> float:
    """Mean NLL per observed entry, forward passes only, over chunks of
    ``EVAL_CHUNK`` samples."""
    total, count = 0.0, 0.0
    for lo in range(0, len(samples), EVAL_CHUNK):
        idx = np.arange(lo, min(lo + EVAL_CHUNK, len(samples)))
        f, m, t, lm = samples.batch(idx)
        mu, logvar = blocked_forward(model, f, m)
        loss, c = nll_loss_packed(mu, logvar, t, lm)
        total += float(loss)
        count += c
    if count == 0:
        raise DatasetError("no observed entries to evaluate")
    return total / count


class _GradientSlots:
    """Gradient buffers for the blocks of a step, added into ``grads`` in
    block order.

    Block i takes a buffer once block i - ``limit`` has been added, so
    at most ``limit`` buffers exist and the earliest block never waits.
    A finished block's buffer is added as soon as every earlier block's
    is, and then reused.
    """

    def __init__(self, grads: dict[str, np.ndarray], limit: int):
        self.grads, self.limit = grads, limit
        self.free: list[dict[str, np.ndarray]] = []
        self.finished: dict[int, dict[str, np.ndarray]] = {}
        self.added = 0  # blocks of the current step added so far
        self.cond = threading.Condition()

    def take(self, i: int) -> dict[str, np.ndarray]:
        with self.cond:
            self.cond.wait_for(lambda: i < self.added + self.limit)
            if self.free:
                return self.free.pop()
        return {k: np.zeros_like(g) for k, g in self.grads.items()}

    def finish(self, i: int, slot: dict[str, np.ndarray]) -> None:
        with self.cond:
            self.finished[i] = slot
            while self.added in self.finished:
                done = self.finished.pop(self.added)
                for key, g in self.grads.items():
                    g += done[key]
                self.free.append(done)
                self.added += 1
            self.cond.notify_all()


def _train_block(model, samples: SampleSet, idx: np.ndarray, tape: Tape,
                 grads: dict[str, np.ndarray], scale: float,
                 workspace: Optional[dc.Workspace] = None) -> float:
    """One block's taped forward on a fork of ``tape`` (in ``workspace``'s
    buffers, if given), and, if its NLL sum is finite, the backward of
    that sum times ``scale`` (the seed of the reverse pass) into
    ``grads``, which it overwrites. Returns the NLL sum."""
    f, m, t, lm = samples.batch(idx)
    block_tape = tape.fork(grads, workspace)
    mu, logvar = model.forward(f, m, tape=block_tape)
    loss_sum, _ = nll_loss_packed(mu, logvar, t, lm, tape=block_tape)
    if np.isfinite(loss_sum):
        for g in grads.values():
            g[...] = 0.0
        backward(block_tape, loss_sum, scale)
    return float(loss_sum)


def train(model, train_samples: SampleSet, val_samples: SampleSet,
          config: TrainingConfig) -> TrainResult:
    """Adam over shuffled mini-batches with validation-based early stopping.

    Returns the model carrying the best-validation parameters plus the
    per-epoch history (epoch, train_nll, val_nll, wall_seconds). A
    non-finite loss raises ``TrainingError`` before its step updates
    anything, with the gradient accumulators zeroed.
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
    bsize = min(config.batch_size, n)
    # observed loss entries per sample
    observed = sum(m.sum(axis=(0, 2)) for m in train_samples.loss_mask.values())
    slots = _GradientSlots(model.params.grads, dc._WORKERS + 1)
    # one workspace per worker thread, which runs its blocks one by one
    workspaces: dict[int, dc.Workspace] = {}
    t0 = time.perf_counter()
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        run_sum, run_count = 0.0, 0.0
        for lo in range(0, n, bsize):
            idx = perm[lo:lo + bsize]
            cnt = float(observed[idx].sum())
            blocks = dc.row_blocks(len(idx))
            sums = [0.0] * len(blocks)
            tape = Tape()
            slots.added = 0  # this step's blocks count from 0

            def run(i: int) -> None:
                slot = slots.take(i)
                ws = workspaces.setdefault(threading.get_ident(),
                                           dc.Workspace())
                try:
                    sums[i] = _train_block(model, train_samples,
                                           idx[slice(*blocks[i])], tape,
                                           slot, 1.0 / max(cnt, 1.0), ws)
                finally:
                    slots.finish(i, slot)

            try:
                # run_blocks pops from the end: hand blocks out in order
                dc.run_blocks(list(range(len(blocks) - 1, -1, -1)), run)
                loss_sum = sum(sums)
                if not np.isfinite(loss_sum):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, "
                                        f"batch {lo // bsize}")
            except BaseException:
                model.params.zero_grads()  # drop the failed step's sum
                raise
            adam_step(model.params, adam, config.learning_rate)
            run_sum += loss_sum
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


def chronological_split(samples: SampleSet) -> tuple[SampleSet, SampleSet]:
    """The final twelfth of the samples in time order becomes the
    validation set."""
    n = len(samples)
    order = np.argsort(samples.timestamps, kind="stable")
    cut = min(max(1, int(round(n * (1.0 - 1.0 / 12.0)))), n - 1) if n > 1 else n
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
