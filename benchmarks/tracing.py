"""Span tracing around the calls into each gridmpnn module.

The benchmark never edits the library: it swaps a timing wrapper in for
a public function at the place where the caller looks the name up, runs
the workload, and puts the original back. ``training``, ``imputation``
and ``services`` bind ``backward``, ``adam_step``, ``impute`` and
``impute_packed`` at import, so those are wrapped in the importing
module (``training.backward``, ``services.impute`` ...), not only in the
defining one.

Spans are kept in memory as (name, start, end, parent, phase) and
written out once the run ends; self times are derived from them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from gridmpnn import (baselines, gridsim, imputation, mpnn, services,
                      training)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    phase: str


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.phase))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def peak(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = max(self.counts[key], value)

    def children(self, idx: int, name: str) -> int:
        return sum(1 for s in self.spans[idx + 1:]
                   if s.parent == idx and s.name == name)

    def totals(self, phase: str) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per span name in a phase."""
        incl: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        own: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.phase != phase:
                continue
            incl[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - child[i]
        return incl, own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "phase": s.phase}) + "\n")


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries


def _on_forward(tr: Tracer, idx, args, kwargs, result) -> None:
    model, features = args[0], args[1]
    tr.count("mpnn.forward_calls")
    tr.count("mpnn.forward_samples", next(iter(features.values())).shape[1])
    tr.peak("diffcore.param_arrays", len(model.params))


def _on_backward(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("diffcore.tape_nodes", len(args[0].nodes))
    tr.count("diffcore.backward_calls")


def _on_adam(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("training.steps")


def _on_impute_packed(tr: Tracer, idx, args, kwargs, result) -> None:
    mask = args[2]
    first_hit = result[3]
    holes = np.zeros(len(first_hit), dtype=bool)
    for m in mask.values():
        holes |= (m == 0.0).any(axis=(0, 2))
    forwards = tr.children(idx, "mpnn.forward")
    needed = np.where(first_hit > 0, first_hit, forwards)
    tr.count("imputation.impute_packed_calls")
    tr.count("imputation.samples", len(first_hit))
    tr.count("imputation.iterations", float(needed.sum()))
    tr.count("imputation.unconverged", float((holes & (first_hit == 0)).sum()))
    tr.count("imputation.rows_forwarded", float(len(first_hit) * forwards))


def _on_impute(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("imputation.impute_calls")


def _on_read_csv(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("gridsim.csv_rows", result.n_points())


def _on_scan(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("services.events", len(result[0]))


def _on_bids(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.count("services.events", len(args[3]))
    tr.count("services.bids", len(result))
    tr.count("services.low_confidence_bids",
             sum(1 for b in result if b.low_confidence))


# (owner, attribute, span name, counter hook). Methods are patched on the
# class, where ``self.encode`` and friends are looked up.
TARGETS = [
    (gridsim, "simulate", "gridsim.simulate", None),
    (gridsim.TimeSeriesDataset, "write_csv", "gridsim.write_csv", None),
    (gridsim.TimeSeriesDataset, "read_csv", "gridsim.read_csv", _on_read_csv),
    (training, "build_samples", "training.build_samples", None),
    (training, "masked_clones", "training.augment", None),
    (training, "concat_sample_sets", "training.augment", None),
    (training, "evaluate_nll", "training.evaluate_nll", None),
    (training, "nll_loss_packed", "training.loss", None),
    (training.SampleSet, "batch", "training.batch", None),
    (training, "backward", "diffcore.backward", _on_backward),
    (training, "adam_step", "diffcore.adam_step", _on_adam),
    (mpnn.GnnModel, "forward", "mpnn.forward", _on_forward),
    (mpnn.GnnModel, "encode", "mpnn.encode", None),
    (mpnn.GnnModel, "message_pass", "mpnn.message_pass", None),
    (mpnn.GnnModel, "decode", "mpnn.decode", None),
    (mpnn.GnnModel, "load_checkpoint", "mpnn.checkpoint_load", None),
    (imputation, "impute_packed", "imputation.impute_packed",
     _on_impute_packed),
    (services, "impute_packed", "imputation.impute_packed",
     _on_impute_packed),
    (imputation, "impute", "imputation.impute", _on_impute),
    (services, "impute", "imputation.impute", _on_impute),
    (services, "scan_congestions", "services.scan_congestions", _on_scan),
    (services, "estimate_bids", "services.estimate_bids", _on_bids),
    (baselines, "evaluate_voltage_prediction",
     "baselines.evaluate_voltage_prediction", None),
]


def _wrap(tr: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        with tr.span(name) as idx:
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tr, idx, args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented(tr: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in TARGETS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tr, raw.__func__, name, hook))
            else:
                new = _wrap(tr, raw, name, hook)
            setattr(owner, attr, new)
        yield tr
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# Per-layer metrics

QUALITY_UNITS = {"voltage_mape_pct": "%", "bid_right_sign_share": "ratio"}

# inclusive seconds per op in the timed region
_INCLUSIVE = ("training.build_samples", "training.augment",
              "training.evaluate_nll", "training.batch", "training.loss",
              "diffcore.backward", "diffcore.adam_step",
              "imputation.impute_packed", "imputation.impute")
# seconds in one set-up: these layers run nowhere else
_SETUP = ("gridsim.simulate", "gridsim.write_csv", "gridsim.read_csv",
          "mpnn.checkpoint_load")
_SELF = ("mpnn.encode", "mpnn.message_pass", "mpnn.decode")
_SELF_SUFFIXED = ("services.scan_congestions", "services.estimate_bids",
                  "baselines.evaluate_voltage_prediction")
_COUNTS_PER_OP = ("training.steps", "mpnn.forward_calls",
                  "imputation.impute_packed_calls", "imputation.impute_calls",
                  "services.events", "services.bids",
                  "services.low_confidence_bids")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed region, with times and plain counts
    per op, and of the set-up for the layers only set-up calls. A layer
    the workload never calls reads 0."""
    incl, own = tr.totals("timed")
    setup_incl, _ = tr.totals("setup")
    c = defaultdict(float, {name: v for (phase, name), v in tr.counts.items()
                            if phase == "timed"})
    out: dict[str, tuple[float, str]] = {}
    for name in _INCLUSIVE:
        out[f"{name}_s"] = (incl[name] / n_ops, "s")
    for name in _SETUP:
        out[f"{name}_s"] = (setup_incl[name], "s")
    out["gridsim.csv_rows"] = (tr.counts[("setup", "gridsim.csv_rows")],
                               "count")
    for name in _SELF:
        out[f"{name}_s"] = (own[name] / n_ops, "s")
    for name in _SELF_SUFFIXED:
        out[f"{name}_self_s"] = (own[name] / n_ops, "s")
    for name in _COUNTS_PER_OP:
        out[name] = (c[name] / n_ops, "count")
    out["diffcore.tape_nodes_per_step"] = (
        _ratio(c["diffcore.tape_nodes"], c["diffcore.backward_calls"]),
        "count")
    out["diffcore.param_arrays"] = (c["diffcore.param_arrays"], "count")
    out["mpnn.forward_samples_per_call"] = (
        _ratio(c["mpnn.forward_samples"], c["mpnn.forward_calls"]),
        "count")
    out["mpnn.forward_ms_per_call"] = (
        _ratio(1e3 * incl["mpnn.forward"], c["mpnn.forward_calls"]),
        "ms")
    out["imputation.iterations_mean"] = (
        _ratio(c["imputation.iterations"], c["imputation.samples"]),
        "count")
    out["imputation.unconverged_share"] = (
        _ratio(c["imputation.unconverged"], c["imputation.samples"]),
        "ratio")
    out["imputation.useful_row_share"] = (
        _ratio(c["imputation.iterations"], c["imputation.rows_forwarded"]),
        "ratio")
    return out
