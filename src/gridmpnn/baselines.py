"""Centralized MLP / auto-encoder benchmarks and the metric suite.

Both baselines consume exactly the concatenation of the graph model's
node features (plus the observed-mask, like the graph encoders) and
emit Gaussian heads (mean and log-variance) over every channel, so
they train through the same loss, masking, augmentation and early
stopping as the graph model. The auto-encoder's bottleneck width is
the sum of the graph model's latent sizes. Every model's voltage
prediction is scored through ``services.predict_voltages``: one untaped
forward per row block, the masked voltages filled with its mean.

The flat layout is the deterministic group order of
``mpnn.compute_groups``: groups by layer shape, sorted by their ``q:p``
key, topology order within a group.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, ParameterSet, Tape
from .gridgraph import GridTopology, NodeSchema, total_feature_dim, total_latent_dim
from .gridsim import inject_missing
from .mpnn import VAR_CLAMP_HI, VAR_CLAMP_LO, ModelBase
from .services import predict_voltages
from .training import ChannelStats, SampleSet, TrainingConfig, build_samples


class MetricError(ValueError):
    pass


# Frozen hidden width for the "matched" 2-layer MLP benchmark: tuned once
# so the MLP/GNN parameter ratio lands at >= 5x on the pilot-shaped
# topology, then kept fixed across all comparisons.
BENCH_MLP_HIDDEN = 640


class CentralModel(ModelBase):
    """Flattened-input benchmark model (kind 'mlp' or 'ae').

    The MLP maps features+mask straight to all-channel Gaussian heads;
    the AE goes through a bottleneck equal to the summed latent sizes.
    Hidden layers are ``hidden`` wide (the benchmark config freezes a
    tuned value); 1 layer is a linear map, for degenerate test models.
    The constant inputs are flattened in numpy and reach the first layer
    as parts of one ``diffcore.dense`` input, and each group's mean and
    log-variance are read from the flat output with ``diffcore.regroup``.
    """

    def __init__(self, kind: str, topology: GridTopology,
                 schemas: dict[str, NodeSchema], hidden: int, layers: int = 2):
        if kind not in ("mlp", "ae"):
            raise ContractError(f"unknown baseline kind {kind!r}")
        if layers not in (1, 2, 3):
            raise ContractError("baseline layers must be 1, 2 or 3")
        self._init_base(topology, schemas)
        self.kind = kind
        self.layers = layers
        self.d_features = total_feature_dim(schemas)
        self.d_in = 2 * self.d_features
        self.d_out = 2 * self.d_features  # mu and log-variance heads
        self.bottleneck = total_latent_dim(schemas)
        mid = [int(hidden)] * (layers - 1)
        if kind == "mlp":
            self.layer_specs = [("net", [self.d_in, *mid, self.d_out])]
        else:
            self.layer_specs = [("enc", [self.d_in, *mid, self.bottleneck]),
                                ("dec", [self.bottleneck, *mid, self.d_out])]
        # fixed flat layout: group order, node order within group
        self._cols: dict[str, tuple[int, int]] = {}
        off = 0
        for g in self.groups:
            self._cols[g.key] = (off, off + len(g.node_ids) * g.q)
            off += len(g.node_ids) * g.q
        self.init_parameters()

    def init_parameters(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.params = ParameterSet()
        for name, spec in self.layer_specs:
            dc.mlp_init(self.params, name, spec, rng)

    def count_parameters(self) -> int:
        return self.params.n_scalars()

    def _flatten(self, packed: dict[str, np.ndarray]) -> np.ndarray:
        """(B, d_features) rows of packed (n, B, q) groups, each sample's
        nodes in the flat layout."""
        parts = []
        for g in self.groups:
            n, b, q = packed[g.key].shape
            parts.append(np.ascontiguousarray(
                packed[g.key].transpose(1, 0, 2)).reshape(b, n * q))
        return np.concatenate(parts, axis=1)

    def forward(self, features: dict[str, np.ndarray],
                mask: dict[str, np.ndarray], tape: Optional[Tape] = None):
        """Packed groups in, packed standardized (mu, logvar) out; same
        contract as the graph model's forward, rows rounded by BLAS the
        same way."""
        h = (self._flatten(features), self._flatten(mask))
        for name, spec in self.layer_specs:
            h = dc.mlp_forward(self.params, spec, name, h, tape=tape)
        mu, logvar = {}, {}
        for g in self.groups:
            lo, hi = self._cols[g.key]
            n, d = len(g.node_ids), self.d_features
            mu[g.key] = dc.regroup(h, lo, hi, n)
            logvar[g.key] = dc.clip(dc.regroup(h, d + lo, d + hi, n),
                                    np.log(VAR_CLAMP_LO), np.log(VAR_CLAMP_HI))
        return mu, logvar


def build_baseline(kind: str, topology: GridTopology,
                   schemas: dict[str, NodeSchema], hidden: int,
                   layers: int = 2, seed: int = 0) -> CentralModel:
    model = CentralModel(kind, topology, schemas, hidden, layers=layers)
    model.init_parameters(seed)
    return model


# ---------------------------------------------------------------------------
# Metrics


def mape_with_counts(actual, predicted) -> tuple[float, int, int]:
    """(MAPE %, entries used, zero-actual entries excluded)."""
    a = np.asarray(actual, float).reshape(-1)
    p = np.asarray(predicted, float).reshape(-1)
    if a.shape != p.shape:
        raise MetricError("actual and predicted lengths differ")
    nonzero = a != 0.0
    excluded = int((~nonzero).sum())
    if not nonzero.any():
        raise MetricError("all actual entries are zero; MAPE undefined")
    value = float(np.mean(np.abs(a[nonzero] - p[nonzero]) / np.abs(a[nonzero]))) * 100.0
    return value, int(nonzero.sum()), excluded


def rmse(actual, predicted) -> float:
    a = np.asarray(actual, float).reshape(-1)
    p = np.asarray(predicted, float).reshape(-1)
    if a.shape != p.shape:
        raise MetricError("actual and predicted lengths differ")
    if a.size == 0:
        raise MetricError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean(np.square(a - p))))


# ---------------------------------------------------------------------------
# Voltage-prediction evaluation (shared by graph and central models)


def evaluate_voltage_prediction(model, samples,
                                schemas: dict[str, NodeSchema]) -> dict:
    """Score ``services.predict_voltages`` against the known voltage
    targets in physical units.

    Returns {"mape", "rmse", "n", "iterations": per-sample ``filled``
    (see ``imputation.impute_packed``)}.
    """
    pred = predict_voltages(model, samples, schemas)
    actual = np.concatenate([pred.actual[k][use]
                             for k, use in pred.known.items()])
    predicted = np.concatenate([pred.mu[k][use]
                                for k, use in pred.known.items()])
    m, n_used, _ = mape_with_counts(actual, predicted)
    # "iterations" keeps its name: benchmarks/workloads.py reads it
    return {"mape": m, "rmse": rmse(actual, predicted), "n": n_used,
            "iterations": pred.filled}


# ---------------------------------------------------------------------------
# Comparison tables


@dataclass
class ComparisonRow:
    model: str
    layers: int
    mp_steps: Optional[int]
    params: int
    mape: float
    rmse: float

    def as_list(self) -> list:
        return [self.model, self.layers,
                self.mp_steps if self.mp_steps is not None else "-",
                self.params, format(self.mape, ".6g"), format(self.rmse, ".6g")]


def compare(entries: Sequence[tuple], test_samples,
            schemas: dict[str, NodeSchema],
            csv_path: Optional[str] = None,
            header_comment: Optional[str] = None) -> list[ComparisonRow]:
    """Evaluate (name, model, layers, mp_steps) tuples on one test set and
    emit rows shaped like the summary results table."""
    rows = []
    for name, model, layers, mp_steps in entries:
        res = evaluate_voltage_prediction(model, test_samples, schemas)
        rows.append(ComparisonRow(name, layers, mp_steps,
                                  model.count_parameters(),
                                  res["mape"], res["rmse"]))
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            w = csv.writer(fh)
            w.writerow(["model", "layers", "mp_steps", "params", "mape_pct",
                        "rmse"])
            for row in rows:
                w.writerow(row.as_list())
    return rows


def evaluation_samples(model, dataset, schemas: dict[str, NodeSchema],
                       config: TrainingConfig, rate: float) -> SampleSet:
    """The samples a model's voltage prediction is scored on at missing
    rate ``rate``: that share of the points of ``dataset`` flagged
    missing on top of its own gaps (drawn at ``config.seed``), and the
    features standardized with the model's statistics. A sample with
    more than ``config.missing_threshold`` of its inputs unobserved is
    dropped; above rate 0 the bound is max(0.5, 2 * rate), at most 1, so
    the injected gaps alone do not empty the set."""
    if rate > 0.0:
        dataset = inject_missing(dataset, rate, seed=config.seed)
        config = replace(config,
                         missing_threshold=min(1.0, max(0.5, 2 * rate)))
    return build_samples(dataset, model.topology, schemas, config,
                         stats=ChannelStats(model.std_mean, model.std_std))


def missing_rate_sweep(model, dataset_test, schemas: dict[str, NodeSchema],
                       config: TrainingConfig, rates: Sequence[float],
                       csv_path: Optional[str] = None,
                       header_comment: Optional[str] = None) -> list[dict]:
    """Re-evaluate voltage prediction on ``evaluation_samples`` at each
    missing rate; emits a table shaped like the missing-data impact
    summary."""
    rows = []
    for rate in rates:
        samples = evaluation_samples(model, dataset_test, schemas, config,
                                     rate)
        res = evaluate_voltage_prediction(model, samples, schemas)
        rows.append({"missing_rate": rate, "samples": len(samples),
                     "mape_pct": res["mape"], "rmse": res["rmse"]})
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            w = csv.writer(fh)
            w.writerow(["missing_rate", "samples", "mape_pct", "rmse"])
            for r in rows:
                w.writerow([r["missing_rate"], r["samples"],
                            format(r["mape_pct"], ".6g"),
                            format(r["rmse"], ".6g")])
    return rows
