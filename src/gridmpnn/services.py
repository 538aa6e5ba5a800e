"""Operator-facing analytics on one voltage prediction: congestion flags
and flexibility bids.

``predict_voltages`` is the voltage-prediction service: it masks every
current-time voltage channel of a sample batch, imputes them in one
``impute_packed`` pass and returns mu and sigma next to the actual
voltages, in volts. ``baselines.evaluate_voltage_prediction`` scores it
and ``scan_congestions`` flags from it. A congestion is flagged when the
predicted mean clears the threshold by at least ``z`` standard
deviations, the one-sided Z-test of ``z_scores``; the exceedance
probability reported is Phi(z_score). A flexibility bid is estimated by
clamping the affected voltage channels to the target value (as
observed), masking the energy channels at the corresponding feeder and
substation, imputing, and reading off the energy delta that the model
deems consistent with the clamped voltage. Every service imputes by one
untaped forward per row block (``imputation.impute_packed``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gridgraph import ENERGY, NodeSchema
from .imputation import ImputationProblem, impute, impute_packed
from .training import mask_channels, voltage_lag0_selector


def phi(z: float) -> float:
    """Standard normal CDF via erf; absolute error well below 1e-7."""
    if math.isnan(z):
        raise ValueError("phi of NaN")
    if math.isinf(z):
        return 1.0 if z > 0 else 0.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass
class VoltagePrediction:
    """Voltages predicted for a sample batch, in volts. Per group with a
    current-time voltage channel: ``flags`` (n_nodes, q) marks those
    channels; ``mu``, ``sigma`` and ``actual`` are (n_nodes, B, q);
    ``known`` is True where a channel is flagged and its actual is known.
    ``filled`` is the imputation's, per sample (see ``impute_packed``)."""

    flags: dict[str, np.ndarray]
    mu: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]
    actual: dict[str, np.ndarray]
    known: dict[str, np.ndarray]
    filled: np.ndarray


def predict_voltages(model, samples,
                     schemas: dict[str, NodeSchema]) -> VoltagePrediction:
    """Mask every current-time voltage channel of the samples, impute them
    in one batched pass and un-standardize the prediction."""
    sel = voltage_lag0_selector(schemas, samples.groups)
    feats, masks = mask_channels(samples.targets, samples.input_mask, sel)
    _, mu, sigma, filled = impute_packed(model, feats, masks)
    pred = VoltagePrediction({}, {}, {}, {}, {}, filled)
    for g in samples.groups:
        flags = sel[g.key]
        if not flags.any():
            continue
        std = np.stack([model.std_std[nid] for nid in g.node_ids])[:, None, :]
        mean = np.stack([model.std_mean[nid] for nid in g.node_ids])[:, None, :]
        pred.flags[g.key] = flags
        pred.mu[g.key] = mu[g.key] * std + mean
        pred.sigma[g.key] = sigma[g.key] * std
        pred.actual[g.key] = samples.targets[g.key] * std + mean
        pred.known[g.key] = flags[:, None, :] & samples.loss_mask[g.key]
    return pred


def z_scores(mu, sigma, threshold_v: float, direction: str) -> np.ndarray:
    """One-sided Z-test statistic per entry: (mu - threshold) / sigma for
    ``over``, (threshold - mu) / sigma for ``under``. Where sigma is 0 the
    score is +inf if the margin is positive and -inf otherwise, so the
    test degenerates to a strict mean/threshold comparison."""
    if direction not in ("over", "under"):
        raise ValueError(f"unknown direction {direction!r}")
    mu, sigma = np.asarray(mu, float), np.asarray(sigma, float)
    margin = mu - threshold_v if direction == "over" else threshold_v - mu
    return np.where(sigma > 0, margin / np.maximum(sigma, 1e-300),
                    np.where(margin > 0, np.inf, -np.inf))


@dataclass
class CongestionEvent:
    """A flagged threshold exceedance on one voltage channel."""

    node_id: str
    phase: str  # voltage channel name ('voltage', 'voltage_b', ...)
    timestamp: int  # epoch seconds
    threshold: float
    mu: float
    sigma: float
    z_score: float
    exceedance_probability: float
    direction: str = "over"

    @property
    def event_id(self) -> str:
        return f"{self.node_id}:{self.phase}@{self.timestamp}"

    def to_document(self) -> dict:
        return {
            "event_id": self.event_id,
            "node_id": self.node_id,
            "phase": self.phase,
            "timestamp": int(self.timestamp),
            "threshold": self.threshold,
            "mu": self.mu,
            "sigma": self.sigma,
            "z_score": self.z_score,
            "exceedance_probability": self.exceedance_probability,
            "direction": self.direction,
        }


# ---------------------------------------------------------------------------
# Flexibility bids


@dataclass
class FlexibilityBid:
    """Energy change (kWh per 15-minute slot, positive = increase load)
    that removes the linked congestion events, per (feeder, timestamp).
    ``low_confidence`` is kept for a bid whose slope has the wrong sign;
    no rule sets it yet, so it is False."""

    substation_id: str
    feeder_id: str
    timestamp: int
    baseline_energy: float
    constrained_energy: float
    delta: float
    event_ids: list[str] = field(default_factory=list)
    low_confidence: bool = False

    def to_document(self) -> dict:
        return {
            "substation_id": self.substation_id,
            "feeder_id": self.feeder_id,
            "timestamp": int(self.timestamp),
            "baseline_energy_kwh": self.baseline_energy,
            "constrained_energy_kwh": self.constrained_energy,
            "delta_kwh": self.delta,
            "event_ids": list(self.event_ids),
            "low_confidence": self.low_confidence,
        }


def _energy_lag0_indices(schema: NodeSchema) -> list[int]:
    return [c for c, ch in enumerate(schema.channels())
            if ch.category == ENERGY and ch.lag == 0]


def estimate_bids(model, features: dict[str, np.ndarray],
                  observed: dict[str, np.ndarray],
                  events: Sequence[CongestionEvent],
                  target_voltage: Optional[float] = None,
                  ) -> list[FlexibilityBid]:
    """One merged bid per (feeder, timestamp): clamp every flagged voltage
    channel to the target (max target wins on duplicates), mask the feeder
    and substation energy channels, impute, and report the energy delta."""
    topo = model.topology
    by_feeder: dict[tuple[str, int], list[CongestionEvent]] = {}
    for ev in events:
        feeder = topo.parent[ev.node_id]
        by_feeder.setdefault((feeder, int(ev.timestamp)), []).append(ev)

    bids = []
    for (feeder, ts), evs in sorted(by_feeder.items()):
        substation = topo.parent[feeder]
        feats = {nid: np.asarray(features[nid], float).copy()
                 for nid in topo.ids()}
        obs = {nid: np.asarray(observed[nid], bool).copy()
               for nid in topo.ids()}
        clamp: dict[tuple[str, int], float] = {}
        for ev in evs:
            target = target_voltage if target_voltage is not None else ev.threshold
            cidx = model.schemas[ev.node_id].channel_index()[ev.phase]
            key = (ev.node_id, cidx)
            clamp[key] = max(clamp.get(key, -math.inf), target)
        for (nid, cidx), target in sorted(clamp.items()):
            feats[nid][cidx] = target
            obs[nid][cidx] = True
        for nid in (feeder, substation):
            for c in _energy_lag0_indices(model.schemas[nid]):
                obs[nid][c] = False
        result = impute(model, ImputationProblem(features=feats, observed=obs))
        p_idx = model.schemas[feeder].channel_index()["load_p"]
        baseline = float(np.asarray(features[feeder], float)[p_idx])
        constrained = float(result.values[feeder][p_idx])
        bids.append(FlexibilityBid(
            substation_id=substation, feeder_id=feeder, timestamp=ts,
            baseline_energy=baseline, constrained_energy=constrained,
            delta=constrained - baseline,
            event_ids=[ev.event_id for ev in evs]))
    return bids


# ---------------------------------------------------------------------------
# Batch scanning and exports


def scan_congestions(model, samples, schemas: dict[str, NodeSchema],
                     threshold_v: float = 240.0, z: float = 1.0,
                     direction: str = "over"):
    """Flag congestions on ``predict_voltages``. Returns (events,
    plot_rows) where plot_rows hold (timestamp, node, phase, actual, mu,
    lo, hi, threshold, flagged), channel by channel in group order."""
    pred = predict_voltages(model, samples, schemas)
    timestamps = [int(t) for t in samples.timestamps]
    events: list[CongestionEvent] = []
    plot_rows: list[dict] = []
    for g in samples.groups:
        if g.key not in pred.flags:
            continue
        mu, sigma = pred.mu[g.key], pred.sigma[g.key]
        score = z_scores(mu, sigma, threshold_v, direction)
        columns = (mu, sigma, mu - 2 * sigma, mu + 2 * sigma, score,
                   score >= z, pred.actual[g.key], pred.known[g.key])
        for j, c in zip(*np.nonzero(pred.flags[g.key])):
            nid = g.node_ids[j]
            name = schemas[nid].channels()[c].name
            rows = zip(timestamps, *(col[j, :, c].tolist() for col in columns))
            for ts, m, s, lo, hi, sc, flagged, actual, known in rows:
                if flagged:
                    events.append(CongestionEvent(
                        node_id=nid, phase=name, timestamp=ts,
                        threshold=threshold_v, mu=m, sigma=s, z_score=sc,
                        exceedance_probability=phi(sc), direction=direction))
                plot_rows.append({
                    "timestamp": ts, "node_id": nid, "phase": name,
                    "actual": actual if known else "", "mu": m,
                    "lo": lo, "hi": hi, "threshold": threshold_v,
                    "flagged": int(flagged)})
    events.sort(key=lambda e: (e.timestamp, e.node_id, e.phase))
    return events, plot_rows


def write_jsonl(path: str, records: Sequence,
                meta: Optional[dict] = None) -> None:
    """Events/bids as JSON lines; an optional meta record goes first."""
    with open(path, "w") as fh:
        if meta:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for rec in records:
            doc = rec.to_document() if hasattr(rec, "to_document") else rec
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def write_plot_csv(path: str, plot_rows: Sequence[dict],
                   header_comment: Optional[str] = None) -> None:
    cols = ["timestamp", "node_id", "phase", "actual", "mu", "lo", "hi",
            "threshold", "flagged"]
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh)
        w.writerow(cols)
        for row in plot_rows:
            w.writerow([row[c] if not isinstance(row[c], float)
                        else format(row[c], ".10g") for c in cols])
