"""Operator-facing analytics: congestion flagging and flexibility bids.

A congestion is flagged when the predicted voltage mean clears the
threshold by at least ``z`` standard deviations (one-sided Z-test); the
exceedance probability reported is Phi(z_score). A flexibility bid is
estimated by clamping the affected voltage channels to the target value
(as observed), masking the energy channels at the corresponding feeder
and substation, re-running imputation, and reading off the energy delta
that the model deems consistent with the clamped voltage.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gridgraph import ENERGY, NodeSchema
from .imputation import (ImputationProblem, impute, impute_packed,
                         voltage_channel_indices)
from .mpnn import NodePrediction


def phi(z: float) -> float:
    """Standard normal CDF via erf; absolute error well below 1e-7."""
    if math.isnan(z):
        raise ValueError("phi of NaN")
    if math.isinf(z):
        return 1.0 if z > 0 else 0.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


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


def detect_congestions(predictions: dict[str, NodePrediction],
                       schemas: dict[str, NodeSchema],
                       threshold_v: float = 240.0, z: float = 1.0,
                       timestamp: int = 0,
                       direction: str = "over") -> list[CongestionEvent]:
    """Scan voltage-channel predictions and emit one event per channel
    whose z-score reaches ``z``. With sigma == 0 the test degenerates to a
    strict mean/threshold comparison."""
    if direction not in ("over", "under"):
        raise ValueError(f"unknown direction {direction!r}")
    events = []
    for nid, pred in sorted(predictions.items()):
        schema = schemas[nid]
        idx = voltage_channel_indices(schema)
        names = [schema.channels()[c].name for c in idx]
        for k, name in enumerate(names):
            mu = float(pred.mu[k]) if len(pred.mu) == len(names) else float(pred.mu[idx[k]])
            sigma = (float(pred.sigma[k]) if len(pred.mu) == len(names)
                     else float(pred.sigma[idx[k]]))
            margin = (mu - threshold_v) if direction == "over" else (threshold_v - mu)
            if sigma > 0.0:
                score = margin / sigma
            else:
                score = math.inf if margin > 0 else -math.inf
            if score >= z:
                events.append(CongestionEvent(
                    node_id=nid, phase=name, timestamp=int(timestamp),
                    threshold=threshold_v, mu=mu, sigma=sigma,
                    z_score=score, exceedance_probability=phi(score),
                    direction=direction))
    return events


# ---------------------------------------------------------------------------
# Flexibility bids


@dataclass
class FlexibilityBid:
    """Energy change (kWh per 15-minute slot, positive = increase load)
    that removes the linked congestion events, per (feeder, timestamp)."""

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
                  max_iterations: int = 20,
                  tolerance: float = 1e-3) -> list[FlexibilityBid]:
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
        problem = ImputationProblem(features=feats, observed=obs,
                                    max_iterations=max_iterations,
                                    tolerance=tolerance)
        result = impute(model, problem)
        p_idx = model.schemas[feeder].channel_index()["load_p"]
        baseline = float(np.asarray(features[feeder], float)[p_idx])
        constrained = float(result.values[feeder][p_idx])
        bids.append(FlexibilityBid(
            substation_id=substation, feeder_id=feeder, timestamp=ts,
            baseline_energy=baseline, constrained_energy=constrained,
            delta=constrained - baseline,
            event_ids=[ev.event_id for ev in evs],
            low_confidence=not result.converged))
    return bids


# ---------------------------------------------------------------------------
# Batch scanning and exports


def scan_congestions(model, samples, schemas: dict[str, NodeSchema],
                     threshold_v: float = 240.0, z: float = 1.0,
                     direction: str = "over",
                     max_iterations: int = 20, tolerance: float = 1e-3):
    """Predict voltages for every sample (imputation with voltage masked)
    and flag congestions. Returns (events, plot_rows) where plot_rows hold
    (timestamp, node, phase, actual, mu, lo, hi, threshold, flagged)."""
    from .training import mask_channels, voltage_lag0_selector

    sel = voltage_lag0_selector(schemas, samples.groups)
    feats, masks = mask_channels(samples.features, samples.input_mask, sel)
    values, mu, sigma, first_hit, final_delta = impute_packed(
        model, feats, masks, max_iterations=max_iterations, tolerance=tolerance)

    events: list[CongestionEvent] = []
    plot_rows: list[dict] = []
    for g in samples.groups:
        flags = sel[g.key]
        if not flags.any():
            continue
        for j, nid in enumerate(g.node_ids):
            schema = schemas[nid]
            std, mean = model.std_std[nid], model.std_mean[nid]
            for c in np.where(flags[j])[0]:
                name = schema.channels()[c].name
                mu_phys = mu[g.key][j, :, c] * std[c] + mean[c]
                sig_phys = sigma[g.key][j, :, c] * std[c]
                actual = samples.targets[g.key][j, :, c] * std[c] + mean[c]
                known = samples.loss_mask[g.key][j, :, c] > 0
                margin = (mu_phys - threshold_v if direction == "over"
                          else threshold_v - mu_phys)
                score = np.where(sig_phys > 0, margin / np.maximum(sig_phys, 1e-300),
                                 np.where(margin > 0, np.inf, -np.inf))
                flagged = score >= z
                for i in range(len(mu_phys)):
                    ts = int(samples.timestamps[i])
                    if flagged[i]:
                        events.append(CongestionEvent(
                            node_id=nid, phase=name, timestamp=ts,
                            threshold=threshold_v, mu=float(mu_phys[i]),
                            sigma=float(sig_phys[i]), z_score=float(score[i]),
                            exceedance_probability=phi(float(score[i])),
                            direction=direction))
                    plot_rows.append({
                        "timestamp": ts, "node_id": nid, "phase": name,
                        "actual": float(actual[i]) if known[i] else "",
                        "mu": float(mu_phys[i]),
                        "lo": float(mu_phys[i] - 2 * sig_phys[i]),
                        "hi": float(mu_phys[i] + 2 * sig_phys[i]),
                        "threshold": threshold_v,
                        "flagged": int(flagged[i])})
    events.sort(key=lambda e: (e.timestamp, e.node_id, e.phase))
    return events, plot_rows


def write_jsonl(path: str, records: Sequence, header_comment: Optional[str] = None,
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
