"""Congestion flagging and bid estimation mechanics."""

import json
import math

import numpy as np
import pytest

from gridmpnn.services import (CongestionEvent, estimate_bids, phi,
                               predict_voltages, scan_congestions,
                               write_jsonl, write_plot_csv, z_scores)
from gridmpnn.imputation import ImputationProblem, impute

from conftest import chain_samples


def test_phi_standard_values():
    assert phi(0.0) == pytest.approx(0.5, abs=1e-12)
    assert phi(1.0) == pytest.approx(0.8413, abs=5e-5)
    assert abs(phi(1.0) - 0.8413447460685429) < 1e-12


def test_phi_symmetry():
    for z in np.linspace(-4, 4, 33):
        assert phi(-z) == pytest.approx(1.0 - phi(z), abs=1e-12)
    assert phi(math.inf) == 1.0
    assert phi(-math.inf) == 0.0


def test_detect_flags_one_sigma_exceedance():
    score = z_scores(242.0, 2.0, 240.0, "over")
    assert score == pytest.approx(1.0)
    assert score >= 1.0
    assert phi(score) == pytest.approx(0.8413, abs=5e-5)


def test_detect_does_not_flag_at_threshold_mean():
    assert not z_scores(240.0, 2.0, 240.0, "over") >= 1.0


def test_detect_flags_far_exceedance():
    assert z_scores(245.0, 1.0, 240.0, "over") == pytest.approx(5.0)


def test_detect_zero_sigma_degenerates_to_mean_comparison():
    assert z_scores(240.5, 0.0, 240.0, "over") == math.inf
    assert z_scores(240.0, 0.0, 240.0, "over") == -math.inf
    assert z_scores(240.5, 0.0, 241.0, "under") == math.inf


def test_undervoltage_mode():
    assert z_scores(214.0, 2.0, 218.0, "under") == pytest.approx(2.0)
    assert z_scores(214.0, 2.0, 218.0, "over") == pytest.approx(-2.0)


def test_flag_monotonicity_in_mu_and_threshold():
    rng = np.random.default_rng(5)
    mu = rng.uniform(230, 250, 200)
    sigma = rng.uniform(0.1, 4.0, 200)
    thr = rng.uniform(235, 245, 200)
    z = rng.uniform(0.5, 2.0, 200)
    flagged = z_scores(mu, sigma, thr, "over") >= z
    higher = z_scores(mu + 1.0, sigma, thr, "over") >= z
    stricter = z_scores(mu, sigma, thr + 1.0, "over") >= z
    assert np.all(higher[flagged])
    assert np.all(flagged[stricter])


def test_event_probability_consistent_with_z_score():
    rng = np.random.default_rng(6)
    mu, sigma = rng.uniform(238, 246, 100), rng.uniform(0.2, 3, 100)
    for m, s, score in zip(mu, sigma, z_scores(mu, sigma, 240.0, "over")):
        assert abs(phi(score) - phi((m - 240.0) / s)) < 1e-4


# ---------------------------------------------------------------------------
# Bids (mechanics on the chain model; physics checks live in acceptance)


def test_nothing_masked_preserves_energy_delta_zero(quick_chain_model):
    feats = {"g": np.array([0.7]), "s": np.array([0.2]),
             "f": np.array([0.1])}
    obs = {nid: np.array([True]) for nid in feats}
    result = impute(quick_chain_model, ImputationProblem(
        features=feats, observed=obs))
    assert result.iterations == 0
    assert result.values["s"][0] - feats["s"][0] == 0.0


def test_bid_groups_events_per_feeder_timestamp(quick_pilot_bid_world):
    model, feats, obs, events = quick_pilot_bid_world
    bids = estimate_bids(model, feats, obs, events)
    keys = {(b.feeder_id, b.timestamp) for b in bids}
    assert len(bids) == len(keys)
    two_event_bids = [b for b in bids if len(b.event_ids) == 2]
    assert two_event_bids, "expected one merged bid for the shared feeder"


def test_bid_delta_definition_and_determinism(quick_pilot_bid_world):
    model, feats, obs, events = quick_pilot_bid_world
    a = estimate_bids(model, feats, obs, events)
    b = estimate_bids(model, feats, obs, events)
    for x, y in zip(a, b):
        assert x.delta == y.delta
        assert x.delta == pytest.approx(x.constrained_energy
                                        - x.baseline_energy)
        assert x.substation_id == model.topology.parent[x.feeder_id]


def test_single_event_bid(quick_pilot_bid_world):
    model, feats, obs, events = quick_pilot_bid_world
    bids = estimate_bids(model, feats, obs, events[:1])
    assert [b.event_ids for b in bids] == [[events[0].event_id]]


# ---------------------------------------------------------------------------
# exports


def test_jsonl_and_plot_csv_writers(tmp_path):
    ev = CongestionEvent("p", "voltage", 1000, 240.0, 242.0, 2.0, 1.0,
                         phi(1.0))
    path = str(tmp_path / "events.jsonl")
    write_jsonl(path, [ev], meta={"seed": 3})
    lines = open(path).read().splitlines()
    assert json.loads(lines[0]) == {"meta": {"seed": 3}}
    rec = json.loads(lines[1])
    assert rec["event_id"] == "p:voltage@1000"
    assert rec["exceedance_probability"] == pytest.approx(0.8413, abs=5e-5)

    rows = [{"timestamp": 1000, "node_id": "p", "phase": "voltage",
             "actual": 241.2, "mu": 242.0, "lo": 238.0, "hi": 246.0,
             "threshold": 240.0, "flagged": 1}]
    cpath = str(tmp_path / "plot.csv")
    write_plot_csv(cpath, rows, header_comment="meta")
    lines = open(cpath).read().splitlines()
    assert lines[0] == "# meta"
    assert lines[1].split(",") == ["timestamp", "node_id", "phase", "actual",
                                   "mu", "lo", "hi", "threshold", "flagged"]
    assert lines[2].startswith("1000,p,voltage,241.2,242,238,246,240,1")



def test_scan_events_are_the_flagged_plot_rows(quick_chain_model):
    model = quick_chain_model
    samples = chain_samples(model, 60, seed=7)
    pred = predict_voltages(model, samples, model.schemas)
    events, rows = scan_congestions(model, samples, model.schemas,
                                    threshold_v=0.0, z=0.5)
    key = model.group_of["f"]  # the voltage-carrying node
    j = model._group_by_key[key].index_of["f"]
    assert [r["mu"] for r in rows] == pred.mu[key][j, :, 0].tolist()
    flagged = [(r["timestamp"], r["mu"]) for r in rows if r["flagged"]]
    assert 0 < len(flagged) < len(rows)
    assert [(e.timestamp, e.mu) for e in events] == flagged
    for ev in events:
        assert ev.z_score >= 0.5
        assert ev.exceedance_probability == phi(ev.z_score)
