"""Imputation loop mechanics: pass-through, fixpoint behavior, reports."""

import json

import numpy as np
import pytest

from gridmpnn.imputation import (ImputationError, ImputationProblem, impute,
                                 impute_packed, predict_voltages,
                                 voltage_channel_indices)

from conftest import chain_schemas, chain_topology


def _problem(model, observed_x=(1.2, 0.4, None), **kwargs):
    feats, obs = {}, {}
    for nid, val in zip(("g", "s", "f"), observed_x):
        feats[nid] = np.array([val if val is not None else 0.0])
        obs[nid] = np.array([val is not None])
    return ImputationProblem(features=feats, observed=obs, **kwargs)


def test_nothing_missing_returns_input_verbatim(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, -0.3))
    result = impute(quick_chain_model, problem)
    assert result.iterations == 0
    assert result.converged
    for nid, want in zip(("g", "s", "f"), (1.2, 0.4, -0.3)):
        assert result.values[nid][0] == want


def test_observed_entries_preserved_exactly(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, None))
    result = impute(quick_chain_model, problem)
    assert result.values["g"][0] == 1.2
    assert result.values["s"][0] == 0.4
    assert result.was_observed["f"][0] == False  # noqa: E712
    assert np.isfinite(result.values["f"][0])
    assert result.sigma["f"][0] > 0


def test_final_update_below_tolerance_and_fixpoint_idempotence(quick_chain_model):
    model = quick_chain_model
    feats, mask = _packed_rows(model, [((1.2, 0.4, 0.0), (1, 1, 0))])
    first, _, _, hit, _ = impute_packed(model, feats, mask)
    assert hit[0] > 0  # converged
    # re-enter at the converged fill: one iteration, update below tolerance
    again, _, _, hit, delta = impute_packed(model, first, mask)
    assert hit[0] == 1
    assert delta[0] < 1e-3
    for key in first:
        assert np.allclose(again[key], first[key], rtol=0, atol=1e-3)


def test_at_least_one_observation_required(quick_chain_model):
    feats = {nid: np.zeros(1) for nid in ("g", "s", "f")}
    obs = {nid: np.array([False]) for nid in ("g", "s", "f")}
    with pytest.raises(ImputationError):
        impute(quick_chain_model, ImputationProblem(features=feats,
                                                    observed=obs))


def test_query_channel_must_be_unobserved(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, -0.3),
                       query_channels=[("f", "x")])
    with pytest.raises(ImputationError, match="observed"):
        impute(quick_chain_model, problem)


def test_non_convergence_is_flagged_not_fatal(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, None),
                       max_iterations=1, tolerance=1e-15)
    result = impute(quick_chain_model, problem)
    assert not result.converged
    assert result.iterations == 1
    assert np.isfinite(result.values["f"][0])


# (g, s, f) values and observed flags per sample; holes start at the
# given value. With max_iterations 6 and the default tolerance the first
# three converge at different iterations, the fourth has nothing to
# impute and the fifth (the chain model never learned to fill s) does not
# converge.
MIXED_ROWS = [((-0.5, 0.1, 0.0), (1, 1, 0)),
              ((1.2, 0.4, 0.0), (1, 1, 0)),
              ((1.2, 0.4, -20.0), (1, 1, 0)),
              ((1.2, 0.4, -0.3), (1, 1, 1)),
              ((1.2, 0.0, -0.3), (1, 0, 1))]
MIXED_MAX_ITERATIONS = 6


def _packed_rows(model, rows):
    feats = model.pack({nid: np.array([[r[0][j]] for r in rows])
                        for j, nid in enumerate(("g", "s", "f"))})
    mask = model.pack({nid: np.array([[float(r[1][j])] for r in rows])
                       for j, nid in enumerate(("g", "s", "f"))})
    return feats, mask


def test_batched_rows_equal_their_own_single_sample_runs(quick_chain_model):
    model = quick_chain_model
    batch = impute_packed(model, *_packed_rows(model, MIXED_ROWS),
                          max_iterations=MIXED_MAX_ITERATIONS)
    values, mu, sigma, first_hit, final_delta = batch
    assert len(set(first_hit[:3])) == 3 and all(first_hit[:3] > 0)
    assert list(first_hit[3:]) == [0, 0]
    assert final_delta[4] >= 1e-3  # the last row really did not converge
    for i, row in enumerate(MIXED_ROWS):
        alone = impute_packed(model, *_packed_rows(model, [row]),
                              max_iterations=MIXED_MAX_ITERATIONS)
        for got, want in zip((values, mu, sigma), alone[:3]):
            for key in got:
                assert np.abs(got[key][:, i] - want[key][:, 0]).max() <= 1e-12
        assert first_hit[i] == alone[3][0]
        assert final_delta[i] == pytest.approx(alone[4][0], abs=1e-12)


def test_forwards_run_only_on_pending_rows(quick_chain_model, monkeypatch):
    model = quick_chain_model
    forward = model.forward
    rows_seen = []

    def counting(features, mask, tape=None):
        rows_seen.append(next(iter(features.values())).shape[1])
        return forward(features, mask, tape=tape)

    monkeypatch.setattr(model, "forward", counting)
    per_row = []
    for row in MIXED_ROWS:
        rows_seen.clear()
        impute_packed(model, *_packed_rows(model, [row]),
                      max_iterations=MIXED_MAX_ITERATIONS)
        per_row.append(len(rows_seen))
    rows_seen.clear()
    impute_packed(model, *_packed_rows(model, MIXED_ROWS),
                  max_iterations=MIXED_MAX_ITERATIONS)
    assert sum(rows_seen) == sum(per_row)
    assert sum(rows_seen) < len(MIXED_ROWS) * len(rows_seen)


def test_max_iterations_must_be_positive(quick_chain_model):
    with pytest.raises(ImputationError):
        impute(quick_chain_model, _problem(quick_chain_model,
                                           max_iterations=0))


def test_report_json_structure(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, None))
    result = impute(quick_chain_model, problem)
    doc = json.loads(result.report_json(quick_chain_model.schemas))
    assert set(doc) == {"channels", "iterations", "converged"}
    assert doc["channels"]["f:x"]["was_observed"] is False
    assert doc["channels"]["g:x"]["value"] == 1.2
    assert doc["channels"]["f:x"]["sigma"] > 0


def test_predict_voltages_emits_mu_and_sigma_band(quick_chain_model):
    feats = {"g": np.array([1.0]), "s": np.array([0.5]),
             "f": np.array([123.0])}  # voltage value present but ignored
    obs = {nid: np.array([True]) for nid in feats}
    preds = predict_voltages(quick_chain_model, feats, obs)
    assert set(preds) == {"f"}  # only the voltage-carrying node
    band = (preds["f"].mu[0] - 2 * preds["f"].sigma[0],
            preds["f"].mu[0] + 2 * preds["f"].sigma[0])
    assert band[0] < preds["f"].mu[0] < band[1]
    # prediction conditions on s, not on the masked actual
    assert abs(preds["f"].mu[0] - 123.0) > 10


def test_voltage_channel_indices():
    schemas = chain_schemas()
    assert voltage_channel_indices(schemas["f"]) == [0]
    assert voltage_channel_indices(schemas["g"]) == []
