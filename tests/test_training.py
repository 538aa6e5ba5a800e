"""Sample assembly, masked NLL, gradient identities and the training loop."""

import math

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.gridgraph import derive_schemas, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel, compute_groups
from gridmpnn.training import (ChannelStats, DatasetError, TrainingConfig,
                               TrainingError, build_samples,
                               chronological_split, concat_sample_sets,
                               evaluate_nll, mask_channels, masked_clones,
                               nll_loss_packed, train, voltage_lag0_selector,
                               write_history_csv)

from conftest import (chain_dataset, chain_schemas, chain_topology,
                      train_chain_model)


def one_prosumer_world(days, seed=0):
    topo = load_topology({
        "nodes": [{"id": "g", "kind": "global"},
                  {"id": "s", "kind": "substation"},
                  {"id": "f", "kind": "feeder"},
                  {"id": "p", "kind": "prosumer"}],
        "edges": [["g", "s"], ["s", "f"], ["f", "p"]]})
    spec = gridsim.SyntheticGridSpec(
        topology=topo, v0=238.0,
        lines={e: {"r": 0.1, "x": 0.04} for e in topo.edges},
        prosumers={"p": {"base_kw": 0.3, "morning_kw": 0.4, "evening_kw": 1.0,
                         "pv_kw": 3.0, "weekend_factor": 1.1}},
        feeders={"f": {"unmetered_base_kw": 2.0, "unmetered_evening_kw": 1.0}},
        weather={"s": {}})
    return topo, spec, gridsim.simulate(spec, "2019-01-01T00:00:00Z", days,
                                        seed=seed)


# ---------------------------------------------------------------------------
# build_samples


def test_fully_observed_year_yields_expected_sample_count():
    topo, spec, ds = one_prosumer_world(days=365)
    schemas = derive_schemas(topo)
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    assert ds.n_steps == 35040
    assert len(samples) == 35040 - 192


def test_sample_exceeding_missing_threshold_is_dropped():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    t = 250
    sids = sorted(ds.series)[:8]  # 8 of 48 entries -> 16.7% at lag 0
    for sid in sids:
        ds.missing[sid][t] = True
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    secs = ds.epoch_seconds()
    assert int(secs[t]) not in samples.timestamps
    assert int(secs[t + 1]) in samples.timestamps


def test_dataset_shorter_than_lags_rejected():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    short = ds.slice_steps(0, 100)
    with pytest.raises(DatasetError):
        build_samples(short, topo, schemas, TrainingConfig())


def test_features_are_standardized_and_placeholdered():
    topo, spec, ds = one_prosumer_world(days=4)
    schemas = derive_schemas(topo)
    ds.missing["p:voltage"][300] = True
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    g = samples.groups
    key = [x.key for x in g if "prosumer" in x.key][0]
    feats = samples.features[key]
    assert abs(feats[0, :, 0].mean()) < 0.2  # roughly centred
    i = list(samples.timestamps).index(int(ds.epoch_seconds()[300]))
    assert feats[0, i, 0] == 0.0               # placeholder at the hole
    assert samples.input_mask[key][0, i, 0] == 0.0
    assert samples.loss_mask[key][0, i, 0] == 0.0  # unknown truth: no loss


def test_missing_fraction_invariant():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    ds.missing["p:voltage"][260] = True
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    total = sum(s.q for s in schemas.values())
    for i in range(len(samples)):
        s = samples.sample(i)
        unobserved = sum(int((s.input_mask[nid] == 0).sum())
                         for nid in s.input_mask)
        assert s.missing_fraction == pytest.approx(unobserved / total)


# ---------------------------------------------------------------------------
# augmentation


def test_augmentation_doubles_and_masks_current_voltage():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    doubled = concat_sample_sets([samples, masked_clones(
        samples, voltage_lag0_selector(schemas, samples.groups))])
    n = len(samples)
    assert len(doubled) == 2 * n
    key = [g.key for g in samples.groups if "prosumer" in g.key][0]
    # clone: current-time voltage masked, lag features and energy intact
    assert np.all(doubled.input_mask[key][0, n:, 0] == 0.0)
    assert np.all(doubled.features[key][0, n:, 0] == 0.0)
    assert np.array_equal(doubled.features[key][0, n:, 1],
                          samples.features[key][0, :, 1])  # voltage lag kept
    assert np.array_equal(doubled.features[key][0, n:, 4],
                          samples.features[key][0, :, 4])  # energy kept
    # loss targets retained for the masked entries
    assert np.array_equal(doubled.targets[key][0, n:, 0],
                          samples.targets[key][0, :, 0])
    assert np.array_equal(doubled.loss_mask[key][0, n:, 0],
                          samples.loss_mask[key][0, :, 0])


def test_mask_channels_matches_copy_and_assign_reference():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    sel = voltage_lag0_selector(schemas, samples.groups)
    before = {k: v.copy() for k, v in samples.features.items()}
    feats, masks = mask_channels(samples.features, samples.input_mask, sel)
    assert any(flags.any() for flags in sel.values())
    for g in samples.groups:
        want_f = samples.features[g.key].copy()
        want_m = samples.input_mask[g.key].copy()
        flags = np.broadcast_to(sel[g.key][:, None, :], want_f.shape)
        want_f[flags] = 0.0
        want_m[flags] = 0.0
        assert feats[g.key].tobytes() == want_f.tobytes()
        assert masks[g.key].tobytes() == want_m.tobytes()
        assert np.array_equal(samples.features[g.key], before[g.key])


def test_augmentation_on_empty_set_rejected():
    topo = chain_topology()
    schemas = chain_schemas()
    from gridmpnn.training import SampleSet
    empty = SampleSet(compute_groups(topo, schemas),
                      ChannelStats({}, {}), np.array([], dtype=np.int64))
    with pytest.raises(DatasetError):
        masked_clones(empty, voltage_lag0_selector(schemas, empty.groups))


# ---------------------------------------------------------------------------
# NLL


def _nll(mu, logvar, y, mask):
    """Untaped ``nll_loss_packed`` over one group of plain arrays."""
    loss, _ = nll_loss_packed({"k": dc.Tensor(mu)}, {"k": dc.Tensor(logvar)},
                              {"k": y}, {"k": mask}, None)
    return float(loss.data)


def test_nll_zero_when_prediction_exact_unit_variance():
    y = np.array([1.0, -2.0, 0.5])
    assert _nll(y, np.zeros(3), y, np.ones(3)) == pytest.approx(0.0)


def test_nll_single_entry_values():
    assert _nll(np.array([0.0]), np.array([0.0]),
                np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)
    want = 0.5 * math.log(4.0) + 0.5
    assert _nll(np.array([0.0]), np.array([math.log(4.0)]),
                np.array([2.0]), np.array([1.0])) == pytest.approx(want)


def test_nll_ignores_unobserved_entries():
    rng = np.random.default_rng(0)
    mu, lv = rng.standard_normal(6), rng.standard_normal(6)
    y = rng.standard_normal(6)
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    base = _nll(mu, lv, y, mask)
    y2 = y.copy()
    y2[mask == 0] = 1e9  # arbitrary garbage at unobserved entries
    assert _nll(mu, lv, y2, mask) == pytest.approx(base)


def test_nll_gradient_identities():
    # d/d mu = (mu - y)/var ; d/d var = (1/var - (y-mu)^2/var^2)/2
    rng = np.random.default_rng(4)
    y = rng.standard_normal((2, 3))
    mask = np.ones((2, 3))
    params = dc.ParameterSet()
    params.add("mu", rng.standard_normal((2, 3)))
    params.add("lv", rng.uniform(-1, 1, size=(2, 3)))
    tape = dc.Tape()
    mu_t = params.tensor(tape, "mu")
    lv_t = params.tensor(tape, "lv")
    loss, cnt = nll_loss_packed({"k": mu_t}, {"k": lv_t}, {"k": y},
                                {"k": mask}, tape)
    dc.backward(tape, loss)
    mu, lv = params.values["mu"], params.values["lv"]
    var = np.exp(lv)
    want_mu = (mu - y) / var
    want_var = 0.5 * (1.0 / var - np.square(y - mu) / var ** 2)
    assert np.allclose(params.grads["mu"], want_mu, atol=1e-12)
    # chain rule: dL/dvar = dL/dlv / var
    assert np.allclose(params.grads["lv"] / var, want_var, atol=1e-12)


def test_nll_packed_matches_plain_sum():
    rng = np.random.default_rng(8)
    mu = rng.standard_normal((2, 5, 3))
    lv = rng.uniform(-1, 1, (2, 5, 3))
    y = rng.standard_normal((2, 5, 3))
    mask = (rng.random((2, 5, 3)) > 0.3).astype(float)
    loss, cnt = nll_loss_packed({"k": dc.Tensor(mu)}, {"k": dc.Tensor(lv)},
                                {"k": y}, {"k": mask}, None)
    assert cnt == mask.sum()
    var = np.exp(lv)
    terms = 0.5 * np.log(var) + 0.5 * np.square(y - mu) / var
    assert float(loss.data) == pytest.approx(terms[mask > 0].sum())


# ---------------------------------------------------------------------------
# train loop


def test_zero_epoch_budget_returns_model_unchanged():
    topo = chain_topology()
    schemas = chain_schemas()
    ds = chain_dataset(300, seed=2)
    cfg = TrainingConfig(max_epochs=0, seed=0)
    samples = build_samples(ds, topo, schemas, cfg)
    tr, val = chronological_split(samples)
    model = GnnModel(topo, schemas, GnnConfig(layers=1))
    model.init_parameters(5)
    before = {p: v.copy() for p, v in model.params.values.items()}
    result = train(model, tr, val, cfg)
    assert result.history == []
    for pid in before:
        assert np.array_equal(before[pid], model.params.values[pid])


def test_training_improves_on_initialization():
    model, result, samples = train_chain_model(800, max_epochs=25, seed=3)
    tr, val = chronological_split(samples)
    init = GnnModel(chain_topology(), chain_schemas(),
                    GnnConfig(layers=1, message_passing_steps=2))
    init.init_parameters(3)
    init.set_standardization(samples.stats.mean, samples.stats.std)
    assert evaluate_nll(model, tr) <= evaluate_nll(init, tr)


def test_training_is_deterministic_per_seed():
    _, r1, _ = train_chain_model(400, max_epochs=6, seed=9)
    _, r2, _ = train_chain_model(400, max_epochs=6, seed=9)
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a["train_nll"] == b["train_nll"]
        assert a["val_nll"] == b["val_nll"]


def test_best_validation_checkpoint_is_returned():
    model, result, samples = train_chain_model(600, max_epochs=15, seed=4)
    _, val = chronological_split(samples)
    assert evaluate_nll(model, val) == pytest.approx(result.best_val_nll)


def test_divergence_raises_training_error():
    topo = chain_topology()
    schemas = chain_schemas()
    ds = chain_dataset(200, seed=6)
    cfg = TrainingConfig(max_epochs=3, seed=0)
    samples = build_samples(ds, topo, schemas, cfg)
    tr, val = chronological_split(samples)
    tr.features[tr.groups[0].key][0, 5, 0] = np.nan
    model = GnnModel(topo, schemas, GnnConfig(layers=1))
    model.init_parameters(0)
    with pytest.raises(TrainingError, match="epoch 1"):
        train(model, tr, val, cfg)


def test_chronological_split_is_contiguous_final_slice():
    topo = chain_topology()
    schemas = chain_schemas()
    ds = chain_dataset(240, seed=7)
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    tr, val = chronological_split(samples)
    assert len(val) == 20  # 1/12 of 240
    assert tr.timestamps.max() < val.timestamps.min()
    assert len(tr) + len(val) == 240


def test_history_csv_layout(tmp_path):
    rows = [{"epoch": 1, "train_nll": 0.5, "val_nll": 0.6, "wall_seconds": 1.25}]
    path = str(tmp_path / "history.csv")
    write_history_csv(path, rows, header_comment="meta")
    lines = open(path).read().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "epoch,train_nll,val_nll,wall_seconds"
    assert lines[2].startswith("1,0.5,0.6,")


def test_training_config_validation():
    with pytest.raises(dc.ContractError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(dc.ContractError):
        TrainingConfig(missing_threshold=1.5)
    with pytest.raises(dc.ContractError):
        TrainingConfig(batch_size=6000, max_batch_size=5000)
    with pytest.raises(dc.ContractError, match="max_epoch"):
        TrainingConfig.from_document({"max_epoch": 3})
    for bad in ({"batch_size": 0}, {"batch_size": -4}, {"max_batch_size": 0},
                {"max_epochs": -1}, {"early_stopping_patience": 0}):
        with pytest.raises(dc.ContractError, match=next(iter(bad))):
            TrainingConfig(**bad)
    assert TrainingConfig().learning_rate == 0.01
    assert TrainingConfig().max_batch_size == 5000
    assert TrainingConfig().missing_threshold == 0.10
    assert TrainingConfig().augmentation_enabled is True
