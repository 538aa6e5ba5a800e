"""Sample assembly, masked NLL, gradient identities and the training
loop, with its mini-batches trained as row blocks on free cores."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim, training
from gridmpnn.baselines import build_baseline
from gridmpnn.gridgraph import derive_schemas, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel, compute_groups
from gridmpnn.training import (ChannelStats, DatasetError, TrainingConfig,
                               TrainingError, build_samples,
                               chronological_split, concat_sample_sets,
                               evaluate_nll, mask_channels, masked_clones,
                               nll_loss_packed, train, voltage_lag0_selector,
                               write_history_csv)

from conftest import (CountingPool, chain_dataset, chain_schemas,
                      chain_topology, train_chain_model)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _pinned_run(call: str) -> list[str]:
    """Words printed by ``test_training.<call>`` run in a subprocess with
    BLAS pinned to one thread, the setting under which blocks run on
    several cores and BLAS computes a product the same way on any
    thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = f"import test_training as t; print(*t.{call})"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _pilot_sets(pilot_world=None):
    """(schemas, samples, train set with voltage-masked clones, validation
    set) of the ``pilot_world`` fixture's world."""
    if pilot_world is None:
        spec = gridsim.pilot_spec(seed=7)
        pilot_world = spec, gridsim.simulate(spec, "2019-06-01T00:00:00Z",
                                             days=4, seed=11)
    spec, dataset = pilot_world
    schemas = derive_schemas(spec.topology)
    samples = build_samples(dataset, spec.topology, schemas, TrainingConfig())
    tr, val = chronological_split(samples)
    tr = concat_sample_sets([tr, masked_clones(
        tr, voltage_lag0_selector(schemas, tr.groups))])
    return spec.topology, schemas, samples, tr, val


def _pilot_model(topology, schemas, samples, kind="gnn", seed=3):
    if kind == "gnn":
        model = GnnModel(topology, schemas, GnnConfig())
        model.init_parameters(seed)
    else:
        model = build_baseline(kind, topology, schemas, hidden=16, seed=seed)
    model.set_standardization(samples.stats.mean, samples.stats.std)
    return model


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
    g = next(x for x in samples.groups if "p" in x.node_ids)
    key, j = g.key, g.index_of["p"]
    feats = samples.features[key]
    assert abs(feats[j, :, 0].mean()) < 0.2  # roughly centred
    i = list(samples.timestamps).index(int(ds.epoch_seconds()[300]))
    assert feats[j, i, 0] == 0.0               # placeholder at the hole
    assert samples.input_mask[key][j, i, 0] == 0.0
    assert samples.loss_mask[key][j, i, 0] == 0.0  # unknown truth: no loss


def test_missing_fraction_invariant():
    # the timestamps kept under a threshold are those whose share of
    # unobserved inputs, counted from the masks of every sample, is
    # within it
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    ds.missing["p:voltage"][[230, 260]] = True
    ds.missing["f:load_p"][260] = True
    every = build_samples(ds, topo, schemas,
                          TrainingConfig(missing_threshold=1.0))
    total = sum(s.q for s in schemas.values())
    frac = sum((~m).sum(axis=(0, 2)) for m in every.input_mask.values()) / total
    assert sorted(set(frac)) == [0.0, 1 / total, 2 / total]
    for threshold in (0.0, 1.5 / total, 0.1):
        kept = build_samples(ds, topo, schemas,
                             TrainingConfig(missing_threshold=threshold))
        assert np.array_equal(kept.timestamps,
                              every.timestamps[frac <= threshold]), threshold


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
    g = next(x for x in samples.groups if "p" in x.node_ids)
    key, j = g.key, g.index_of["p"]
    # clone: current-time voltage masked, lag features and energy intact
    assert np.all(doubled.input_mask[key][j, n:, 0] == 0.0)
    assert np.all(doubled.features[key][j, n:, 0] == 0.0)
    assert np.array_equal(doubled.features[key][j, n:, 1],
                          samples.features[key][j, :, 1])  # voltage lag kept
    assert np.array_equal(doubled.features[key][j, n:, 4],
                          samples.features[key][j, :, 4])  # energy kept
    # loss targets retained for the masked entries
    assert np.array_equal(doubled.targets[key][j, n:, 0],
                          samples.targets[key][j, :, 0])
    assert np.array_equal(doubled.loss_mask[key][j, n:, 0],
                          samples.loss_mask[key][j, :, 0])


def test_mask_channels_matches_copy_and_assign_reference():
    topo, spec, ds = one_prosumer_world(days=3)
    schemas = derive_schemas(topo)
    samples = build_samples(ds, topo, schemas, TrainingConfig())
    sel = voltage_lag0_selector(schemas, samples.groups)
    before = {k: v.copy() for k, v in samples.features.items()}
    before_m = {k: v.copy() for k, v in samples.input_mask.items()}
    # the set's targets and masks in, as predict_voltages passes them
    feats, masks = mask_channels(samples.targets, samples.input_mask, sel)
    assert any(flags.any() for flags in sel.values())
    for g in samples.groups:
        want_f = samples.features[g.key].copy()
        want_m = samples.input_mask[g.key].copy()
        flags = np.broadcast_to(sel[g.key][:, None, :], want_f.shape)
        want_f[flags] = 0.0
        want_m[flags] = False
        assert feats[g.key].tobytes() == want_f.tobytes()
        assert masks[g.key].tobytes() == want_m.tobytes()
        assert np.array_equal(samples.features[g.key], before[g.key])
        assert np.array_equal(samples.input_mask[g.key], before_m[g.key])


# Bytes a sample set may store per (sample, node, channel) entry: float64
# targets and two bool masks take 10 (the pilot world's 192 samples store
# 10.02 with their timestamps and missing fractions); stored float64
# features and masks beside the targets take 32.
SAMPLE_BYTES_PER_ENTRY = 11


def test_pilot_sample_set_stays_within_its_byte_budget(pilot_world):
    _, _, samples, _, _ = _pilot_sets(pilot_world)
    stored = 0
    for value in vars(samples).values():
        arrays = value.values() if isinstance(value, dict) else [value]
        stored += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    entries = len(samples) * sum(g.q * len(g.node_ids) for g in samples.groups)
    assert stored <= SAMPLE_BYTES_PER_ENTRY * entries, stored / entries


def test_batch_matches_stored_features_and_float_masks_bit_for_bit(pilot_world):
    # the reference builds the batch as stored float64 arrays did: the
    # originals' features equal their targets, a clone's are the
    # original's with the selected channels set to 0.0, and masks are
    # float 0/1 arrays masked the same way
    _, schemas, samples, _, _ = _pilot_sets(pilot_world)
    sel = voltage_lag0_selector(schemas, samples.groups)
    doubled = concat_sample_sets([samples, masked_clones(samples, sel)])
    idx = np.random.default_rng(5).permutation(len(doubled))[:100]
    f, m, t, lm = doubled.batch(idx)
    hidden = 0
    for g in samples.groups:
        flags = sel[g.key][:, None, :]
        y = samples.targets[g.key]
        mask = samples.input_mask[g.key].astype(np.float64)
        want_f = np.concatenate([y, np.where(flags, 0.0, y)], axis=1)[:, idx]
        want_m = np.concatenate([mask, np.where(flags, 0.0, mask)], axis=1)[:, idx]
        want_t = np.concatenate([y, y], axis=1)[:, idx]
        want_lm = np.concatenate([mask, mask], axis=1)[:, idx]
        for got, want in ((f, want_f), (m, want_m), (t, want_t), (lm, want_lm)):
            assert got[g.key].dtype == np.float64
            assert got[g.key].flags["C_CONTIGUOUS"]
            assert got[g.key].tobytes() == want.tobytes(), g.key
        hidden += int((want_m != want_lm).sum())
    assert hidden > 0  # some clone rows are in the batch
    with pytest.raises(ValueError, match="read-only"):
        f[samples.groups[0].key][0, 0, 0] = 1.0


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
                              {"k": y}, {"k": mask})
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
                                {"k": mask})
    dc.backward(tape, loss, 1.0)
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
                                {"k": y}, {"k": mask})
    assert cnt == mask.sum()
    var = np.exp(lv)
    terms = 0.5 * np.log(var) + 0.5 * np.square(y - mu) / var
    assert float(loss.data) == pytest.approx(terms[mask > 0].sum())


def test_nll_loss_packed_is_one_tape_node():
    rng = np.random.default_rng(9)
    params = dc.ParameterSet()
    for k in ("a", "b"):
        params.add(f"mu/{k}", rng.standard_normal((2, 4, 3)))
        params.add(f"lv/{k}", rng.uniform(-1, 1, (2, 4, 3)))
    tape = dc.Tape()
    mu = {k: params.tensor(tape, f"mu/{k}") for k in ("a", "b")}
    lv = {k: params.tensor(tape, f"lv/{k}") for k in ("a", "b")}
    y = {k: rng.standard_normal((2, 4, 3)) for k in ("a", "b")}
    mask = {k: (rng.random((2, 4, 3)) > 0.5).astype(float) for k in ("a", "b")}
    before = len(tape.nodes)
    loss, cnt = nll_loss_packed(mu, lv, y, mask)
    assert len(tape.nodes) == before + 1
    assert loss.tape is tape and loss.node == before
    assert tape.nodes[before].inputs == (mu["a"].node, lv["a"].node,
                                         mu["b"].node, lv["b"].node)
    assert cnt == mask["a"].sum() + mask["b"].sum()


class _UnprunedTape(dc.Tape):
    """Marks every leaf as needing a gradient, so backward forms every
    adjoint and every operand product: the reference for pruning."""

    def leaf(self, *args, **kwargs):
        t = super().leaf(*args, **kwargs)
        self.nodes[t.node].needs_grad = True
        return t


def test_pruned_training_step_matches_unpruned_gradients(pilot_world):
    spec, dataset = pilot_world
    schemas = derive_schemas(spec.topology)
    cfg = TrainingConfig()
    samples = build_samples(dataset, spec.topology, schemas, cfg)
    model = GnnModel(spec.topology, schemas, GnnConfig())
    model.init_parameters(3)
    model.set_standardization(samples.stats.mean, samples.stats.std)
    f, m, t, lm = samples.batch(np.arange(0, len(samples), 7)[:24])
    grads, constants = [], []
    for tape in (dc.Tape(), _UnprunedTape()):
        mu, logvar = model.forward(f, m, tape=tape)
        loss_sum, cnt = nll_loss_packed(mu, logvar, t, lm)
        dc.backward(tape, loss_sum, 1.0 / cnt)
        grads.append({k: g.copy() for k, g in model.params.grads.items()})
        constants.append(sum(not node.needs_grad for node in tape.nodes))
        model.params.zero_grads()
    assert constants[0] > 0 and constants[1] == 0
    assert len(grads[0]) > 1 and all(g.any() for g in grads[0].values())
    for key, g in grads[0].items():
        assert np.array_equal(g, grads[1][key]), key


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
    # an observed NaN target is a NaN input feature and a NaN loss term
    key = tr.groups[0].key
    tr.targets[key][0, 5, 0] = np.nan
    tr.input_mask[key][0, 5, 0] = tr.loss_mask[key][0, 5, 0] = True
    assert np.isnan(tr.features[key][0, 5, 0])
    model = GnnModel(topo, schemas, GnnConfig(layers=1))
    model.init_parameters(0)
    with pytest.raises(TrainingError, match="epoch 1"):
        train(model, tr, val, cfg)


@pytest.mark.parametrize("block", [0, 1, 2])
def test_divergence_in_one_block_leaves_the_last_update(monkeypatch, block):
    # batch 1 of epoch 1 trains as 3 blocks of 128 rows; a NaN input in
    # one of them raises before that step updates anything
    topo, schemas = chain_topology(), chain_schemas()
    cfg = TrainingConfig(max_epochs=2, batch_size=384, seed=0)
    tr, val = chronological_split(build_samples(chain_dataset(1400, seed=6),
                                                topo, schemas, cfg))
    assert dc.BLOCK_ROWS == 128 and len(tr) >= 768
    row = np.random.default_rng(cfg.seed).permutation(len(tr))[384 + 128 * block]
    key = tr.groups[0].key
    tr.targets[key][0, row, 0] = np.nan
    tr.input_mask[key][0, row, 0] = tr.loss_mask[key][0, row, 0] = True
    assert np.isnan(tr.features[key][0, row, 0])
    model = GnnModel(topo, schemas, GnnConfig(layers=1))
    model.init_parameters(0)
    steps = []
    adam_step = training.adam_step

    def recording(params, state, lr):
        adam_step(params, state, lr)
        steps.append(({k: v.copy() for k, v in params.values.items()},
                      state.t, {k: v.copy() for k, v in state.m.items()},
                      {k: v.copy() for k, v in state.v.items()}, state))

    monkeypatch.setattr(training, "adam_step", recording)
    with pytest.raises(TrainingError, match="epoch 1, batch 1"):
        train(model, tr, val, cfg)
    assert len(steps) == 1
    values, t, m, v, state = steps[0]
    assert state.t == t == 1
    for key, value in model.params.values.items():
        assert value.tobytes() == values[key].tobytes(), key
        assert state.m[key].tobytes() == m[key].tobytes(), key
        assert state.v[key].tobytes() == v[key].tobytes(), key
        assert not model.params.grads[key].any(), key


# The ops of the two trained models' layers, and their leaves
_MODEL_OPS = {"param", "const", "dense", "gather_dense", "route", "regroup",
              "clip", "gaussian_nll"}


class _ForkRecorder(dc.Tape):
    """A step's tape that keeps the block tapes it forks."""

    def __init__(self):
        super().__init__()
        self.forks = []

    def fork(self, grads):
        self.forks.append(super().fork(grads))
        return self.forks[-1]


def test_a_training_block_tape_holds_only_model_layers(pilot_world):
    topology, schemas, samples, tr, val = _pilot_sets(pilot_world)
    seen = {}
    for kind in ("gnn", "mlp", "ae"):
        model = _pilot_model(topology, schemas, samples, kind)
        tape = _ForkRecorder()
        grads = {k: np.zeros_like(g) for k, g in model.params.grads.items()}
        training._train_block(model, tr, np.arange(dc.BLOCK_ROWS), tape,
                              grads, 1.0)
        (fork,) = tape.forks
        seen[kind] = {node.op for node in fork.nodes}
        assert seen[kind] <= _MODEL_OPS, (kind, seen[kind] - _MODEL_OPS)
        assert all(g.any() for g in grads.values()), kind
    assert {"gather_dense", "route"} <= seen["gnn"]
    assert "regroup" in seen["mlp"] and "regroup" in seen["ae"]


class _StepTaken(Exception):
    pass


@pytest.mark.parametrize("kind", ["gnn", "mlp"])
def test_block_gradients_sum_to_the_whole_batch_gradient(pilot_world,
                                                         monkeypatch, kind):
    topology, schemas, samples, tr, val = _pilot_sets(pilot_world)
    cfg = TrainingConfig(max_epochs=1, seed=4)
    assert len(tr) > dc.BLOCK_ROWS  # the one batch splits into blocks
    model = _pilot_model(topology, schemas, samples, kind)
    reference = _pilot_model(topology, schemas, samples, kind)
    stepped = {}

    def capture(params, state, lr):
        stepped.update({k: g.copy() for k, g in params.grads.items()})
        raise _StepTaken

    monkeypatch.setattr(training, "adam_step", capture)
    with pytest.raises(_StepTaken):
        train(model, tr, val, cfg)
    idx = np.random.default_rng(cfg.seed).permutation(len(tr))
    f, m, t, lm = tr.batch(idx)
    tape = dc.Tape()
    mu, logvar = reference.forward(f, m, tape=tape)
    loss_sum, cnt = nll_loss_packed(mu, logvar, t, lm)
    dc.backward(tape, loss_sum, 1.0 / cnt)
    assert set(stepped) == set(reference.params.grads)
    for key, want in reference.params.grads.items():
        assert want.any(), key
        gap = np.abs(stepped[key] - want).max()
        assert gap <= 1e-12 * np.abs(want).max(), key


def _trained_digest(model, result) -> str:
    digest = hashlib.sha256()
    for key, value in model.params.values.items():
        digest.update(key.encode() + value.tobytes())
    for row in result.history:
        digest.update(repr({k: v for k, v in row.items()
                            if k != "wall_seconds"}).encode())
    return digest.hexdigest()


def _worker_runs() -> list[str]:
    """Digests of the trained parameters and history of one recipe
    (batches of 300 rows: three blocks of 100, then one of 52) with 1, 2,
    4 and again 2 workers, and the blocks sent to the pool."""
    topology, schemas, samples, tr, val = _pilot_sets()
    cfg = TrainingConfig(max_epochs=2, batch_size=300, seed=5)
    pool = dc._POOL = CountingPool(ThreadPoolExecutor(max_workers=3))
    digests = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4, 2):
            dc._WORKERS = workers
            model = _pilot_model(topology, schemas, samples)
            digests.append(_trained_digest(model, train(model, tr, val, cfg)))
    finally:
        sys.setswitchinterval(switch)
        pool.pool.shutdown()
    return digests + [str(pool.jobs)]


def test_training_bytes_do_not_depend_on_the_worker_count():
    *digests, jobs = _pinned_run("_worker_runs()")
    assert len(digests) == 4 and len(set(digests)) == 1
    assert int(jobs) > 0


def _validation_runs() -> list[str]:
    """``evaluate_nll`` of an untrained pilot model over 181 samples (in
    blocks of 90 and 91 rows) with 1 and 2 workers,
    and the blocks sent to the pool."""
    topology, schemas, samples, _, _ = _pilot_sets()
    model = _pilot_model(topology, schemas, samples)
    samples = samples.select(np.arange(181))
    pool = dc._POOL = CountingPool(dc._POOL)
    out = []
    for workers in (1, 2):
        dc._WORKERS = workers
        out.append(repr(evaluate_nll(model, samples)))
    return out + [str(pool.jobs)]


def test_validation_nll_does_not_depend_on_the_worker_count():
    serial, blocked, jobs = _pinned_run("_validation_runs()")
    assert serial == blocked and int(jobs) > 0


def test_a_busy_pool_does_not_hold_up_a_step(monkeypatch):
    # The pool's only thread is held elsewhere, so the calling thread
    # trains every block and does not wait for a helper to start.
    def run():
        model, result, _ = train_chain_model(700, max_epochs=2, seed=8)
        return _trained_digest(model, result)

    monkeypatch.setattr(dc, "_WORKERS", 1)
    serial = run()
    pool = ThreadPoolExecutor(max_workers=1)
    held = threading.Event()
    pool.submit(held.wait)
    monkeypatch.setattr(dc, "_POOL", CountingPool(pool))
    monkeypatch.setattr(dc, "_WORKERS", 2)
    results = []
    try:
        runner = threading.Thread(target=lambda: results.append(run()))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
    finally:
        held.set()
        pool.shutdown()
    assert dc._POOL.jobs >= 1 and results == [serial]


def test_a_240_row_batch_trains_on_both_cores(monkeypatch):
    # the benchmark recipe's last mini-batch: two blocks of 120 rows,
    # which wait for each other, so each must run on a thread of its own
    monkeypatch.setattr(dc, "_WORKERS", 2)
    topo, schemas = chain_topology(), chain_schemas()
    cfg = TrainingConfig(max_epochs=1, batch_size=240, seed=3)
    tr, val = chronological_split(build_samples(chain_dataset(300, seed=2),
                                                topo, schemas, cfg))
    tr = tr.select(np.arange(240))
    model = GnnModel(topo, schemas, GnnConfig(layers=1))
    model.init_parameters(0)
    met = threading.Barrier(2, timeout=10)
    seen = []
    train_block = training._train_block

    def meeting(model, samples, rows, *args):
        seen.append((threading.get_ident(), len(rows)))
        met.wait()
        return train_block(model, samples, rows, *args)

    monkeypatch.setattr(training, "_train_block", meeting)
    train(model, tr, val, cfg)
    assert sorted(rows for _, rows in seen) == [120, 120]
    assert len({thread for thread, _ in seen}) == 2


def test_gradient_slots_stay_bounded_and_add_up_in_block_order(monkeypatch):
    # one batch of 210 rows as 14 blocks on two workers, the first block
    # slow, so the other worker runs ahead until it has to wait: at most
    # workers + 1 buffers exist, and the step's gradient is the blocks'
    # gradients added in block order
    monkeypatch.setattr(dc, "BLOCK_ROWS", 16)
    monkeypatch.setattr(dc, "_WORKERS", 2)
    topo, schemas = chain_topology(), chain_schemas()
    cfg = TrainingConfig(max_epochs=1, batch_size=210, seed=3)
    tr, val = chronological_split(build_samples(chain_dataset(300, seed=2),
                                                topo, schemas, cfg))
    idx = np.random.default_rng(cfg.seed).permutation(len(tr))[:210]

    def new_model():
        model = GnnModel(topo, schemas, GnnConfig())
        model.init_parameters(4)
        return model

    taken = []

    class CountingSlots(training._GradientSlots):
        def take(self, i):
            taken.append(super().take(i))
            return taken[-1]

    train_block = training._train_block

    def slow_first(model, samples, rows, *args):
        if rows[0] == idx[0]:
            time.sleep(0.3)
        return train_block(model, samples, rows, *args)

    stepped = {}

    def capture(params, state, lr):
        stepped.update({k: g.copy() for k, g in params.grads.items()})
        raise _StepTaken

    monkeypatch.setattr(training, "_GradientSlots", CountingSlots)
    monkeypatch.setattr(training, "_train_block", slow_first)
    monkeypatch.setattr(training, "adam_step", capture)
    with pytest.raises(_StepTaken):
        train(new_model(), tr, val, cfg)
    assert len(taken) == 14 and len({id(slot) for slot in taken}) <= 3

    reference = new_model()
    cnt = sum(float(m[:, idx].sum()) for m in tr.loss_mask.values())
    cuts = [i * 210 // 14 for i in range(15)]
    want = {k: np.zeros_like(g) for k, g in reference.params.grads.items()}
    for lo, hi in zip(cuts, cuts[1:]):
        slot = {k: np.zeros_like(g) for k, g in want.items()}
        train_block(reference, tr, idx[lo:hi], dc.Tape(), slot, 1.0 / cnt)
        for key, g in want.items():
            g += slot[key]
    for key, g in want.items():
        assert g.any() and stepped[key].tobytes() == g.tobytes(), key


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
    for key in ("max_batch_size", "augmentation_enabled",
                "bid_augmentation_enabled"):
        with pytest.raises(TypeError, match=key):
            TrainingConfig(**{key: 3})
    for bad in ({"batch_size": 0}, {"batch_size": -4},
                {"max_epochs": -1}, {"early_stopping_patience": 0}):
        with pytest.raises(dc.ContractError, match=next(iter(bad))):
            TrainingConfig(**bad)
    assert dataclasses.asdict(TrainingConfig()) == {
        "learning_rate": 0.01, "missing_threshold": 0.10,
        "early_stopping_patience": 10, "max_epochs": 100,
        "batch_size": 5000, "seed": 0}
    assert TrainingConfig(batch_size=6000).batch_size == 6000
