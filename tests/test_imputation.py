"""Imputation mechanics: pass-through, one forward per row block,
reports, and the blocked forwards of a batch on free cores."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gridmpnn import diffcore, gridsim
from gridmpnn.baselines import build_baseline
from gridmpnn.gridgraph import NodeSchema, derive_schemas
from gridmpnn.imputation import (ImputationError, ImputationProblem,
                                 blocked_forward, impute, impute_packed)
from gridmpnn.mpnn import GnnModel, compute_groups
from gridmpnn.services import predict_voltages
from gridmpnn.training import (TrainingConfig, _features, build_samples,
                               mask_channels, voltage_lag0_selector)

from conftest import (CountingPool, chain_samples, chain_schemas,
                      chain_topology)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _problem(model, observed_x=(1.2, 0.4, None)):
    feats, obs = {}, {}
    for nid, val in zip(("g", "s", "f"), observed_x):
        feats[nid] = np.array([val if val is not None else 0.0])
        obs[nid] = np.array([val is not None])
    return ImputationProblem(features=feats, observed=obs)


def test_nothing_missing_returns_input_verbatim(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, -0.3))
    result = impute(quick_chain_model, problem)
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


def test_at_least_one_observation_required(quick_chain_model):
    feats = {nid: np.zeros(1) for nid in ("g", "s", "f")}
    obs = {nid: np.array([False]) for nid in ("g", "s", "f")}
    with pytest.raises(ImputationError):
        impute(quick_chain_model, ImputationProblem(features=feats,
                                                    observed=obs))


# (g, s, f) values and observed flags per sample: three with f to fill,
# one with nothing to impute and one with s to fill.
MIXED_ROWS = [((-0.5, 0.1, 0.0), (1, 1, 0)),
              ((1.2, 0.4, 0.0), (1, 1, 0)),
              ((1.2, 0.4, -20.0), (1, 1, 0)),
              ((1.2, 0.4, -0.3), (1, 1, 1)),
              ((1.2, 0.0, -0.3), (1, 0, 1))]


def _packed_rows(model, rows):
    feats = model.pack({nid: np.array([[r[0][j]] for r in rows])
                        for j, nid in enumerate(("g", "s", "f"))})
    mask = model.pack({nid: np.array([[float(r[1][j])] for r in rows])
                       for j, nid in enumerate(("g", "s", "f"))})
    return feats, mask


def test_batched_rows_equal_their_own_single_sample_runs(quick_chain_model):
    model = quick_chain_model
    values, mu, sigma, filled = impute_packed(
        model, *_packed_rows(model, MIXED_ROWS))
    assert filled.tolist() == [1, 1, 1, 0, 1]
    for i, row in enumerate(MIXED_ROWS):
        alone = impute_packed(model, *_packed_rows(model, [row]))
        for got, want in zip((values, mu, sigma), alone[:3]):
            for key in got:
                assert np.abs(got[key][:, i] - want[key][:, 0]).max() <= 1e-12
        assert filled[i] == alone[3][0]


def test_hole_values_never_reach_the_model():
    # the same batch with noise under every mask-0 entry: the forward
    # sees the placeholder 0 there either way
    model, feats, masks = _pilot_holes("gnn", 40)
    rng = np.random.default_rng(3)
    noisy = {k: np.where(masks[k], v, rng.normal(0.0, 5.0, v.shape))
             for k, v in feats.items()}
    assert any(not np.array_equal(noisy[k], v) for k, v in feats.items())
    assert _same_bytes(impute_packed(model, feats, masks),
                       impute_packed(model, noisy, masks))


def test_mu_is_the_blocked_forwards_bit_for_bit():
    model, feats, masks = _pilot_holes("gnn", 301)  # three blocks
    values, mu, sigma, filled = impute_packed(model, feats, masks)
    want_mu, logvar = blocked_forward(
        model, {k: np.where(masks[k], v, 0.0) for k, v in feats.items()},
        masks)
    assert filled.tolist() == [1] * 301
    for k, m in masks.items():
        assert mu[k].tobytes() == want_mu[k].tobytes()
        assert sigma[k].tobytes() == np.sqrt(np.exp(logvar[k])).tobytes()
        assert np.array_equal(values[k], np.where(m, feats[k], mu[k]))


@pytest.mark.parametrize("rows", [1, 128, 129, 301])
def test_one_forward_per_row_block(quick_chain_model, monkeypatch, rows):
    model = quick_chain_model
    forward = model.forward
    calls = []

    def counting(features, mask, tape=None):
        calls.append(next(iter(features.values())).shape[1])
        return forward(features, mask, tape=tape)

    monkeypatch.setattr(model, "forward", counting)
    impute_packed(model, *_chain_holes(model, rows))
    blocks = diffcore.row_blocks(rows)
    assert sorted(calls) == sorted(hi - lo for lo, hi in blocks)


def test_report_json_structure(quick_chain_model):
    problem = _problem(quick_chain_model, (1.2, 0.4, None))
    result = impute(quick_chain_model, problem)
    doc = result.report_document(quick_chain_model.schemas)
    assert set(doc) == {"channels"}
    assert doc["channels"]["f:x"]["was_observed"] is False
    assert doc["channels"]["g:x"]["value"] == 1.2
    assert doc["channels"]["f:x"]["sigma"] > 0


def test_predict_voltages_emits_mu_and_sigma_band(quick_chain_model):
    model = quick_chain_model
    samples = chain_samples(model, 60, seed=7)
    pred = predict_voltages(model, samples, model.schemas)
    key = model.group_of["f"]  # the voltage-carrying node
    j = model._group_by_key[key].index_of["f"]
    assert list(pred.flags) == [key]
    assert np.flatnonzero(pred.flags[key].any(axis=1)).tolist() == [j]
    assert pred.known[key][j].all()
    assert (pred.sigma[key][j] > 0).all()
    assert pred.filled.tolist() == [1] * len(samples)
    # the prediction conditions on g and s, not on the masked voltages;
    # the observed voltages move their features with their targets
    moved = samples.select(np.arange(len(samples)))
    assert moved.input_mask[key][j].all()
    moved.targets[key][j] += 5.0
    assert np.array_equal(_features(moved.targets, moved.input_mask)[key][j],
                          _features(samples.targets,
                                    samples.input_mask)[key][j] + 5.0)
    again = predict_voltages(model, moved, model.schemas)
    assert np.array_equal(again.mu[key], pred.mu[key])
    assert np.array_equal(again.sigma[key], pred.sigma[key])
    assert not np.array_equal(again.actual[key][j], pred.actual[key][j])


def test_voltage_channel_indices():
    # only current-time voltage channels are masked and predicted
    schemas = {**chain_schemas(), "f": NodeSchema(
        "f", [("v", "voltage"), ("e", "energy")], [1], [], p=1)}
    sel = voltage_lag0_selector(schemas,
                                compute_groups(chain_topology(), schemas))
    assert {k: v.tolist() for k, v in sel.items()} == {
        "feeder:4:1": [[True, False, False, False]],
        "global:1:1": [[False]], "substation:1:1": [[False]]}


@pytest.fixture
def counting_pool(monkeypatch):
    pool = CountingPool(diffcore._POOL)
    monkeypatch.setattr(diffcore, "_POOL", pool)
    return pool


def _chain_holes(model, rows: int):
    """``rows`` samples of the chain world, each with ``f`` unobserved."""
    rng = np.random.default_rng(rows)
    return _packed_rows(model, [((x, y, 0.0), (1, 1, 0))
                                for x, y in rng.normal(size=(rows, 2))])


def _same_bytes(a, b) -> bool:
    """Whether two ``impute_packed`` results hold the same arrays, byte
    for byte."""
    def arrays(result):
        return [x for part in result
                for x in (part.values() if isinstance(part, dict) else [part])]
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(arrays(a), arrays(b), strict=True))


def _pilot_holes(kind: str, rows: int):
    """(model, features, mask) for ``rows`` samples of a 6-day pilot
    world (the ``pilot_world`` fixture's spec and seed) with their lag-0
    voltages hidden, under an untrained ``kind`` model."""
    spec = gridsim.pilot_spec(seed=7)
    dataset = gridsim.simulate(spec, "2019-06-01T00:00:00Z", days=6, seed=11)
    schemas = derive_schemas(spec.topology)
    samples = build_samples(dataset, spec.topology, schemas, TrainingConfig())
    if kind == "gnn":
        model = GnnModel(spec.topology, schemas)
    else:
        model = build_baseline(kind, spec.topology, schemas,
                               hidden=16 if kind == "mlp" else 64)
    model.set_standardization(samples.stats.mean, samples.stats.std)
    samples = samples.select(np.arange(rows))
    feats, masks = mask_channels(samples.targets, samples.input_mask,
                                 voltage_lag0_selector(schemas, samples.groups))
    return model, feats, masks


def _blocked_run(kind: str) -> tuple[bool, int]:
    """Impute 301 pilot samples, three blocks, on 1, 2, 4 and 8 workers;
    returns (the same bytes on each, blocks sent to the pool)."""
    model, feats, masks = _pilot_holes(kind, 301)
    pool = diffcore._POOL = CountingPool(ThreadPoolExecutor(max_workers=7))
    results = []
    for workers in (1, 2, 4, 8):
        diffcore._WORKERS = workers
        results.append(impute_packed(model, feats, masks))
    pool.pool.shutdown()
    return all(_same_bytes(results[0], r) for r in results[1:]), pool.jobs


@pytest.mark.parametrize("kind", ["gnn", "mlp", "ae"])
def test_blocked_pass_returns_the_serial_bytes(kind):
    # Blocks run at once only under a single-threaded BLAS, so check there.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = f"import test_imputation as t; print(*t._blocked_run({kind!r}))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # one pass hands out its blocks once: 0 + 1 + 2 + 2 helpers
    assert proc.stdout.split() == ["True", "5"]


def test_a_batch_gives_each_block_the_bytes_it_gets_alone():
    model, feats, masks = _pilot_holes("gnn", 301)
    batch = impute_packed(model, feats, masks)
    for lo, hi in ((0, 100), (100, 200), (200, 301)):  # 301 rows, 3 blocks
        alone = impute_packed(model,
                              {k: v[:, lo:hi] for k, v in feats.items()},
                              {k: v[:, lo:hi] for k, v in masks.items()})
        part = [{k: np.ascontiguousarray(v[:, lo:hi]) for k, v in p.items()}
                for p in batch[:3]] + [batch[3][lo:hi]]
        assert _same_bytes(part, alone)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_the_cuts_read_only_the_row_count(quick_chain_model, monkeypatch,
                                          workers):
    model = quick_chain_model
    forward = model.forward
    calls = []

    def recording(features, mask, tape=None):
        calls.append(next(iter(features.values())).shape[1])
        return forward(features, mask, tape=tape)

    monkeypatch.setattr(model, "forward", recording)
    monkeypatch.setattr(diffcore, "_WORKERS", workers)
    assert diffcore.BLOCK_ROWS == 128
    impute_packed(model, *_chain_holes(model, 485))
    assert sorted(calls) == [121, 121, 121, 122]


def test_a_batch_of_one_block_never_reaches_the_pool(
        quick_chain_model, monkeypatch, counting_pool):
    monkeypatch.setattr(diffcore, "_WORKERS", 4)
    model, rows = quick_chain_model, diffcore.BLOCK_ROWS
    impute_packed(model, *_chain_holes(model, rows))
    assert counting_pool.jobs == 0
    impute_packed(model, *_chain_holes(model, rows + 1))
    assert counting_pool.jobs == 1


@pytest.mark.parametrize("declared, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"MKL_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "cores": 4}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "cores": 4}, 4),
    # no process affinity to ask (macOS, Windows): every core counts
    ({"OPENBLAS_NUM_THREADS": "1", "cores": 3, "affinity": False}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "cores": 3, "affinity": False}, 1),
])
def test_workers_are_the_cores_blas_leaves_free(monkeypatch, declared,
                                                workers):
    for var in diffcore.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    declared = dict(declared)
    cores = set(range(declared.pop("cores", 2)))
    if declared.pop("affinity", True):
        monkeypatch.setattr(diffcore.os, "sched_getaffinity",
                            lambda pid: cores, raising=False)
    else:
        monkeypatch.delattr(diffcore.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(diffcore.os, "cpu_count", lambda: len(cores))
    for var, value in declared.items():
        monkeypatch.setenv(var, value)
    assert diffcore._free_workers() == workers


def test_pool_unused_without_a_declared_blas_thread_count(
        quick_chain_model, monkeypatch, counting_pool):
    for var in diffcore.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(diffcore, "_WORKERS", diffcore._free_workers())
    impute_packed(quick_chain_model, *_chain_holes(quick_chain_model, 512))
    assert counting_pool.jobs == 0


def test_eight_blocks_on_eight_threads_fill_every_row(quick_chain_model,
                                                      monkeypatch):
    model = quick_chain_model
    feats, mask = _chain_holes(model, 8 * diffcore.BLOCK_ROWS - 5)
    serial = impute_packed(model, feats, mask)
    pool = ThreadPoolExecutor(max_workers=7)
    monkeypatch.setattr(diffcore, "_POOL", CountingPool(pool))
    monkeypatch.setattr(diffcore, "_WORKERS", 8)
    switch = sys.getswitchinterval()
    results = []
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            runner = threading.Thread(target=lambda: results.append(
                impute_packed(model, feats, mask)))
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(switch)
        pool.shutdown()
    assert len(results) == 5 and diffcore._POOL.jobs >= 5 * 7
    assert all(_same_bytes(serial, blocked) for blocked in results)


def test_a_busy_pool_does_not_hold_up_the_pass(quick_chain_model,
                                               monkeypatch):
    # The pool's only thread is held elsewhere, so the calling thread
    # forwards every block and does not wait for a helper to start.
    model = quick_chain_model
    feats, mask = _chain_holes(model, 300)
    monkeypatch.setattr(diffcore, "_WORKERS", 1)
    serial = impute_packed(model, feats, mask)
    pool = ThreadPoolExecutor(max_workers=1)
    held = threading.Event()
    pool.submit(held.wait)
    monkeypatch.setattr(diffcore, "_POOL", CountingPool(pool))
    monkeypatch.setattr(diffcore, "_WORKERS", 2)
    results = []
    try:
        runner = threading.Thread(target=lambda: results.append(
            impute_packed(model, feats, mask)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
    finally:
        held.set()
        pool.shutdown()
    assert diffcore._POOL.jobs >= 1 and _same_bytes(serial, results[0])
