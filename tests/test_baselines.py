"""Centralized benchmark models and the metric suite."""

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.baselines import (BENCH_MLP_HIDDEN, CentralModel, MetricError,
                                build_baseline, compare, mape_with_counts,
                                missing_rate_sweep, rmse)
from gridmpnn.gridgraph import (NodeSchema, derive_schemas, load_topology,
                                total_feature_dim, total_latent_dim)
from gridmpnn.mpnn import GnnModel
from gridmpnn.training import TrainingConfig, build_samples, nll_loss_packed

from conftest import chain_schemas, chain_topology


def test_ae_bottleneck_equals_summed_latent_sizes():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    ae = build_baseline("ae", topo, schemas, layers=2, hidden=64)
    assert ae.bottleneck == total_latent_dim(schemas) == 810
    assert ae.layer_specs[0][1][-1] == 810
    assert ae.layer_specs[1][1][0] == 810


def test_matched_mlp_exceeds_gnn_parameters_fivefold():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    gnn = GnnModel(topo, schemas)
    mlp = build_baseline("mlp", topo, schemas, layers=2,
                         hidden=BENCH_MLP_HIDDEN)
    assert mlp.count_parameters() > 5 * gnn.count_parameters()
    assert gnn.count_parameters() < 0.20 * mlp.count_parameters()


def test_baseline_consumes_exact_feature_concatenation():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    mlp = CentralModel("mlp", topo, schemas, layers=2, hidden=32)
    assert mlp.d_features == total_feature_dim(schemas) == 904
    assert mlp.d_in == 2 * 904  # features plus observed-mask


def test_degenerate_single_node_baseline():
    topo = load_topology({"nodes": [{"id": "g", "kind": "global"}],
                          "edges": []})
    schemas = {"g": NodeSchema("g", [("x", "energy"), ("y", "energy")],
                               [], [], p=2)}
    mlp = build_baseline("mlp", topo, schemas, layers=2, hidden=4, seed=1)
    assert mlp.d_features == 2
    f = mlp.pack({"g": np.array([[0.5, -1.0]])})
    m = mlp.pack({"g": np.ones((1, 2))})
    mu, lv = mlp.forward(f, m)
    assert mu["2:2"].data.shape == (1, 1, 2)
    assert np.all(np.exp(lv["2:2"].data) > 0)


def test_baseline_forward_and_gradients_flow():
    topo = chain_topology()
    schemas = chain_schemas()
    mlp = build_baseline("mlp", topo, schemas, layers=2, hidden=6, seed=2)
    rng = np.random.default_rng(0)
    f = mlp.pack({nid: rng.standard_normal((4, 1)) for nid in topo.ids()})
    m = mlp.pack({nid: np.ones((4, 1)) for nid in topo.ids()})
    t = mlp.pack({nid: rng.standard_normal((4, 1)) for nid in topo.ids()})
    tape = dc.Tape()
    mu, lv = mlp.forward(f, m, tape=tape)
    loss, cnt = nll_loss_packed(mu, lv, t, m)
    dc.backward(tape, loss, 1.0)
    total = sum(float(np.abs(g).sum()) for g in mlp.params.grads.values())
    assert total > 0.0


def test_baseline_gradients_match_finite_differences():
    topo = chain_topology()
    schemas = chain_schemas()
    mlp = build_baseline("ae", topo, schemas, layers=2, hidden=4, seed=3)
    rng = np.random.default_rng(1)
    f = mlp.pack({nid: rng.standard_normal((2, 1)) for nid in topo.ids()})
    m = mlp.pack({nid: np.ones((2, 1)) for nid in topo.ids()})
    t = mlp.pack({nid: rng.standard_normal((2, 1)) for nid in topo.ids()})

    def build(tape):
        mu, lv = mlp.forward(f, m, tape=tape)
        loss, cnt = nll_loss_packed(mu, lv, t, m)
        return loss

    tape = dc.Tape()
    loss = build(tape)
    dc.backward(tape, loss, 1.0)
    analytic = {p: g.copy() for p, g in mlp.params.grads.items()}
    mlp.params.zero_grads()
    err = dc.gradient_check(lambda: float(build(None).data), mlp.params,
                            analytic, floor=1e-4)
    assert err < 1e-4


def test_unknown_baseline_kind_rejected():
    topo = chain_topology()
    with pytest.raises(dc.ContractError):
        CentralModel("rnn", topo, chain_schemas(), hidden=4)


@pytest.mark.parametrize("layers", [0, 4])
def test_baseline_layers_outside_one_to_three_rejected(layers):
    with pytest.raises(dc.ContractError, match="layers"):
        CentralModel("mlp", chain_topology(), chain_schemas(), hidden=4,
                     layers=layers)


# ---------------------------------------------------------------------------
# Metrics


def test_mape_basic_values():
    assert mape_with_counts([200.0, 100.0], [202.0, 99.0])[0] == \
        pytest.approx(1.0)
    assert mape_with_counts([3.0, 4.0], [3.0, 4.0]) == (0.0, 2, 0)


def test_mape_excludes_and_counts_zero_actuals():
    value, used, excluded = mape_with_counts([2.0, 0.0, 4.0],
                                             [2.2, 5.0, 4.0])
    assert excluded == 1
    assert used == 2
    assert value == pytest.approx(5.0)


def test_mape_all_zero_actuals_is_an_error():
    with pytest.raises(MetricError):
        mape_with_counts([0.0, 0.0], [1.0, 2.0])


def test_rmse_values():
    assert rmse([3.0, 0.0], [0.0, 4.0]) == pytest.approx(3.5355339059327378)
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_empty_rejected():
    with pytest.raises(MetricError):
        rmse([], [])


def test_metrics_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    a = rng.uniform(1.0, 5.0, size=50)
    p = a + rng.standard_normal(50) * 0.1
    assert mape_with_counts(a, p)[0] > 0
    assert rmse(a, p) > 0
    assert mape_with_counts(a, a)[0] == 0.0
    assert rmse(a, a) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(MetricError):
        mape_with_counts([1.0], [1.0, 2.0])
    with pytest.raises(MetricError):
        rmse([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# comparison plumbing (tiny world; accuracy claims live in acceptance)


def test_compare_writes_table(tmp_path, pilot_world):
    spec, dataset = pilot_world
    topo = spec.topology
    schemas = derive_schemas(topo)
    samples = build_samples(dataset, topo, schemas, TrainingConfig())
    gnn = GnnModel(topo, schemas)
    gnn.init_parameters(0)
    gnn.set_standardization(samples.stats.mean, samples.stats.std)
    mlp = build_baseline("mlp", topo, schemas, layers=2, hidden=8, seed=0)
    mlp.set_standardization(samples.stats.mean, samples.stats.std)
    few = samples.select(np.arange(3))
    path = str(tmp_path / "comparison.csv")
    rows = compare([("GNN", gnn, 2, 5), ("MLP", mlp, 2, None)], few, schemas,
                   csv_path=path, header_comment="meta")
    lines = open(path).read().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "model,layers,mp_steps,params,mape_pct,rmse"
    assert len(lines) == 4
    assert rows[0].model == "GNN" and rows[0].mp_steps == 5
    assert rows[1].mp_steps is None
    assert all(np.isfinite(r.mape) and np.isfinite(r.rmse) for r in rows)


def test_missing_rate_sweep_shape(tmp_path, pilot_world):
    spec, dataset = pilot_world
    topo = spec.topology
    schemas = derive_schemas(topo)
    samples = build_samples(dataset, topo, schemas, TrainingConfig())
    gnn = GnnModel(topo, schemas)
    gnn.init_parameters(0)
    gnn.set_standardization(samples.stats.mean, samples.stats.std)
    test_ds = dataset.slice_steps(0, 193 + 6)
    path = str(tmp_path / "sweep.csv")
    rows = missing_rate_sweep(gnn, test_ds, topo, schemas,
                              rates=[0.0, 0.01], seed=0, csv_path=path)
    assert [r["missing_rate"] for r in rows] == [0.0, 0.01]
    assert all(r["samples"] > 0 for r in rows)
    lines = open(path).read().splitlines()
    assert lines[0] == "missing_rate,samples,mape_pct,rmse"
    assert len(lines) == 3
