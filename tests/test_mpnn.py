"""Graph model tests: encode/message/decode semantics, locality,
permutation safety, parameter counting, checkpoints."""

import json
import os
import re
import time

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.gridgraph import NodeSchema, derive_schemas, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel
from gridmpnn.training import nll_loss_packed

from conftest import BAD_PARAMETERS, two_kinds_world, write_bad_checkpoint

DATA = os.path.join(os.path.dirname(__file__), "data")


def chain_topology():
    return load_topology({
        "nodes": [{"id": "g", "kind": "global"},
                  {"id": "s", "kind": "substation"},
                  {"id": "f", "kind": "feeder"},
                  {"id": "p1", "kind": "prosumer"},
                  {"id": "p2", "kind": "prosumer"}],
        "edges": [["g", "s"], ["s", "f"], ["f", "p1"], ["f", "p2"]]})


def tiny_schemas(topo, q=2, p=2):
    return {nid: NodeSchema(nid, [("v", "voltage"), ("e", "energy")][:q],
                            [], [], p=min(p, q))
            for nid in topo.ids()}


def ones_inputs(model, b=1, seed=0):
    rng = np.random.default_rng(seed)
    f = model.pack({nid: rng.standard_normal((b, model.schemas[nid].q))
                    for nid in model.topology.ids()})
    m = model.pack({nid: np.ones((b, model.schemas[nid].q))
                    for nid in model.topology.ids()})
    return f, m


def test_zero_encoder_weights_give_zero_states():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo), GnnConfig(layers=2))
    model.init_parameters(0)
    for value in model.params.values.values():
        value[...] = 0.0
    f, m = ones_inputs(model)
    states = model.encode(f, m)
    for key, st in states.items():
        assert np.array_equal(st.data, np.zeros_like(st.data))


def test_pilot_prosumer_state_length_is_six():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(0)
    f, m = ones_inputs(model)
    states = model.encode(f, m)
    single = [(g.key, j) for g in model.groups
              for j, (nid, kind) in enumerate(zip(g.node_ids, g.kinds))
              if kind == "prosumer" and topo.node(nid).phases == 1]
    assert len(single) == 21
    for key, j in single:
        assert states[key].data[j].shape == (1, 6)


def test_mask_is_an_encoder_input():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(3)
    f, m = ones_inputs(model, seed=1)
    m2 = {k: v.copy() for k, v in m.items()}
    key = model.group_of["p1"]
    idx = model._group_by_key[key].index_of["p1"]
    m2[key][idx, 0, 0] = 0.0
    s1 = model.encode(f, m)
    s2 = model.encode(f, m2)
    assert not np.allclose(s1[key].data[idx], s2[key].data[idx])


def test_message_pass_zero_steps_is_identity():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo),
                     GnnConfig(message_passing_steps=0))
    model.init_parameters(1)
    f, m = ones_inputs(model)
    states = model.encode(f, m)
    after = model.message_pass(states)
    for key in states:
        assert np.array_equal(states[key].data, after[key].data)


def test_zero_messages_with_identity_aggregator_keep_states():
    topo = chain_topology()
    schemas = tiny_schemas(topo)
    model = GnnModel(topo, schemas, GnnConfig(layers=1,
                                              message_passing_steps=4))
    model.init_parameters(2)
    views = model.parameter_views()
    for pid, view in views.items():
        if "/msg/" in pid:
            view[...] = 0.0
    for nid in topo.ids():
        p = schemas[nid].p
        w = views[f"node/{nid}/agg/L0/W"]
        w[...] = 0.0
        w[:p, :p] = np.eye(p)
        views[f"node/{nid}/agg/L0/b"][...] = 0.0
    f, m = ones_inputs(model, seed=4)
    states = model.encode(f, m)
    after = model.message_pass(states)
    for key in states:
        assert np.allclose(states[key].data, after[key].data, atol=1e-12)


def test_isolated_node_depends_only_on_own_encoder():
    topo = load_topology({"nodes": [{"id": "g", "kind": "global"}],
                          "edges": []})
    schemas = {"g": NodeSchema("g", [("x", "energy")], [], [], p=1)}
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=3))
    model.init_parameters(5)
    f, m = ones_inputs(model, seed=2)
    mu, logvar = model.forward(f, m)
    assert mu["1:1"].data.shape == (1, 1, 1)


def test_decode_variance_strictly_positive_and_clamped():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(7)
    f, m = ones_inputs(model, seed=3)
    mu, logvar = model.forward(f, m)
    for key, lv in logvar.items():
        var = np.exp(lv.data)
        assert np.all(var > 0)
        assert np.all(var >= 1e-6 - 1e-18)
        assert np.all(var <= 1e6 + 1e-6)


def test_zero_decoder_weights_give_unit_variance():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(0)
    for key, value in model.params.values.items():
        if "/dec_" in key:
            value[...] = 0.0
    f, m = ones_inputs(model)
    mu, logvar = model.forward(f, m)
    for key in mu:
        assert np.array_equal(mu[key].data, np.zeros_like(mu[key].data))
        assert np.array_equal(np.exp(logvar[key].data),
                              np.ones_like(logvar[key].data))


def test_forward_is_deterministic():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(11)
    f, m = ones_inputs(model, b=3, seed=5)
    mu1, lv1 = model.forward(f, m)
    mu2, lv2 = model.forward(f, m)
    for key in mu1:
        assert np.array_equal(mu1[key].data, mu2[key].data)
        assert np.array_equal(lv1[key].data, lv2[key].data)


def test_locality_light_cone():
    topo = chain_topology()
    schemas = tiny_schemas(topo)
    f_balanced = {nid: np.zeros((1, 2)) for nid in topo.ids()}
    mask = {nid: np.ones((1, 2)) for nid in topo.ids()}
    perturbed = {nid: v.copy() for nid, v in f_balanced.items()}
    perturbed["p1"] = perturbed["p1"] + 1.0
    for t_steps, reachable in ((1, {"p1", "f"}), (2, {"p1", "f", "s", "p2"})):
        model = GnnModel(topo, schemas,
                         GnnConfig(message_passing_steps=t_steps))
        model.init_parameters(13)
        base_mu, _ = model.forward(model.pack(f_balanced), model.pack(mask))
        pert_mu, _ = model.forward(model.pack(perturbed), model.pack(mask))
        base = model.unpack({k: v.data for k, v in base_mu.items()})
        pert = model.unpack({k: v.data for k, v in pert_mu.items()})
        for nid in topo.ids():
            changed = not np.allclose(base[nid], pert[nid], atol=1e-12)
            assert changed == (nid in reachable), (nid, t_steps)


def test_permutation_relabeling_transports_predictions():
    topo = chain_topology()
    schemas = tiny_schemas(topo)
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=2))
    model.init_parameters(17)

    mapping = {"g": "g", "s": "s", "f": "f", "p1": "pB", "p2": "pA"}
    topo2 = load_topology({
        "nodes": [{"id": mapping[n.node_id], "kind": n.kind}
                  for n in topo.nodes],
        "edges": [[mapping[a], mapping[b]] for a, b in topo.edges]})
    schemas2 = {mapping[nid]: NodeSchema(mapping[nid], s.observed_variables,
                                         s.ar_lags, s.weather_covariates, s.p)
                for nid, s in schemas.items()}
    model2 = GnnModel(topo2, schemas2, GnnConfig(message_passing_steps=2))
    model2.init_parameters(99)

    def rename_key(pid):
        parts = pid.split("/")
        if parts[0] == "node":
            parts[1] = mapping[parts[1]]
        elif parts[0] == "edge":
            src, dst = parts[1].split(">")
            parts[1] = f"{mapping[src]}>{mapping[dst]}"
        return "/".join(parts)

    views2 = model2.parameter_views()
    for pid, view in model.parameter_views().items():
        views2[rename_key(pid)][...] = view

    rng = np.random.default_rng(23)
    feats = {nid: rng.standard_normal((1, 2)) for nid in topo.ids()}
    mask = {nid: np.ones((1, 2)) for nid in topo.ids()}
    mu1, _ = model.forward(model.pack(feats), model.pack(mask))
    out1 = model.unpack({k: v.data for k, v in mu1.items()})
    feats2 = {mapping[nid]: feats[nid] for nid in feats}
    mask2 = {mapping[nid]: mask[nid] for nid in mask}
    mu2, _ = model2.forward(model2.pack(feats2), model2.pack(mask2))
    out2 = model2.unpack({k: v.data for k, v in mu2.items()})
    for nid in topo.ids():
        assert np.allclose(out1[nid], out2[mapping[nid]], atol=1e-12)


def test_count_parameters_pilot_default_architecture():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    # hand-derived for 2-layer functions, hidden=max(in,out), T-shared edges
    assert model.count_parameters() == 389598
    model.init_parameters(0)
    assert model.params.n_scalars() == 389598


def test_pilot_parameters_live_in_22_blocks():
    # node groups by layer shape: 8:6 (global, feeders, single-phase
    # prosumers) and 24:24 (substations, three-phase prosumers); edge
    # groups 8:6>8:6, 8:6>24:24 and 24:24>8:6; one affine block per layer
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    assert [g.key for g in model.groups] == ["24:24", "8:6"]
    assert [eg.key for eg in model.edge_groups] == [
        "24:24>8:6", "8:6>24:24", "8:6>8:6"]
    assert len(model.params) == 22
    assert len(model.parameter_views()) == 1648


def test_pilot_forward_runs_62_dense_layers():
    # 2 node groups x (encoder, 5 aggregator steps, 2 decoders) x 2 layers
    # + 3 edge groups x 5 steps x 2 layers; grouping by kind ran 160
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    f, m = ones_inputs(model)
    tape = dc.Tape()
    model.forward(f, m, tape=tape)
    ops = [node.op for node in tape.nodes]
    assert ops.count("dense") + ops.count("gather_dense") == 62
    assert ops.count("gather_dense") == 15
    assert ops.count("param") == 62  # one block per layer, no bias leaf


def test_pilot_share_by_type_keeps_types_and_ids():
    # a type stays (kind, q, p); the shape groups stack one member per type
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo), GnnConfig(share_by_type=True))
    assert model.count_parameters() == 30342
    types = ["feeder:8:6", "global:8:6", "prosumer:24:24", "prosumer:8:6",
             "substation:24:24"]
    etypes = ["feeder:8:6>prosumer:24:24", "feeder:8:6>prosumer:8:6",
              "feeder:8:6>substation:24:24", "global:8:6>substation:24:24",
              "prosumer:24:24>feeder:8:6", "prosumer:8:6>feeder:8:6",
              "substation:24:24>feeder:8:6", "substation:24:24>global:8:6"]
    want = {f"type/{t}/{role}/L{i}/{wb}" for t in types
            for role in ("enc", "agg", "dec_mu", "dec_lv")
            for i in (0, 1) for wb in "Wb"}
    want |= {f"etype/{e}/msg/L{i}/{wb}" for e in etypes
             for i in (0, 1) for wb in "Wb"}
    views = model.parameter_views()
    assert len(views) == 112 and set(views) == want
    blocks = model.params.values
    assert blocks["stack/8:6/enc/L0"].shape == (3, 17, 17)
    assert blocks["stack/8:6>8:6/msg/L0"].shape == (2, 13, 13)
    assert np.shares_memory(views["type/global:8:6/enc/L0/W"],
                            blocks["stack/8:6/enc/L0"])


def test_share_by_type_gradients_match_finite_differences():
    # every shape group holds two types, so each layer reads its
    # members through an index
    topo, schemas = two_kinds_world()
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=2,
                                              share_by_type=True))
    model.init_parameters(8)
    assert model.params.values["stack/2:2/enc/L0"].shape == (2, 5, 5)
    assert model.params.values["stack/2:2>2:2/msg/L0"].shape == (2, 5, 5)
    rng = np.random.default_rng(9)
    for v in model.parameter_views().values():
        v += rng.normal(scale=0.2, size=v.shape)  # biases off zero too
    f, m = ones_inputs(model, b=3, seed=10)
    m = {k: (rng.uniform(size=v.shape) > 0.3).astype(float)
         for k, v in m.items()}
    targets = {k: rng.standard_normal(v.shape) for k, v in f.items()}
    tape = dc.Tape()
    dc.backward(tape, _nll(model, f, m, targets, tape), 1.0)
    analytic = {key: g.copy() for key, g in model.params.grads.items()}
    assert all(g.any() for g in analytic.values())
    model.params.zero_grads()

    def loss():
        return float(_nll(model, f, m, targets, None).data)

    assert dc.gradient_check(loss, model.params, analytic) < 1e-4


@pytest.mark.parametrize("name", ["default", "shared"])
def test_checkpoints_written_under_kind_groups_predict_as_recorded(name):
    # written when nodes were grouped by (kind, q, p), with the untaped mu
    # and sigma that grouping gave for a fixed input
    topo, _ = two_kinds_world()
    model = GnnModel.load_checkpoint(
        os.path.join(DATA, f"two_kinds_{name}.checkpoint.json"), topo)
    assert [g.key for g in model.groups] == ["1:1", "2:2"]
    with open(os.path.join(DATA, f"two_kinds_{name}.forward.json")) as fh:
        doc = json.load(fh)
    mask = {nid: np.array(doc["mask"][nid]) for nid in topo.ids()}
    f = model.pack({nid: np.where(mask[nid], doc["features"][nid], 0.0)
                    for nid in topo.ids()})
    m = model.pack({nid: mask[nid].astype(float) for nid in topo.ids()})
    mu, logvar = model.forward(f, m)
    mu = model.unpack({k: v.data for k, v in mu.items()})
    sigma = model.unpack({k: np.exp(0.5 * v.data) for k, v in logvar.items()})
    for nid in topo.ids():
        np.testing.assert_allclose(mu[nid], doc["mu"][nid], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma[nid], doc["sigma"][nid],
                                   rtol=1e-12, atol=0)


def test_share_by_type_shrinks_parameters():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    per_node = GnnModel(topo, schemas).count_parameters()
    shared = GnnModel(topo, schemas,
                      GnnConfig(share_by_type=True)).count_parameters()
    assert shared < 0.1 * per_node
    model = GnnModel(topo, schemas, GnnConfig(share_by_type=True))
    model.init_parameters(1)
    f, m = ones_inputs(model)
    mu, _ = model.forward(f, m)
    assert mu["8:6"].data.shape == (47, 1, 8)


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    topo = chain_topology()
    schemas = tiny_schemas(topo)
    model = GnnModel(topo, schemas)
    model.init_parameters(29)
    model.set_standardization(
        {nid: np.array([1.0, -2.0]) for nid in topo.ids()},
        {nid: np.array([2.0, 0.5]) for nid in topo.ids()})
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo)
    rng = np.random.default_rng(31)
    feats = model.pack({nid: rng.standard_normal(2) for nid in topo.ids()})
    mask = model.pack({nid: np.ones(2) for nid in topo.ids()})
    mu_a, lv_a = model.forward(feats, mask)
    mu_b, lv_b = back.forward(feats, mask)
    for key in mu_a:
        assert np.array_equal(mu_a[key].data, mu_b[key].data)
        assert np.array_equal(lv_a[key].data, lv_b[key].data)
    for nid in topo.ids():
        assert np.array_equal(model.std_mean[nid], back.std_mean[nid])
        assert np.array_equal(model.std_std[nid], back.std_std[nid])
    # a reload-resave is byte-identical
    path2 = os.path.join(tmp_path, "ckpt2.json")
    back.save_checkpoint(path2)
    assert open(path).read() == open(path2).read()


def test_checkpoint_values_roundtrip_bit_exact(tmp_path):
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    rng = np.random.default_rng(11)
    views = model.parameter_views()
    views["node/g/enc/L0/W"][...] = rng.standard_normal((4, 4)) * 1e-7
    views["node/p1/enc/L1/b"][...] = [1.0 / 3.0, -0.0]
    views["node/p2/enc/L1/b"][...] = [2.0 ** -40, 5e-324]
    views["edge/f>p2/msg/L0/W"][...] = rng.standard_normal((4, 4)) * 1e9
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo).parameter_views()
    assert list(back) == list(views)
    for pid, value in views.items():
        assert back[pid].shape == value.shape
        assert np.array_equal(back[pid], value)
        assert np.array_equal(np.signbit(back[pid]), np.signbit(value))
    assert np.signbit(back["node/p1/enc/L1/b"][1])
    # a plain object with shape and values per parameter id
    doc = json.load(open(path))
    assert doc["parameters"]["node/g/enc/L0/W"]["shape"] == [4, 4]


@pytest.mark.parametrize("fault", list(BAD_PARAMETERS))
def test_checkpoint_parameter_ids_are_validated_on_load(tmp_path, fault):
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    bad = os.path.join(tmp_path, "bad.json")
    pid = write_bad_checkpoint(path, bad, fault)
    with pytest.raises(ValueError, match=re.escape(repr(pid))):
        GnnModel.load_checkpoint(bad, topo)


def test_stacked_storage_keeps_ids_shapes_and_initial_draws():
    topo = chain_topology()
    # the global node alone has its layer shape
    schemas = {**tiny_schemas(topo), "g": tiny_schemas(topo, q=1)["g"]}
    model = GnnModel(topo, schemas)
    model.init_parameters(5)
    # the same draws as one standalone MLP per id prefix, in id order
    reference = dc.ParameterSet()
    rng = np.random.default_rng(5)
    want = {}
    for _, prefixes, spec in model._mlp_blocks:
        for prefix in prefixes:
            dc.mlp_init(reference, prefix, spec, rng)
            for i, a in enumerate(dc.mlp_layer_ids(prefix, spec)):
                want[f"{a}/W"], want[f"{a}/b"] = dc.mlp_views(
                    reference.values[a], spec[i + 1])
    views = model.parameter_views()
    assert list(views) == list(want)
    for pid, value in want.items():
        assert views[pid].shape == value.shape
        assert np.array_equal(views[pid], value)
    assert views["node/p2/enc/L0/W"].shape == (4, 4)
    assert views["edge/f>p1/msg/L1/b"].shape == (2,)
    # the same-shaped substation, feeder and prosumers, and the six edges
    # among them, share blocks; the lone global node's MLPs and its lone
    # edges keep the unstacked shapes
    blocks = model.params.values
    assert blocks["stack/2:2/enc/L0"].shape == (4, 5, 5)
    assert blocks["stack/2:2>2:2/msg/L1"].shape == (6, 5, 2)
    assert blocks["stack/1:1/enc/L1"].shape == (3, 1)
    assert blocks["stack/1:1>2:2/msg/L0"].shape == (4, 4)
    assert np.shares_memory(views["node/p2/enc/L0/W"],
                            blocks["stack/2:2/enc/L0"])
    assert np.shares_memory(views["node/g/enc/L1/b"],
                            blocks["stack/1:1/enc/L1"])
    assert len(blocks) < len(views)


def test_inplace_write_through_parameter_id_changes_forward():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(3)
    f, m = ones_inputs(model, b=2, seed=6)
    before, _ = model.forward(f, m)
    before = model.unpack({k: v.data for k, v in before.items()})
    model.parameter_views()["node/p2/dec_mu/L1/b"][...] += 1.0
    after, _ = model.forward(f, m)
    after = model.unpack({k: v.data for k, v in after.items()})
    for nid in topo.ids():
        shift = 1.0 if nid == "p2" else 0.0
        assert np.allclose(after[nid] - before[nid], shift, atol=1e-12), nid


def _nll(model, f, m, targets, tape):
    mu, logvar = model.forward(f, m, tape=tape)
    total, _ = nll_loss_packed(mu, logvar, targets, m)
    return total


def test_gnn_gradients_match_finite_differences():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo),
                     GnnConfig(message_passing_steps=2))
    model.init_parameters(8)
    rng = np.random.default_rng(9)
    f, m = ones_inputs(model, b=3, seed=10)
    m = {k: (rng.uniform(size=v.shape) > 0.3).astype(float)
         for k, v in m.items()}
    targets = {k: rng.standard_normal(v.shape) for k, v in f.items()}
    tape = dc.Tape()
    dc.backward(tape, _nll(model, f, m, targets, tape), 1.0)
    analytic = {key: g.copy() for key, g in model.params.grads.items()}
    assert any(g.any() for g in analytic.values())
    model.params.zero_grads()

    def loss():
        return float(_nll(model, f, m, targets, None).data)

    assert dc.gradient_check(loss, model.params, analytic) < 1e-4


def test_share_by_type_trains_and_reloads(tmp_path):
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo), GnnConfig(share_by_type=True))
    model.init_parameters(4)
    f, m = ones_inputs(model, b=8, seed=12)
    adam = dc.AdamState()
    losses = []
    for _ in range(20):
        tape = dc.Tape()
        loss = _nll(model, f, m, f, tape)
        dc.backward(tape, loss, 1.0)
        dc.adam_step(model.params, adam, lr=0.01)
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]
    path = os.path.join(tmp_path, "shared.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo)
    a, _ = model.forward(f, m)
    b, _ = back.forward(f, m)
    for key in a:
        assert np.array_equal(a[key].data, b[key].data)
    path2 = os.path.join(tmp_path, "shared2.json")
    back.save_checkpoint(path2)
    assert open(path).read() == open(path2).read()


def test_constant_units_stay_fixed_and_are_no_parameters(tmp_path):
    # every hidden layer's last column is its constant unit, (0...0, 40):
    # its gradient is exactly 0, so Adam leaves it, and no checkpoint id
    # or parameter count includes it
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo), GnnConfig(message_passing_steps=2))
    model.init_parameters(4)
    blocks = model.params.values
    hidden = {a for block, _, spec in model._mlp_blocks
              for a in dc.mlp_layer_ids(block, spec)[:-1]}
    assert model.params.constant_units == hidden
    f, m = ones_inputs(model, b=8, seed=12)
    start = {a: v.copy() for a, v in blocks.items()}
    adam = dc.AdamState()
    for _ in range(5):
        tape = dc.Tape()
        dc.backward(tape, _nll(model, f, m, f, tape), 1.0)
        for a in hidden:
            assert not model.params.grads[a][..., -1].any(), a
        dc.adam_step(model.params, adam, lr=0.05)
    assert all(not np.array_equal(v, start[a]) for a, v in blocks.items())
    for a in hidden:
        assert not blocks[a][..., :-1, -1].any(), a
        assert (blocks[a][..., -1, -1] == dc.CONSTANT_BIAS).all(), a
    # the checkpoint views cover every block entry but the constant units
    saved = {a: v.copy() for a, v in blocks.items()}
    for v in blocks.values():
        v[...] = 0.0
    views = model.parameter_views()
    for v in views.values():
        v[...] = 1.0
    for a, v in blocks.items():
        covered = np.ones(v.shape, dtype=bool)
        if a in hidden:
            covered[..., -1] = False
        assert np.array_equal(v == 1.0, covered), a
        v[...] = saved[a]
    assert model.count_parameters() == sum(v.size for v in views.values())
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo)
    for a, v in blocks.items():
        assert np.array_equal(back.params.values[a], v), a


def test_untaped_forward_matches_the_taped_forward_bit_for_bit():
    # the untaped pass runs on plain arrays; the taped one records Tensors
    topo = gridsim.pilot_topology()
    for share in (False, True):
        model = GnnModel(topo, derive_schemas(topo), GnnConfig(share_by_type=share))
        model.init_parameters(3)
        for b in (1, 24, 120):
            f, m = ones_inputs(model, b=b, seed=b)
            m = {k: (v * (np.arange(v.size).reshape(v.shape) % 3 > 0))
                 for k, v in m.items()}
            untaped = model.forward(f, m)
            taped = model.forward(f, m, tape=dc.Tape())
            for want, got in zip(taped, untaped):
                for k in want:
                    assert got[k].tape is None
                    assert got[k].data.tobytes() == want[k].data.tobytes()


def test_unknown_model_config_key_rejected():
    doc = {**GnnConfig().to_document(), "message_passing_step": 3}
    with pytest.raises(dc.ContractError, match="message_passing_step"):
        GnnConfig.from_document(doc)


def test_gnn_config_validation():
    for bad in ({"layers": 0}, {"layers": -1}, {"message_passing_steps": -1}):
        with pytest.raises(dc.ContractError, match=next(iter(bad))):
            GnnConfig(**bad)
    with pytest.raises(dc.ContractError, match="layers"):
        GnnConfig.from_document({**GnnConfig().to_document(), "layers": 0})
    assert GnnConfig(layers=1, message_passing_steps=0).layers == 1


def test_checkpoint_topology_hash_mismatch_rejected(tmp_path):
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(1)
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    other = gridsim.pilot_topology()
    with pytest.raises(ValueError, match="hash"):
        GnnModel.load_checkpoint(path, other)


def test_forward_runtime_scales_roughly_linearly_in_edges():
    def star(n_feeders):
        nodes = [{"id": "g", "kind": "global"}, {"id": "s", "kind": "substation"}]
        edges = [["g", "s"]]
        for i in range(n_feeders):
            nodes.append({"id": f"f{i}", "kind": "feeder"})
            edges.append(["s", f"f{i}"])
        return load_topology({"nodes": nodes, "edges": edges})

    times = {}
    for n in (20, 200):
        topo = star(n)
        schemas = {nid: NodeSchema(nid, [("x", "energy")], [], [], p=1)
                   for nid in topo.ids()}
        model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=3))
        model.init_parameters(0)
        f, m = ones_inputs(model, b=16)
        model.forward(f, m)  # warm up
        t0 = time.perf_counter()
        for _ in range(5):
            model.forward(f, m)
        times[n] = (time.perf_counter() - t0) / 5
    per_edge_small = times[20] / 21
    per_edge_big = times[200] / 201
    assert per_edge_big < 4.0 * per_edge_small

