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
from gridmpnn.baselines import build_baseline
from gridmpnn.mpnn import VAR_CLAMP_HI, VAR_CLAMP_LO, GnnConfig, GnnModel
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
        assert np.array_equal(st, np.zeros_like(st))


def test_pilot_prosumer_state_length_is_six():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(0)
    f, m = ones_inputs(model)
    states = model.encode(f, m)
    single = [(g.key, j) for g in model.groups
              for j, nid in enumerate(g.node_ids)
              if g.kind == "prosumer" and topo.node(nid).phases == 1]
    assert len(single) == 21
    for key, j in single:  # states are feature-major, (p, n, B)
        assert states[key][:, j].shape == (6, 1)


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
    assert not np.allclose(s1[key][idx], s2[key][idx])


def test_message_pass_zero_steps_is_identity():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo),
                     GnnConfig(message_passing_steps=0))
    model.init_parameters(1)
    f, m = ones_inputs(model)
    states = model.encode(f, m)
    after = model.message_pass(states)
    for key in states:
        assert np.array_equal(states[key], after[key])


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
    for kind in ("global", "substation", "feeder", "prosumer"):
        w = views[f"type/{kind}:2:2/agg/L0/W"]
        w[...] = 0.0
        w[:2, :2] = np.eye(2)
        views[f"type/{kind}:2:2/agg/L0/b"][...] = 0.0
    f, m = ones_inputs(model, seed=4)
    states = model.encode(f, m)
    after = model.message_pass(states)
    for key in states:
        assert np.allclose(states[key], after[key], atol=1e-12)


def test_isolated_node_depends_only_on_own_encoder():
    topo = load_topology({"nodes": [{"id": "g", "kind": "global"}],
                          "edges": []})
    schemas = {"g": NodeSchema("g", [("x", "energy")], [], [], p=1)}
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=3))
    model.init_parameters(5)
    f, m = ones_inputs(model, seed=2)
    mu, logvar = model.forward(f, m)
    assert mu["global:1:1"].shape == (1, 1, 1)


def test_decode_variance_strictly_positive_and_clamped():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(7)
    f, m = ones_inputs(model, seed=3)
    mu, logvar = model.forward(f, m)
    for key, lv in logvar.items():
        var = np.exp(lv)
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
        assert np.array_equal(mu[key], np.zeros_like(mu[key]))
        assert np.array_equal(np.exp(logvar[key]),
                              np.ones_like(logvar[key]))


def test_forward_is_deterministic():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(11)
    f, m = ones_inputs(model, b=3, seed=5)
    mu1, lv1 = model.forward(f, m)
    mu2, lv2 = model.forward(f, m)
    for key in mu1:
        assert np.array_equal(mu1[key], mu2[key])
        assert np.array_equal(lv1[key], lv2[key])


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
        base = model.unpack(base_mu)
        pert = model.unpack(pert_mu)
        for nid in topo.ids():
            changed = not np.allclose(base[nid], pert[nid], atol=1e-12)
            assert changed == (nid in reachable), (nid, t_steps)


def test_three_steps_reach_a_sibling_feeder_and_two_do_not():
    # the default's depth: a prosumer's path p <- f <- s carries the flow
    # of its substation's other feeders f', 3 hops away
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    s = next(nid for nid in topo.ids("substation")
             if len(topo.children[nid]) > 1
             and any(topo.children[c] for c in topo.children[nid]))
    f = next(c for c in topo.children[s] if topo.children[c])
    sibling = next(c for c in topo.children[s] if c != f)
    p = topo.children[f][0]
    for steps, moves in ((GnnConfig().message_passing_steps, True),
                         (2, False)):
        model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=steps))
        model.init_parameters(5)
        features, mask = ones_inputs(model, b=4)
        moved = model.unpack(features)
        moved[sibling] = moved[sibling] + 1.0
        base_mu, _ = model.forward(features, mask)
        moved_mu, _ = model.forward(model.pack(moved), mask)
        same = np.array_equal(model.unpack(base_mu)[p],
                              model.unpack(moved_mu)[p])
        assert same != moves, (steps, p, sibling)


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

    # ids name types, which a relabeling keeps
    views2 = model2.parameter_views()
    for pid, view in model.parameter_views().items():
        views2[pid][...] = view

    rng = np.random.default_rng(23)
    feats = {nid: rng.standard_normal((1, 2)) for nid in topo.ids()}
    mask = {nid: np.ones((1, 2)) for nid in topo.ids()}
    mu1, _ = model.forward(model.pack(feats), model.pack(mask))
    out1 = model.unpack(mu1)
    feats2 = {mapping[nid]: feats[nid] for nid in feats}
    mask2 = {mapping[nid]: mask[nid] for nid in mask}
    mu2, _ = model2.forward(model2.pack(feats2), model2.pack(mask2))
    out2 = model2.unpack(mu2)
    for nid in topo.ids():
        assert np.allclose(out1[nid], out2[mapping[nid]], atol=1e-12)


def test_count_parameters_pilot_default_architecture():
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    # hand-derived for 2-layer functions, hidden=max(in,out), T-shared
    # edges: per 8:6 node type (feeder, global, prosumer) encoder 374,
    # aggregator 234 and decoders 2 x 128; per 24:24 type (prosumer,
    # substation) 3528, 3528 and 2 x 1200; per edge type 1116 (24:24>8:6,
    # three), 1674 (8:6>24:24, three) or 234 (8:6>8:6, two):
    # 3 x 864 + 2 x 9456 + 3 x 1116 + 3 x 1674 + 2 x 234
    assert model.count_parameters() == 30342
    model.init_parameters(0)
    assert model.params.n_scalars() == 30342


def test_pilot_parameters_live_in_56_blocks():
    # one node group per type, by layer shape and then first node: the
    # 24:24 substations and three-phase prosumers, then the 8:6 global
    # node, feeders and single-phase prosumers, which keeps the flat node
    # order of grouping by shape; one edge group per edge type; one
    # affine block per MLP layer: 5 x 4 x 2 + 8 x 2
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    assert [g.key for g in model.groups] == [
        "substation:24:24", "prosumer:24:24", "global:8:6", "feeder:8:6",
        "prosumer:8:6"]
    assert [eg.key for eg in model.edge_groups] == [
        "prosumer:24:24>feeder:8:6", "substation:24:24>feeder:8:6",
        "substation:24:24>global:8:6", "feeder:8:6>prosumer:24:24",
        "feeder:8:6>substation:24:24", "global:8:6>substation:24:24",
        "feeder:8:6>prosumer:8:6", "prosumer:8:6>feeder:8:6"]
    flat = [nid for g in model.groups for nid in g.node_ids]
    shape = {nid: f"{s.q}:{s.p}" for nid, s in model.schemas.items()}
    assert flat == sorted(topo.ids(), key=lambda nid: shape[nid])
    assert len(model.params) == 56
    assert len(model.parameter_views()) == 112
    assert model.count_parameters() == 30342


def test_pilot_forward_runs_108_dense_layers():
    # 5 node types x (encoder, 3 aggregator steps, 2 decoders) x 2 layers
    # + 8 edge types x 3 steps x 2 layers; grouping by shape ran 42
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    f, m = ones_inputs(model)
    tape = dc.Tape()
    model.forward(f, m, tape=tape)
    dense = [r for r in tape.nodes if isinstance(r, dc.DenseRecord)]
    assert len(dense) == 108
    assert sum(r.rows is not None for r in dense) == 24  # edge first layers
    # one block per layer, no bias of its own; one clamp per group
    assert {r.key for r in dense} == set(model.params.values)
    assert len(tape.nodes) == 108 + len(model.groups)


def test_pilot_share_by_type_keeps_types_and_ids():
    # a type stays (kind, q, p); each MLP layer is one block, whose id is
    # its checkpoint ids' root
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
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
    assert set(blocks) == {pid.rsplit("/", 1)[0] for pid in views}
    assert blocks["type/global:8:6/enc/L0"].shape == (17, 17)
    assert blocks["etype/feeder:8:6>prosumer:8:6/msg/L0"].shape == (13, 13)
    assert np.shares_memory(views["type/global:8:6/enc/L0/W"],
                            blocks["type/global:8:6/enc/L0"])


def test_share_by_type_gradients_match_finite_differences():
    # two kinds share each layer shape, each with its own MLPs; the
    # feeder type's edges gather rows of both prosumer and feeder stacks
    topo, schemas = two_kinds_world()
    model = GnnModel(topo, schemas, GnnConfig(message_passing_steps=2))
    model.init_parameters(8)
    assert model.params.values["type/feeder:2:2/enc/L0"].shape == (5, 5)
    assert model.params.values[
        "etype/prosumer:2:2>feeder:2:2/msg/L0"].shape == (5, 5)
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
        return float(_nll(model, f, m, targets, None))

    assert dc.gradient_check(loss, model.params, analytic) < 1e-4


@pytest.mark.parametrize("name", ["shared"])
def test_checkpoints_written_under_kind_groups_predict_as_recorded(name):
    # written when nodes were grouped by (kind, q, p), with the untaped mu
    # and sigma that grouping gave for a fixed input; its model section
    # still says "share_by_type": true
    topo, _ = two_kinds_world()
    model = GnnModel.load_checkpoint(
        os.path.join(DATA, f"two_kinds_{name}.checkpoint.json"), topo)
    assert [g.key for g in model.groups] == [
        "global:1:1", "substation:1:1", "feeder:2:2", "prosumer:2:2"]
    with open(os.path.join(DATA, f"two_kinds_{name}.forward.json")) as fh:
        doc = json.load(fh)
    mask = {nid: np.array(doc["mask"][nid]) for nid in topo.ids()}
    f = model.pack({nid: np.where(mask[nid], doc["features"][nid], 0.0)
                    for nid in topo.ids()})
    m = model.pack({nid: mask[nid].astype(float) for nid in topo.ids()})
    mu, logvar = model.forward(f, m)
    mu = model.unpack(mu)
    sigma = model.unpack({k: np.exp(0.5 * v) for k, v in logvar.items()})
    for nid in topo.ids():
        np.testing.assert_allclose(mu[nid], doc["mu"][nid], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma[nid], doc["sigma"][nid],
                                   rtol=1e-12, atol=0)


def test_checkpoint_gradient_matches_the_recorded_one():
    # the gradient of the NLL of every feature, hidden or not, given the
    # fixture's masked input, recorded when nodes were grouped by layer
    # shape and each read its type's MLP from a block stacked by type
    topo, _ = two_kinds_world()
    model = GnnModel.load_checkpoint(
        os.path.join(DATA, "two_kinds_shared.checkpoint.json"), topo)
    with open(os.path.join(DATA, "two_kinds_shared.forward.json")) as fh:
        doc = json.load(fh)
    with open(os.path.join(DATA, "two_kinds_shared.gradient.json")) as fh:
        recorded = json.load(fh)
    mask = {nid: np.array(doc["mask"][nid]) for nid in topo.ids()}
    feats = {nid: np.array(doc["features"][nid]) for nid in topo.ids()}
    f = model.pack({nid: np.where(mask[nid], feats[nid], 0.0)
                    for nid in topo.ids()})
    m = model.pack({nid: mask[nid].astype(float) for nid in topo.ids()})
    weights = model.pack({nid: np.ones(v.shape) for nid, v in feats.items()})
    tape = dc.Tape()
    mu, logvar = model.forward(f, m, tape=tape)
    loss, _ = nll_loss_packed(mu, logvar, model.pack(feats), weights, tape=tape)
    dc.backward(tape, loss, 1.0)
    assert float(loss) == pytest.approx(recorded["loss"], rel=1e-12, abs=0)
    for block, grad in model.params.grads.items():  # read through the ids
        model.params.values[block][...] = grad
    views = model.parameter_views()
    assert list(views) == list(recorded["gradient"])
    for pid, view in views.items():
        np.testing.assert_allclose(view, recorded["gradient"][pid],
                                   rtol=1e-10, atol=0, err_msg=pid)


def test_per_node_checkpoints_are_rejected():
    # written with one MLP per node and per directed edge, which no model
    # has any more: it must be retrained, not read
    topo, _ = two_kinds_world()
    with pytest.raises(ValueError, match="per-node parameters.*retrain"):
        GnnModel.load_checkpoint(
            os.path.join(DATA, "two_kinds_default.checkpoint.json"), topo)


def test_share_by_type_shrinks_parameters():
    # one MLP per node and per directed edge, each of its type's shapes,
    # would hold 389,598 parameters on the pilot
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    size: dict[str, int] = {}
    for pid, view in model.parameter_views().items():
        owner = pid.split("/")[1]
        size[owner] = size.get(owner, 0) + view.size
    type_of = model.group_of
    per_node = sum(size[type_of[nid]] for nid in topo.ids())
    per_node += sum(size[f"{type_of[a]}>{type_of[b]}"] + size[
        f"{type_of[b]}>{type_of[a]}"] for a, b in topo.edges)
    assert per_node == 389598
    assert model.count_parameters() == 30342 < 0.1 * per_node
    model.init_parameters(1)
    f, m = ones_inputs(model)
    mu, _ = model.forward(f, m)
    assert mu["prosumer:8:6"].shape == (21, 1, 8)


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
        assert np.array_equal(mu_a[key], mu_b[key])
        assert np.array_equal(lv_a[key], lv_b[key])
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
    views["type/global:2:2/enc/L0/W"][...] = rng.standard_normal((4, 4)) * 1e-7
    views["type/prosumer:2:2/enc/L1/b"][...] = [1.0 / 3.0, -0.0]
    views["type/feeder:2:2/enc/L1/b"][...] = [2.0 ** -40, 5e-324]
    views["etype/feeder:2:2>prosumer:2:2/msg/L0/W"][...] = (
        rng.standard_normal((4, 4)) * 1e9)
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo).parameter_views()
    assert list(back) == list(views)
    for pid, value in views.items():
        assert back[pid].shape == value.shape
        assert np.array_equal(back[pid], value)
        assert np.array_equal(np.signbit(back[pid]), np.signbit(value))
    assert np.signbit(back["type/prosumer:2:2/enc/L1/b"][1])
    # a plain object with shape and values per parameter id
    doc = json.load(open(path))
    assert doc["parameters"]["type/global:2:2/enc/L0/W"]["shape"] == [4, 4]
    assert "share_by_type" not in doc["model"]


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


@pytest.mark.parametrize("fault, names", [
    ("nan_weight", "type/prosumer:2:2/enc/L0/W"),
    ("inf_bias", "etype/substation:2:2>feeder:2:2/msg/L1/b"),
    ("inf_std", "p1"), ("nan_mean", "g")])
def test_non_finite_checkpoint_values_are_rejected_on_load(tmp_path, fault,
                                                           names):
    # JSON reads NaN and Infinity as floats; NaN passes a std <= 0 check
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    path = os.path.join(tmp_path, "ckpt.json")
    model.save_checkpoint(path)
    doc = json.load(open(path))
    bad = {"nan": float("nan"), "inf": float("inf")}[fault.split("_")[0]]
    if fault.endswith(("weight", "bias")):
        doc["parameters"][names]["values"][0] = bad
    else:
        doc["standardization"][names][fault.split("_")[1]][1] = bad
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match=re.escape(repr(names)) + ".* finite"):
        GnnModel.load_checkpoint(path, topo)
    std = {nid: np.ones(2) for nid in topo.ids()}
    with pytest.raises(dc.ContractError, match="'s'.* finite"):
        model.set_standardization({**std, "s": np.array([0.0, bad])}, std)


def test_block_storage_keeps_ids_shapes_and_initial_draws():
    topo = chain_topology()
    # the global node alone has its layer shape
    schemas = {**tiny_schemas(topo), "g": tiny_schemas(topo, q=1)["g"]}
    model = GnnModel(topo, schemas)
    model.init_parameters(5)
    # the draws of one standalone MLP per id prefix, in id order: the node
    # types by layer shape key, role, then type; then the edge types by
    # source shape, destination shape, then edge type
    roles = ("enc", "agg", "dec_mu", "dec_lv")
    prefixes = [f"type/global:1:1/{role}" for role in roles]
    prefixes += [f"type/{kind}:2:2/{role}" for role in roles
                 for kind in ("feeder", "prosumer", "substation")]
    prefixes += [f"etype/{e}/msg" for e in (
        "global:1:1>substation:2:2", "substation:2:2>global:1:1",
        "feeder:2:2>prosumer:2:2", "feeder:2:2>substation:2:2",
        "prosumer:2:2>feeder:2:2", "substation:2:2>feeder:2:2")]
    specs = dict(model._mlps)
    reference = dc.ParameterSet()
    rng = np.random.default_rng(5)
    want = {}
    for prefix in prefixes:
        spec = specs[prefix]
        dc.mlp_init(reference, prefix, spec, rng)
        for i, a in enumerate(dc.mlp_layer_ids(prefix, spec)):
            want[f"{a}/W"], want[f"{a}/b"] = dc.mlp_views(
                reference.values[a], spec[i + 1])
    views = model.parameter_views()
    assert list(views) == list(want)
    for pid, value in want.items():
        assert views[pid].shape == value.shape
        assert np.array_equal(views[pid], value)
    assert views["type/prosumer:2:2/enc/L0/W"].shape == (4, 4)
    assert views["etype/feeder:2:2>prosumer:2:2/msg/L1/b"].shape == (2,)
    # one (i + 1, o) block per MLP layer, named by its ids' root, with a
    # hidden layer's constant unit as its last column
    blocks = model.params.values
    assert list(blocks) == list(dict.fromkeys(
        pid.rsplit("/", 1)[0] for pid in views))
    assert blocks["type/prosumer:2:2/enc/L0"].shape == (5, 5)
    assert blocks["etype/feeder:2:2>prosumer:2:2/msg/L1"].shape == (5, 2)
    assert blocks["type/global:1:1/enc/L1"].shape == (3, 1)
    assert blocks["etype/global:1:1>substation:2:2/msg/L0"].shape == (4, 4)
    assert np.shares_memory(views["type/prosumer:2:2/enc/L0/W"],
                            blocks["type/prosumer:2:2/enc/L0"])
    assert np.shares_memory(views["type/global:1:1/enc/L1/b"],
                            blocks["type/global:1:1/enc/L1"])


def test_inplace_write_through_parameter_id_changes_forward():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(3)
    f, m = ones_inputs(model, b=2, seed=6)
    before, _ = model.forward(f, m)
    before = model.unpack(before)
    model.parameter_views()["type/feeder:2:2/dec_mu/L1/b"][...] += 1.0
    after, _ = model.forward(f, m)
    after = model.unpack(after)
    for nid in topo.ids():
        shift = 1.0 if nid == "f" else 0.0
        assert np.allclose(after[nid] - before[nid], shift, atol=1e-12), nid


def _nll(model, f, m, targets, tape):
    mu, logvar = model.forward(f, m, tape=tape)
    total, _ = nll_loss_packed(mu, logvar, targets, m, tape=tape)
    return total


def test_gnn_gradients_match_finite_differences():
    # the chain's edges join one shape group, so each state's adjoint
    # adds a destination and a source part; the lone node's aggregator
    # reads a zero mean message and forms its state's adjoint only
    lone = load_topology({"nodes": [{"id": "g", "kind": "global"}],
                          "edges": []})
    for topo, config in ((chain_topology(), GnnConfig(message_passing_steps=2)),
                         (chain_topology(), GnnConfig(layers=3,
                                                      message_passing_steps=1)),
                         (lone, GnnConfig(message_passing_steps=2))):
        model = GnnModel(topo, tiny_schemas(topo), config)
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
            return float(_nll(model, f, m, targets, None))

        assert dc.gradient_check(loss, model.params, analytic) < 1e-4, config


def test_share_by_type_trains_and_reloads(tmp_path):
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(4)
    f, m = ones_inputs(model, b=8, seed=12)
    adam = dc.AdamState()
    losses = []
    for _ in range(20):
        tape = dc.Tape()
        loss = _nll(model, f, m, f, tape)
        dc.backward(tape, loss, 1.0)
        dc.adam_step(model.params, adam, lr=0.01)
        losses.append(float(loss))
    assert losses[-1] < losses[0]
    path = os.path.join(tmp_path, "shared.json")
    model.save_checkpoint(path)
    back = GnnModel.load_checkpoint(path, topo)
    a, _ = model.forward(f, m)
    b, _ = back.forward(f, m)
    for key in a:
        assert np.array_equal(a[key], b[key])
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
    hidden = {a for prefix, spec in model._mlps
              for a in dc.mlp_layer_ids(prefix, spec)[:-1]}
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
    # one layer loop runs both; the taped pass records its layers too
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(3)
    for b in (1, 24, 120):
        f, m = ones_inputs(model, b=b, seed=b)
        m = {k: (v * (np.arange(v.size).reshape(v.shape) % 3 > 0))
             for k, v in m.items()}
        untaped = model.forward(f, m)
        taped = model.forward(f, m, tape=dc.Tape())
        for want, got in zip(taped, untaped):
            for k in want:
                assert got[k].tobytes() == want[k].tobytes()


def _row_major_forward(model, features, mask):
    """The graph model's forward in plain numpy, every activation packed
    row-major (n, B, ·): ``x @ W + b`` per layer through the documented
    parameter ids, tanh on hidden layers, endpoint states gathered per
    edge, each node's incoming messages averaged edge by edge, and the
    log-variance clamped."""
    views, layers = model.parameter_views(), model.config.layers

    def mlp(prefix, x):
        for i in range(layers):
            x = x @ views[f"{prefix}/L{i}/W"] + views[f"{prefix}/L{i}/b"]
            x = np.tanh(x) if i < layers - 1 else x
        return x

    by_key = {g.key: g for g in model.groups}
    states = {g.key: mlp(f"type/{g.key}/enc", np.concatenate(
        [features[g.key], mask[g.key]], axis=-1)) for g in model.groups}
    for _ in range(model.config.message_passing_steps):
        total = {g.key: np.zeros(states[g.key].shape[:2]
                                 + (model.message_dim_for(g),))
                 for g in model.groups}
        count = {g.key: np.zeros((len(g.node_ids), 1, 1)) for g in model.groups}
        for eg in model.edge_groups:
            src, dst = by_key[eg.src_group], by_key[eg.dst_group]
            ends = [([dst.index_of[d] for _, d in eg.pairs], dst),
                    ([src.index_of[s] for s, _ in eg.pairs], src)]
            msg = mlp(f"etype/{eg.key}/msg", np.concatenate(
                [states[g.key][idx] for idx, g in ends], axis=-1))
            for (_, d), m in zip(eg.pairs, msg):
                total[dst.key][dst.index_of[d]] += m
                count[dst.key][dst.index_of[d]] += 1.0
        states = {g.key: mlp(f"type/{g.key}/agg", np.concatenate(
            [states[g.key], total[g.key] / np.maximum(count[g.key], 1.0)],
            axis=-1)) for g in model.groups}
    lo, hi = np.log(VAR_CLAMP_LO), np.log(VAR_CLAMP_HI)
    return ({g.key: mlp(f"type/{g.key}/dec_mu", states[g.key])
             for g in model.groups},
            {g.key: np.clip(mlp(f"type/{g.key}/dec_lv", states[g.key]), lo, hi)
             for g in model.groups})


@pytest.mark.parametrize("rows", [1, 7, 128])
def test_pilot_forward_matches_a_row_major_numpy_reference(rows):
    # the model's math apart from the engine's feature-major layout
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    model.init_parameters(5)
    f, m = ones_inputs(model, b=rows, seed=rows)
    m = {k: (v * (np.arange(v.size).reshape(v.shape) % 4 > 0))
         for k, v in m.items()}
    f = {k: v * m[k] for k, v in f.items()}
    for got, want in zip(model.forward(f, m), _row_major_forward(model, f, m)):
        for k, w in want.items():
            assert got[k].shape == w.shape, k
            assert np.abs(got[k] - w).max() <= 1e-12 * np.abs(w).max(), k


@pytest.mark.parametrize("kind", ["gnn", "mlp"])
def test_forward_reads_sliced_packed_inputs_as_their_copies(kind):
    # imputation.blocked_forward passes column slices of packed (n, B, q)
    # arrays; the models read them as their contiguous copies, and return
    # contiguous packed (n, B, q) arrays
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    model = (GnnModel(topo, schemas) if kind == "gnn"
             else build_baseline("mlp", topo, schemas, hidden=16, seed=2))
    f, m = ones_inputs(model, b=12, seed=9)
    m = {k: (v * (np.arange(v.size).reshape(v.shape) % 3 > 0))
         for k, v in m.items()}
    sliced = [{k: v[:, 2:9] for k, v in d.items()} for d in (f, m)]
    assert not all(v.flags.c_contiguous for v in sliced[0].values())
    copies = [{k: np.ascontiguousarray(v) for k, v in d.items()}
              for d in sliced]
    for got, want in zip(model.forward(*sliced), model.forward(*copies)):
        for g in model.groups:
            out = got[g.key]
            assert out.shape == (len(g.node_ids), 7, g.q)
            assert out.flags.c_contiguous
            assert out.tobytes() == want[g.key].tobytes(), g.key


def test_unknown_model_config_key_rejected():
    doc = {**GnnConfig().to_document(), "message_passing_step": 3}
    with pytest.raises(dc.ContractError, match="message_passing_step"):
        GnnConfig.from_document(doc)


def test_gnn_config_validation():
    # a count is a JSON integer: a checkpoint's 2.5 or true must not load
    # as a 2- or 1-step model
    for bad in ({"layers": 0}, {"layers": -1}, {"message_passing_steps": -1},
                {"layers": 2.0}, {"layers": True},
                {"message_passing_steps": 2.5},
                {"message_passing_steps": True}):
        with pytest.raises(dc.ContractError, match=next(iter(bad))):
            GnnConfig(**bad)
        with pytest.raises(dc.ContractError, match=next(iter(bad))):
            GnnConfig.from_document({**GnnConfig().to_document(), **bad})
    # checkpoints written with "share_by_type" hold type ids only if true
    legacy = {**GnnConfig().to_document(), "share_by_type": True}
    assert GnnConfig.from_document(legacy) == GnnConfig()
    for bad in (False, 1, None):
        with pytest.raises(dc.ContractError, match="per-node parameters"):
            GnnConfig.from_document({**legacy, "share_by_type": bad})
    for bad in (2.5, 0, -3, True, "foo", None):
        with pytest.raises(dc.ContractError, match="message_dim"):
            GnnConfig(message_dim=bad)
    assert GnnConfig(message_dim=4).message_dim == 4
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

