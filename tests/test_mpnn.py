"""Graph model tests: encode/message/decode semantics, locality,
permutation safety, parameter counting, checkpoints."""

import os
import time

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.gridgraph import NodeSchema, derive_schemas, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel
from gridmpnn.training import nll_loss_packed


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
    for pid in model.params.ids():
        model.params.values[pid][...] = 0.0
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
    assert states["prosumer:8:6"].data.shape == (21, 1, 6)


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
    for pid in model.params.ids():
        if "/msg/" in pid:
            model.params.values[pid][...] = 0.0
    for nid in topo.ids():
        p = schemas[nid].p
        w = model.params.values[f"node/{nid}/agg/L0/W"]
        w[...] = 0.0
        w[:p, :p] = np.eye(p)
        model.params.values[f"node/{nid}/agg/L0/b"][...] = 0.0
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
    assert mu["global:1:1"].data.shape == (1, 1, 1)


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
    for pid in model.params.ids():
        if "/dec_" in pid:
            model.params.values[pid][...] = 0.0
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

    for pid in model.params.ids():
        model2.params.values[rename_key(pid)][...] = model.params.values[pid]

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
    assert mu["prosumer:8:6"].data.shape == (21, 1, 8)


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


def test_stacked_storage_keeps_ids_shapes_and_initial_draws():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(5)
    # the same draws, one standalone array per id, in id order
    reference = dc.ParameterSet()
    rng = np.random.default_rng(5)
    for _, prefixes, spec in model._mlp_blocks:
        for prefix in prefixes:
            dc.mlp_init(reference, prefix, spec, rng)
    assert model.params.ids() == reference.ids()
    for pid in reference.ids():
        assert model.params.values[pid].shape == reference.values[pid].shape
        assert np.array_equal(model.params.values[pid],
                              reference.values[pid])
    assert model.params.values["node/p2/enc/L0/W"].shape == (4, 4)
    assert model.params.values["edge/f>p1/msg/L1/b"].shape == (2,)
    # the two prosumers and the edges from and to them share blocks
    blocks = model.params.block_values
    assert blocks["stack/prosumer:2:2/enc/L0/W"].shape == (2, 4, 4)
    assert blocks["stack/feeder:2:2>prosumer:2:2/msg/L1/b"].shape == (2, 1, 2)
    assert len(blocks) < len(model.params)


def test_inplace_write_through_parameter_id_changes_forward():
    topo = chain_topology()
    model = GnnModel(topo, tiny_schemas(topo))
    model.init_parameters(3)
    f, m = ones_inputs(model, b=2, seed=6)
    before, _ = model.forward(f, m)
    before = model.unpack({k: v.data for k, v in before.items()})
    model.params.values["node/p2/dec_mu/L1/b"][...] += 1.0
    after, _ = model.forward(f, m)
    after = model.unpack({k: v.data for k, v in after.items()})
    for nid in topo.ids():
        shift = 1.0 if nid == "p2" else 0.0
        assert np.allclose(after[nid] - before[nid], shift, atol=1e-12), nid


def _nll(model, f, m, targets, tape):
    mu, logvar = model.forward(f, m, tape=tape)
    total, _ = nll_loss_packed(mu, logvar, targets, m, tape)
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
    dc.backward(tape, _nll(model, f, m, targets, tape))
    analytic = {pid: model.params.grads[pid].copy()
                for pid in model.params.ids()}
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
        dc.backward(tape, loss)
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
