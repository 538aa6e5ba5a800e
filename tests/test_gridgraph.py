"""Topology validation and schema derivation tests."""

import dataclasses
import json

import pytest

from gridmpnn import gridsim
from gridmpnn.gridgraph import (ENERGY, VOLTAGE, WEATHER, NodeSchema,
                                SchemaConfig, SchemaError, TopologyError,
                                derive_schemas, load_topology,
                                total_feature_dim, total_latent_dim)


def _doc(nodes, edges, phases=None):
    d = {"nodes": nodes, "edges": edges}
    if phases:
        d["phases"] = phases
    return d


def test_pilot_shaped_topology_counts():
    topo = gridsim.pilot_topology()
    assert len(topo.nodes) == 69
    assert len(topo.edges) == 68
    assert len(topo.ids("substation")) == 15
    assert len(topo.ids("feeder")) == 25
    prosumers = topo.ids("prosumer")
    assert len(prosumers) == 28
    assert sum(1 for p in prosumers if topo.node(p).phases == 3) == 7


def test_single_global_node_is_valid_degenerate_topology():
    topo = load_topology(_doc([{"id": "g", "kind": "global"}], []))
    assert topo.root == "g"
    assert topo.edges == []


def test_prosumer_with_two_parent_feeders_rejected():
    doc = _doc(
        [{"id": "g", "kind": "global"}, {"id": "s", "kind": "substation"},
         {"id": "f1", "kind": "feeder"}, {"id": "f2", "kind": "feeder"},
         {"id": "p", "kind": "prosumer"}],
        [["g", "s"], ["s", "f1"], ["s", "f2"], ["f1", "p"], ["f2", "p"]])
    with pytest.raises(TopologyError, match="'p'"):
        load_topology(doc)


def test_kind_mismatch_parentage_rejected():
    doc = _doc(
        [{"id": "g", "kind": "global"}, {"id": "s", "kind": "substation"},
         {"id": "p", "kind": "prosumer"}],
        [["g", "s"], ["s", "p"]])  # prosumer must hang off a feeder
    with pytest.raises(TopologyError, match="'p'"):
        load_topology(doc)


def test_duplicate_node_id_rejected():
    doc = _doc([{"id": "g", "kind": "global"}, {"id": "g", "kind": "global"}], [])
    with pytest.raises(TopologyError, match="duplicate|one global"):
        load_topology(doc)


def test_disconnected_node_rejected():
    doc = _doc([{"id": "g", "kind": "global"},
                {"id": "s", "kind": "substation"}], [])
    with pytest.raises(TopologyError, match="'s'"):
        load_topology(doc)


def test_unknown_kind_rejected():
    with pytest.raises(TopologyError, match="unknown kind"):
        load_topology(_doc([{"id": "g", "kind": "plant"}], []))


def test_malformed_json_rejected():
    with pytest.raises(TopologyError):
        load_topology("{not json")


_GS = [{"id": "g", "kind": "global"}, {"id": "s", "kind": "substation"}]


@pytest.mark.parametrize("nodes, edges, named", [
    ([_GS[0], {"id": "s"}], [["g", "s"]], "node record 1"),
    ([_GS[0], {"kind": "substation"}], [["g", "s"]], "node record 1"),
    (["g", _GS[1]], [["g", "s"]], "node record 0"),
    (_GS, [["g", "s", "x"]], "edge record 0"),
    (_GS, [["g", "s"], "gs"], "edge record 1"),
    (_GS, [{"parent": "g", "child": "s"}], "edge record 0"),
], ids=["no_kind", "no_id", "node_string", "edge_triple", "edge_string",
        "edge_object"])
def test_malformed_records_are_named_by_position(nodes, edges, named):
    with pytest.raises(TopologyError, match=named):
        load_topology(_doc(nodes, edges))


@pytest.mark.parametrize("doc, named", [
    ({"nodes": 5, "edges": []}, "topology 'nodes' must be an array"),
    ({"nodes": _GS, "edges": 3}, "topology 'edges' must be an array"),
    (_doc(_GS, [["g", "s"]], phases=[1]), "topology 'phases' must be an object"),
    (_doc(_GS, [["g", "s"]], phases={"s": None}), "object of integers"),
], ids=["nodes_int", "edges_int", "phases_list", "phase_null"])
def test_malformed_sections_are_named(doc, named):
    with pytest.raises(TopologyError, match=named):
        load_topology(doc)


def test_topology_document_roundtrip_and_hash_stability():
    topo = gridsim.pilot_topology()
    doc = topo.to_document()
    again = load_topology(json.dumps(doc))
    assert again.content_hash() == topo.content_hash()
    assert again.to_document() == doc


# ---------------------------------------------------------------------------
# Schemas


def test_single_phase_prosumer_schema_q8_p6():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    s = schemas["p1"]
    assert topo.node("p1").phases == 1
    assert s.q == 8
    assert s.p == 6
    cats = {ch.category for ch in s.channels()}
    assert cats == {VOLTAGE, ENERGY}


def test_three_phase_prosumer_schema_q24_p24():
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    s = schemas["p4"]
    assert topo.node("p4").phases == 3
    assert s.q == 24
    assert s.p == 24


def test_substation_schema_includes_weather_q24():
    schemas = derive_schemas(gridsim.pilot_topology())
    s = schemas["s1"]
    assert s.q == 24
    assert s.p == 24
    assert s.weather_covariates == ["temperature", "irradiance", "cloud_cover"]
    assert sum(1 for ch in s.channels() if ch.category == WEATHER) == 12


def test_feeder_and_global_schema_q8_p6():
    schemas = derive_schemas(gridsim.pilot_topology())
    for nid in ("f1", "grid"):
        assert schemas[nid].q == 8
        assert schemas[nid].p == 6


def test_default_lags_are_24_36_48_hours():
    schemas = derive_schemas(gridsim.pilot_topology())
    assert schemas["p1"].ar_lags == [96, 144, 192]


def test_q_formula_invariant_holds_for_all_nodes():
    schemas = derive_schemas(gridsim.pilot_topology())
    for s in schemas.values():
        per = 1 + len(s.ar_lags)
        assert s.q == (len(s.observed_variables) + len(s.weather_covariates)) * per
        assert 1 <= s.p <= s.q


def test_pilot_total_feature_dimension():
    schemas = derive_schemas(gridsim.pilot_topology())
    # 21*8 + 7*24 + 25*8 + 15*24 + 8 = 904
    assert total_feature_dim(schemas) == 904
    # 21*6 + 7*24 + 25*6 + 15*24 + 6 = 810
    assert total_latent_dim(schemas) == 810


def test_schema_derivation_is_pure():
    topo = gridsim.pilot_topology()
    cfg = SchemaConfig()
    a = derive_schemas(topo, cfg)
    b = derive_schemas(topo, cfg)
    for nid in topo.ids():
        assert a[nid].channels() == b[nid].channels()
        assert a[nid].p == b[nid].p


def test_channel_ordering_current_then_lags():
    schemas = derive_schemas(gridsim.pilot_topology())
    names = [ch.name for ch in schemas["p1"].channels()]
    assert names[:4] == ["voltage", "voltage@-96", "voltage@-144", "voltage@-192"]
    assert names[4] == "energy"


def test_channel_table_is_built_once():
    s = derive_schemas(gridsim.pilot_topology())["s1"]
    assert s.channels() is s.channels()
    assert s.channel_index() is s.channel_index()
    assert [s.channel_index()[ch.name] for ch in s.channels()] == list(range(24))
    sensors = [ch.sensor for ch in s.channels()]
    assert sensors[:5] == ["s1:load_a"] * 4 + ["s1:load_b"]
    assert sensors[12:17] == ["wx:s1:temperature"] * 4 + ["wx:s1:irradiance"]
    assert s.lag0_indices(ENERGY) == (0, 4, 8)
    assert s.lag0_indices(WEATHER) == (12, 16, 20)
    assert s.lag0_indices(VOLTAGE) == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.ar_lags = [1]  # the table could no longer follow


def test_a_variable_named_like_a_weather_covariate_reads_the_weather():
    s = NodeSchema("x", [("temperature", ENERGY)], [], ["temperature"], p=1)
    assert [ch.sensor for ch in s.channels()] == ["wx:x:temperature"] * 2


def test_node_schema_rejects_bad_latent_size():
    with pytest.raises(SchemaError):
        NodeSchema("x", [("v", VOLTAGE)], [], [], p=5)  # p > q = 1


def test_custom_lagless_schema():
    s = NodeSchema("x", [("v", VOLTAGE)], [], [], p=1)
    assert s.q == 1
    assert [ch.name for ch in s.channels()] == ["v"]


def test_schema_config_roundtrip():
    cfg = SchemaConfig(ar_lags=[4, 8], latent_small=3)
    back = SchemaConfig.from_document(cfg.to_document())
    assert back.ar_lags == [4, 8]
    assert back.latent_small == 3
