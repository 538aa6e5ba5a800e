"""Grid topology hierarchy and per-node feature schemas.

A topology is a tree: one global node, substations under it, feeders
under substations, prosumers under feeders. Each node gets a
``NodeSchema`` describing its observed channels (current value plus
autoregressive lags, plus weather covariates at substations), which
fixes the node's feature dimensionality ``q`` and latent size ``p``.
The schema builds its channel table once: every other module reads a
channel's position, name, category, lag and series from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

GLOBAL = "global"
SUBSTATION = "substation"
FEEDER = "feeder"
PROSUMER = "prosumer"
KINDS = (GLOBAL, SUBSTATION, FEEDER, PROSUMER)

# category tags used by training augmentation, prediction and bidding
VOLTAGE = "voltage"
ENERGY = "energy"
WEATHER = "weather"

_PARENT_KIND = {SUBSTATION: GLOBAL, FEEDER: SUBSTATION, PROSUMER: FEEDER}


class TopologyError(ValueError):
    """Topology document violates the tree/kind invariants."""


class SchemaError(ValueError):
    """Schema derivation failed or a schema is inconsistent."""


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str
    phases: int = 1  # 1 or 3; only meaningful for prosumers


class GridTopology:
    """Validated hierarchical tree of nodes and edges. Immutable after load."""

    def __init__(self, nodes: Sequence[Node], edges: Sequence[tuple[str, str]]):
        self.nodes = list(nodes)
        self.edges = [(str(p), str(c)) for p, c in edges]
        self._by_id = {n.node_id: n for n in self.nodes}
        self.parent: dict[str, str] = {}
        self.children: dict[str, list[str]] = {n.node_id: [] for n in self.nodes}
        self._validate()

    def _validate(self) -> None:
        if len(self._by_id) != len(self.nodes):
            seen = set()
            for n in self.nodes:
                if n.node_id in seen:
                    raise TopologyError(f"duplicate node id {n.node_id!r}")
                seen.add(n.node_id)
        for n in self.nodes:
            if n.kind not in KINDS:
                raise TopologyError(f"node {n.node_id!r}: unknown kind {n.kind!r}")
            if n.kind == PROSUMER and n.phases not in (1, 3):
                raise TopologyError(
                    f"node {n.node_id!r}: phase count must be 1 or 3")
        roots = [n for n in self.nodes if n.kind == GLOBAL]
        if len(roots) != 1:
            raise TopologyError(f"expected exactly one global node, got {len(roots)}")
        self.root = roots[0].node_id

        for parent, child in self.edges:
            for nid in (parent, child):
                if nid not in self._by_id:
                    raise TopologyError(f"edge references unknown node {nid!r}")
            if child in self.parent:
                raise TopologyError(f"node {child!r} has multiple parents")
            ck = self._by_id[child].kind
            if ck == GLOBAL:
                raise TopologyError(f"global node {child!r} cannot have a parent")
            if self._by_id[parent].kind != _PARENT_KIND[ck]:
                raise TopologyError(
                    f"node {child!r} ({ck}) cannot attach to "
                    f"{parent!r} ({self._by_id[parent].kind})")
            self.parent[child] = parent
            self.children[parent].append(child)

        for n in self.nodes:
            if n.kind != GLOBAL and n.node_id not in self.parent:
                raise TopologyError(f"node {n.node_id!r} is disconnected")
        if len(self.edges) != len(self.nodes) - 1:
            raise TopologyError("edges do not form a tree")

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def ids(self, kind: Optional[str] = None) -> list[str]:
        return [n.node_id for n in self.nodes if kind is None or n.kind == kind]

    def to_document(self) -> dict:
        doc = {
            "nodes": [{"id": n.node_id, "kind": n.kind} for n in self.nodes],
            "edges": [[p, c] for p, c in self.edges],
        }
        phases = {n.node_id: n.phases for n in self.nodes
                  if n.kind == PROSUMER and n.phases != 1}
        if phases:
            doc["phases"] = phases
        return doc

    def content_hash(self) -> str:
        canon = json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_topology(document) -> GridTopology:
    """Parse and validate a topology document (JSON text or dict)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise TopologyError(f"topology document is not valid JSON: {e}") from e
    if not isinstance(document, dict) or "nodes" not in document:
        raise TopologyError("topology document must be an object with 'nodes'")
    phases, edge_records = document.get("phases", {}), document.get("edges", [])
    for section, records in (("nodes", document["nodes"]),
                             ("edges", edge_records)):
        if not isinstance(records, (list, tuple)):
            raise TopologyError(f"topology {section!r} must be an array")
    if not (isinstance(phases, dict)
            and all(type(n) is int for n in phases.values())):
        raise TopologyError("topology 'phases' must be an object of integers")
    nodes = []
    for i, rec in enumerate(document["nodes"]):
        if not isinstance(rec, dict) or "id" not in rec or "kind" not in rec:
            raise TopologyError(f"node record {i} must be an object with "
                                "'id' and 'kind'")
        kind = str(rec["kind"]).lower()
        nid = str(rec["id"])
        nodes.append(Node(nid, kind, phases.get(nid, 1)))
    edges = []
    for i, pair in enumerate(edge_records):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TopologyError(f"edge record {i} must be a [parent, child] "
                                "pair")
        edges.append((str(pair[0]), str(pair[1])))
    return GridTopology(nodes, edges)


# ---------------------------------------------------------------------------
# Feature schemas


@dataclass(frozen=True, slots=True)
class Channel:
    """One feature entry: a variable at a lag (0 = current sample), and
    the dataset series it reads."""

    var: str
    lag: int
    category: str  # voltage | energy | weather
    sensor: str

    @property
    def name(self) -> str:
        return self.var if self.lag == 0 else f"{self.var}@-{self.lag}"


@dataclass(frozen=True)
class NodeSchema:
    """Observed variables, lags and weather covariates of one node, and
    the channel table they fix, built once here: the channels in order,
    each reading the weather series when its variable is one of the
    node's weather covariates; the index of their names; and the lag-0
    channels of each category."""

    node_id: str
    observed_variables: list[tuple[str, str]]  # (name, category)
    ar_lags: list[int]
    weather_covariates: list[str]
    p: int

    def __post_init__(self) -> None:
        lags, wx = self.ar_lags, self.weather_covariates
        # a bool is an int to Python, not a lag
        if not (all(type(lag) is int and lag > 0 for lag in lags)
                and len(set(lags)) == len(lags)):
            raise SchemaError(f"node {self.node_id!r}: ar_lags must be "
                              f"distinct positive integers, not {lags!r}")
        if not (all(type(var) is str for var in wx)
                and len(set(wx)) == len(wx)):
            raise SchemaError(f"node {self.node_id!r}: weather_covariates "
                              f"must be distinct strings, not {wx!r}")
        chans = tuple(Channel(var, lag, cat, sensor_id(self.node_id, var,
                                                       weather=var in wx))
                      for var, cat in [*self.observed_variables,
                                       *((var, WEATHER) for var in wx)]
                      for lag in (0, *self.ar_lags))
        lag0: dict[str, tuple[int, ...]] = {}
        for c, ch in enumerate(chans):
            if ch.lag == 0:
                lag0[ch.category] = (*lag0.get(ch.category, ()), c)
        # not fields: a schema is compared by its fields
        object.__setattr__(self, "_channels", chans)
        object.__setattr__(self, "_index", MappingProxyType(
            {ch.name: c for c, ch in enumerate(chans)}))
        object.__setattr__(self, "_lag0", lag0)
        if self.p > self.q or self.p < 1:
            raise SchemaError(
                f"node {self.node_id!r}: latent size {self.p} outside [1, q={self.q}]")

    @property
    def q(self) -> int:
        return len(self._channels)

    def channels(self) -> tuple[Channel, ...]:
        return self._channels

    def channel_index(self) -> Mapping[str, int]:
        return self._index

    def lag0_indices(self, category: str) -> tuple[int, ...]:
        """Positions of the current-time channels of ``category``."""
        return self._lag0.get(category, ())


def lag_horizon(schemas: Mapping[str, NodeSchema]) -> int:
    """The longest lag of any schema: the history a sample needs."""
    return max((lag for s in schemas.values() for lag in s.ar_lags), default=0)


@dataclass
class SchemaConfig:
    """Knobs for schema derivation.

    Defaults give q=8 single-phase prosumers / feeders / global and q=24
    three-phase prosumers / substations, with the 6/24 latent rule and
    24/36/48-hour lags on the 15-minute grid.
    """

    ar_lags: list[int] = field(default_factory=lambda: [96, 144, 192])
    latent_small: int = 6
    latent_large: int = 24
    weather_covariates: list[str] = field(
        default_factory=lambda: ["temperature", "irradiance", "cloud_cover"])

    def latent_for(self, q: int) -> int:
        return self.latent_small if q <= 8 else min(self.latent_large, q)

    def to_document(self) -> dict:
        return asdict(self)

    @classmethod
    def from_document(cls, doc: dict) -> "SchemaConfig":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


_PHASE_SUFFIXES = ("_a", "_b", "_c")


def derive_schemas(topology: GridTopology,
                   config: Optional[SchemaConfig] = None) -> dict[str, NodeSchema]:
    """Pure derivation of every node's schema from topology + config."""
    config = config or SchemaConfig()
    schemas: dict[str, NodeSchema] = {}
    for node in topology.nodes:
        if node.kind == PROSUMER:
            obs = [(var + s, cat) for var, cat in (("voltage", VOLTAGE),
                                                   ("energy", ENERGY))
                   for s in (_PHASE_SUFFIXES if node.phases == 3 else ("",))]
        elif node.kind == SUBSTATION:
            obs = [(f"load{s}", ENERGY) for s in _PHASE_SUFFIXES]
        else:  # a feeder or the global node: the power it carries
            obs = [("load_p", ENERGY), ("load_q", ENERGY)]
        wx = list(config.weather_covariates) if node.kind == SUBSTATION else []
        schema = NodeSchema(node.node_id, obs, list(config.ar_lags), wx, p=1)
        schemas[node.node_id] = replace(schema, p=config.latent_for(schema.q))
    return schemas


def total_feature_dim(schemas: dict[str, NodeSchema]) -> int:
    """Sum of q over all nodes; the flattened width the baselines consume."""
    return sum(s.q for s in schemas.values())


def total_latent_dim(schemas: dict[str, NodeSchema]) -> int:
    """Sum of p over all nodes; the auto-encoder bottleneck width."""
    return sum(s.p for s in schemas.values())


def sensor_id(node_id: str, var: str, weather: bool = False) -> str:
    """Series naming convention: 'node:var', weather prefixed with 'wx:'."""
    return f"wx:{node_id}:{var}" if weather else f"{node_id}:{var}"
