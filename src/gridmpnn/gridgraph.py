"""Grid topology hierarchy and per-node feature schemas.

A topology is a tree: one global node, substations under it, feeders
under substations, prosumers under feeders. Each node gets a
``NodeSchema`` describing its observed channels (current value plus
autoregressive lags, plus weather covariates at substations), which
fixes the node's feature dimensionality ``q`` and latent size ``p``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    phases = document.get("phases", {})
    nodes = []
    for i, rec in enumerate(document["nodes"]):
        if not isinstance(rec, dict) or "id" not in rec or "kind" not in rec:
            raise TopologyError(f"node record {i} must be an object with "
                                "'id' and 'kind'")
        kind = str(rec["kind"]).lower()
        nid = str(rec["id"])
        nodes.append(Node(nid, kind, int(phases.get(nid, 1))))
    edges = []
    for i, pair in enumerate(document.get("edges", [])):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TopologyError(f"edge record {i} must be a [parent, child] "
                                "pair")
        edges.append((str(pair[0]), str(pair[1])))
    return GridTopology(nodes, edges)


# ---------------------------------------------------------------------------
# Feature schemas


@dataclass(frozen=True)
class Channel:
    """One feature entry: a variable at a lag (0 = current sample)."""

    var: str
    lag: int
    category: str  # voltage | energy | weather

    @property
    def name(self) -> str:
        return self.var if self.lag == 0 else f"{self.var}@-{self.lag}"


@dataclass
class NodeSchema:
    """Observed variables, lags and weather covariates of one node."""

    node_id: str
    observed_variables: list[tuple[str, str]]  # (name, category)
    ar_lags: list[int]
    weather_covariates: list[str]
    p: int

    def __post_init__(self) -> None:
        if self.p > self.q or self.p < 1:
            raise SchemaError(
                f"node {self.node_id!r}: latent size {self.p} outside [1, q={self.q}]")
        if any(lag <= 0 for lag in self.ar_lags):
            raise SchemaError(f"node {self.node_id!r}: lags must be positive")

    @property
    def q(self) -> int:
        per = 1 + len(self.ar_lags)
        return (len(self.observed_variables) + len(self.weather_covariates)) * per

    def channels(self) -> list[Channel]:
        out = []
        for var, cat in self.observed_variables:
            out.append(Channel(var, 0, cat))
            out.extend(Channel(var, lag, cat) for lag in self.ar_lags)
        for var in self.weather_covariates:
            out.append(Channel(var, 0, WEATHER))
            out.extend(Channel(var, lag, WEATHER) for lag in self.ar_lags)
        return out

    def channel_index(self) -> dict[str, int]:
        return {ch.name: i for i, ch in enumerate(self.channels())}


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
        return {"ar_lags": list(self.ar_lags),
                "latent_small": self.latent_small,
                "latent_large": self.latent_large,
                "weather_covariates": list(self.weather_covariates)}

    @classmethod
    def from_document(cls, doc: dict) -> "SchemaConfig":
        return cls(ar_lags=list(doc["ar_lags"]),
                   latent_small=int(doc["latent_small"]),
                   latent_large=int(doc["latent_large"]),
                   weather_covariates=list(doc["weather_covariates"]))


_PHASE_SUFFIX = ("a", "b", "c")


def _prosumer_vars(phases: int) -> list[tuple[str, str]]:
    if phases == 1:
        return [("voltage", VOLTAGE), ("energy", ENERGY)]
    out = [(f"voltage_{s}", VOLTAGE) for s in _PHASE_SUFFIX]
    out += [(f"energy_{s}", ENERGY) for s in _PHASE_SUFFIX]
    return out


def derive_schemas(topology: GridTopology,
                   config: Optional[SchemaConfig] = None) -> dict[str, NodeSchema]:
    """Pure derivation of every node's schema from topology + config."""
    config = config or SchemaConfig()
    schemas: dict[str, NodeSchema] = {}
    for node in topology.nodes:
        if node.kind == PROSUMER:
            obs = _prosumer_vars(node.phases)
            wx: list[str] = []
        elif node.kind == FEEDER:
            obs = [("load_p", ENERGY), ("load_q", ENERGY)]
            wx = []
        elif node.kind == SUBSTATION:
            obs = [(f"load_{s}", ENERGY) for s in _PHASE_SUFFIX]
            wx = list(config.weather_covariates)
        elif node.kind == GLOBAL:
            obs = [("load_p", ENERGY), ("load_q", ENERGY)]
            wx = []
        else:
            raise SchemaError(f"node {node.node_id!r}: unknown kind {node.kind!r}")
        per = 1 + len(config.ar_lags)
        q = (len(obs) + len(wx)) * per
        schemas[node.node_id] = NodeSchema(
            node_id=node.node_id,
            observed_variables=obs,
            ar_lags=list(config.ar_lags),
            weather_covariates=wx,
            p=config.latent_for(q),
        )
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
