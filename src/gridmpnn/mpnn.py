"""Message-passing graph neural network over a grid topology.

Per node: an encoder MLP (features + observed-mask -> latent state), a
mean decoder and a log-variance decoder (latent -> feature space). Per
directed edge: a message MLP (both endpoint states -> message). Per
node again: an aggregator MLP (own state + mean incoming message ->
next state). Inference is one feed-forward chain:

    encode -> T synchronous message-passing steps -> decode

For speed, nodes with identical layer shapes are evaluated together as
stacked MLP applications, and message aggregation is a (constant)
routing-matrix multiply. Parameters stay per-node / per-directed-edge
unless ``share_by_type`` is set; per-node and per-edge MLPs of one group
are stored as stacked (n, i, o) weight and (n, 1, o) bias blocks named
``stack/<group>/<role>/...`` and ``stack/<src_group>><dst_group>/msg/...``,
with every documented id below a view into its block.

Parameter-id scheme (stable; checkpoints and tests rely on it):

    node/<node_id>/enc|agg|dec_mu|dec_lv/L<i>/W|b
    edge/<src>><dst>/msg/L<i>/W|b
    type/<group>/...  and  etype/<src_group>><dst_group>/msg/...   (shared)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ParameterSet, ShapeError, Tape, Tensor
from .gridgraph import (GridTopology, NodeSchema, SchemaConfig, load_topology)

VAR_CLAMP_LO = 1e-6
VAR_CLAMP_HI = 1e6

CHECKPOINT_VERSION = 1


@dataclass
class GnnConfig:
    """Architecture knobs: weight layers per MLP, message-passing steps,
    message dimensionality rule, optional parameter sharing by node type."""

    layers: int = 2
    message_passing_steps: int = 5
    message_dim: int | str = "dest_latent"
    share_by_type: bool = False

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise dc.ContractError("layers must be at least 1")
        if self.message_passing_steps < 0:
            raise dc.ContractError("message_passing_steps cannot be negative")

    def to_document(self) -> dict:
        return {"layers": self.layers,
                "message_passing_steps": self.message_passing_steps,
                "message_dim": self.message_dim,
                "share_by_type": self.share_by_type}

    @classmethod
    def from_document(cls, doc: dict) -> "GnnConfig":
        unknown = sorted(set(doc) - set(cls().to_document()))
        if unknown:
            raise dc.ContractError(f"unknown model keys: {', '.join(unknown)}")
        return cls(layers=int(doc["layers"]),
                   message_passing_steps=int(doc["message_passing_steps"]),
                   message_dim=doc["message_dim"],
                   share_by_type=bool(doc["share_by_type"]))


@dataclass
class NodePrediction:
    """Per-node mean and diagonal variance in physical units."""

    node_id: str
    mu: np.ndarray
    var: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.var)


@dataclass
class NodeGroup:
    key: str
    node_ids: list[str]
    q: int
    p: int
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}


def group_key(kind: str, q: int, p: int) -> str:
    return f"{kind}:{q}:{p}"


def compute_groups(topology: GridTopology,
                   schemas: dict[str, NodeSchema]) -> list[NodeGroup]:
    """Deterministic grouping of nodes by (kind, q, p); node order within a
    group follows topology order, groups sorted by key."""
    buckets: dict[str, list[str]] = {}
    for node in topology.nodes:
        s = schemas[node.node_id]
        buckets.setdefault(group_key(node.kind, s.q, s.p), []).append(node.node_id)
    out = []
    for key in sorted(buckets):
        ids = buckets[key]
        s = schemas[ids[0]]
        out.append(NodeGroup(key, ids, s.q, s.p))
    return out


@dataclass
class _EdgeGroup:
    key: str
    src_group: str
    dst_group: str
    pairs: list[tuple[str, str]]
    src_idx: np.ndarray
    dst_idx: np.ndarray
    spec: list[int]
    prefixes: list[str]
    block: str


def _layer_spec(in_dim: int, out_dim: int, layers: int) -> list[int]:
    hidden = max(in_dim, out_dim)
    return [in_dim] + [hidden] * (layers - 1) + [out_dim]


class ModelBase:
    """Shared surface of graph and centralized models: node grouping,
    packing and standardization."""

    def _init_base(self, topology: GridTopology,
                   schemas: dict[str, NodeSchema]) -> None:
        self.topology = topology
        self.schemas = schemas
        self.params = ParameterSet()
        self.groups = compute_groups(topology, schemas)
        self.group_of = {nid: g.key for g in self.groups for nid in g.node_ids}
        self._group_by_key = {g.key: g for g in self.groups}
        # standardization: per node, per channel mean/std (identity default)
        self.std_mean: dict[str, np.ndarray] = {
            nid: np.zeros(schemas[nid].q) for nid in topology.ids()}
        self.std_std: dict[str, np.ndarray] = {
            nid: np.ones(schemas[nid].q) for nid in topology.ids()}

    def set_standardization(self, mean: dict[str, np.ndarray],
                            std: dict[str, np.ndarray]) -> None:
        for nid in self.topology.ids():
            m, s = np.asarray(mean[nid], float), np.asarray(std[nid], float)
            if m.shape != (self.schemas[nid].q,) or s.shape != m.shape:
                raise ShapeError(f"standardization stats for {nid!r} have wrong shape")
            if np.any(s <= 0):
                raise ShapeError(f"standardization std for {nid!r} must be positive")
            self.std_mean[nid] = m.copy()
            self.std_std[nid] = s.copy()

    def pack(self, per_node: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Stack per-node (B, q) arrays into per-group (n, B, q) arrays."""
        out = {}
        for g in self.groups:
            mats = []
            for nid in g.node_ids:
                a = np.asarray(per_node[nid], dtype=np.float64)
                if a.ndim == 1:
                    a = a[None, :]
                if a.shape[-1] != g.q:
                    raise ShapeError(
                        f"node {nid!r}: expected {g.q} features, got {a.shape[-1]}")
                mats.append(a)
            out[g.key] = np.stack(mats, axis=0)
        return out

    def unpack(self, packed: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for g in self.groups:
            arr = packed[g.key]
            for i, nid in enumerate(g.node_ids):
                out[nid] = arr[i]
        return out


class GnnModel(ModelBase):
    """The trained object: topology + schemas + all function parameters +
    per-channel standardization statistics."""

    def __init__(self, topology: GridTopology, schemas: dict[str, NodeSchema],
                 config: Optional[GnnConfig] = None,
                 schema_config: Optional[SchemaConfig] = None):
        self._init_base(topology, schemas)
        self.config = config or GnnConfig()
        self.schema_config = schema_config
        self._compile_edges()
        self._compile_routing()
        self._build_parameters()

    # -- compilation -------------------------------------------------------

    def message_dim_for(self, group: NodeGroup) -> int:
        if self.config.message_dim == "dest_latent":
            return group.p
        return int(self.config.message_dim)

    def _enc_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(2 * g.q, g.p, self.config.layers)

    def _agg_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(g.p + self.message_dim_for(g), g.p, self.config.layers)

    def _dec_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(g.p, g.q, self.config.layers)

    def _node_prefixes(self, g: NodeGroup, role: str) -> list[str]:
        if self.config.share_by_type:
            return [f"type/{g.key}/{role}"]
        return [f"node/{nid}/{role}" for nid in g.node_ids]

    def _compile_edges(self) -> None:
        directed: list[tuple[str, str]] = []
        for parent, child in self.topology.edges:
            directed.append((parent, child))
            directed.append((child, parent))
        buckets: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for src, dst in directed:
            buckets.setdefault((self.group_of[src], self.group_of[dst]),
                               []).append((src, dst))
        self.edge_groups: list[_EdgeGroup] = []
        for (gs, gd) in sorted(buckets):
            pairs = buckets[(gs, gd)]
            sg, dg = self._group_by_key[gs], self._group_by_key[gd]
            spec = _layer_spec(sg.p + dg.p, self.message_dim_for(dg),
                               self.config.layers)
            if self.config.share_by_type:
                prefixes = [f"etype/{gs}>{gd}/msg"]
            else:
                prefixes = [f"edge/{s}>{d}/msg" for s, d in pairs]
            key = f"{gs}>{gd}"
            self.edge_groups.append(_EdgeGroup(
                key=key,
                src_group=gs, dst_group=gd, pairs=pairs,
                src_idx=np.array([sg.index_of[s] for s, _ in pairs], dtype=np.intp),
                dst_idx=np.array([dg.index_of[d] for _, d in pairs], dtype=np.intp),
                spec=spec, prefixes=prefixes,
                block=_block_name(f"stack/{key}/msg", prefixes)))

    def _compile_routing(self) -> None:
        """Per node group, the (n_nodes, n_incoming_edges) matrix whose rows
        average the concatenated incoming messages of the group."""
        degree: dict[str, int] = {nid: 0 for nid in self.topology.ids()}
        for eg in self.edge_groups:
            for _, dst in eg.pairs:
                degree[dst] += 1
        self.routing: dict[str, np.ndarray] = {}
        self._incoming_groups: dict[str, list[_EdgeGroup]] = {
            g.key: [] for g in self.groups}
        for eg in self.edge_groups:
            self._incoming_groups[eg.dst_group].append(eg)
        for g in self.groups:
            egs = self._incoming_groups[g.key]
            n_in = sum(len(eg.pairs) for eg in egs)
            if n_in == 0:
                continue
            r = np.zeros((len(g.node_ids), n_in))
            col = 0
            for eg in egs:
                for _, dst in eg.pairs:
                    r[g.index_of[dst], col] = 1.0 / degree[dst]
                    col += 1
            self.routing[g.key] = r

    def _build_parameters(self) -> None:
        # (block, member prefixes, layer spec) in parameter-id order
        self._mlp_blocks: list[tuple[str, list[str], list[int]]] = []
        self._node_blocks: dict[tuple[str, str], str] = {}
        for g in self.groups:
            for role, spec in (("enc", self._enc_spec(g)),
                               ("agg", self._agg_spec(g)),
                               ("dec_mu", self._dec_spec(g)),
                               ("dec_lv", self._dec_spec(g))):
                prefixes = self._node_prefixes(g, role)
                block = _block_name(f"stack/{g.key}/{role}", prefixes)
                self._node_blocks[g.key, role] = block
                self._mlp_blocks.append((block, prefixes, spec))
        for eg in self.edge_groups:
            self._mlp_blocks.append((eg.block, eg.prefixes, eg.spec))

    def init_parameters(self, seed: int = 0) -> None:
        """(Re)initialize every MLP from a seeded generator."""
        rng = np.random.default_rng(seed)
        self.params = ParameterSet()
        for _, prefixes, spec in self._mlp_blocks:
            for prefix in prefixes:
                dc.mlp_init(self.params, prefix, spec, rng)
        self._stack_parameters()

    def _stack_parameters(self) -> None:
        for block, prefixes, spec in self._mlp_blocks:
            if len(prefixes) > 1:
                dc.mlp_stack(self.params, block, prefixes, spec)

    def count_parameters(self) -> int:
        if len(self.params) == 0:
            return sum(len(prefixes) * dc.mlp_param_count(spec)
                       for _, prefixes, spec in self._mlp_blocks)
        return self.params.n_scalars()

    # -- inference chain ----------------------------------------------------

    def encode(self, features: dict[str, np.ndarray],
               mask: dict[str, np.ndarray],
               tape: Optional[Tape] = None) -> dict[str, Tensor]:
        """Initial latent states from standardized features and observed-mask
        (both packed per group, (n, B, q))."""
        states = {}
        for g in self.groups:
            f, m = features[g.key], mask[g.key]
            if f.shape != m.shape or f.shape[-1] != g.q:
                raise ShapeError(f"group {g.key}: feature/mask shape mismatch")
            x = dc.concat([_leaf(tape, f), _leaf(tape, m)], axis=-1)
            states[g.key] = dc.mlp_forward_stacked(
                self.params, self._enc_spec(g),
                self._node_blocks[g.key, "enc"], x, tape=tape)
        return states

    def message_pass(self, states: dict[str, Tensor],
                     tape: Optional[Tape] = None,
                     steps: Optional[int] = None) -> dict[str, Tensor]:
        """T synchronous steps: edge messages, then aggregator updates."""
        t_steps = self.config.message_passing_steps if steps is None else steps
        for _ in range(t_steps):
            msgs: dict[str, list[Tensor]] = {g.key: [] for g in self.groups}
            for eg in self.edge_groups:
                xs = dc.gather(states[eg.src_group], eg.src_idx)
                xd = dc.gather(states[eg.dst_group], eg.dst_idx)
                m = dc.mlp_forward_stacked(
                    self.params, eg.spec, eg.block,
                    dc.concat([xd, xs], axis=-1), tape=tape)
                msgs[eg.dst_group].append(m)
            new_states = {}
            for g in self.groups:
                own = states[g.key]
                n, b, p = own.data.shape
                md = self.message_dim_for(g)
                if msgs[g.key]:
                    stacked = (msgs[g.key][0] if len(msgs[g.key]) == 1
                               else dc.concat(msgs[g.key], axis=0))
                    flat = dc.reshape(stacked, (stacked.data.shape[0], b * md))
                    mean = dc.matmul(_leaf(tape, self.routing[g.key]), flat)
                    mean = dc.reshape(mean, (n, b, md))
                else:
                    mean = _leaf(tape, np.zeros((n, b, md)))
                new_states[g.key] = dc.mlp_forward_stacked(
                    self.params, self._agg_spec(g),
                    self._node_blocks[g.key, "agg"],
                    dc.concat([own, mean], axis=-1), tape=tape)
            states = new_states
        return states

    def decode(self, states: dict[str, Tensor],
               tape: Optional[Tape] = None) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """Standardized mean and clamped log-variance per group, (n, B, q)."""
        mu, logvar = {}, {}
        for g in self.groups:
            mu[g.key] = dc.mlp_forward_stacked(
                self.params, self._dec_spec(g),
                self._node_blocks[g.key, "dec_mu"], states[g.key], tape=tape)
            raw = dc.mlp_forward_stacked(
                self.params, self._dec_spec(g),
                self._node_blocks[g.key, "dec_lv"], states[g.key], tape=tape)
            logvar[g.key] = dc.clip(raw, np.log(VAR_CLAMP_LO), np.log(VAR_CLAMP_HI))
        return mu, logvar

    def forward(self, features: dict[str, np.ndarray],
                mask: dict[str, np.ndarray],
                tape: Optional[Tape] = None,
                ) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """Single feed-forward pass encode -> message_pass -> decode.

        Returns standardized (mu, logvar) per group; no internal iteration.
        """
        states = self.encode(features, mask, tape)
        states = self.message_pass(states, tape)
        return self.decode(states, tape)

    # -- checkpoints ----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        doc = {
            "format_version": CHECKPOINT_VERSION,
            "topology_hash": self.topology.content_hash(),
            "model": self.config.to_document(),
            "schema_config": (self.schema_config.to_document()
                              if self.schema_config else None),
            "schemas": {
                nid: {"observed_variables": [list(v) for v in s.observed_variables],
                      "ar_lags": s.ar_lags,
                      "weather_covariates": s.weather_covariates,
                      "p": s.p}
                for nid, s in self.schemas.items()},
            "standardization": {
                nid: {"mean": list(self.std_mean[nid]),
                      "std": list(self.std_std[nid])}
                for nid in self.topology.ids()},
        }
        text = json.dumps(doc, sort_keys=True)
        text = text[:-1] + ',"parameters":' + self.params.to_json() + "}"
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load_checkpoint(cls, path: str, topology: GridTopology) -> "GnnModel":
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint format version")
        if doc["topology_hash"] != topology.content_hash():
            raise ValueError("checkpoint topology hash does not match topology")
        schemas = {
            nid: NodeSchema(
                node_id=nid,
                observed_variables=[tuple(v) for v in rec["observed_variables"]],
                ar_lags=list(rec["ar_lags"]),
                weather_covariates=list(rec["weather_covariates"]),
                p=int(rec["p"]))
            for nid, rec in doc["schemas"].items()}
        schema_config = (SchemaConfig.from_document(doc["schema_config"])
                         if doc.get("schema_config") else None)
        model = cls(topology, schemas, GnnConfig.from_document(doc["model"]),
                    schema_config=schema_config)
        model.params = ParameterSet()
        for pid, rec in doc["parameters"].items():
            model.params.add(pid, np.array(rec["values"], float).reshape(rec["shape"]))
        model._stack_parameters()
        model.set_standardization(
            {nid: np.array(rec["mean"]) for nid, rec in doc["standardization"].items()},
            {nid: np.array(rec["std"]) for nid, rec in doc["standardization"].items()})
        return model


def _block_name(stacked: str, prefixes: list[str]) -> str:
    """Where ``mlp_forward_stacked`` finds a group's MLPs: the stacked
    block, or the parameters of a group's only MLP, which need no stack."""
    return prefixes[0] if len(prefixes) == 1 else stacked


def _leaf(tape: Optional[Tape], arr: np.ndarray) -> Tensor:
    return Tensor(arr) if tape is None else tape.leaf(np.asarray(arr, float))
