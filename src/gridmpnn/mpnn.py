"""Message-passing graph neural network over a grid topology.

Per node: an encoder MLP (features + observed-mask -> latent state), a
mean decoder and a log-variance decoder (latent -> feature space). Per
directed edge: a message MLP (both endpoint states -> message). Per
node again: an aggregator MLP (own state + mean incoming message ->
next state). Inference is one feed-forward chain:

    encode -> T synchronous message-passing steps -> decode

For speed, nodes whose MLPs have the same layer shapes (one group per
(q, p), whatever their kind) are evaluated together as stacked MLP
applications, and so are the edges between two such groups; each edge
MLP's first layer gathers both endpoint states from their groups'
stacks (``diffcore.gather_dense``), and message aggregation is one
``diffcore.route`` per group, a constant routing-matrix multiply. Every
layer is one GEMM over an input whose last column is ones. The
encoder's first layer reads [features | mask | 1], the aggregator's
[state | mean message | 1] and the edge MLP's [destination state |
source state | 1], each as parts of one ``diffcore.dense`` input, so a
taped pass keeps the parts, not their concatenation; each decoder head
reads its own [state | 1]. Parameters
are per node and per directed edge unless ``share_by_type`` is set. They
live only in the blocks the forward computes with, one affine block per
layer and MLP role of a node group (``stack/<group>/<role>/L<i>``) or
edge group (``stack/<src_group>><dst_group>/msg/L<i>``): the weight
rows, then the bias row, and on a hidden layer a last column for its
constant unit, which is not a parameter (``diffcore.mlp_init``). A
group of k MLPs has a (k, i + 1, o) block; a group's lone MLP (a
single-node group, a single-edge group or a group's one shared type
MLP) has an (i + 1, o) block. Under ``share_by_type`` a type is
(kind, q, p), so a group holding several types stacks one member per
type, and each node or edge reads its type's member through an index
on the block's leading axis.

Parameter-id scheme (stable; checkpoints are written in it, and
``GnnModel.parameter_views`` maps each id to a view of its block slice,
the weight rows or the bias row without the constant unit):

    node/<node_id>/enc|agg|dec_mu|dec_lv/L<i>/W|b
    edge/<src>><dst>/msg/L<i>/W|b
    type/<kind>:<q>:<p>/...  and  etype/<src type>><dst type>/msg/...   (shared)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import ParameterSet, ShapeError, Tape, Tensor
from .gridgraph import GridTopology, NodeSchema, SchemaConfig

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
class NodeGroup:
    """Nodes whose MLPs share one layer shape: q features, p latents.
    ``kinds`` holds each node's kind, in node order."""

    key: str
    node_ids: list[str]
    kinds: list[str]
    q: int
    p: int
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}


def group_key(q: int, p: int) -> str:
    return f"{q}:{p}"


def compute_groups(topology: GridTopology,
                   schemas: dict[str, NodeSchema]) -> list[NodeGroup]:
    """Deterministic grouping of nodes by layer shape (q, p); node order
    within a group follows topology order, groups sorted by key."""
    buckets: dict[str, list] = {}
    for node in topology.nodes:
        s = schemas[node.node_id]
        buckets.setdefault(group_key(s.q, s.p), []).append(node)
    out = []
    for key in sorted(buckets):
        nodes = buckets[key]
        s = schemas[nodes[0].node_id]
        out.append(NodeGroup(key, [n.node_id for n in nodes],
                             [n.kind for n in nodes], s.q, s.p))
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
    members: Optional[np.ndarray]  # each edge's shared MLP, or None


def _shared(types: list[str]) -> tuple[list[str], Optional[np.ndarray]]:
    """The distinct ``types`` in sorted order, one shared MLP each, and
    each position's member index, or None when one MLP serves all."""
    distinct = sorted(set(types))
    if len(distinct) == 1:
        return distinct, None
    at = {t: i for i, t in enumerate(distinct)}
    return distinct, np.array([at[t] for t in types], dtype=np.intp)


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
        # a node's type, (kind, q, p), names its MLPs under share_by_type
        self._type_of = {nid: f"{kind}:{g.key}" for g in self.groups
                         for nid, kind in zip(g.node_ids, g.kinds)}
        self._compile_edges()
        self._compile_routing()
        self._compile_mlps()
        self.init_parameters()

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
                etypes, members = _shared([
                    f"{self._type_of[s]}>{self._type_of[d]}" for s, d in pairs])
                prefixes = [f"etype/{e}/msg" for e in etypes]
            else:
                prefixes = [f"edge/{s}>{d}/msg" for s, d in pairs]
                members = None
            key = f"{gs}>{gd}"
            self.edge_groups.append(_EdgeGroup(
                key=key,
                src_group=gs, dst_group=gd, pairs=pairs,
                src_idx=np.array([sg.index_of[s] for s, _ in pairs], dtype=np.intp),
                dst_idx=np.array([dg.index_of[d] for _, d in pairs], dtype=np.intp),
                spec=spec, prefixes=prefixes, block=f"stack/{key}/msg",
                members=members))

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

    def _compile_mlps(self) -> None:
        # (block, member prefixes, layer spec) per MLP group, in id order
        self._mlp_blocks: list[tuple[str, list[str], list[int]]] = []
        # per node group, each node's shared MLP, or None
        self._node_members: dict[str, Optional[np.ndarray]] = {}
        for g in self.groups:
            if self.config.share_by_type:
                names, members = _shared(
                    [f"type/{self._type_of[nid]}" for nid in g.node_ids])
            else:
                names, members = [f"node/{nid}" for nid in g.node_ids], None
            self._node_members[g.key] = members
            for role, spec in (("enc", self._enc_spec(g)),
                               ("agg", self._agg_spec(g)),
                               ("dec_mu", self._dec_spec(g)),
                               ("dec_lv", self._dec_spec(g))):
                self._mlp_blocks.append((f"stack/{g.key}/{role}",
                                         [f"{n}/{role}" for n in names], spec))
        for eg in self.edge_groups:
            self._mlp_blocks.append((eg.block, eg.prefixes, eg.spec))

    def init_parameters(self, seed: int = 0) -> None:
        """(Re)initialize every MLP from a seeded generator, in id order."""
        rng = np.random.default_rng(seed)
        self.params = ParameterSet()
        for block, prefixes, spec in self._mlp_blocks:
            dc.mlp_init(self.params, block, spec, rng, members=len(prefixes))

    def parameter_views(self) -> dict[str, np.ndarray]:
        """Every documented parameter id, in checkpoint order, mapped to
        a view of its slice of its block (never a constant unit)."""
        views = {}
        for block, prefixes, spec in self._mlp_blocks:
            blocks = [self.params.values[a]
                      for a in dc.mlp_layer_ids(block, spec)]
            for j, prefix in enumerate(prefixes):
                for i, a in enumerate(blocks):
                    w, b = dc.mlp_views(a[j] if len(prefixes) > 1 else a,
                                        spec[i + 1])
                    views[f"{prefix}/L{i}/W"], views[f"{prefix}/L{i}/b"] = w, b
        return views

    def count_parameters(self) -> int:
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
            states[g.key] = dc.mlp_forward(
                self.params, self._enc_spec(g), f"stack/{g.key}/enc",
                (f, m), tape=tape, members=self._node_members[g.key])
        return states

    def message_pass(self, states: dict[str, Tensor],
                     tape: Optional[Tape] = None) -> dict[str, Tensor]:
        """T synchronous steps: edge messages, then aggregator updates."""
        for _ in range(self.config.message_passing_steps):
            msgs: dict[str, list[Tensor]] = {g.key: [] for g in self.groups}
            for eg in self.edge_groups:
                m = dc.mlp_forward(
                    self.params, eg.spec, eg.block,
                    (states[eg.dst_group], states[eg.src_group]), tape=tape,
                    rows=(eg.dst_idx, eg.src_idx), members=eg.members)
                msgs[eg.dst_group].append(m)
            new_states = {}
            for g in self.groups:
                own = states[g.key]
                mean = self._mean_message(g, msgs[g.key], own.data.shape[1])
                new_states[g.key] = dc.mlp_forward(
                    self.params, self._agg_spec(g), f"stack/{g.key}/agg",
                    (own, mean), tape=tape, members=self._node_members[g.key])
            states = new_states
        return states

    def _mean_message(self, g: NodeGroup, msgs: list[Tensor],
                      rows: int) -> Tensor:
        """Mean incoming message per node of group ``g``, (n, B, md):
        ``diffcore.route`` of the group's incoming messages, zeros when
        it has none."""
        if not msgs:
            return Tensor(np.zeros((len(g.node_ids), rows,
                                    self.message_dim_for(g))))
        return dc.route(msgs, self.routing[g.key])

    def decode(self, states: dict[str, Tensor],
               tape: Optional[Tape] = None) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """Standardized mean and clamped log-variance per group, (n, B, q).
        Each head reads its own [state | 1]."""
        mu, logvar = {}, {}
        for g in self.groups:
            members = self._node_members[g.key]
            state = states[g.key]
            mu[g.key] = dc.mlp_forward(
                self.params, self._dec_spec(g), f"stack/{g.key}/dec_mu", state,
                tape=tape, members=members)
            raw = dc.mlp_forward(
                self.params, self._dec_spec(g), f"stack/{g.key}/dec_lv", state,
                tape=tape, members=members)
            logvar[g.key] = dc.clip(raw, np.log(VAR_CLAMP_LO), np.log(VAR_CLAMP_HI))
        return mu, logvar

    def forward(self, features: dict[str, np.ndarray],
                mask: dict[str, np.ndarray],
                tape: Optional[Tape] = None,
                ) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """Single feed-forward pass encode -> message_pass -> decode over
        the rows given. Returns standardized (mu, logvar) per group; no
        internal iteration. BLAS rounds a row by the width of the
        products, so a row's last bits depend on how many rows run with
        it; ``diffcore.row_blocks`` fixes that count for a batch.
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
        text = (text[:-1] + ',"parameters":'
                + _arrays_json(self.parameter_views()) + "}")
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load_checkpoint(cls, path: str, topology: GridTopology) -> "GnnModel":
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint format version")
        try:
            return cls._from_checkpoint(doc, topology)
        except KeyError as missing:
            raise ValueError(
                f"checkpoint lacks key {missing.args[0]!r}") from None

    @classmethod
    def _from_checkpoint(cls, doc: dict, topology: GridTopology) -> "GnnModel":
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
        # every documented id, each present, known and of its shape
        views, stored = model.parameter_views(), doc["parameters"]
        for pid in stored:
            if pid not in views:
                raise ValueError(f"checkpoint parameter {pid!r} is not a "
                                 "parameter of this model")
        for pid, view in views.items():
            if pid not in stored:
                raise ValueError(f"checkpoint lacks parameter {pid!r}")
            shape = stored[pid]["shape"]
            values = np.array(stored[pid]["values"], float)
            if list(shape) != list(view.shape) or values.size != view.size:
                raise ValueError(f"checkpoint parameter {pid!r} has shape "
                                 f"{shape}, not {list(view.shape)}")
            view[...] = values.reshape(view.shape)
        model.set_standardization(
            {nid: np.array(rec["mean"]) for nid, rec in doc["standardization"].items()},
            {nid: np.array(rec["std"]) for nid, rec in doc["standardization"].items()})
        return model


def _arrays_json(arrays: dict[str, np.ndarray]) -> str:
    """{id: {"shape": [...], "values": [...]}} with 17-significant-digit
    floats, so a reload is bit exact."""
    parts = []
    for key, v in arrays.items():
        flat = v.reshape(-1)
        vals = [format(x, ".17g") for x in flat]
        for i in np.flatnonzero(np.signbit(flat) & (flat == 0.0)):
            vals[i] = "-0.0"  # JSON reads -0 as the integer 0
        vals = ",".join(vals)
        shape = ",".join(str(int(s)) for s in v.shape)
        parts.append(f'{json.dumps(key)}:{{"shape":[{shape}],"values":[{vals}]}}')
    return "{" + ",".join(parts) + "}"
