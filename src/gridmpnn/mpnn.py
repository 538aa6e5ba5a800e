"""Message-passing graph neural network over a grid topology.

Per node type: an encoder MLP (features + observed-mask -> latent
state), a mean decoder and a log-variance decoder (latent -> feature
space). Per directed edge type: a message MLP (both endpoint states ->
message). Per node type again: an aggregator MLP (own state + mean
incoming message -> next state). A node's type is (kind, q, p) and an
edge's the types of its endpoints, so the parameter count depends on
which types of node and edge a grid has, not on how many of each.
Inference is one feed-forward chain:

    encode -> T synchronous message-passing steps -> decode

Nodes of one type are evaluated together as one group, one MLP over
their feature-major (·, n, B) stack, and so are the edges of one type;
each edge MLP's first layer gathers both endpoint states from their
types' stacks along axis 1 (``diffcore.dense`` with ``rows``), and
message aggregation is one ``diffcore.route`` per type, a constant
routing-matrix multiply. Every layer is one GEMM over an input whose
last row is ones. The encoder's first layer reads [features; mask; 1],
the aggregator's [state; mean message; 1] and the edge MLP's
[destination state; source state; 1], each as parts of one
``diffcore.dense`` input, so a taped pass keeps the parts, not their
concatenation; each decoder head reads its own [state; 1]. Only
``forward``'s packed (n, B, q) inputs and outputs are laid out
otherwise. A taped forward records its layers, and
``GnnModel.reverse`` walks them back.

Parameters live only in the blocks the forward computes with, one
affine (i + 1, o) block per MLP layer, whose id is its checkpoint ids'
root: the weight rows, then the bias row, and on a hidden layer a last
column for its constant unit, which is not a parameter
(``diffcore.mlp_init``).

Parameter-id scheme (stable; checkpoints are written in it, and
``GnnModel.parameter_views`` maps each id to a view of its block, the
weight rows or the bias row without the constant unit):

    type/<kind>:<q>:<p>/enc|agg|dec_mu|dec_lv/L<i>/W|b
    etype/<src type>><dst type>/msg/L<i>/W|b
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import ParameterSet, ShapeError, Tape
from .gridgraph import GridTopology, NodeSchema, SchemaConfig

VAR_CLAMP_LO = 1e-6
VAR_CLAMP_HI = 1e6

CHECKPOINT_VERSION = 1


@dataclass
class GnnConfig:
    """Architecture knobs: weight layers per MLP, message-passing steps,
    message dimensionality rule (``"dest_latent"`` or a positive size).

    Three steps by default, the depth of the grid tree: each step carries
    state one hop, and the pilot tree runs grid -> substation -> feeder ->
    prosumer. A prosumer's voltage is set by the flows on its own path,
    and with its substation's energy hidden the sibling feeders that load
    that path are 3 hops away (p <- f <- s <- f'). Nodes farther out put
    no flow on the path, so more steps add compute, not physics."""

    layers: int = 2
    message_passing_steps: int = 3
    message_dim: int | str = "dest_latent"

    def __post_init__(self) -> None:
        for name, least in (("layers", 1), ("message_passing_steps", 0)):
            value = getattr(self, name)
            if not (type(value) is int and value >= least):
                raise dc.ContractError(f"{name} must be an integer of at "
                                       f"least {least}, not {value!r}")
        dim = self.message_dim
        if dim != "dest_latent" and not (type(dim) is int and dim > 0):
            raise dc.ContractError("message_dim must be 'dest_latent' or a "
                                   f"positive integer, not {dim!r}")

    def to_document(self) -> dict:
        return {"layers": self.layers,
                "message_passing_steps": self.message_passing_steps,
                "message_dim": self.message_dim}

    @classmethod
    def from_document(cls, doc: dict) -> "GnnConfig":
        # checkpoints written under "share_by_type": true hold this
        # layout's type ids; any other value, per-node ones
        doc = dict(doc)
        if "share_by_type" in doc and doc.pop("share_by_type") is not True:
            raise dc.ContractError(
                "share_by_type: the checkpoint holds per-node parameters, "
                "which no model has any more; retrain it")
        unknown = sorted(set(doc) - set(cls().to_document()))
        if unknown:
            raise dc.ContractError(f"unknown model keys: {', '.join(unknown)}")
        return cls(layers=doc["layers"],
                   message_passing_steps=doc["message_passing_steps"],
                   message_dim=doc["message_dim"])


@dataclass
class ChannelStats:
    """Per-node, per-channel standardization statistics: a value x
    stands as (x - mean) / std."""

    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]

    def stacked(self, node_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The (mean, std) of the nodes ``node_ids``, stacked as (n, 1, q)
        arrays that broadcast over a group's packed (n, B, q) values: the
        one place per-node statistics meet packed arrays."""
        return (np.stack([self.mean[nid] for nid in node_ids])[:, None, :],
                np.stack([self.std[nid] for nid in node_ids])[:, None, :])


@dataclass
class NodeGroup:
    """The nodes of one type, (kind, q, p), in topology order: q
    features, p latents."""

    key: str
    node_ids: list[str]
    kind: str
    q: int
    p: int
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}

    @property
    def shape(self) -> str:
        """The layer-shape key, ``<q>:<p>``."""
        return f"{self.q}:{self.p}"


def compute_groups(topology: GridTopology,
                   schemas: dict[str, NodeSchema]) -> list[NodeGroup]:
    """One group per node type, keyed ``<kind>:<q>:<p>``, its nodes in
    topology order; groups sorted by their ``<q>:<p>`` shape key, then by
    their first node's topology position."""
    buckets: dict[str, list] = {}
    for node in topology.nodes:
        s = schemas[node.node_id]
        buckets.setdefault(f"{node.kind}:{s.q}:{s.p}", []).append(node)
    groups = []
    for key, nodes in buckets.items():  # first-node order
        s = schemas[nodes[0].node_id]
        groups.append(NodeGroup(key, [n.node_id for n in nodes],
                                nodes[0].kind, s.q, s.p))
    return sorted(groups, key=lambda g: g.shape)


@dataclass
class _EdgeGroup:
    """The directed edges of one type, (source type, destination type),
    keyed ``<src type>><dst type>``."""

    key: str
    src_group: str
    dst_group: str
    pairs: list[tuple[str, str]]
    src_idx: np.ndarray
    dst_idx: np.ndarray
    spec: list[int]


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
        # standardization: per node, per channel mean/std (identity
        # default); std_mean and std_std are the dicts ``stats`` holds
        self.stats = ChannelStats(
            {nid: np.zeros(schemas[nid].q) for nid in topology.ids()},
            {nid: np.ones(schemas[nid].q) for nid in topology.ids()})
        self.std_mean, self.std_std = self.stats.mean, self.stats.std

    def set_standardization(self, mean: dict[str, np.ndarray],
                            std: dict[str, np.ndarray]) -> None:
        for nid in self.topology.ids():
            m, s = np.asarray(mean[nid], float), np.asarray(std[nid], float)
            if m.shape != (self.schemas[nid].q,) or s.shape != m.shape:
                raise ShapeError(f"standardization stats for {nid!r} have wrong shape")
            if not (np.isfinite(m).all() and np.isfinite(s).all()):
                raise dc.ContractError(
                    f"standardization stats for {nid!r} must be finite")
            if np.any(s <= 0):
                raise ShapeError(f"standardization std for {nid!r} must be positive")
            self.std_mean[nid] = m.copy()
            self.std_std[nid] = s.copy()

    def pack(self, per_node: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Stack per-node (B, q) or (q,) arrays per group as (n, B, q)."""
        out = {}
        for g in self.groups:
            mats = []
            for nid in g.node_ids:
                a = np.atleast_2d(np.asarray(per_node[nid], dtype=np.float64))
                if a.shape[-1] != g.q:
                    raise ShapeError(
                        f"node {nid!r}: expected {g.q} features, got {a.shape[-1]}")
                mats.append(a)
            out[g.key] = np.stack(mats, axis=0)
        return out

    def unpack(self, packed: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Per-node views of per-group (n, ...) arrays."""
        return {nid: packed[g.key][i] for g in self.groups
                for i, nid in enumerate(g.node_ids)}


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
        self._compile_mlps()
        self.init_parameters()

    # -- compilation -------------------------------------------------------

    def message_dim_for(self, group: NodeGroup) -> int:
        if self.config.message_dim == "dest_latent":
            return group.p
        return self.config.message_dim

    def _enc_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(2 * g.q, g.p, self.config.layers)

    def _agg_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(g.p + self.message_dim_for(g), g.p, self.config.layers)

    def _dec_spec(self, g: NodeGroup) -> list[int]:
        return _layer_spec(g.p, g.q, self.config.layers)

    def _compile_edges(self) -> None:
        """One edge group per edge type, sorted by the source type's shape
        key, the destination type's, then the edge type."""
        buckets: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for parent, child in self.topology.edges:
            for src, dst in ((parent, child), (child, parent)):
                buckets.setdefault((self.group_of[src], self.group_of[dst]),
                                   []).append((src, dst))
        by_key = self._group_by_key
        order = sorted(buckets, key=lambda k: (
            by_key[k[0]].shape, by_key[k[1]].shape, f"{k[0]}>{k[1]}"))
        self.edge_groups: list[_EdgeGroup] = []
        for gs, gd in order:
            pairs = buckets[(gs, gd)]
            sg, dg = by_key[gs], by_key[gd]
            self.edge_groups.append(_EdgeGroup(
                key=f"{gs}>{gd}", src_group=gs, dst_group=gd, pairs=pairs,
                src_idx=np.array([sg.index_of[s] for s, _ in pairs], dtype=np.intp),
                dst_idx=np.array([dg.index_of[d] for _, d in pairs], dtype=np.intp),
                spec=_layer_spec(sg.p + dg.p, self.message_dim_for(dg),
                                 self.config.layers)))

    def _compile_routing(self) -> None:
        """Per node type, the (n_nodes, n_incoming_edges) matrix whose rows
        average the concatenated incoming messages of the type."""
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
        """(id prefix, layer spec) of every MLP, in checkpoint id order:
        the node types' by shape key, role, then type; then the edge
        types', in edge-group order."""
        roles = (("enc", self._enc_spec), ("agg", self._agg_spec),
                 ("dec_mu", self._dec_spec), ("dec_lv", self._dec_spec))
        order = sorted((g.shape, r, g.key) for g in self.groups
                       for r in range(len(roles)))
        self._mlps: list[tuple[str, list[int]]] = [
            (f"type/{key}/{roles[r][0]}", roles[r][1](self._group_by_key[key]))
            for _, r, key in order]
        self._mlps += [(f"etype/{eg.key}/msg", eg.spec)
                       for eg in self.edge_groups]

    def init_parameters(self, seed: int = 0) -> None:
        """(Re)initialize every MLP from a seeded generator, in id order."""
        rng = np.random.default_rng(seed)
        self.params = ParameterSet()
        for prefix, spec in self._mlps:
            dc.mlp_init(self.params, prefix, spec, rng)

    def parameter_views(self) -> dict[str, np.ndarray]:
        """Every documented parameter id, in checkpoint order, mapped to
        a view of its block (never a constant unit)."""
        views = {}
        for prefix, spec in self._mlps:
            for i, a in enumerate(dc.mlp_layer_ids(prefix, spec)):
                views[f"{a}/W"], views[f"{a}/b"] = dc.mlp_views(
                    self.params.values[a], spec[i + 1])
        return views

    def count_parameters(self) -> int:
        return self.params.n_scalars()

    # -- inference chain ----------------------------------------------------

    def encode(self, features: dict[str, np.ndarray],
               mask: dict[str, np.ndarray],
               tape: Optional[Tape] = None) -> dict[str, np.ndarray]:
        """Feature-major (p, n, B) initial latent states from standardized
        features and observed-mask, packed (n, B, q) per group, read
        through transposed views and given no adjoint."""
        states = {}
        for g in self.groups:
            f, m = features[g.key], mask[g.key]
            if f.shape != m.shape or f.shape[-1] != g.q:
                raise ShapeError(f"group {g.key}: feature/mask shape mismatch")
            states[g.key] = dc.mlp_forward(
                self.params, self._enc_spec(g), f"type/{g.key}/enc",
                (f.transpose(2, 0, 1), m.transpose(2, 0, 1)), tape=tape,
                grad_parts=0)
        return states

    def message_pass(self, states: dict[str, np.ndarray],
                     tape: Optional[Tape] = None) -> dict[str, np.ndarray]:
        """T synchronous steps on feature-major states: edge messages, then
        aggregator updates; one that no edge feeds forms its state's
        adjoint only."""
        for _ in range(self.config.message_passing_steps):
            msgs: dict[str, list[np.ndarray]] = {g.key: [] for g in self.groups}
            for eg in self.edge_groups:
                m = dc.mlp_forward(
                    self.params, eg.spec, f"etype/{eg.key}/msg",
                    (states[eg.dst_group], states[eg.src_group]), tape=tape,
                    rows=(eg.dst_idx, eg.src_idx))
                msgs[eg.dst_group].append(m)
            new_states = {}
            for g in self.groups:
                own = states[g.key]
                mean = self._mean_message(g, msgs[g.key], own.shape[2])
                new_states[g.key] = dc.mlp_forward(
                    self.params, self._agg_spec(g), f"type/{g.key}/agg",
                    (own, mean), tape=tape,
                    grad_parts=None if msgs[g.key] else 1)
            states = new_states
        return states

    def _mean_message(self, g: NodeGroup, msgs: list[np.ndarray],
                      rows: int) -> np.ndarray:
        """Mean incoming message per node of group ``g``, (md, n, B):
        ``diffcore.route`` of the group's incoming messages, zeros when
        it has none."""
        if not msgs:
            return np.zeros((self.message_dim_for(g), len(g.node_ids), rows))
        return dc.route(msgs, self.routing[g.key])

    def decode(self, states: dict[str, np.ndarray], tape: Optional[Tape] = None,
               ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Standardized mean and clamped log-variance per group, packed
        (n, B, q), from feature-major states. Each head reads its own
        [state; 1]."""
        mu, logvar = {}, {}
        for g in self.groups:
            state = states[g.key]
            mu[g.key] = _packed(dc.mlp_forward(
                self.params, self._dec_spec(g), f"type/{g.key}/dec_mu", state,
                tape=tape))
            raw = dc.mlp_forward(
                self.params, self._dec_spec(g), f"type/{g.key}/dec_lv", state,
                tape=tape)
            logvar[g.key] = _packed(dc.clip(raw, np.log(VAR_CLAMP_LO),
                                            np.log(VAR_CLAMP_HI), tape))
        return mu, logvar

    def forward(self, features: dict[str, np.ndarray],
                mask: dict[str, np.ndarray],
                tape: Optional[Tape] = None,
                ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Single feed-forward pass encode -> message_pass -> decode over
        the rows given, packed (n, B, q) arrays of any memory layout.
        Returns standardized (mu, logvar) per group, packed and
        contiguous; in between every activation is feature-major, (·, n,
        B). No internal iteration. BLAS rounds a row by the width of the
        products, so a row's last bits depend on how many rows run with
        it; ``diffcore.row_blocks`` fixes that count for a batch. On a
        ``tape`` it records its layers for ``reverse``, which
        ``diffcore.backward`` runs once the loss is recorded after them.
        """
        if tape is not None:
            tape.reverse = self.reverse
        states = self.encode(features, mask, tape)
        states = self.message_pass(states, tape)
        return self.decode(states, tape)

    def reverse(self, tape: Tape, seed: np.ndarray) -> None:
        """The reverse pass of ``forward`` and its loss on ``tape``,
        seeded with the loss's scale: the decoders from the last group
        back, each head's packed adjoint copied feature-major, each
        message-passing step from the last, the encoders. A final state's
        adjoint adds its log-variance head's part, then its mean head's;
        a block's gradient adds over the steps from the last. An adjoint
        is popped when read, so it is freed once used."""
        grads = self.params.grads if tape.grads is None else tape.grads
        layers = self.config.layers
        dmu, dlv = dc.gaussian_nll_backward(tape.take(dc.NllRecord), seed)
        d_states = {}
        for g in reversed(self.groups):
            parts = dc.mlp_backward(tape, grads, layers, dc.clip_backward(
                tape.take(dc.ClipRecord), _feature_major(dlv.pop(g.key))))
            d_states[g.key] = parts.pop() + dc.mlp_backward(
                tape, grads, layers, _feature_major(dmu.pop(g.key))).pop()
        for _ in range(self.config.message_passing_steps):
            d_states = self._step_reverse(tape, grads, d_states)
        for g in reversed(self.groups):
            dc.mlp_backward(tape, grads, layers, d_states.pop(g.key))

    def _step_reverse(self, tape: Tape, grads: dict, d_states: dict) -> dict:
        """One message-passing step undone: the aggregators from the last
        group back, each group's mean message routed back to its edge
        groups, then those from the last. An input state's adjoint adds
        its aggregator's part, then each edge group's parts from the last
        group back, destination before source."""
        layers = self.config.layers
        d_prev, d_msgs = {}, {}
        for g in reversed(self.groups):
            parts = dc.mlp_backward(tape, grads, layers, d_states.pop(g.key))
            egs = self._incoming_groups[g.key]
            if egs:
                d_msgs.update(zip(
                    (eg.key for eg in egs),
                    dc.route_backward(self.routing[g.key], parts.pop(),
                                      [len(eg.pairs) for eg in egs])))
            d_prev[g.key] = parts.pop()
        for eg in reversed(self.edge_groups):
            parts = dc.mlp_backward(tape, grads, layers, d_msgs.pop(eg.key))
            for key in (eg.dst_group, eg.src_group):
                d_prev[key] = d_prev[key] + parts.pop(0)
        return d_prev

    # -- checkpoints ----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        doc = {
            "format_version": CHECKPOINT_VERSION,
            "topology_hash": self.topology.content_hash(),
            "model": self.config.to_document(),
            "schema_config": (self.schema_config.to_document()
                              if self.schema_config else None),
            "schemas": {nid: {k: v for k, v in asdict(s).items()
                              if k != "node_id"}
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
        _check_checkpoint_objects(doc)
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
        schemas = {nid: NodeSchema(
            nid, [tuple(v) for v in rec["observed_variables"]], rec["ar_lags"],
            rec["weather_covariates"], rec["p"])
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
            if not np.isfinite(values).all():
                raise ValueError(f"checkpoint parameter {pid!r} is not finite")
            view[...] = values.reshape(view.shape)
        model.set_standardization(
            {nid: np.array(rec["mean"]) for nid, rec in doc["standardization"].items()},
            {nid: np.array(rec["std"]) for nid, rec in doc["standardization"].items()})
        return model


def _list_of(*kinds: type):
    return lambda v: isinstance(v, list) and all(type(x) in kinds for x in v)


_INTEGER = ("an integer", lambda v: type(v) is int)
_INTEGERS = ("a list of integers", _list_of(int))
_NUMBERS = ("a list of numbers", _list_of(int, float))
_STRINGS = ("a list of strings", _list_of(str))
# the JSON type, and its test, of each field a checkpoint record is read
# by: an integer is neither a bool nor a float
_FIELDS = {
    "schemas": {"observed_variables": (
        "a list of [name, category] pairs", lambda v: isinstance(v, list)
        and all(_list_of(str)(x) and len(x) == 2 for x in v)),
        "ar_lags": _INTEGERS, "weather_covariates": _STRINGS, "p": _INTEGER},
    "standardization": {"mean": _NUMBERS, "std": _NUMBERS},
    "parameters": {"shape": _INTEGERS, "values": _NUMBERS},
    "schema_config": {"ar_lags": _INTEGERS, "latent_small": _INTEGER,
                      "latent_large": _INTEGER, "weather_covariates": _STRINGS},
}


def _check_checkpoint_objects(doc) -> None:
    """A checkpoint's root, its ``model``, ``schemas``, ``standardization``
    and ``parameters`` sections, their records and a set ``schema_config``
    must be JSON objects, and each field in ``_FIELDS`` of its JSON type,
    so that it is named, not cast; a missing one is left for
    ``_from_checkpoint`` to name."""
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    for section in ("model", "schemas", "standardization", "parameters"):
        if not isinstance(doc.get(section, {}), dict):
            raise ValueError(f"checkpoint {section!r} is not a JSON object")
    records = [(f"{section!r} record {key!r}", section, record)
               for section in ("schemas", "standardization", "parameters")
               for key, record in doc.get(section, {}).items()]
    records.append(("'schema_config'", "schema_config",
                    doc.get("schema_config") or {}))
    for where, section, record in records:
        if not isinstance(record, dict):
            raise ValueError(f"checkpoint {where} is not a JSON object")
        for name, (kind, ok) in _FIELDS[section].items():
            if name in record and not ok(record[name]):
                raise ValueError(f"checkpoint {where} field {name!r} must "
                                 f"be {kind}")


def _packed(h: np.ndarray) -> np.ndarray:
    """A feature-major (q, n, B) array as a contiguous packed (n, B, q)."""
    return np.ascontiguousarray(h.transpose(1, 2, 0))


def _feature_major(a: np.ndarray) -> np.ndarray:
    """A packed (n, B, q) array as a contiguous feature-major (q, n, B)."""
    return np.ascontiguousarray(a.transpose(2, 0, 1))


def _arrays_json(arrays: dict[str, np.ndarray]) -> str:
    """{id: {"shape": [...], "values": [...]}} with 17-significant-digit
    floats, so a reload is bit exact."""
    parts = []
    for key, v in arrays.items():
        flat = v.reshape(-1)
        # one %-formatting call fills every value of the block
        slots = ["%.17g"] * flat.size
        for i in np.flatnonzero(np.signbit(flat) & (flat == 0.0)):
            slots[i] = "%.1f"  # -0.0: JSON reads -0 as the integer 0
        vals = ",".join(slots) % tuple(flat.tolist())
        shape = ",".join(str(int(s)) for s in v.shape)
        parts.append(f'{json.dumps(key)}:{{"shape":[{shape}],"values":[{vals}]}}')
    return "{" + ",".join(parts) + "}"
