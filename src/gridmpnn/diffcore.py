"""Dense-tensor math with reverse-mode differentiation.

Everything in this package that learns runs on this module: float64
tensors recorded on an explicit tape, a small set of differentiable
primitives (matmul, add, tanh, exp, concat, slice, reductions, ...),
multi-layer perceptrons with tanh hidden activations, and a
bias-corrected Adam optimizer.

Design choices:

* float64 only; the models are small and reproducibility matters more
  than speed.
* The tape is an append-only list, so creation order is a topological
  order for free. It records backward closures, not op outputs, and
  serves one reverse pass, which releases them as it goes.
* Operations work elementwise-broadcast style on numpy arrays and also
  support stacked ("batched") matmuls such as (n, B, i) @ (n, i, o),
  which the graph model uses to evaluate many per-node MLPs at once.
* Tensors that never touch a tape evaluate eagerly with zero recording
  overhead (used for inference-only passes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ContractError",
    "ShapeError",
    "Tensor",
    "Tape",
    "ParameterSet",
    "AdamState",
    "add", "sub", "neg", "mul", "scale", "matmul", "tanh", "exp", "clip",
    "concat", "slice_", "reshape", "transpose", "gather", "reduce_sum",
    "mlp_layer_param_ids", "mlp_init", "mlp_stack", "mlp_forward",
    "mlp_forward_stacked",
    "mlp_param_count",
    "adam_step", "backward", "gradient_check",
]


class ContractError(ValueError):
    """A documented precondition of a public operation was violated."""


class ShapeError(ContractError):
    """Operand shapes are incompatible."""


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    return a


# ---------------------------------------------------------------------------
# Tape and tensors


@dataclass
class TapeNode:
    op: str
    inputs: tuple[int, ...]
    # bwd(adjoint, accum) where accum(input_position_node_id, grad_array)
    bwd: Optional[Callable[[np.ndarray, Callable[[int, np.ndarray], None]], None]]
    # leaves bound to a parameter accumulate adjoints here: (grads dict, id)
    grad_sink: Optional[tuple[dict, str]] = None


class Tape:
    """Ordered record of primitive operations.

    Every operand precedes its consumer because nodes are appended at
    creation time. Nodes keep only what the reverse pass needs: each
    backward closure holds the forward arrays it uses, and ``backward``
    drops the closure once consumed, which keeps training memory bounded.
    """

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, node: TapeNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, data: np.ndarray, op: str = "const",
             grad_sink: Optional[tuple[dict, str]] = None) -> "Tensor":
        nid = self._append(TapeNode(op, (), None, grad_sink))
        return Tensor(data, self, nid)


class Tensor:
    """A float64 array, optionally recorded on a tape.

    shape/values invariants: values are stored row-major (C order) and
    ``prod(shape) == values.size`` by construction.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Optional[Tape] = None, node: int = -1):
        self.data = _as_array(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def values(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"

    # operator sugar
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(other, self)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(other, self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(other, self)
    def __matmul__(self, other): return matmul(self, other)
    def __neg__(self): return neg(self)


def _coerce(x, tape: Optional[Tape]) -> Tensor:
    """Attach ``x`` to ``tape`` (as a const leaf) if needed."""
    if isinstance(x, Tensor):
        if tape is None or (x.tape is tape and x.node >= 0):
            return x
        if x.tape is not None and x.tape is not tape:
            raise ContractError("operands recorded on different tapes")
        return tape.leaf(x.data)
    if tape is None:
        return Tensor(x)
    return tape.leaf(_as_array(x))


def _find_tape(*xs) -> Optional[Tape]:
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            return x.tape
    return None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _record(tape: Optional[Tape], op: str, inputs: Sequence[Tensor],
            out: np.ndarray, bwd) -> Tensor:
    result = Tensor(out)
    if tape is None:
        return result
    nid = tape._append(TapeNode(op, tuple(t.node for t in inputs), bwd))
    result.tape = tape
    result.node = nid
    return result


# ---------------------------------------------------------------------------
# Primitives


def add(a, b) -> Tensor:
    tape = _find_tape(a, b)
    a, b = _coerce(a, tape), _coerce(b, tape)
    out = a.data + b.data
    ash, bsh = a.data.shape, b.data.shape

    def bwd(adj, accum):
        accum(a.node, _unbroadcast(adj, ash))
        accum(b.node, _unbroadcast(adj, bsh))

    return _record(tape, "add", (a, b), out, bwd)


def sub(a, b) -> Tensor:
    tape = _find_tape(a, b)
    a, b = _coerce(a, tape), _coerce(b, tape)
    out = a.data - b.data
    ash, bsh = a.data.shape, b.data.shape

    def bwd(adj, accum):
        accum(a.node, _unbroadcast(adj, ash))
        accum(b.node, _unbroadcast(-adj, bsh))

    return _record(tape, "sub", (a, b), out, bwd)


def neg(a) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)

    def bwd(adj, accum):
        accum(a.node, -adj)

    return _record(tape, "neg", (a,), -a.data, bwd)


def mul(a, b) -> Tensor:
    tape = _find_tape(a, b)
    a, b = _coerce(a, tape), _coerce(b, tape)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(adj, accum):
        accum(a.node, _unbroadcast(adj * bd, ad.shape))
        accum(b.node, _unbroadcast(adj * ad, bd.shape))

    return _record(tape, "mul", (a, b), out, bwd)


def scale(a, c: float) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    c = float(c)

    def bwd(adj, accum):
        accum(a.node, adj * c)

    return _record(tape, "scale", (a,), a.data * c, bwd)


def matmul(a, b) -> Tensor:
    tape = _find_tape(a, b)
    a, b = _coerce(a, tape), _coerce(b, tape)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(adj, accum):
        accum(a.node, _unbroadcast(adj @ bd.swapaxes(-1, -2), ad.shape))
        accum(b.node, _unbroadcast(ad.swapaxes(-1, -2) @ adj, bd.shape))

    return _record(tape, "matmul", (a, b), out, bwd)


def tanh(a) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.tanh(a.data)

    def bwd(adj, accum):
        accum(a.node, adj * (1.0 - out * out))

    return _record(tape, "tanh", (a,), out, bwd)


def exp(a) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.exp(a.data)

    def bwd(adj, accum):
        accum(a.node, adj * out)

    return _record(tape, "exp", (a,), out, bwd)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(adj, accum):
        accum(a.node, adj * inside)

    return _record(tape, "clip", (a,), out, bwd)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    tape = _find_tape(*tensors)
    ts = [_coerce(t, tape) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    nodes = [t.node for t in ts]

    def bwd(adj, accum):
        for nid, piece in zip(nodes, np.split(adj, splits, axis=axis)):
            accum(nid, piece)

    return _record(tape, "concat", ts, out, bwd)


def slice_(a, key) -> Tensor:
    """Basic slicing; ``key`` is anything accepted by ndarray.__getitem__
    that selects without fancy indexing."""
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.ascontiguousarray(a.data[key])
    ash = a.data.shape

    def bwd(adj, accum):
        g = np.zeros(ash)
        g[key] += adj
        accum(a.node, g)

    return _record(tape, "slice", (a,), out, bwd)


def reshape(a, shape: Sequence[int]) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    shape = tuple(shape)
    ash = a.data.shape

    def bwd(adj, accum):
        accum(a.node, adj.reshape(ash))

    return _record(tape, "reshape", (a,), a.data.reshape(shape), bwd)


def transpose(a, axes: Sequence[int]) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(adj, accum):
        accum(a.node, np.ascontiguousarray(adj.transpose(inv)))

    return _record(tape, "transpose", (a,),
                   np.ascontiguousarray(a.data.transpose(axes)), bwd)


def gather(a, idx, axis: int = 0) -> Tensor:
    """Select rows along axis 0: out = a[idx]. Repeated indices allowed."""
    if axis != 0:
        raise ShapeError("gather supports axis=0 only")
    tape = _find_tape(a)
    a = _coerce(a, tape)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]
    ash = a.data.shape

    def bwd(adj, accum):
        g = np.zeros(ash)
        np.add.at(g, idx, adj)
        accum(a.node, g)

    return _record(tape, "gather", (a,), out, bwd)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))
    ash = a.data.shape

    def bwd(adj, accum):
        g = np.asarray(adj)
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        accum(a.node, np.broadcast_to(g, ash).copy())

    return _record(tape, "reduce_sum", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Reverse pass


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every parameter leaf on the tape.

    Parameters the loss does not reach keep their current (zeroed)
    gradient accumulator. Each node's backward closure is dropped once
    consumed, freeing the forward arrays it captured, so a tape supports
    one backward pass.
    """
    if loss.tape is not tape or loss.node < 0:
        raise ContractError("loss was not produced by this tape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    adjoints: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}

    def accum(nid: int, grad: np.ndarray) -> None:
        cur = adjoints.get(nid)
        adjoints[nid] = grad if cur is None else cur + grad

    for nid in range(loss.node, -1, -1):
        adj = adjoints.pop(nid, None)
        node = tape.nodes[nid]
        if adj is None:
            node.bwd = None
            continue
        if node.grad_sink is not None:
            grads, pid = node.grad_sink
            grads[pid] += adj.reshape(grads[pid].shape)
        if node.bwd is not None:
            node.bwd(adj, accum)
            node.bwd = None


# ---------------------------------------------------------------------------
# Parameters


class ParameterSet:
    """Named parameter tensors plus matching gradient accumulators.

    Storage lives in blocks (``block_values`` / ``block_grads``). An id
    added with ``add`` is its own block; ``stack`` moves equally shaped
    ids into one stacked block, after which ``values[pid]`` and
    ``grads[pid]`` are views into it, so per-id reads, in-place writes
    and serialization see the same numbers. Optimizers walk the blocks.
    """

    def __init__(self) -> None:
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.block_values: dict[str, np.ndarray] = {}
        self.block_grads: dict[str, np.ndarray] = {}

    def add(self, pid: str, value) -> None:
        if pid in self.values or pid in self.block_values:
            raise ContractError(f"duplicate parameter id {pid!r}")
        arr = _as_array(value)
        self.values[pid] = self.block_values[pid] = arr
        self.grads[pid] = self.block_grads[pid] = np.zeros_like(arr)

    def stack(self, block_id: str, pids: Sequence[str],
              shape: Sequence[int]) -> None:
        """Move ``pids`` into one (len(pids), *shape) block named
        ``block_id``; each id keeps its own shape as a view of its slice."""
        if block_id in self.values or block_id in self.block_values:
            raise ContractError(f"duplicate parameter id {block_id!r}")
        for pid in pids:
            if pid not in self.values or pid not in self.block_values:
                raise ContractError(f"{pid!r} is not a standalone parameter")
        shape = tuple(shape)
        values = np.stack([self.values[p].reshape(shape) for p in pids])
        grads = np.stack([self.grads[p].reshape(shape) for p in pids])
        for j, pid in enumerate(pids):
            own = self.values[pid].shape
            del self.block_values[pid], self.block_grads[pid]
            self.values[pid] = values[j].reshape(own)
            self.grads[pid] = grads[j].reshape(own)
        self.block_values[block_id] = values
        self.block_grads[block_id] = grads

    def __contains__(self, pid: str) -> bool:
        return pid in self.values

    def __len__(self) -> int:
        return len(self.values)

    def ids(self) -> list[str]:
        return list(self.values.keys())

    def n_scalars(self) -> int:
        return sum(v.size for v in self.values.values())

    def zero_grads(self) -> None:
        for g in self.block_grads.values():
            g[...] = 0.0

    def tensor(self, tape: Optional[Tape], key: str) -> Tensor:
        """Leaf tensor for a parameter id or a block id; gradients flow
        back into the matching accumulator."""
        if key in self.values:
            data, grads = self.values[key], self.grads
        elif key in self.block_values:
            data, grads = self.block_values[key], self.block_grads
        else:
            raise ContractError(f"unknown parameter id {key!r}")
        if tape is None:
            return Tensor(data)
        return tape.leaf(data, op="param", grad_sink=(grads, key))

    def copy(self) -> "ParameterSet":
        out = ParameterSet()
        for pid, v in self.values.items():
            out.add(pid, v.copy())
        return out

    def load_values(self, other: "ParameterSet") -> None:
        for pid, v in other.values.items():
            self.values[pid][...] = v

    # -- serialization: {param_id: {"shape": [...], "values": [...]}} with
    #    17-significant-digit floats so the round trip is bit exact.

    def to_json(self) -> str:
        parts = []
        for pid in self.values:
            v = self.values[pid]
            vals = ",".join(format(x, ".17g") for x in v.reshape(-1))
            shape = ",".join(str(int(s)) for s in v.shape)
            parts.append(f'{json.dumps(pid)}:{{"shape":[{shape}],"values":[{vals}]}}')
        return "{" + ",".join(parts) + "}"

    @classmethod
    def from_json(cls, text: str) -> "ParameterSet":
        raw = json.loads(text)
        out = cls()
        for pid, rec in raw.items():
            arr = np.array(rec["values"], dtype=np.float64).reshape(rec["shape"])
            out.add(pid, arr)
        return out


# ---------------------------------------------------------------------------
# MLPs


def mlp_layer_param_ids(prefix: str, layer_spec: Sequence[int]) -> list[tuple[str, str]]:
    """(weight_id, bias_id) per layer for an MLP named by ``prefix``."""
    if len(layer_spec) < 2:
        raise ContractError("layer_spec needs at least input and output widths")
    return [(f"{prefix}/L{i}/W", f"{prefix}/L{i}/b")
            for i in range(len(layer_spec) - 1)]


def mlp_init(params: ParameterSet, prefix: str, layer_spec: Sequence[int],
             rng: np.random.Generator) -> None:
    """Create MLP parameters: W ~ U[-a, a] with a = sqrt(6/(fan_in+fan_out)),
    biases zero."""
    for i, (wid, bid) in enumerate(mlp_layer_param_ids(prefix, layer_spec)):
        fan_in, fan_out = int(layer_spec[i]), int(layer_spec[i + 1])
        a = math.sqrt(6.0 / (fan_in + fan_out))
        params.add(wid, rng.uniform(-a, a, size=(fan_in, fan_out)))
        params.add(bid, np.zeros(fan_out))


def mlp_param_count(layer_spec: Sequence[int]) -> int:
    return sum(int(layer_spec[i]) * int(layer_spec[i + 1]) + int(layer_spec[i + 1])
               for i in range(len(layer_spec) - 1))


def _check_last_dim(x: Tensor, want: int, what: str) -> None:
    if x.data.shape[-1] != want:
        raise ShapeError(f"{what}: expected last dimension {want}, "
                         f"got {x.data.shape[-1]}")


def mlp_forward(params: ParameterSet, layer_spec: Sequence[int], x,
                prefix: str = "mlp", tape: Optional[Tape] = None) -> Tensor:
    """Apply an MLP: tanh on hidden layers, linear final layer.

    ``x`` has the layer input width as its last dimension; leading
    dimensions are batch-like.
    """
    tape = tape if tape is not None else _find_tape(x)
    h = _coerce(x, tape)
    if h.data.ndim == 1:
        h = reshape(h, (1, h.data.shape[0]))
    ids = mlp_layer_param_ids(prefix, layer_spec)
    _check_last_dim(h, int(layer_spec[0]), f"{prefix} layer 0 input")
    n_layers = len(ids)
    for i, (wid, bid) in enumerate(ids):
        if wid not in params or bid not in params:
            raise ContractError(f"missing parameters for {prefix} layer {i}")
        w = params.tensor(tape, wid)
        b = params.tensor(tape, bid)
        _check_last_dim(h, w.data.shape[0], f"{prefix} layer {i} input")
        h = add(matmul(h, w), b)
        if i < n_layers - 1:
            h = tanh(h)
    return h


def mlp_stack(params: ParameterSet, block: str, prefixes: Sequence[str],
              layer_spec: Sequence[int]) -> None:
    """Store the MLPs ``prefixes`` (already initialized) as stacked blocks
    ``<block>/L<i>/W`` of shape (k, in, out) and ``<block>/L<i>/b`` of
    shape (k, 1, out), the shapes ``mlp_forward_stacked`` computes with."""
    ids = [mlp_layer_param_ids(p, layer_spec) for p in prefixes]
    for i, (wid, bid) in enumerate(mlp_layer_param_ids(block, layer_spec)):
        fan_in, fan_out = int(layer_spec[i]), int(layer_spec[i + 1])
        params.stack(wid, [pid[i][0] for pid in ids], (fan_in, fan_out))
        params.stack(bid, [pid[i][1] for pid in ids], (1, fan_out))


def mlp_forward_stacked(params: ParameterSet, layer_spec: Sequence[int],
                        block: str, x, tape: Optional[Tape] = None) -> Tensor:
    """Apply k structurally identical MLPs at once.

    ``x`` is (k, B, in). ``block`` names either blocks made by
    ``mlp_stack`` (MLP j applies to slice j) or a single MLP's parameters,
    which broadcast over the leading axis (type-shared configuration).
    """
    tape = tape if tape is not None else _find_tape(x)
    h = _coerce(x, tape)
    ids = mlp_layer_param_ids(block, layer_spec)
    _check_last_dim(h, int(layer_spec[0]), f"{block} layer 0 input")
    for i, (wid, bid) in enumerate(ids):
        h = add(matmul(h, params.tensor(tape, wid)), params.tensor(tape, bid))
        if i < len(ids) - 1:
            h = tanh(h)
    return h


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-block first/second moments and the shared step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParameterSet, state: AdamState, lr: float = 0.01) -> None:
    """Bias-corrected Adam update from the accumulated gradients.

    Walks the storage blocks, so a stacked block updates in one array
    operation. Gradients are zeroed afterwards. Moments missing for a
    block are initialized to zeros on first use.
    """
    if lr <= 0:
        raise ContractError("learning rate must be positive")
    state.t += 1
    b1, b2, eps, t = state.beta1, state.beta2, state.eps, state.t
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for key, value in params.block_values.items():
        g = params.block_grads[key]
        m = state.m.get(key)
        if m is None:
            m = state.m[key] = np.zeros_like(value)
        v = state.v.get(key)
        if v is None:
            v = state.v[key] = np.zeros_like(value)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        value -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    params.zero_grads()


# ---------------------------------------------------------------------------
# Finite-difference oracle


def gradient_check(loss_fn: Callable[[], float], params: ParameterSet,
                   analytic: dict[str, np.ndarray], step: float = 1e-5,
                   floor: float = 1e-6) -> float:
    """Max relative error between ``analytic`` grads and central differences.

    ``loss_fn`` re-evaluates the scalar loss from the current parameter
    values; it must not mutate them. Relative error uses
    |a - f| / max(|a|, |f|, floor).
    """
    worst = 0.0
    for pid, value in params.values.items():
        flat = value.reshape(-1)
        ga = analytic[pid].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_fn()
            flat[i] = keep - step
            dn = loss_fn()
            flat[i] = keep
            fd = (up - dn) / (2.0 * step)
            err = abs(ga[i] - fd) / max(abs(ga[i]), abs(fd), floor)
            worst = max(worst, err)
    return worst
