"""Dense-tensor math with reverse-mode differentiation.

Everything in this package that learns runs on this module: float64
tensors recorded on an explicit tape, a small set of differentiable
primitives (matmul, scale, clip, concat, slice, ...), multi-layer
perceptrons built from one fused dense-layer primitive, one fused
Gaussian negative log-likelihood, and a bias-corrected Adam optimizer.

Design choices:

* float64 only; the models are small and reproducibility matters more
  than speed.
* The tape is an append-only list, so creation order is a topological
  order for free. It records backward closures, not op outputs, and
  serves one reverse pass, which releases them as it goes.
* A backward closure captures the node ids of its inputs, never
  ``Tensor`` objects, and only the arrays its own backward reads: a
  matmul operand only if the other operand needs a gradient, a dense
  layer's input only for its weight's gradient and its weight only for
  its input's, its output only if the layer is hidden (for the tanh
  derivative), and shapes, masks or indices for ``scale``, ``clip``,
  ``slice_``, ``reshape``, ``transpose`` and ``concat``. A dense layer
  whose input comes in parts keeps the parts, never their
  concatenation, and concatenates them again in its backward. So the
  tape holds no array that the reverse pass does not read, and no
  copy of one, and an untaped call returns before it builds a closure.
* The reverse pass does only the work parameter gradients need. Each
  tape node records whether a parameter leaf lies upstream of it; nodes
  without one (constants, inputs, masks and everything computed only
  from them) get no backward closure, adjoints sent to them are
  dropped, and ``matmul`` and ``dense`` skip the operand products whose
  target needs no gradient.
* ``dense(x, w, b, hidden)`` is one MLP layer, ``x @ w + b`` with tanh
  on hidden layers, computed in place in one output buffer and undone
  by one backward closure. Its arithmetic matches a matmul, a bias add
  and an elementwise tanh, each with its own backward, bit for bit.
  Given a list of parts as ``x``, it matches ``concat`` of the parts
  followed by ``dense``, bit for bit, forward and adjoints alike.
* ``gaussian_nll(mu, logvar, targets, weights)`` is the training loss,
  summed over per-group dicts into one scalar and undone by one backward
  closure. Its forward and adjoints use the numpy operations, in the
  order, of the loss composed from elementwise primitives (subtract,
  square, exp, scale, add, weight, sum), so they match it bit for bit.
  It keeps the residual, not its square, which the backward forms
  again.
* ``gather_dense(xs, rows, w, b, hidden)`` is ``dense`` of rows gathered
  from several tensors and concatenated, as a graph model's edge MLP
  reads both endpoint states. It keeps the tensors and indices, not the
  gathered copy, and gathers again in its backward. Its adjoint to each
  tensor adds each selected row's whole slab in index order (the same
  additions, in the same order, as ``np.add.at``), and plainly assigns
  when the indices are unique.
* ``dense`` and ``gather_dense`` take an optional ``members`` index into
  a stacked block's leading axis, so a block can hold fewer MLPs than
  the layer has slices, as when a graph model shares one MLP per node
  type: slice j applies member ``members[j]``, and each member's
  gradient adds the slabs of its slices in index order, by the same
  rule.
* Operations work elementwise-broadcast style on numpy arrays and also
  support stacked ("batched") matmuls such as (n, B, i) @ (n, i, o),
  which the graph model uses to evaluate many per-node MLPs at once.
* Parameters live only in blocks of the shapes the engine computes
  with: per MLP layer one weight and one bias, stacked along a leading
  member axis when k same-shaped MLPs run as one batched matmul. There
  is no per-MLP copy; a caller that names single MLPs (the graph
  model's checkpoint ids) takes views of block slices.
* Tensors that never touch a tape evaluate eagerly with zero recording
  overhead (used for inference-only passes).
* Work cut into blocks runs on the cores that BLAS leaves free
  (``run_blocks``): the calling thread and a module-level pool take the
  blocks from one shared list until none is left, and numpy releases
  the GIL inside matmuls and ufunc loops, so blocks run at once. The
  caller's block rule reads only the work's size, never the worker
  count, so what the blocks compute does not depend on how many cores
  run them. A training step records each block on its own ``fork`` of
  the step's tape, which sends parameter gradients to that block's
  buffers, so blocks that run at once never write to one array.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ContractError",
    "ShapeError",
    "Tensor",
    "Tape",
    "ParameterSet",
    "AdamState",
    "scale", "matmul", "dense", "clip", "concat", "slice_", "reshape",
    "transpose", "gather_dense", "gaussian_nll",
    "mlp_layer_param_ids", "mlp_init", "mlp_forward",
    "adam_step", "backward", "gradient_check", "run_blocks",
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
    # a parameter leaf lies upstream (the node itself included)
    needs_grad: bool = False


class Tape:
    """Ordered record of primitive operations.

    Every operand precedes its consumer because nodes are appended at
    creation time. Nodes keep only what the reverse pass reads: each
    backward closure holds its inputs' node ids and the forward arrays
    its own backward uses, never a ``Tensor``, and ``backward`` drops the
    closure once consumed, which keeps training memory bounded.
    """

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        # where parameter leaves accumulate; None: their ParameterSet's grads
        self.grads: Optional[dict[str, np.ndarray]] = None

    def fork(self, grads: dict[str, np.ndarray]) -> "Tape":
        """A new tape for one block of this tape's work, recorded and run
        backward on its own, on any thread. Its parameter leaves
        accumulate into ``grads`` (keyed like ``ParameterSet.grads``)
        instead of their parameter set's accumulators."""
        tape = Tape()
        tape.grads = grads
        return tape

    def _append(self, node: TapeNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, data: np.ndarray, op: str = "const",
             grad_sink: Optional[tuple[dict, str]] = None) -> "Tensor":
        nid = self._append(TapeNode(op, (), None, grad_sink,
                                    needs_grad=grad_sink is not None))
        return Tensor(data, self, nid)


class Tensor:
    """A float64 array, ``data``, stored row-major (C order) and
    optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Optional[Tape] = None, node: int = -1):
        self.data = _as_array(data)
        self.tape = tape
        self.node = node

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def _wrap(data: np.ndarray) -> Tensor:
    """A tape-free tensor over an array already known to be C-contiguous
    float64, without ``_as_array``'s checks."""
    t = Tensor.__new__(Tensor)
    t.data, t.tape, t.node = data, None, -1
    return t


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


def _record(tape: Tape, op: str, inputs: Sequence[Tensor],
            out: np.ndarray, bwd) -> Tensor:
    """``out`` as the output of a new node of ``tape``; its backward
    closure is kept only if a parameter lies upstream."""
    needs = any(tape.nodes[t.node].needs_grad for t in inputs)
    nid = tape._append(TapeNode(op, tuple(t.node for t in inputs),
                                bwd if needs else None, needs_grad=needs))
    result = _wrap(out)  # every primitive's output is C-contiguous float64
    result.tape = tape
    result.node = nid
    return result


# ---------------------------------------------------------------------------
# Primitives


def scale(a, c: float) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    c = float(c)
    out = a.data * c
    if tape is None:
        return _wrap(out)
    aid = a.node

    def bwd(adj, accum):
        accum(aid, adj * c)

    return _record(tape, "scale", (a,), out, bwd)


def _check_inner(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{op} operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    tape = _find_tape(a, b)
    a, b = _coerce(a, tape), _coerce(b, tape)
    _check_inner(a.data, b.data, "matmul")
    out = a.data @ b.data
    if tape is None:
        return _wrap(out)
    aid, bid = a.node, b.node
    ash, bsh = a.data.shape, b.data.shape
    need_a, need_b = tape.nodes[aid].needs_grad, tape.nodes[bid].needs_grad
    # each operand only for the other's gradient
    ad = a.data if need_b else None
    bd = b.data if need_a else None

    def bwd(adj, accum):
        if need_a:
            accum(aid, _unbroadcast(adj @ bd.swapaxes(-1, -2), ash))
        if need_b:
            accum(bid, _unbroadcast(ad.swapaxes(-1, -2) @ adj, bsh))

    return _record(tape, "matmul", (a, b), out, bwd)


def dense(x, w, b, hidden: bool, members=None) -> Tensor:
    """One MLP layer: ``x @ w + b``, then tanh if ``hidden``.

    ``w`` is (i, o) or stacked (k, i, o); ``b`` broadcasts against the
    (..., o) product, e.g. (o,) or (k, 1, o). The output buffer is the
    matmul result, updated in place, so a layer allocates one array.
    ``x`` may be a list or tuple of parts, the input being their
    concatenation along the last axis. The tape then keeps the parts,
    not their concatenation: the backward concatenates again for the
    weight gradient and sends each part its slice of the input's
    adjoint, in order, as ``concat`` followed by ``dense`` would.

    With ``members``, an index array of length n into the leading axis
    of stacked ``w`` and ``b``, slice j of an (n, B, i) input applies
    member ``members[j]``: the layer computes with ``w[members]`` and
    ``b[members]``, and each member's gradient adds the slabs of the
    slices that read it, in index order.
    """
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    return _dense("dense", xs, None, w, b, hidden, members)


def gather_dense(xs: Sequence, rows: Sequence, w, b, hidden: bool,
                 members=None) -> Tensor:
    """``dense`` of ``[xs[0][rows[0]] | xs[1][rows[1]] | ...]``, the rows
    each index array selects along axis 0 (repeated indices allowed),
    concatenated along the last axis.

    The tape keeps the ``xs`` and the indices, not the gathered input: the
    backward gathers it again for the weight gradient, and sends the
    input's adjoint to ``xs[0]``, ``xs[1]``, ... in that order.
    ``members`` is ``dense``'s.
    """
    rows = [np.asarray(r, dtype=np.intp) for r in rows]
    return _dense("gather_dense", xs, rows, w, b, hidden, members)


def _gather_rows(xs: Sequence[np.ndarray], rows) -> np.ndarray:
    if rows is not None:
        xs = [x[r] for x, r in zip(xs, rows)]
    return xs[0] if len(xs) == 1 else np.concatenate(xs, axis=-1)


def _add_rows(shape: tuple[int, ...], r: np.ndarray,
              piece: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with slab ``piece[j]`` added into row ``r[j]``
    for every j, in index order: the additions, in the order, of
    ``np.add.at``; unique indices are assigned at once. Each addition is
    one in-place add of a whole (B, ...) slab, which at the graph
    model's shapes runs several times faster than one fancy-indexed add
    per occurrence rank, whose gathered copies cost more than the loop
    saves."""
    g = np.zeros(shape)
    if np.unique(r).size == r.size:
        g[r] = piece
    else:
        for j, i in enumerate(r):
            g[i] += piece[j]
    return g


def _scatter_rows(gx: np.ndarray, xids, rows, shapes, accum) -> None:
    """Send each part, in order, the adjoint of its slice of the input:
    the slice of ``gx`` itself for a part taken whole, or for gathered
    rows each selected row's whole slab of the slice added in index
    order (``_add_rows``)."""
    lo = 0
    for k, (xid, shape) in enumerate(zip(xids, shapes)):
        hi = lo + shape[-1]
        piece = gx[..., lo:hi]
        lo = hi
        accum(xid, piece if rows is None else _add_rows(shape, rows[k], piece))


def _dense(op: str, xs: Sequence, rows, w, b, hidden: bool,
           members) -> Tensor:
    """``dense`` of the parts ``xs`` (``rows`` None) or ``gather_dense``."""
    tape = _find_tape(*xs, w, b)
    xs = [_coerce(x, tape) for x in xs]
    w, b = _coerce(w, tape), _coerce(b, tape)
    x = _gather_rows([t.data for t in xs], rows)
    wm, bm = w.data, b.data
    if members is not None:
        members = np.asarray(members, dtype=np.intp)
        wm, bm = wm[members], bm[members]
    _check_inner(x, wm, op)
    out = x @ wm
    out += bm
    if hidden:
        np.tanh(out, out=out)
    if tape is None:
        return _wrap(out)
    xids = [t.node for t in xs]
    wid, bid = w.node, b.node
    xsh, xshs = x.shape, [t.data.shape for t in xs]
    wsh, bsh = w.data.shape, b.data.shape
    wmsh, bmsh = wm.shape, bm.shape
    nodes = tape.nodes
    need_x = any(nodes[i].needs_grad for i in xids)
    need_w, need_b = nodes[wid].needs_grad, nodes[bid].needs_grad
    # the input only for the weight's gradient and the weight (its
    # block, not the members' copy) only for the input's; the output
    # only for the tanh derivative
    xds = [t.data for t in xs] if need_w else None
    wd = w.data if need_x else None
    kept = out if hidden else None

    def to_block(grad, shape):
        # the members' gradients added into their block rows
        return grad if members is None else _add_rows(shape, members, grad)

    def bwd(adj, accum):
        if kept is None:
            g = adj
        else:  # adj * (1 - out^2), in one buffer
            g = kept * kept
            np.subtract(1.0, g, out=g)
            np.multiply(adj, g, out=g)
        if need_b:
            accum(bid, to_block(_unbroadcast(g, bmsh), bsh))
        if need_x:
            wt = (wd if members is None else wd[members]).swapaxes(-1, -2)
            gx = _unbroadcast(g @ wt, xsh)
            _scatter_rows(gx, xids, rows, xshs, accum)
        if need_w:
            xd = _gather_rows(xds, rows)
            accum(wid, to_block(_unbroadcast(xd.swapaxes(-1, -2) @ g, wmsh),
                                wsh))

    return _record(tape, op, (*xs, w, b), out, bwd)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.clip(a.data, lo, hi)
    if tape is None:
        return _wrap(out)
    aid = a.node
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(adj, accum):
        accum(aid, adj * inside)

    return _record(tape, "clip", (a,), out, bwd)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    tape = _find_tape(*tensors)
    ts = [_coerce(t, tape) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    if tape is None:
        return _wrap(out)
    sizes = [t.data.shape[axis] for t in ts]
    nodes = [t.node for t in ts]

    def bwd(adj, accum):
        splits = np.cumsum(sizes)[:-1]
        for nid, piece in zip(nodes, np.split(adj, splits, axis=axis)):
            accum(nid, piece)

    return _record(tape, "concat", ts, out, bwd)


def slice_(a, key) -> Tensor:
    """Basic slicing; ``key`` is anything accepted by ndarray.__getitem__
    that selects without fancy indexing."""
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = np.ascontiguousarray(a.data[key])
    if tape is None:
        return _wrap(out)
    aid, ash = a.node, a.data.shape

    def bwd(adj, accum):
        g = np.zeros(ash)
        g[key] += adj
        accum(aid, g)

    return _record(tape, "slice", (a,), out, bwd)


def reshape(a, shape: Sequence[int]) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    out = a.data.reshape(tuple(shape))
    if tape is None:
        return _wrap(out)
    aid, ash = a.node, a.data.shape

    def bwd(adj, accum):
        accum(aid, adj.reshape(ash))

    return _record(tape, "reshape", (a,), out, bwd)


def transpose(a, axes: Sequence[int]) -> Tensor:
    tape = _find_tape(a)
    a = _coerce(a, tape)
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    if tape is None:
        return _wrap(out)
    aid, inv = a.node, tuple(np.argsort(axes))

    def bwd(adj, accum):
        accum(aid, np.ascontiguousarray(adj.transpose(inv)))

    return _record(tape, "transpose", (a,), out, bwd)


def gaussian_nll(mu: dict, logvar: dict, targets: dict, weights: dict) -> Tensor:
    """Weighted Gaussian negative log-likelihood (without its constant) as
    one scalar: over the groups of ``mu``, in order, the sum of
    ``w * (0.5 * lv + 0.5 * (y - mu)^2 * exp(-lv))``.

    ``mu`` and ``logvar`` map group keys to tensors; ``targets`` and
    ``weights`` map them to constant arrays of the same shapes, which get
    no gradient.
    """
    tape = _find_tape(*mu.values(), *logvar.values())
    inputs, saved, total = [], [], None
    for key in mu:
        m, lv = _coerce(mu[key], tape), _coerce(logvar[key], tape)
        y, w = _as_array(targets[key]), _as_array(weights[key])
        if not m.data.shape == lv.data.shape == y.shape == w.shape:
            raise ShapeError(f"gaussian_nll group {key!r}: shapes differ")
        d = y - m.data
        e = np.exp(-lv.data)
        s = ((lv.data * 0.5 + ((d * d) * e) * 0.5) * w).sum()
        total = s if total is None else total + s
        if tape is not None:
            inputs += (m, lv)
            saved.append((m.node, lv.node, d, e, w))
    if tape is None:
        return _wrap(np.asarray(total))

    def bwd(adj, accum):
        # last group first, log-variance before mean, as the composed
        # chain's reverse pass sent them; d * d is formed again, the
        # same bits as the forward's
        for mid, lid, d, e, w in reversed(saved):
            g = adj * w
            h = g * 0.5
            accum(lid, -((h * (d * d)) * e) + h)
            t = (h * e) * d
            accum(mid, -(t + t))

    return _record(tape, "gaussian_nll", inputs, np.asarray(total), bwd)


# ---------------------------------------------------------------------------
# Reverse pass


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every parameter leaf on the tape.

    Parameters the loss does not reach keep their current (zeroed)
    gradient accumulator. Adjoints sent to nodes with no parameter
    upstream are dropped. Each node's backward closure is dropped once
    consumed, freeing the forward arrays it captured, so a tape supports
    one backward pass.
    """
    if loss.tape is not tape or loss.node < 0:
        raise ContractError("loss was not produced by this tape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    adjoints: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    nodes = tape.nodes

    def accum(nid: int, grad: np.ndarray) -> None:
        if not nodes[nid].needs_grad:
            return
        cur = adjoints.get(nid)
        adjoints[nid] = grad if cur is None else cur + grad

    for nid in range(loss.node, -1, -1):
        adj = adjoints.pop(nid, None)
        node = nodes[nid]
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
    """Parameter blocks plus matching gradient accumulators, keyed by
    block id.

    A block has the shape the engine computes with: one MLP layer's
    (i, o) weight and (o,) bias, or, for k structurally identical MLPs,
    a (k, i, o) weight and a (k, 1, o) bias stacked along a leading
    member axis. Optimizers walk the blocks; a member's slice is a view
    of its block, so writes through it are seen by the next forward.
    """

    def __init__(self) -> None:
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, key: str, value) -> None:
        if key in self.values:
            raise ContractError(f"duplicate parameter id {key!r}")
        arr = _as_array(value)
        self.values[key] = arr
        self.grads[key] = np.zeros_like(arr)

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __len__(self) -> int:
        return len(self.values)

    def n_scalars(self) -> int:
        return sum(v.size for v in self.values.values())

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def tensor(self, tape: Optional[Tape], key: str) -> Tensor:
        """Leaf tensor for a block; gradients flow back into its
        accumulator."""
        if key not in self.values:
            raise ContractError(f"unknown parameter block {key!r}")
        if tape is None:
            return _wrap(self.values[key])
        grads = self.grads if tape.grads is None else tape.grads
        return tape.leaf(self.values[key], op="param", grad_sink=(grads, key))

    def copy(self) -> "ParameterSet":
        out = ParameterSet()
        for key, v in self.values.items():
            out.add(key, v.copy())
        return out

    def load_values(self, other: "ParameterSet") -> None:
        for key, v in other.values.items():
            self.values[key][...] = v


# ---------------------------------------------------------------------------
# MLPs


def mlp_layer_param_ids(prefix: str, layer_spec: Sequence[int]) -> list[tuple[str, str]]:
    """(weight_id, bias_id) per layer for an MLP named by ``prefix``."""
    if len(layer_spec) < 2:
        raise ContractError("layer_spec needs at least input and output widths")
    return [(f"{prefix}/L{i}/W", f"{prefix}/L{i}/b")
            for i in range(len(layer_spec) - 1)]


def mlp_init(params: ParameterSet, prefix: str, layer_spec: Sequence[int],
             rng: np.random.Generator, members: int = 1) -> None:
    """Create the blocks of ``members`` structurally identical MLPs.

    Weights are W ~ U[-a, a] with a = sqrt(6/(fan_in+fan_out)), biases
    zero. One MLP gets (in, out) weights and (out,) biases; k > 1 get
    (k, in, out) and (k, 1, out) blocks, drawn member by member, each
    member's layers in order.
    """
    if members < 1:
        raise ContractError("an MLP block needs at least one member")
    ids = mlp_layer_param_ids(prefix, layer_spec)
    lead = () if members == 1 else (members,)
    fans = [(int(layer_spec[i]), int(layer_spec[i + 1])) for i in range(len(ids))]
    for (wid, bid), (fan_in, fan_out) in zip(ids, fans):
        params.add(wid, np.empty(lead + (fan_in, fan_out)))
        params.add(bid, np.zeros(lead + ((1, fan_out) if lead else (fan_out,))))
    for j in range(members):
        for (wid, _), (fan_in, fan_out) in zip(ids, fans):
            a = math.sqrt(6.0 / (fan_in + fan_out))
            w = params.values[wid]
            (w[j] if lead else w)[...] = rng.uniform(-a, a, size=(fan_in, fan_out))


@functools.lru_cache(maxsize=None)
def _layer_ids(prefix: str, n_layers: int) -> tuple[tuple[str, str, bool], ...]:
    """(weight id, bias id, hidden) per layer of MLP block ``prefix``."""
    ids = mlp_layer_param_ids(prefix, range(n_layers + 1))
    return tuple((w, b, i < n_layers - 1) for i, (w, b) in enumerate(ids))


def mlp_forward(params: ParameterSet, layer_spec: Sequence[int], prefix: str,
                x, tape: Optional[Tape] = None,
                rows: Optional[Sequence] = None,
                members: Optional[np.ndarray] = None) -> Tensor:
    """Apply the MLP block ``prefix``: tanh on hidden layers, linear
    final layer.

    ``x`` has the layer input width as its last dimension. For a block
    of k stacked MLPs ``x`` is (k, B, in) and MLP j applies to slice j;
    a single MLP's parameters broadcast over all leading dimensions.
    ``x`` may be a list or tuple of parts, which the first layer reads
    as ``dense`` does, the input being ``[x[0] | x[1] | ...]``; with
    ``rows`` it is ``[x[0][rows[0]] | x[1][rows[1]] | ...]``, which the
    first layer builds as ``gather_dense`` does. With ``members``, slice
    j of the input applies member ``members[j]`` of the block, as in
    ``dense``.
    """
    layers = _layer_ids(prefix, len(layer_spec) - 1)
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    tape = tape if tape is not None else _find_tape(*xs)
    xs = [_coerce(t, tape) for t in xs]
    width = sum(t.data.shape[-1] for t in xs)
    if width != int(layer_spec[0]):
        raise ShapeError(f"{prefix} layer 0 input: expected last dimension "
                         f"{layer_spec[0]}, got {width}")
    h = xs
    for i, (wid, bid, hidden) in enumerate(layers):
        try:
            w, b = params.tensor(tape, wid), params.tensor(tape, bid)
        except ContractError:
            raise ContractError(
                f"missing parameters for {prefix} layer {i}") from None
        if i == 0 and rows is not None:
            h = gather_dense(xs, rows, w, b, hidden, members)
        else:
            h = dense(h, w, b, hidden, members)
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
    for key, value in params.values.items():
        g = params.grads[key]
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
# Blocks on the cores BLAS leaves free

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _free_workers() -> int:
    """Blocks that can run at once: the usable cores if the first BLAS
    thread count the environment declares is 1, else 1. With none
    declared BLAS already uses every core, and several BLAS threads
    split each product among themselves by its size."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if threads > 0:
            return len(os.sched_getaffinity(0)) if threads == 1 else 1
    return 1


_WORKERS = _free_workers()
# the calling thread is a worker too, so the pool needs one thread fewer
_POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                           thread_name_prefix="blocks")


def run_blocks(blocks: list, work: Callable[[object], None]) -> None:
    """Call ``work(block)`` for every item of ``blocks``, emptying it.

    The calling thread and up to ``_WORKERS - 1`` pool threads pop items
    from the end of the one list until it is empty, so a worker whose
    core is busy with other work takes fewer blocks instead of holding
    the others up, and a helper that has not started when the list runs
    dry is cancelled, not waited for. ``work`` must not depend on which
    thread runs it.
    """
    def drain() -> None:
        while True:
            try:
                block = blocks.pop()  # atomic, so no block runs twice
            except IndexError:
                return
            work(block)

    helpers = [_POOL.submit(drain)
               for _ in range(min(len(blocks), _WORKERS) - 1)]
    try:
        drain()
    finally:
        for job in helpers:
            if not job.cancel():  # a helper that never started took nothing
                job.result()


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
