"""Dense-tensor math with reverse-mode differentiation.

Everything in this package that learns runs on this module: float64
tensors recorded on an explicit tape, and on it only the layers of the
two models that train, the graph model and the centralized MLP or
auto-encoder: one fused dense layer (plain or over gathered rows), the
graph model's message routing, the centralized model's regrouping of
its flat output, a clamp, one fused Gaussian negative log-likelihood;
then a bias-corrected Adam optimizer. Data a model only lays out
(flattening constant inputs, a ones column) is laid out in numpy.

Design choices:

* float64 only; the models are small and reproducibility matters more
  than speed.
* The tape is an append-only list, so creation order is a topological
  order for free. It records backward closures, not op outputs, and
  serves one reverse pass, which releases them as it goes. The pass is
  seeded with an adjoint of the output's shape (``backward``), so a
  loss's scale needs no op of its own.
* A backward closure captures the node ids of its inputs, never
  ``Tensor`` objects, and only the arrays its own backward reads: a
  dense layer's input only for its block's gradient and its block only
  for its input's, its output only if the layer is hidden (for the tanh
  derivative), the routing matrix for ``route``, and the mask for
  ``clip``. A dense layer whose input comes in parts keeps the parts,
  never their concatenation, and concatenates them again in its
  backward. So the tape holds no array that the reverse pass does not
  read, and no copy of one, and an untaped call returns before it
  builds a closure.
* The reverse pass does only the work parameter gradients need. Each
  tape node records whether a parameter leaf lies upstream of it; nodes
  without one (constants, inputs, masks and everything computed only
  from them) get no backward closure, adjoints sent to them are
  dropped, and ``dense`` skips the operand products whose target needs
  no gradient.
* An MLP layer is one affine block, (i + 1, o) or stacked (k, i + 1, o):
  its weight rows, then its bias row. ``dense(x, a, hidden)`` computes
  the layer as one GEMM, ``x @ a`` with tanh on hidden layers, in place
  in one output buffer, over an input whose last column is ones: a
  first layer appends that column (``ones``), and each hidden layer
  carries one constant unit, weights 0 and bias ``CONSTANT_BIAS`` = 40,
  whose ``tanh`` is exactly 1.0, so it is the next layer's ones column.
  Its arithmetic matches a matmul with the weights, a bias add and a
  tanh, bit for bit at the graph model's shapes. One backward closure
  undoes it: one GEMM, ``x^T @ g``, gives the weights' and the bias's
  gradients at once, and the tanh derivative ``1 - out^2`` is formed in
  the kept output's buffer, which nothing reads after it. The constant
  unit's derivative is exactly 0, so its gradient is 0 and Adam never
  moves it; it is not a parameter (``ParameterSet.n_scalars``).
  Given a list of parts as ``x``, ``dense`` matches ``dense`` of the
  parts' concatenation, bit for bit, forward and adjoints alike.
* ``gaussian_nll(mu, logvar, targets, weights)`` is the training loss,
  summed over per-group dicts into one scalar and undone by one backward
  closure. Its forward and adjoints use the numpy operations, in the
  order, of the loss composed from elementwise primitives (subtract,
  square, exp, scale, add, weight, sum), so they match it bit for bit.
  It keeps the residual, not its square, which the backward forms
  again.
* ``gather_dense(xs, rows, a, hidden)`` is ``dense`` of rows gathered
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
* ``route(msgs, routing)`` is a graph model's mean incoming message:
  its messages stacked, flattened and multiplied by a constant routing
  matrix, and ``regroup(h, lo, hi, n)`` reads a column range of a flat
  (B, D) output as (n, B, q) per node group. Both use the numpy calls,
  in the order, of the stack, reshape, transpose, slice and matmul
  steps they stand for, so the bytes are theirs.
* Dense layers run stacked ("batched") matmuls such as
  (n, B, i) @ (n, i, o), which the graph model uses to evaluate many
  per-node MLPs at once.
* Parameters live only in blocks of the shapes the engine computes
  with: per MLP layer one affine block, stacked along a leading member
  axis when k same-shaped MLPs run as one batched matmul. There is no
  per-MLP copy; a caller that names single MLPs (the graph model's
  checkpoint ids) takes views of block slices that leave the constant
  units out (``mlp_views``).
* An untaped ``mlp_forward`` runs on plain arrays: one GEMM and one
  in-place tanh per layer, with no ``Tensor`` or tape lookup between
  layers; only its result is wrapped. The other ops evaluate eagerly
  with no recording when no operand is on a tape.
* Work cut into blocks runs on the cores that BLAS leaves free
  (``run_blocks``): the calling thread and a module-level pool take the
  blocks from one shared list until none is left, and numpy releases
  the GIL inside matmuls and ufunc loops, so blocks run at once. Every
  caller cuts rows by one rule, ``row_blocks`` at ``BLOCK_ROWS``, which
  reads only the row count, never the worker count, so what the blocks
  compute does not depend on how many cores run them. A training step
  records each block on its own ``fork`` of the step's tape, which sends
  parameter gradients to that block's buffers, so blocks that run at
  once never write to one array.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


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


def _check_inner(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{op} operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} @ {b.shape}")


def dense(x, a, hidden: bool, members=None, ones: bool = False) -> Tensor:
    """One MLP layer as one GEMM: ``x @ a``, then tanh if ``hidden``.

    ``a`` is an affine block, (i, o) or stacked (k, i, o): the weight
    rows, then the bias row, which the input's last column multiplies.
    That column is ones: with ``ones`` the layer appends it to ``x`` (a
    first layer), and a hidden layer's output ends with its constant
    unit, which is 1 (see ``mlp_init``). The output buffer is the matmul
    result, updated in place, so a layer allocates one array.

    ``x`` may be a list or tuple of parts, the input being their
    concatenation along the last axis. The tape then keeps the parts,
    not their concatenation: the backward concatenates again for the
    block's gradient and sends each part its slice of the input's
    adjoint, in order, the bytes of ``dense`` over the concatenation. The
    input's adjoint covers its columns up to the last part that needs a
    gradient, so an appended ones column gets none.

    With ``members``, an index array of length n into the leading axis
    of stacked ``a``, slice j of an (n, B, i) input applies member
    ``members[j]``: the layer computes with ``a[members]``, and each
    member's gradient adds the slabs of the slices that read it, in
    index order.

    The backward forms a hidden layer's tanh derivative in place in the
    output it kept, so after ``backward`` a hidden output tensor holds
    ``1 - out^2``, not ``out``.
    """
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    return _dense("dense", xs, None, a, hidden, members, ones)


def gather_dense(xs: Sequence, rows: Sequence, a, hidden: bool,
                 members=None, ones: bool = False) -> Tensor:
    """``dense`` of ``[xs[0][rows[0]] | xs[1][rows[1]] | ...]``, the rows
    each index array selects along axis 0 (repeated indices allowed),
    concatenated along the last axis.

    The tape keeps the ``xs`` and the indices, not the gathered input: the
    backward gathers it again for the block's gradient, and sends the
    input's adjoint to ``xs[0]``, ``xs[1]``, ... in that order.
    ``members`` and ``ones`` are ``dense``'s.
    """
    rows = [np.asarray(r, dtype=np.intp) for r in rows]
    return _dense("gather_dense", xs, rows, a, hidden, members, ones)


def _gather_rows(xs: Sequence[np.ndarray], rows, ones: bool) -> np.ndarray:
    """``[xs[0][rows[0]] | xs[1][rows[1]] | ...]`` (each part whole if
    ``rows`` is None), then a ones column if ``ones``, in one array."""
    if rows is not None:
        xs = [x[r] for x, r in zip(xs, rows)]
    if ones:
        xs = [*xs, np.ones(xs[0].shape[:-1] + (1,))]
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


def _dense(op: str, xs: Sequence, rows, a, hidden: bool, members,
           ones: bool) -> Tensor:
    """``dense`` of the parts ``xs`` (``rows`` None) or ``gather_dense``."""
    tape = _find_tape(*xs, a)
    xs = [_coerce(x, tape) for x in xs]
    a = _coerce(a, tape)
    x = _gather_rows([t.data for t in xs], rows, ones)
    am = a.data
    if members is not None:
        members = np.asarray(members, dtype=np.intp)
        am = am[members]
    _check_inner(x, am, op)
    out = x @ am
    if hidden:
        np.tanh(out, out=out)
    if tape is None:
        return _wrap(out)
    nodes = tape.nodes
    xids, aid = [t.node for t in xs], a.node
    xsh, xshs = x.shape, [t.data.shape for t in xs]
    ash, amsh = a.data.shape, am.shape
    # the input's adjoint spans the parts up to the last that needs one
    grad_parts = max((k + 1 for k, i in enumerate(xids) if nodes[i].needs_grad),
                     default=0)
    width = sum(sh[-1] for sh in xshs[:grad_parts])
    need_a = nodes[aid].needs_grad
    # the input only for the block's gradient and the block (not the
    # members' copy) only for the input's; the output only for the tanh
    # derivative
    xds = [t.data for t in xs] if need_a else None
    ad = a.data if grad_parts else None
    kept = out if hidden else None

    def to_block(grad):
        # the members' gradients added into their block rows
        return grad if members is None else _add_rows(ash, members, grad)

    def bwd(adj, accum):
        if kept is None:
            g = adj
        else:  # adj * (1 - out^2), in the kept output's buffer
            g = kept
            np.multiply(g, g, out=g)
            np.subtract(1.0, g, out=g)
            np.multiply(g, adj, out=g)
        if grad_parts:
            wt = (ad if members is None else ad[members])[..., :width, :]
            gx = _unbroadcast(g @ wt.swapaxes(-1, -2), xsh[:-1] + (width,))
            _scatter_rows(gx, xids[:grad_parts], rows, xshs[:grad_parts],
                          accum)
        if need_a:
            xd = _gather_rows(xds, rows, ones)
            accum(aid, to_block(_unbroadcast(xd.swapaxes(-1, -2) @ g, amsh)))

    return _record(tape, op, (*xs, a), out, bwd)


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


def route(msgs: Sequence, routing: np.ndarray) -> Tensor:
    """A graph model's mean incoming message per node: ``routing @`` the
    message tensors ``msgs``, each (k, B, m), stacked along axis 0 and
    flattened to (edges, B * m), as (n, B, m) for an (n, edges) constant
    ``routing``. Each message tensor's adjoint is its rows of
    ``routing^T @`` the output's adjoint; the tape keeps no array but the
    routing matrix."""
    tape = _find_tape(*msgs)
    ms = [_coerce(m, tape) for m in msgs]
    stacked = (ms[0].data if len(ms) == 1
               else np.concatenate([m.data for m in ms]))
    edges, rows, width = stacked.shape
    n, flat = routing.shape[0], stacked.reshape(edges, rows * width)
    _check_inner(routing, flat, "route")
    out = (routing @ flat).reshape(n, rows, width)
    if tape is None:
        return _wrap(out)
    mids, cuts = [m.node for m in ms], np.cumsum([m.data.shape[0] for m in ms])

    def bwd(adj, accum):
        g = routing.swapaxes(-1, -2) @ adj.reshape(n, rows * width)
        for mid, piece in zip(mids, np.split(g.reshape(edges, rows, width),
                                             cuts[:-1])):
            accum(mid, piece)

    return _record(tape, "route", ms, out, bwd)


def regroup(h, lo: int, hi: int, n: int) -> Tensor:
    """Columns ``lo:hi`` of a (B, D) tensor as n groups of q = (hi - lo) / n
    columns, stacked (n, B, q): column lo + j * q + c of row b is element
    (j, b, c), as a centralized model's flat output is read per node
    group. The adjoint puts the columns back in a zero (B, D) array, so
    the tape keeps no array."""
    tape = _find_tape(h)
    h = _coerce(h, tape)
    rows, width = h.data.shape
    if not 0 <= lo < hi <= width or (hi - lo) % n:
        raise ShapeError(f"regroup: columns {lo}:{hi} of {width} do not "
                         f"split into {n} groups")
    out = np.ascontiguousarray(
        h.data[:, lo:hi].reshape(rows, n, (hi - lo) // n).transpose(1, 0, 2))
    if tape is None:
        return _wrap(out)
    hid = h.node

    def bwd(adj, accum):
        g = np.zeros((rows, width))
        g[:, lo:hi] += adj.transpose(1, 0, 2).reshape(rows, hi - lo)
        accum(hid, g)

    return _record(tape, "regroup", (h,), out, bwd)


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


def backward(tape: Tape, out: Tensor, adjoint) -> None:
    """Accumulate into every parameter leaf on the tape the gradient of
    sum(adjoint * out): ``adjoint``, of ``out``'s shape, seeds the
    reverse pass, as a scalar loss's scale or a tensor output's weights.

    Parameters ``out`` does not reach keep their current (zeroed)
    gradient accumulator. Adjoints sent to nodes with no parameter
    upstream are dropped. Each node's backward closure is dropped once
    consumed, freeing the forward arrays it captured, so a tape supports
    one backward pass.
    """
    if out.tape is not tape or out.node < 0:
        raise ContractError("output was not produced by this tape")
    seed = np.asarray(adjoint, dtype=np.float64)
    if seed.shape != out.data.shape:
        raise ContractError(f"adjoint of shape {seed.shape} for an output "
                            f"of shape {out.data.shape}")
    adjoints: dict[int, np.ndarray] = {out.node: seed}
    nodes = tape.nodes

    def accum(nid: int, grad: np.ndarray) -> None:
        if not nodes[nid].needs_grad:
            return
        cur = adjoints.get(nid)
        adjoints[nid] = grad if cur is None else cur + grad

    for nid in range(out.node, -1, -1):
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
    affine (i + 1, o) block, its weight rows and then its bias row, or,
    for k structurally identical MLPs, a (k, i + 1, o) block stacked
    along a leading member axis. A block added with ``constant_unit``
    ends with a hidden layer's constant unit, a column that is not a
    parameter. Optimizers walk the blocks; a member's slice is a view of
    its block, so writes through it are seen by the next forward.
    """

    def __init__(self) -> None:
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.constant_units: set[str] = set()

    def add(self, key: str, value, constant_unit: bool = False) -> None:
        if key in self.values:
            raise ContractError(f"duplicate parameter id {key!r}")
        arr = _as_array(value)
        self.values[key] = arr
        self.grads[key] = np.zeros_like(arr)
        if constant_unit:
            self.constant_units.add(key)

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __len__(self) -> int:
        return len(self.values)

    def n_scalars(self) -> int:
        """Parameters stored, leaving out the constant units' columns."""
        return sum(v.size - (v.size // v.shape[-1] if k in self.constant_units
                             else 0) for k, v in self.values.items())

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
            out.add(key, v.copy(), key in self.constant_units)
        return out

    def load_values(self, other: "ParameterSet") -> None:
        for key, v in other.values.items():
            self.values[key][...] = v


# ---------------------------------------------------------------------------
# MLPs


# The bias of a hidden layer's constant unit, whose weights are 0:
# np.tanh(40.0) is exactly 1.0 in float64.
CONSTANT_BIAS = 40.0


def mlp_layer_ids(prefix: str, layer_spec: Sequence[int]) -> list[str]:
    """The affine block id of each layer of the MLP block ``prefix``."""
    if len(layer_spec) < 2:
        raise ContractError("layer_spec needs at least input and output widths")
    return [f"{prefix}/L{i}" for i in range(len(layer_spec) - 1)]


def mlp_init(params: ParameterSet, prefix: str, layer_spec: Sequence[int],
             rng: np.random.Generator, members: int = 1) -> None:
    """Create the affine blocks of ``members`` structurally identical MLPs.

    Layer i of spec (n_0, n_1, ...) is one (n_i + 1, n_{i+1}) block, or
    (k, n_i + 1, n_{i+1}) for k > 1 members: the weight rows, then the
    bias row. A hidden layer's block has one column more, its constant
    unit (``CONSTANT_BIAS``), which is not a parameter. Weights are
    W ~ U[-a, a] with a = sqrt(6/(fan_in+fan_out)), drawn member by
    member, each member's layers in order; biases are zero.
    """
    if members < 1:
        raise ContractError("an MLP block needs at least one member")
    ids = mlp_layer_ids(prefix, layer_spec)
    lead = () if members == 1 else (members,)
    fans = [(int(layer_spec[i]), int(layer_spec[i + 1])) for i in range(len(ids))]
    for i, (aid, (fan_in, fan_out)) in enumerate(zip(ids, fans)):
        hidden = i < len(ids) - 1
        block = np.zeros(lead + (fan_in + 1, fan_out + hidden))
        if hidden:
            block[..., -1, -1] = CONSTANT_BIAS
        params.add(aid, block, constant_unit=hidden)
    for j in range(members):
        for aid, (fan_in, fan_out) in zip(ids, fans):
            a = math.sqrt(6.0 / (fan_in + fan_out))
            block = params.values[aid]
            (block[j] if lead else block)[:fan_in, :fan_out] = rng.uniform(
                -a, a, size=(fan_in, fan_out))


def mlp_views(block: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (weight, bias) views of one MLP's slice of an affine block
    whose layer has ``width`` outputs, without its constant unit."""
    return block[..., :-1, :width], block[..., -1, :width]


@functools.lru_cache(maxsize=None)
def _layer_ids(prefix: str, n_layers: int) -> tuple[tuple[str, bool], ...]:
    """(block id, hidden) per layer of MLP block ``prefix``."""
    ids = mlp_layer_ids(prefix, range(n_layers + 1))
    return tuple((a, i < n_layers - 1) for i, a in enumerate(ids))


def mlp_forward(params: ParameterSet, layer_spec: Sequence[int], prefix: str,
                x, tape: Optional[Tape] = None,
                rows: Optional[Sequence] = None,
                members: Optional[np.ndarray] = None) -> Tensor:
    """Apply the MLP block ``prefix``: tanh on hidden layers, linear
    final layer, one GEMM per layer.

    ``x`` has the layer input width as its last dimension. For a block
    of k stacked MLPs ``x`` is (k, B, in) and MLP j applies to slice j;
    a single MLP's parameters broadcast over all leading dimensions.
    ``x`` may be a list or tuple of parts, which the first layer reads
    as ``dense`` does, the input being ``[x[0] | x[1] | ...]``; with
    ``rows`` it is ``[x[0][rows[0]] | x[1][rows[1]] | ...]``, which the
    first layer builds as ``gather_dense`` does. The first layer appends
    the ones column its bias row multiplies. With ``members``, slice j
    of the input applies member ``members[j]`` of the block, as in
    ``dense``.

    Untaped, the layers run on plain arrays: one GEMM and one in-place
    tanh each, the result wrapped in a ``Tensor`` at the end.
    """
    layers = _layer_ids(prefix, len(layer_spec) - 1)
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    tape = tape if tape is not None else _find_tape(*xs)
    if tape is None:
        h = _gather_rows([t.data if isinstance(t, Tensor) else _as_array(t)
                          for t in xs], rows, True)
        _check_input(prefix, layer_spec, h.shape[-1])
        for i, (aid, hidden) in enumerate(layers):
            try:
                a = params.values[aid]
            except KeyError:
                raise ContractError(
                    f"missing parameters for {prefix} layer {i}") from None
            h = h @ (a if members is None else a[members])
            if hidden:
                np.tanh(h, out=h)
        return _wrap(h)
    xs = [_coerce(t, tape) for t in xs]
    _check_input(prefix, layer_spec, sum(t.data.shape[-1] for t in xs) + 1)
    h = xs
    for i, (aid, hidden) in enumerate(layers):
        try:
            a = params.tensor(tape, aid)
        except ContractError:
            raise ContractError(
                f"missing parameters for {prefix} layer {i}") from None
        if i == 0 and rows is not None:
            h = gather_dense(xs, rows, a, hidden, members, ones=True)
        else:
            h = dense(h, a, hidden, members, ones=i == 0)
    return h


def _check_input(prefix: str, layer_spec: Sequence[int], width: int) -> None:
    """``width``, the first layer's input columns with its ones column,
    must be the spec's input width plus one."""
    if width != int(layer_spec[0]) + 1:
        raise ShapeError(f"{prefix} layer 0 input: expected last dimension "
                         f"{layer_spec[0]}, got {width - 1}")


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
# Rows per block at most, for training steps and untaped passes alike.
BLOCK_ROWS = 128


def row_blocks(rows: int) -> list[tuple[int, int]]:
    """(lo, hi) of ``rows`` rows in ceil(rows / BLOCK_ROWS) near-equal
    blocks, at least one, cut by the row count alone (240 → 2 × 120)."""
    n = max(1, -(-rows // BLOCK_ROWS))
    cuts = [i * rows // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def run_blocks(blocks: list, work: Callable[[object], None]) -> None:
    """Call ``work(block)`` for every item of ``blocks``, emptying it.

    The calling thread and up to ``_WORKERS - 1`` pool threads pop items
    from the end of the one list until it is empty, so a worker whose
    core is busy with other work takes fewer blocks instead of holding
    the others up, and a helper that has not started when the list runs
    dry is cancelled, not waited for. Two blocks, as ``row_blocks`` cuts
    240 rows, get one helper. ``work`` must not depend on the thread.
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
