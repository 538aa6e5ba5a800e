"""Dense-layer math with a reverse pass per model.

Everything in this package that learns runs on this module: float64
arrays through the layers of the two models that train, the graph model
and the centralized MLP or auto-encoder: one fused dense layer (plain or
over gathered rows), the graph model's message routing, the centralized
model's regrouping of its flat output, a clamp, one fused Gaussian
negative log-likelihood, each with the backward kernel that undoes it;
then a bias-corrected Adam optimizer. Data a model only lays out
(flattening constant inputs, a ones row) is laid out in numpy.

Design choices:

* float64 only; the models are small and reproducibility matters more
  than speed.
* Every activation is feature-major, (features, B) or a stack
  (features, n, B), so each GEMM has the n·B rows, not the few
  features, as BLAS's long dimension: at the graph model's shapes (at
  most 49 features over 900-6,000 rows) its forward and input-adjoint
  products run up to about 1.9x faster. The models transpose only
  their packed (n, B, q) boundary.
* Each model runs one fixed graph, so there is no general reverse-mode
  engine. A taped forward appends one record per layer to
  ``Tape.nodes``, holding exactly the arrays that layer's backward
  reads, and the model that recorded the tape walks the records back
  itself: its reverse pass (``Tape.reverse``, run by ``backward``) calls
  the backward kernels (``dense_backward``, ``route_backward``,
  ``regroup_backward``, ``clip_backward``, ``gaussian_nll_backward``)
  and adds their adjoints in an order it fixes. The pass is seeded with
  the loss's scale, so the scale needs no op of its own, and takes each
  record once, last first (``Tape.take``), freeing what it holds.
* A dense layer's record keeps its input for its block's gradient, the
  block (a reference) for its input's adjoint and its output only if the
  layer is hidden, for the tanh derivative; a clamp keeps its mask and
  the loss its residuals, exponentials and weights. ``route`` and
  ``regroup`` read only constants their model holds, so they record
  nothing. A dense layer forms the adjoints of its leading
  ``grad_parts`` input parts only: a graph model's encoder, which reads
  data, forms none.
* A dense layer assembles its ``[parts; 1]`` input (``_gather_rows``)
  part by part into one buffer, then writes the ones row there: no
  ones array and no concatenation. Its record keeps the parts, never
  that buffer, and its backward assembles them again. Each part fills
  a contiguous row range: a whole part is copied straight in, gathered
  entries are taken straight in (``np.take``), and a part may be a view
  of any layout, as the graph encoder's transposed data is.
* An MLP layer is one affine (i + 1, o) block, its weight rows and
  then its bias row, over an (i, B) input, as the centralized models
  run, or an (i, n, B) stack, as the graph model runs one MLP over the
  n nodes or edges of a type, as (i, n·B); nothing broadcasts.
  ``dense(x, a, hidden)`` computes the layer as one GEMM, ``a^T @ x``
  with tanh on hidden layers, in place in one output buffer, over an
  input whose last row is ones: a first layer appends that row
  (``ones``), and each hidden layer carries one constant unit, weights
  0 and bias ``CONSTANT_BIAS`` = 40, whose ``tanh`` is exactly 1.0, so
  its output's last row is the next layer's ones row.
  Its arithmetic matches a matmul with the weights, a bias add and a
  tanh over the same columns, bit for bit at the graph model's shapes.
  One backward kernel undoes it: per slice of a stack ``x[:, j] @
  g[:, j]^T`` gives the weights' gradient and numpy's row sum of
  ``g[:, j]`` the bias's, added over the slices in order (the ones
  row's product sums in BLAS's order, which is not numpy's), and the
  tanh derivative ``1 - out^2`` is formed in the kept output's buffer,
  which nothing reads after it. The constant unit's derivative is
  exactly 0, so its gradient is 0 and Adam never moves it; it is not a
  parameter (``ParameterSet.n_scalars``). Given a list of parts as ``x``,
  ``dense`` matches ``dense`` of the parts' concatenation, bit for bit,
  forward and adjoints alike. ``mlp_forward`` is one loop of such
  layers, taped or not, and ``mlp_backward`` walks their records back.
* ``gaussian_nll(mu, logvar, targets, weights)`` is the training loss,
  summed over per-group dicts into one scalar. It and its backward use
  the numpy operations, in the order, of the loss composed from
  elementwise primitives (subtract, square, exp, scale, add, weight,
  sum), so they match it bit for bit. It keeps the residual, not its
  square, which the backward forms again.
* With ``rows``, ``dense`` reads entries gathered along axis 1 from
  several arrays and concatenated, as a graph model's edge MLP reads
  both endpoint states, and keeps the arrays and indices, not the
  gathered copy. Its adjoint to each array is, per feature, one product
  with the entries' 0/1 incidence matrix, which sums each entry's
  occurrences.
* ``route(msgs, routing)`` is a graph model's mean incoming message:
  per feature, its messages stacked along axis 1 and multiplied by a
  constant routing matrix, and ``regroup(h, lo, hi, n)`` reads a row
  range of a flat (D, B) output as packed (n, B, q) per node group.
  Both, and their backward kernels, use the numpy calls, in the order,
  of the stack, reshape, transpose, slice and matmul steps they stand
  for, so the bytes are theirs.
* Parameters live only in the blocks the engine computes with, one
  affine block per MLP layer. A caller that names weights and biases
  (the graph model's checkpoint ids) takes views of the block that
  leave the constant unit out (``mlp_views``).
* Work cut into blocks runs on the cores that BLAS leaves free
  (``run_blocks``): the calling thread and a module-level pool take the
  blocks from one shared list until none is left, and numpy releases
  the GIL inside matmuls and ufunc loops, so blocks run at once. Every
  caller cuts rows by one rule, ``row_blocks`` at ``BLOCK_ROWS``, which
  reads only the row count, never the worker count, so what the blocks
  compute does not depend on how many cores run them. A training step
  records each block on its own ``fork`` of the step's tape, whose
  reverse pass sends parameter gradients to that block's buffers, so
  blocks that run at once never write to one array.
* A training worker owns a ``Workspace``, handed to each of its blocks'
  forks. On that fork every hidden dense output, which the backward
  keeps, is written into a workspace buffer (``np.matmul(..., out=)``),
  and every layer input, forward and in the backward's re-gather, is
  assembled in the workspace's one scratch buffer. Such an output stays
  valid until the worker's next block, which starts after this block's
  backward, so no buffer is live twice, and a steady-state step does
  not take fresh pages for its records, which the allocator would hand
  back to the kernel after each backward. Other outputs, plain tapes
  and untaped passes write new arrays.
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
# Tape and layer records


class Tape:
    """The layer records of one taped forward and its loss, in forward
    order (``nodes``), and where its reverse pass sends gradients. The
    model that recorded them sets ``reverse``, which ``backward`` runs
    once, taking the records back one by one (``take``)."""

    def __init__(self) -> None:
        self.nodes: list = []
        # where parameter gradients are added; None: the model's own grads
        self.grads: Optional[dict[str, np.ndarray]] = None
        # the buffers dense layers write into; None: new arrays
        self.workspace: Optional[Workspace] = None
        # the recording model's reverse pass, reverse(tape, seed)
        self.reverse: Optional[Callable[["Tape", np.ndarray], None]] = None
        self.taken = 0  # records the reverse pass has taken

    def fork(self, grads: dict[str, np.ndarray],
             workspace: Optional["Workspace"] = None) -> "Tape":
        """A new tape for one block of this tape's work, recorded and run
        backward on its own, on any thread. Its reverse pass adds
        parameter gradients into ``grads`` (keyed like
        ``ParameterSet.grads``) instead of the model's own. With a
        ``workspace``, its dense layers write their hidden outputs and
        assemble their inputs in that workspace's buffers, from its first
        buffer on, so whatever an earlier fork on it recorded is no longer
        valid."""
        tape = Tape()
        tape.grads = grads
        if workspace is not None:
            workspace.next = 0
            tape.workspace = workspace
        return tape

    def take(self, kind: type):
        """The last record not yet taken, which must be a ``kind``. Its
        slot is emptied, freeing the arrays the record holds, so
        ``nodes`` keeps its length."""
        i = len(self.nodes) - 1 - self.taken
        record = self.nodes[i] if i >= 0 else None
        if not isinstance(record, kind):
            raise ContractError(f"the reverse pass expected a {kind.__name__}"
                                f", found {type(record).__name__}")
        self.nodes[i] = None
        self.taken += 1
        return record


@dataclass(eq=False, slots=True)
class DenseRecord:
    """What a taped dense layer's backward reads."""

    key: Optional[str]  # the block's parameter id
    parts: list[np.ndarray]  # the input's parts, or the arrays rows came from
    rows: Optional[list[np.ndarray]]
    block: np.ndarray
    out: Optional[np.ndarray]  # a hidden layer's output
    grad_parts: int  # the leading parts that get an adjoint


@dataclass(eq=False, slots=True)
class ClipRecord:
    inside: np.ndarray  # where the clamp passed its input through


@dataclass(eq=False, slots=True)
class NllRecord:
    # per group, in forward order: (key, residual, exp(-logvar), weights)
    groups: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# Layers and their backward kernels


class Workspace:
    """The buffers one worker's taped blocks write into, reused block
    after block: the hidden dense outputs, which the backward keeps, and
    one scratch buffer in which dense layers assemble their inputs.

    Output buffers are flat and handed out in call order, the n-th
    hidden layer of a block getting the n-th buffer, viewed at that
    layer's shape, so a block with fewer rows reuses a larger block's
    buffers; a buffer too small for its call is replaced.
    """

    def __init__(self) -> None:
        self.outputs: list[np.ndarray] = []
        self.scratch = np.empty(0)
        self.next = 0  # the output buffer the next call gets

    def output(self, shape: tuple[int, ...]) -> np.ndarray:
        size, i = math.prod(shape), self.next
        self.next += 1
        if i == len(self.outputs):
            self.outputs.append(np.empty(size))
        elif self.outputs[i].size < size:
            self.outputs[i] = np.empty(size)
        return self.outputs[i][:size].reshape(shape)

    def input(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self.scratch.size < size:
            self.scratch = np.empty(size)
        return self.scratch[:size].reshape(shape)


def _check_inner(a: np.ndarray, b: np.ndarray, op: str) -> None:
    """The matrix ``a`` times ``b`` along ``b``'s first axis (any trailing
    shape): nothing broadcasts."""
    if a.ndim != 2:
        raise ShapeError(f"{op} needs a matrix on the left, not {a.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} @ {b.shape}")


def dense(x, a, hidden: bool, ones: bool = False,
          rows: Optional[Sequence] = None, tape: Optional[Tape] = None,
          key: Optional[str] = None,
          grad_parts: Optional[int] = None) -> np.ndarray:
    """One MLP layer as one GEMM: ``a^T @ x``, then tanh if ``hidden``.

    ``a`` is an affine (i, o) block: the weight rows, then the bias row,
    which the input's last row multiplies. The input is feature-major,
    (i, B) or a stack (i, n, B), which runs as one (i, n·B) GEMM, as
    the (o, ...) output does. Its last row is ones: with ``ones`` the
    layer appends it to ``x`` (a first layer), and a hidden layer's
    output ends with its constant unit, which is 1 (see ``mlp_init``).
    The output buffer is the matmul result, updated in place, so a layer
    allocates one array, or none for a hidden layer on a tape with a
    workspace (``Tape.fork``).

    ``x`` may be a list or tuple of parts, of any memory layout, the
    input being their concatenation along axis 0. With ``rows``, one
    index array per part, the input is ``[x[0][:, rows[0]]; x[1][:,
    rows[1]]; ...]``, the entries each index array selects along axis 1
    (repeated indices allowed), which must lie in range: a check would
    cost more than the gather at one row.

    On a ``tape`` the layer appends a ``DenseRecord`` for block ``key``
    whose backward (``dense_backward``) forms the adjoints of the
    leading ``grad_parts`` parts (all by default).
    """
    xs = [np.asarray(t, dtype=np.float64) for t in x] \
        if isinstance(x, (list, tuple)) else [np.asarray(x, dtype=np.float64)]
    if rows is not None:
        rows = [np.asarray(r, dtype=np.intp) for r in rows]
    a = _as_array(a)
    ws = tape.workspace if tape is not None else None
    xa = _gather_rows(xs, rows, ones, ws)
    _check_inner(a.T, xa, "dense")
    flat = xa.reshape(a.shape[0], -1)
    if hidden and ws is not None:  # kept for the backward: a workspace buffer
        out = np.matmul(a.T, flat, out=ws.output((a.shape[1], flat.shape[1])))
    else:
        out = a.T @ flat
    if hidden:
        np.tanh(out, out=out)
    out = out.reshape(a.shape[1:] + xa.shape[1:])
    if tape is not None:
        tape.nodes.append(DenseRecord(
            key, xs, rows, a, out if hidden else None,
            len(xs) if grad_parts is None else grad_parts))
    return out


def _gather_rows(xs: Sequence[np.ndarray], rows, ones: bool,
                 ws: Optional[Workspace] = None) -> np.ndarray:
    """``[xs[0][:, rows[0]]; xs[1][:, rows[1]]; ...]`` (each part whole if
    ``rows`` is None), then a ones row if ``ones``, written part by part
    into one array: ``ws``'s scratch buffer, or a new one. A lone whole
    part without ones is returned as it is."""
    if rows is None and not ones and len(xs) == 1:
        return xs[0]
    lead = {x.shape[1:] if rows is None else rows[k].shape + x.shape[2:]
            for k, x in enumerate(xs)}
    if len(lead) > 1:
        raise ShapeError(f"input parts' trailing shapes differ: {lead}")
    shape = (sum(x.shape[0] for x in xs) + ones,) + lead.pop()
    out = np.empty(shape) if ws is None else ws.input(shape)
    lo = 0
    for k, x in enumerate(xs):
        hi = lo + x.shape[0]
        if rows is None:
            out[lo:hi] = x
        else:  # straight into its rows: "raise" would copy them twice
            np.take(x, rows[k], axis=1, out=out[lo:hi], mode="clip")
        lo = hi
    if ones:
        out[-1] = 1.0
    return out


def _scatter_rows(shape: tuple[int, ...], r: np.ndarray,
                  piece: np.ndarray) -> np.ndarray:
    """The adjoint, of ``shape``, of the entries ``r`` gathered from it
    along axis 1, given theirs, ``piece``: per feature, one product with
    the entries' 0/1 incidence matrix, whose row i has a 1 in column j
    wherever ``r[j]`` is i, so each entry sums its occurrences."""
    incidence = np.zeros((shape[1], r.size))
    incidence[r, np.arange(r.size)] = 1.0
    return (incidence @ piece.reshape(shape[0], r.size, -1)).reshape(shape)


def dense_backward(record: DenseRecord, adj: np.ndarray,
                   ws: Optional[Workspace] = None,
                   ) -> tuple[list[np.ndarray], np.ndarray]:
    """The adjoints of a dense layer's leading ``grad_parts`` input parts,
    in order, and its block's gradient, from the adjoint ``adj`` of its
    output. A part's adjoint is its rows of the input's, one GEMM over
    every column; for gathered entries, those rows summed back into the
    entries' array by their incidence matrix (``_scatter_rows``). The
    block's gradient is one product per slice of a stack, ``x[:, j] @
    g[:, j]^T`` for the weight rows and numpy's sum of ``g[:, j]`` over
    its rows for the bias row, added over the slices in order, the input
    assembled again in ``ws``'s scratch buffer, if given.

    A hidden layer forms its tanh derivative in place in the output it
    kept, so afterwards that array holds ``1 - out^2``, not ``out``.
    """
    r = record
    g = adj.reshape(r.block.shape[1], -1)
    if r.out is not None:  # adj * (1 - out^2), in the kept output's buffer
        out = r.out.reshape(g.shape)
        np.multiply(out, out, out=out)
        np.subtract(1.0, out, out=out)
        g = np.multiply(out, g, out=out)
    parts = []
    if r.grad_parts:
        width = sum(x.shape[0] for x in r.parts[:r.grad_parts])
        gx = (r.block[:width] @ g).reshape((width,) + adj.shape[1:])
        lo = 0
        for k, x in enumerate(r.parts[:r.grad_parts]):
            hi = lo + x.shape[0]
            piece = gx[lo:hi]
            lo = hi
            parts.append(piece if r.rows is None
                         else _scatter_rows(x.shape, r.rows[k], piece))
    i = r.block.shape[0] - 1
    xa = _gather_rows(r.parts, r.rows, False, ws)  # no ones row: unread
    x3 = xa.reshape(xa.shape[0], -1, xa.shape[-1])[:i]  # (i, n, B)
    g3 = g.reshape((g.shape[0],) + x3.shape[1:])
    slices = np.empty((x3.shape[1],) + r.block.shape)
    np.matmul(x3.transpose(1, 0, 2), g3.transpose(1, 2, 0),
              out=slices[:, :i])
    np.sum(g3, axis=-1, out=slices[:, i].T)
    return parts, slices[0] if len(slices) == 1 else slices.sum(axis=0)


def clip(a, lo: float, hi: float, tape: Optional[Tape] = None) -> np.ndarray:
    """Clamp to [lo, hi]; on a ``tape`` it records where ``a`` lies
    inside, where ``clip_backward`` passes the adjoint through."""
    a = _as_array(a)
    if tape is not None:
        tape.nodes.append(ClipRecord((a >= lo) & (a <= hi)))
    return np.clip(a, lo, hi)


def clip_backward(record: ClipRecord, adj: np.ndarray) -> np.ndarray:
    """The clamp's input adjoint: ``adj`` inside [lo, hi], zero outside."""
    return adj * record.inside


def route(msgs: Sequence, routing: np.ndarray) -> np.ndarray:
    """A graph model's mean incoming message per node: ``routing @`` the
    message arrays ``msgs``, each (m, k, B), stacked along axis 1 to
    (m, edges, B), per feature, as (m, n, B) for an (n, edges) constant
    ``routing``."""
    stacked = (_as_array(msgs[0]) if len(msgs) == 1
               else np.concatenate(msgs, axis=1))
    _check_inner(routing, stacked[0], "route")
    return routing @ stacked


def route_backward(routing: np.ndarray, adj: np.ndarray,
                   sizes: Sequence[int]) -> list[np.ndarray]:
    """The adjoints of the message arrays ``route`` read, of ``sizes``
    edges each: their columns of ``routing^T @`` the (m, n, B) output
    adjoint ``adj``, per feature."""
    g = routing.T @ adj
    return np.split(g, np.cumsum(sizes)[:-1], axis=1)


def regroup(h, lo: int, hi: int, n: int) -> np.ndarray:
    """Rows ``lo:hi`` of a feature-major (D, B) array as n groups of
    q = (hi - lo) / n rows, stacked (n, B, q): row lo + j * q + c of
    column b is element (j, b, c), as a centralized model's flat output
    is read per node group."""
    h = _as_array(h)
    width, rows = h.shape
    if not 0 <= lo < hi <= width or (hi - lo) % n:
        raise ShapeError(f"regroup: rows {lo}:{hi} of {width} do not "
                         f"split into {n} groups")
    return h[lo:hi].reshape(n, (hi - lo) // n, rows).transpose(0, 2, 1).copy()


def regroup_backward(adj: np.ndarray, lo: int, hi: int,
                     into: np.ndarray) -> None:
    """Add the adjoint of ``regroup(h, lo, hi, n)``, the (n, B, q)
    ``adj``, into rows ``lo:hi`` of ``into``, h's (D, B) adjoint, which
    starts as zeros: each entry gets 0 + its adjoint, whatever the order
    in which row ranges are added."""
    n, rows, q = adj.shape
    into[lo:hi].reshape(n, q, rows)[...] += adj.transpose(0, 2, 1)


def gaussian_nll(mu: dict, logvar: dict, targets: dict, weights: dict,
                 tape: Optional[Tape] = None) -> np.ndarray:
    """Weighted Gaussian negative log-likelihood (without its constant) as
    one 0-d array: over the groups of ``mu``, in order, the sum of
    ``w * (0.5 * lv + 0.5 * (y - mu)^2 * exp(-lv))``.

    ``mu``, ``logvar``, ``targets`` and ``weights`` map group keys to
    arrays of the same shapes. On a ``tape`` it appends an ``NllRecord``
    for ``gaussian_nll_backward``.
    """
    saved, total = [], None
    for key in mu:
        m, lv = _as_array(mu[key]), _as_array(logvar[key])
        y, w = _as_array(targets[key]), _as_array(weights[key])
        if not m.shape == lv.shape == y.shape == w.shape:
            raise ShapeError(f"gaussian_nll group {key!r}: shapes differ")
        d = y - m
        e = np.exp(-lv)
        s = ((lv * 0.5 + ((d * d) * e) * 0.5) * w).sum()
        total = s if total is None else total + s
        if tape is not None:
            saved.append((key, d, e, w))
    if tape is not None:
        tape.nodes.append(NllRecord(saved))
    return np.asarray(total)


def gaussian_nll_backward(record: NllRecord, adj: np.ndarray,
                          ) -> tuple[dict, dict]:
    """The adjoints of the loss's means and log-variances, per group,
    from the adjoint ``adj`` of its sum (its scale)."""
    dmu, dlv = {}, {}
    # last group first, log-variance before mean, as the composed chain's
    # reverse pass formed them; d * d is formed again, the same bits as
    # the forward's
    for key, d, e, w in reversed(record.groups):
        g = adj * w
        h = g * 0.5
        dlv[key] = -((h * (d * d)) * e) + h
        t = (h * e) * d
        dmu[key] = -(t + t)
    return dmu, dlv


# ---------------------------------------------------------------------------
# Reverse pass


def backward(tape: Tape, out, adjoint) -> None:
    """Run the reverse pass of the model whose forward and loss ``tape``
    recorded (``Tape.reverse``), seeded with ``adjoint``, of the loss
    ``out``'s shape: the loss's scale. Parameter gradients are added into
    the tape's buffers (``Tape.fork``), or else the model's own. A tape
    supports one reverse pass, which takes every record."""
    if tape.reverse is None:
        raise ContractError("no model recorded its forward on this tape")
    seed = np.asarray(adjoint, dtype=np.float64)
    if seed.shape != np.shape(out):
        raise ContractError(f"adjoint of shape {seed.shape} for an output "
                            f"of shape {np.shape(out)}")
    if tape.taken:
        raise ContractError("the tape's reverse pass has run")
    tape.reverse(tape, seed)
    if tape.taken != len(tape.nodes):
        raise ContractError("the reverse pass left records it did not take")


# ---------------------------------------------------------------------------
# Parameters


class ParameterSet:
    """Parameter blocks plus matching gradient accumulators, keyed by
    block id.

    A block has the shape the engine computes with: one MLP layer's
    affine (i + 1, o) block, its weight rows and then its bias row. A
    block added with ``constant_unit`` ends with a hidden layer's
    constant unit, a column that is not a parameter. Optimizers walk the
    blocks; a weight or bias view is a view of its block, so writes
    through it are seen by the next forward.
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
             rng: np.random.Generator) -> None:
    """Create the affine blocks of one MLP.

    Layer i of spec (n_0, n_1, ...) is one (n_i + 1, n_{i+1}) block: the
    weight rows, then the bias row. A hidden layer's block has one
    column more, its constant unit (``CONSTANT_BIAS``), which is not a
    parameter. Weights are W ~ U[-a, a] with a = sqrt(6/(fan_in+fan_out)),
    drawn layer by layer; biases are zero.
    """
    ids = mlp_layer_ids(prefix, layer_spec)
    for i, aid in enumerate(ids):
        fan_in, fan_out = int(layer_spec[i]), int(layer_spec[i + 1])
        hidden = i < len(ids) - 1
        block = np.zeros((fan_in + 1, fan_out + hidden))
        if hidden:
            block[-1, -1] = CONSTANT_BIAS
        a = math.sqrt(6.0 / (fan_in + fan_out))
        block[:fan_in, :fan_out] = rng.uniform(-a, a, size=(fan_in, fan_out))
        params.add(aid, block, constant_unit=hidden)


def mlp_views(block: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (weight, bias) views of an affine block whose layer has
    ``width`` outputs, without its constant unit."""
    return block[:-1, :width], block[-1, :width]


@functools.lru_cache(maxsize=None)
def _layer_ids(prefix: str, n_layers: int) -> tuple[tuple[str, bool], ...]:
    """(block id, hidden) per layer of MLP ``prefix``."""
    ids = mlp_layer_ids(prefix, range(n_layers + 1))
    return tuple((a, i < n_layers - 1) for i, a in enumerate(ids))


def mlp_forward(params: ParameterSet, layer_spec: Sequence[int], prefix: str,
                x, tape: Optional[Tape] = None,
                rows: Optional[Sequence] = None,
                grad_parts: Optional[int] = None) -> np.ndarray:
    """Apply the MLP ``prefix``: tanh on hidden layers, linear final
    layer, one GEMM per layer (``dense``).

    ``x`` is feature-major, the layer input width its first dimension,
    (in, B) or a stack (in, n, B), which every layer runs as n·B
    columns. ``x`` may be a list or tuple of parts, which the first
    layer reads as ``dense`` does, the input being ``[x[0]; x[1]; ...]``,
    or with ``rows`` ``[x[0][:, rows[0]]; x[1][:, rows[1]]; ...]``. The
    first layer appends the ones row its bias row multiplies.

    On a ``tape`` each layer appends its record, and the first forms
    the adjoints of its leading ``grad_parts`` parts only (all by
    default); ``mlp_backward`` walks the records back.
    """
    layers = _layer_ids(prefix, len(layer_spec) - 1)
    h = list(x) if isinstance(x, (list, tuple)) else [x]
    _check_input(prefix, layer_spec, sum(np.shape(t)[0] for t in h) + 1)
    for i, (aid, hidden) in enumerate(layers):
        try:
            a = params.values[aid]
        except KeyError:
            raise ContractError(
                f"missing parameters for {prefix} layer {i}") from None
        h = dense(h, a, hidden, ones=i == 0,
                  rows=rows if i == 0 else None, tape=tape, key=aid,
                  grad_parts=grad_parts if i == 0 else None)
    return h


def mlp_backward(tape: Tape, grads: dict[str, np.ndarray], layers: int,
                 adj: np.ndarray) -> list[np.ndarray]:
    """The reverse pass of an MLP's ``layers`` dense layers, the last
    records ``tape`` has not taken, from the adjoint ``adj`` of its
    output: each block's gradient is added into ``grads`` under its id,
    last layer first, and the first layer's part adjoints are returned
    (``dense_backward``)."""
    parts = [adj]
    del adj  # held by ``parts`` alone, so each layer's backward frees it
    for _ in range(layers):
        record = tape.take(DenseRecord)
        parts, grad = dense_backward(record, parts.pop(), tape.workspace)
        grads[record.key] += grad
        del grad  # a whole block: freed before the next layer's backward
    return parts


def _check_input(prefix: str, layer_spec: Sequence[int], width: int) -> None:
    """``width``, the first layer's input features with its ones row,
    must be the spec's input width plus one."""
    if width != int(layer_spec[0]) + 1:
        raise ShapeError(f"{prefix} layer 0 input: expected first dimension "
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

    Walks the storage blocks, so a layer's weights and bias update in
    one array operation. Gradients are zeroed afterwards. Moments
    missing for a block are initialized to zeros on first use.
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
    split each product among themselves by its size. Where the OS tells
    no process affinity (macOS, Windows), every core is usable."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if threads > 0:
            affinity = getattr(os, "sched_getaffinity", None)
            cores = len(affinity(0)) if affinity else os.cpu_count() or 1
            return cores if threads == 1 else 1
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
