"""Tensor engine tests: forward semantics, reverse-mode gradients against
central finite differences, stacked MLP blocks, Adam, tape order, what
the tape keeps alive and run-to-run determinism."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.gridgraph import derive_schemas
from gridmpnn.mpnn import GnnConfig, GnnModel
from gridmpnn.training import TrainingConfig, build_samples, nll_loss_packed


def _seed(out, mix):
    """The first ``out.data.size`` entries of ``mix`` in ``out``'s shape:
    the adjoint that seeds the gradient of sum(mix * out)."""
    return np.reshape(mix[:out.data.size], out.data.shape)


def _fd_check(build_out, params, mix, step=1e-5, floor=1e-6):
    """Analytic gradients of sum(mix * out) via one taped backward seeded
    with ``mix``, then the central-difference oracle over every parameter
    entry."""
    tape = dc.Tape()
    out = build_out(tape)
    adjoint = _seed(out, mix)
    dc.backward(tape, out, adjoint)
    analytic = {key: g.copy() for key, g in params.grads.items()}
    params.zero_grads()

    def loss_value():
        return float((build_out(None).data * adjoint).sum())

    return dc.gradient_check(loss_value, params, analytic, step=step, floor=floor)


# ---------------------------------------------------------------------------
# MLP forward


def test_mlp_zero_weights_gives_zero_output():
    params = dc.ParameterSet()
    for a, shape in zip(dc.mlp_layer_ids("net", [3, 4, 2]), [(4, 5), (5, 2)]):
        params.add(a, np.zeros(shape))
    out = dc.mlp_forward(params, [3, 4, 2], "net", np.array([[0.3, -1.2, 2.0]]))
    assert np.array_equal(out.data, np.zeros((1, 2)))


def test_mlp_single_linear_layer_is_identity_map():
    params = dc.ParameterSet()
    params.add("net/L0", np.array([[1.0], [0.0]]))  # weight 1, bias 0
    out = dc.mlp_forward(params, [1, 1], "net", np.array([[0.7]]))
    assert out.data[0, 0] == pytest.approx(0.7)


def test_mlp_two_layer_tanh_of_zero_is_zero():
    params = dc.ParameterSet()
    # weight 1 and bias 0, then the constant unit; then weight 1, bias 0
    params.add("net/L0", np.array([[1.0, 0.0], [0.0, dc.CONSTANT_BIAS]]))
    params.add("net/L1", np.array([[1.0], [0.0]]))
    out = dc.mlp_forward(params, [1, 1, 1], "net", np.array([[0.0]]))
    assert out.data[0, 0] == 0.0


def test_mlp_shape_mismatch_names_layer():
    params = dc.ParameterSet()
    rng = np.random.default_rng(0)
    dc.mlp_init(params, "net", [3, 4, 2], rng)
    with pytest.raises(dc.ShapeError, match="layer 0"):
        dc.mlp_forward(params, [3, 4, 2], "net", np.zeros((5, 7)))


def test_mlp_missing_parameters_error():
    params = dc.ParameterSet()
    with pytest.raises(dc.ContractError, match="layer 0"):
        dc.mlp_forward(params, [2, 2], "net", np.zeros((1, 2)))


def test_mlp_init_ranges():
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [10, 20], np.random.default_rng(1))
    a = np.sqrt(6.0 / 30.0)
    block = params.values["net/L0"]
    assert block.shape == (11, 20)  # an output layer has no constant unit
    w, b = dc.mlp_views(block, 20)
    assert w.shape == (10, 20)
    assert np.all(np.abs(w) <= a)
    assert np.array_equal(b, np.zeros(20))


# ---------------------------------------------------------------------------
# backward


def test_backward_linear_gradient():
    params = dc.ParameterSet()
    params.add("a", np.array([[2.0], [0.0]]))  # weight 2, bias 0
    tape = dc.Tape()
    x = tape.leaf(np.array([[3.0]]))
    out = dc.dense(x, params.tensor(tape, "a"), hidden=False, ones=True)
    dc.backward(tape, out, np.ones((1, 1)))
    assert params.grads["a"][0, 0] == pytest.approx(3.0)


def test_backward_tanh_prime_at_zero():
    # a hidden dense layer at zero pre-activation: d tanh(x*w + b)/db = 1
    params = dc.ParameterSet()
    params.add("a", np.array([[1.0], [0.0]]))  # weight 1, bias 0
    tape = dc.Tape()
    out = dc.dense(np.array([[0.0]]), params.tensor(tape, "a"), hidden=True,
                   ones=True)
    dc.backward(tape, out, np.ones((1, 1)))
    assert params.grads["a"][1, 0] == pytest.approx(1.0)


def test_backward_rejects_an_adjoint_of_another_shape():
    params = dc.ParameterSet()
    params.add("w", np.ones(3))
    tape = dc.Tape()
    out = dc.clip(params.tensor(tape, "w"), -2.0, 2.0)
    with pytest.raises(dc.ContractError, match="adjoint"):
        dc.backward(tape, out, 1.0)
    with pytest.raises(dc.ContractError, match="tape"):
        dc.backward(dc.Tape(), out, np.ones(3))
    dc.backward(tape, out, np.full(3, 0.5))
    assert np.array_equal(params.grads["w"], np.full(3, 0.5))


def test_backward_unreachable_parameter_keeps_zero_gradient():
    params = dc.ParameterSet()
    params.add("used", np.array([[1.5], [0.0]]))  # weight 1.5, bias 0
    params.add("unused", np.array([2.5]))
    tape = dc.Tape()
    out = dc.dense(np.array([[2.0]]), params.tensor(tape, "used"),
                   hidden=False, ones=True)
    _ = params.tensor(tape, "unused")  # on the tape but not in the output
    dc.backward(tape, out, np.ones((1, 1)))
    assert params.grads["used"][0, 0] == pytest.approx(2.0)
    assert params.grads["unused"][0] == 0.0


def test_backward_random_mlp_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [4, 6, 3], rng)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((5, 3))  # fixed mixing weights -> scalar loss

    def build(tape):
        return dc.mlp_forward(params, [4, 6, 3], "net", x, tape=tape)

    assert _fd_check(build, params, w.ravel()) < 1e-4


_X_STACK = np.array([[[0.5], [-1.5]], [[2.0], [0.25]]])  # (n=2, B=2, i=1)
# gaussian_nll operands of a (1, 2) group; one zero weight
_NLL = {"y": np.array([[0.8, -1.3]]), "lv": np.array([[0.3, -0.6]]),
        "mu": np.array([[-0.2, 0.5]]), "w": np.array([[1.5, 0.0]])}
# a routing matrix over 3 incoming edges of 2 nodes, one of them fed twice
_ROUTING = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])

# name: (parameter shapes, the op over those parameters' tensors). Each
# affine block is the weight rows, then the bias row.
OPS = {
    # the input of a hidden layer
    "dense_hidden": ({"p": (1, 2)}, lambda t: dc.dense(
        t["p"], np.array([[0.7, -1.1], [0.4, 0.9], [0.2, -0.3]]), hidden=True,
        ones=True)),
    # the block of an output layer
    "dense_output": ({"a": (2, 2)}, lambda t: dc.dense(
        np.array([[1.3], [-0.6]]), t["a"], hidden=False, ones=True)),
    # a stacked (n, i + 1, o) block
    "dense_stacked": ({"a": (2, 2, 1)}, lambda t: dc.dense(
        _X_STACK, t["a"], hidden=True, ones=True)),
    # one (i + 1, o) block broadcast over (n, B)
    "dense_shared": ({"a": (2, 1)}, lambda t: dc.dense(
        _X_STACK[:, :1], t["a"], hidden=True, ones=True)),
    # a part read twice of a multi-part input, and the block
    "dense_parts": ({"x": (2, 1), "a": (4, 2)}, lambda t: dc.dense(
        [t["x"], np.array([[0.6], [-0.2]]), t["x"]], t["a"], hidden=True,
        ones=True)),
    # a gathered tensor (with repeated rows), and the block
    "gather_dense": ({"x": (2, 1, 1), "a": (3, 1)}, lambda t: dc.gather_dense(
        [t["x"], _X_STACK[:, :1]], [np.array([1, 0, 1]), np.array([0, 1, 1])],
        t["a"], hidden=True, ones=True)),
    # a group fed by one edge group, and one fed by two
    "route_one_group": ({"m": (3, 2, 2)}, lambda t: dc.route(
        [t["m"]], _ROUTING)),
    "route_several_groups": ({"m": (2, 2, 2), "k": (1, 2, 2)},
                             lambda t: dc.route([t["m"], t["k"]], _ROUTING)),
    "regroup": ({"h": (2, 7)}, lambda t: dc.regroup(t["h"], 1, 7, 3)),
    "clip": ({"p": (1, 2)}, lambda t: dc.clip(t["p"], -0.5, 0.5)),
    "gaussian_nll_mu": ({"p": (1, 2)}, lambda t: dc.gaussian_nll(
        {"k": t["p"]}, {"k": _NLL["lv"]}, {"k": _NLL["y"]}, {"k": _NLL["w"]})),
    "gaussian_nll_logvar": ({"p": (1, 2)}, lambda t: dc.gaussian_nll(
        {"k": _NLL["mu"]}, {"k": t["p"]}, {"k": _NLL["y"]}, {"k": _NLL["w"]})),
    # two groups, p the mean of one and the log-variance of the other
    "gaussian_nll_groups": ({"p": (1, 2), "q": (1, 2)}, lambda t: dc.gaussian_nll(
        {"a": t["p"], "b": t["q"]}, {"a": _NLL["lv"], "b": t["p"]},
        {"a": _NLL["y"], "b": _NLL["mu"]},
        {"a": _NLL["w"], "b": _NLL["w"][:, ::-1]})),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(7)
    shapes, op = OPS[name]
    params = dc.ParameterSet()
    for key, shape in shapes.items():
        params.add(key, rng.uniform(-0.4, 0.4, size=shape))
    mix = rng.standard_normal(16)

    def build(tape):
        return op({key: params.tensor(tape, key) for key in shapes})

    assert _fd_check(build, params, mix) < 1e-4


def test_matmul_stacked_and_broadcast_gradients():
    # a dense layer's GEMM over a stacked (n, i + 1, o) block, and over
    # one (i + 1, o) block broadcast over the stack
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 3))
    for block in ((2, 4, 4), (4, 4)):
        params = dc.ParameterSet()
        params.add("a", rng.standard_normal(block))

        def build(tape):
            return dc.dense(x, params.tensor(tape, "a"), hidden=False,
                            ones=True)

        assert _fd_check(build, params, rng.standard_normal(40)) < 1e-4, block


def _sum_to(g, shape):
    """Sum ``g`` over the axes numpy broadcasting added or stretched to
    reach it from ``shape``: leading axes at once, then size-1 axes."""
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    return g.sum(axis=tuple(i for i, n in enumerate(shape)
                            if n == 1 and g.shape[i] != 1), keepdims=True)


@pytest.mark.parametrize("shapes", [
    ((3, 5, 4), (3, 4, 6), (3, 1, 6)),  # stacked weights and biases
    ((3, 5, 4), (4, 6), (6,)),          # one MLP shared over the stack
    ((5, 4), (4, 6), (6,)),             # plain layer
], ids=["stacked", "shared", "plain"])
@pytest.mark.parametrize("hidden", [True, False], ids=["hidden", "output"])
def test_dense_matches_unfused_composition_bit_for_bit(shapes, hidden):
    # the reference is the unfused layer in numpy: a matmul, a bias add
    # and a tanh, each output its own array; backward from the adjoint
    # ``mix``: adj * (1 - out^2) through the tanh, then the matmul's two
    # products and the bias sum, each summed back to its operand's shape.
    # The fused layer computes [x | 1] @ [w; b] in one GEMM.
    rng = np.random.default_rng(12)
    xs, ws, bs = shapes
    mix = rng.standard_normal(xs[:-1] + ws[-1:])
    xd = np.random.default_rng(13).standard_normal(xs)
    wd = np.random.default_rng(14).standard_normal(ws)
    bd = np.random.default_rng(15).standard_normal(bs)
    params = dc.ParameterSet()
    params.add("x", xd)
    params.add("a", np.concatenate([wd, bd.reshape(ws[:-2] + (1, ws[-1]))],
                                   axis=-2))
    tape = dc.Tape()
    out = dc.dense(params.tensor(tape, "x"), params.tensor(tape, "a"),
                   hidden=hidden, ones=True)
    got = out.data.copy()  # backward forms the tanh derivative in place
    dc.backward(tape, out, mix)
    want = xd @ wd + bd
    g = mix
    if hidden:
        want = np.tanh(want)
        g = mix * (1.0 - want * want)
    assert np.array_equal(got, want)
    # the bias sums over the rows of each slice, as the block's GEMM
    # does, then over a stack that shares it
    wants = {"x": _sum_to(g @ wd.swapaxes(-1, -2), xs),
             "W": _sum_to(xd.swapaxes(-1, -2) @ g, ws),
             "b": _sum_to(g.sum(axis=-2, keepdims=True), bs)}
    ga = params.grads["a"]
    gots = {"x": params.grads["x"], "W": ga[..., :-1, :],
            "b": ga[..., -1, :].reshape(bs)}
    for k, want in wants.items():
        assert gots[k].any()
        assert np.array_equal(gots[k], want), k


def _composed_nll(mu, lv, y, w, c):
    """The loss, times ``c``, as elementwise tape primitives composed it,
    in numpy: per group d = y - mu, terms = 0.5 * lv + 0.5 * (d * d) *
    exp(-lv) and sum(terms * w), the group sums added in order; then the
    adjoints that chain's backward sent to lv (first from -lv, then from
    0.5 * lv) and to mu (from both factors of d * d, then through y - mu).
    """
    total, dmu, dlv = None, {}, {}
    for k in mu:
        d = y[k] - mu[k]
        dd = d * d
        e = np.exp(-lv[k])
        s = np.asarray(((lv[k] * 0.5 + (dd * e) * 0.5) * w[k]).sum())
        total = s if total is None else total + s
        g = c * w[k]  # the summed loss's adjoint, through the weights
        h = g * 0.5
        dlv[k] = -((h * dd) * e) + h
        t = (h * e) * d
        dmu[k] = -(t + t)
    return total * c, dmu, dlv


def test_gaussian_nll_matches_composed_loss_bit_for_bit():
    # three groups, whose sums added in reverse order give another float
    rng = np.random.default_rng(23)
    shapes = {"a": (3, 7, 2), "b": (1, 7, 5), "c": (4, 7, 1)}
    params = dc.ParameterSet()
    y, w = {}, {}
    for k, shape in shapes.items():
        params.add(f"mu/{k}", rng.standard_normal(shape))
        params.add(f"lv/{k}", rng.uniform(-2.0, 2.0, shape))
        y[k] = rng.standard_normal(shape)
        w[k] = (rng.random(shape) > 0.3) * rng.uniform(0.5, 2.0, shape)
    c = 1.0 / 12345.0
    tape = dc.Tape()
    loss = dc.gaussian_nll(
        {k: params.tensor(tape, f"mu/{k}") for k in shapes},
        {k: params.tensor(tape, f"lv/{k}") for k in shapes}, y, w)
    dc.backward(tape, loss, c)
    mu = {k: params.values[f"mu/{k}"] for k in shapes}
    lv = {k: params.values[f"lv/{k}"] for k in shapes}
    want, dmu, dlv = _composed_nll(mu, lv, y, w, c)
    backwards = {k: mu[k] for k in reversed(shapes)}
    assert _composed_nll(backwards, lv, y, w, c)[0] != want
    assert np.array_equal(loss.data * c, want)
    for k in shapes:
        assert params.grads[f"mu/{k}"].any() and params.grads[f"lv/{k}"].any()
        assert np.array_equal(params.grads[f"mu/{k}"], dmu[k]), k
        assert np.array_equal(params.grads[f"lv/{k}"], dlv[k]), k
    untaped = dc.gaussian_nll({k: dc.Tensor(v) for k, v in mu.items()},
                              {k: dc.Tensor(v) for k, v in lv.items()}, y, w)
    assert untaped.tape is None
    assert np.array_equal(untaped.data, loss.data)


# per node group, the sizes of the edge groups that feed it
_FEEDS = {"one_edge_group": [5], "several_edge_groups": [3, 1, 4]}


@pytest.mark.parametrize("feeds", sorted(_FEEDS))
def test_route_matches_numpy_reference_bit_for_bit(feeds):
    # the forward is routing @ the messages stacked and flattened to
    # (edges, B * m); the adjoint is routing^T @ the output's adjoint,
    # split back into the edge groups
    rng = np.random.default_rng(51)
    sizes, n, batch, m = _FEEDS[feeds], 3, 4, 2
    edges = sum(sizes)
    routing = rng.uniform(0.1, 1.0, (n, edges)) * (rng.random((n, edges)) > 0.4)
    mix = rng.standard_normal((n, batch, m))
    params = dc.ParameterSet()
    for k, size in enumerate(sizes):
        params.add(f"m{k}", rng.standard_normal((size, batch, m)))
    tape = dc.Tape()
    out = dc.route([params.tensor(tape, f"m{k}") for k in range(len(sizes))],
                   routing)
    dc.backward(tape, out, mix)
    stacked = np.concatenate([params.values[f"m{k}"] for k in range(len(sizes))])
    want = (routing @ stacked.reshape(edges, batch * m)).reshape(n, batch, m)
    assert out.data.tobytes() == want.tobytes()
    back = (routing.T @ mix.reshape(n, batch * m)).reshape(edges, batch, m)
    for k, piece in enumerate(np.split(back, np.cumsum(sizes)[:-1])):
        assert params.grads[f"m{k}"].tobytes() == piece.tobytes(), k
    untaped = dc.route([dc.Tensor(params.values[f"m{k}"])
                        for k in range(len(sizes))], routing)
    assert untaped.tape is None and untaped.data.tobytes() == want.tobytes()


def test_regroup_matches_numpy_reference_bit_for_bit():
    # a flat (B, D) output read as two node groups' means and then their
    # log-variances; each read's adjoint lands in its own columns
    rng = np.random.default_rng(52)
    batch, layout = 4, [(0, 6, 3), (6, 8, 1)]  # (lo, hi, nodes) per group
    d = layout[-1][1]
    params = dc.ParameterSet()
    params.add("h", rng.standard_normal((batch, 2 * d)))
    want_grad = np.zeros((batch, 2 * d))
    for lo, hi, n in [(lo + off, hi + off, n) for off in (0, d)
                      for lo, hi, n in layout]:
        tape = dc.Tape()
        out = dc.regroup(params.tensor(tape, "h"), lo, hi, n)
        want = params.values["h"][:, lo:hi].reshape(
            batch, n, (hi - lo) // n).transpose(1, 0, 2)
        assert out.data.tobytes() == np.ascontiguousarray(want).tobytes()
        mix = rng.standard_normal(out.data.shape)
        dc.backward(tape, out, mix)  # adds into the gradient accumulator
        want_grad[:, lo:hi] = mix.transpose(1, 0, 2).reshape(batch, hi - lo)
    assert params.grads["h"].tobytes() == want_grad.tobytes()
    with pytest.raises(dc.ShapeError, match="regroup"):
        dc.regroup(dc.Tensor(want_grad), 0, 5, 2)


def test_gaussian_nll_rejects_mismatched_group_shapes():
    with pytest.raises(dc.ShapeError, match="'k'"):
        dc.gaussian_nll({"k": np.zeros((2, 3))}, {"k": np.zeros((2, 3))},
                        {"k": np.zeros((2, 3))}, {"k": np.ones(3)})


def test_dense_rejects_mismatched_inner_dimensions():
    with pytest.raises(dc.ShapeError, match="inner"):
        dc.dense(np.zeros((2, 3)), np.zeros((5, 5)), hidden=True, ones=True)


@pytest.mark.parametrize("idx", [
    np.array([3, 0, 3, 1, 0, 3, 2]),  # unsorted, repeated
    np.zeros(15, dtype=int),          # 15-to-1 fan-in, as into the global node
    np.array([2, 0, 3, 1]),           # all unique
], ids=["repeated", "fan_in_15", "unique"])
def test_gather_dense_backward_matches_add_at_bit_for_bit(idx):
    # an identity weight and a zero bias row pass the gathered rows and
    # the adjoint through unchanged
    rng = np.random.default_rng(16)
    n = int(idx.max()) + 1
    params = dc.ParameterSet()
    params.add("a", rng.standard_normal((n, 7, 3)))
    mix = rng.standard_normal((idx.size, 7, 3))
    tape = dc.Tape()
    out = dc.gather_dense([params.tensor(tape, "a")], [idx],
                          np.vstack([np.eye(3), np.zeros(3)]), hidden=False,
                          ones=True)
    assert np.array_equal(out.data, params.values["a"][idx])
    dc.backward(tape, out, mix)
    want = np.zeros((n, 7, 3))
    np.add.at(want, idx, mix)
    assert np.array_equal(params.grads["a"], want)


@pytest.mark.parametrize("hidden", [False, True])
def test_dense_members_match_gathered_weights_bit_for_bit(hidden):
    # slice j of the input applies member members[j] of the block: the
    # bytes of a layer fed the gathered (n, i + 1, o) copies, whose
    # gradients np.add.at adds back into the block, slab by slab in index
    # order
    rng = np.random.default_rng(41)
    members = np.array([1, 0, 1, 2, 1, 0])
    values = {"a": np.concatenate([rng.standard_normal((3, 4, 5)),
                                   rng.standard_normal((3, 1, 5))], axis=1),
              "x": rng.standard_normal((6, 7, 4))}
    mix = rng.standard_normal((6, 7, 5))

    def run(params, **kw):
        tape = dc.Tape()
        out = dc.dense(params.tensor(tape, "x"), params.tensor(tape, "a"),
                       hidden, ones=True, **kw)
        got = out.data.copy()
        dc.backward(tape, out, mix)
        return got

    fused, gathered = dc.ParameterSet(), dc.ParameterSet()
    for k, v in values.items():
        fused.add(k, v)
        gathered.add(k, v if k == "x" else v[members])
    out = run(fused, members=members)
    want = run(gathered)
    assert np.array_equal(out, want)
    assert np.array_equal(fused.grads["x"], gathered.grads["x"])
    block = np.zeros(values["a"].shape)
    np.add.at(block, members, gathered.grads["a"])
    assert np.array_equal(fused.grads["a"], block)


# (destination rows, source rows, source group is the destination group)
_EDGE_CASES = {
    "repeated": (np.array([3, 0, 3, 1, 0, 3, 2]), np.array([1, 1, 0, 2, 2, 0, 1]),
                 False),
    # the global node's message to each of 15 substations
    "fan_out_15": (np.arange(15), np.zeros(15, dtype=int), False),
    "unique": (np.array([2, 0, 3, 1]), np.array([1, 2, 0, 3]), False),
    "same_group": (np.array([0, 1, 1, 2, 3]), np.array([1, 0, 2, 1, 2]), True),
}


def _and_later(out, x, block):
    """``out`` and a later linear read of ``x`` through the constant
    ``block``, which sends ``x`` an adjoint before ``out``'s, stacked
    along axis 0 into one output by an identity routing."""
    later = dc.dense(x, block, hidden=False, ones=True)
    edges = out.data.shape[0] + later.data.shape[0]
    return dc.route([out, later], np.eye(edges))


@pytest.mark.parametrize("weights", ["stacked", "lone"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_gather_dense_matches_composed_layers_bit_for_bit(case, layers, weights):
    # the reference gathers and concatenates in numpy and feeds that copy
    # to dense layers; its adjoint goes back through np.add.at, to the
    # destination first, as the composed gather -> gather -> concat ->
    # dense chain sent it. A later read of the destination states sends
    # them an adjoint first, so the order of the three sums shows.
    dst, src, same = _EDGE_CASES[case]
    rng = np.random.default_rng(31)
    pd, ps, batch = 3, (3 if same else 2), 5
    xd = rng.standard_normal((int(dst.max()) + 1, batch, pd))
    xs = xd if same else rng.standard_normal((int(src.max()) + 1, batch, ps))
    spec = [pd + ps] + [4] * (layers - 1) + [2]
    members = 1 if weights == "lone" else dst.size  # share_by_type: one MLP

    def model(extra):
        params = dc.ParameterSet()
        dc.mlp_init(params, "m", spec, np.random.default_rng(32),
                    members=members)
        for k, v in extra.items():
            params.add(k, v)
        return params

    mix = rng.standard_normal((dst.size, batch, 2))
    mix_d = rng.standard_normal((xd.shape[0], batch, 2))
    later = np.vstack([rng.standard_normal((pd, 2)), np.zeros((1, 2))])
    fused = model({"xd": xd} if same else {"xd": xd, "xs": xs})
    tape = dc.Tape()
    td = fused.tensor(tape, "xd")
    ts = td if same else fused.tensor(tape, "xs")
    out = dc.mlp_forward(fused, spec, "m", (td, ts), tape=tape, rows=(dst, src))
    dc.backward(tape, _and_later(out, td, later), np.concatenate([mix, mix_d]))

    x = np.concatenate([xd[dst], xs[src]], axis=-1)
    composed = model({"x": x})
    tape = dc.Tape()
    want = dc.mlp_forward(composed, spec, "m", composed.tensor(tape, "x"),
                          tape=tape)
    dc.backward(tape, want, mix)
    assert np.array_equal(out.data, want.data)
    gx = composed.grads["x"]
    to_dst, to_src = np.zeros(xd.shape), np.zeros(xs.shape)
    np.add.at(to_dst, dst, gx[..., :pd])
    np.add.at(to_src, src, gx[..., pd:])
    to_dst += mix_d @ later[:pd].swapaxes(-1, -2)
    if same:
        assert np.array_equal(fused.grads["xd"], to_dst + to_src)
    else:
        assert np.array_equal(fused.grads["xd"], to_dst)
        assert np.array_equal(fused.grads["xs"], to_src)
    for key in composed.values:
        if key != "x":
            assert fused.grads[key].any(), key
            assert np.array_equal(fused.grads[key], composed.grads[key]), key


@pytest.mark.parametrize("weights", ["stacked", "lone"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("same", [False, True], ids=["two_parts", "one_twice"])
def test_dense_parts_match_concat_then_dense_bit_for_bit(same, layers, weights):
    # an MLP whose first layer reads (a, b) as parts against the same MLP
    # fed their numpy concatenation, held as a parameter: a later read of
    # a sends it an adjoint first, so the order in which its adjoints are
    # added shows, and with b = a so does the order of the two slices
    rng = np.random.default_rng(41)
    n, batch, pa, pb = 3, 5, 3, (3 if same else 2)
    a = rng.standard_normal((n, batch, pa))
    b = a if same else rng.standard_normal((n, batch, pb))
    spec = [pa + pb] + [4] * (layers - 1) + [2]
    mix = rng.standard_normal((n, batch, 2))
    mix_a = rng.standard_normal((n, batch, 2))
    later = np.vstack([rng.standard_normal((pa, 2)), np.zeros((1, 2))])

    def model(extra):
        params = dc.ParameterSet()
        dc.mlp_init(params, "m", spec, np.random.default_rng(42),
                    members=n if weights == "stacked" else 1)
        for k, v in extra.items():
            params.add(k, v)
        return params

    fused = model({"a": a} if same else {"a": a, "b": b})
    tape = dc.Tape()
    ta = fused.tensor(tape, "a")
    tb = ta if same else fused.tensor(tape, "b")
    out = dc.mlp_forward(fused, spec, "m", (ta, tb), tape=tape)
    dc.backward(tape, _and_later(out, ta, later), np.concatenate([mix, mix_a]))

    composed = model({"x": np.concatenate([a, b], axis=-1)})
    tape = dc.Tape()
    want = dc.mlp_forward(composed, spec, "m", composed.tensor(tape, "x"),
                          tape=tape)
    dc.backward(tape, want, mix)
    assert out.data.tobytes() == want.data.tobytes()
    gx = composed.grads["x"]
    to_a = mix_a @ later[:pa].swapaxes(-1, -2) + gx[..., :pa]
    if same:
        assert fused.grads["a"].tobytes() == (to_a + gx[..., pa:]).tobytes()
    else:
        assert fused.grads["a"].tobytes() == to_a.tobytes()
        assert fused.grads["b"].tobytes() == gx[..., pa:].tobytes()
    for key in composed.values:
        if key != "x":
            g = fused.grads[key]
            assert g.any() and g.tobytes() == composed.grads[key].tobytes(), key


def test_dense_parts_keep_no_concatenated_copy(monkeypatch):
    # the weight needs a gradient, so the layer keeps its input: the parts,
    # while the concatenation it multiplied dies with the forward
    params = dc.ParameterSet()
    params.add("p", np.random.default_rng(3).uniform(-0.4, 0.4, (2, 3)))
    params.add("a", np.random.default_rng(5).uniform(-0.4, 0.4, (7, 2)))
    tape = dc.Tape()
    p = params.tensor(tape, "p")
    made = []
    concatenate = np.concatenate

    def watched(*args, **kwargs):
        out = concatenate(*args, **kwargs)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(np, "concatenate", watched)
    out = dc.dense([dc.clip(p, -1.0, 1.0), p], params.tensor(tape, "a"),
                   hidden=True, ones=True)
    monkeypatch.undo()
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    dc.backward(tape, out, _seed(out, _MIX))
    assert params.grads["p"].any() and params.grads["a"].any()


def _pilot_layers():
    """(slices, block shape, inputs, outputs, hidden, members) of every
    layer of the pilot model, with MLPs per node and edge and with one
    MLP per type."""
    topo = gridsim.pilot_topology()
    schemas = derive_schemas(topo)
    layers = []
    for share in (False, True):
        model = GnnModel(topo, schemas, GnnConfig(share_by_type=share))
        reads = {eg.block: (len(eg.pairs), eg.members)
                 for eg in model.edge_groups}
        for g in model.groups:
            for role in ("enc", "agg", "dec_mu", "dec_lv"):
                reads[f"stack/{g.key}/{role}"] = (len(g.node_ids),
                                                  model._node_members[g.key])
        for block, _, spec in model._mlp_blocks:
            n, members = reads[block]
            for i, a in enumerate(dc.mlp_layer_ids(block, spec)):
                layers.append((n, model.params.values[a].shape, spec[i],
                               spec[i + 1], i < len(spec) - 2, members))
    return layers


@pytest.mark.parametrize("batch", [1, 24, 120, 256])
def test_affine_layers_match_the_bias_add_composition_bit_for_bit(batch):
    # every layer shape of the pilot model, with and without members: the
    # one-GEMM layer [x | 1] @ [W; b] against x @ W, then += b, then tanh,
    # and its adjoints against that composition's: the tanh derivative,
    # the two matmul products and the bias sum over each slice's rows,
    # added into the block per member in index order (np.add.at)
    rng = np.random.default_rng(batch)
    for n, shape, i, o, hidden, members in _pilot_layers():
        block = rng.uniform(-0.5, 0.5, shape)
        if hidden:
            block[..., -1] = 0.0
            block[..., -1, -1] = dc.CONSTANT_BIAS
        x = rng.standard_normal((n, batch, i))
        mix = rng.standard_normal((n, batch, shape[-1]))
        params = dc.ParameterSet()
        params.add("x", x)
        params.add("a", block, constant_unit=hidden)
        tape = dc.Tape()
        out = dc.dense(params.tensor(tape, "x"), params.tensor(tape, "a"),
                       hidden, members, ones=True)
        got = out.data.copy()
        dc.backward(tape, out, mix)

        w, b = block[..., :i, :o], block[..., i:, :o]
        if members is not None:
            w, b = w[members], b[members]
        want = x @ w
        want += b
        g = mix[..., :o]
        if hidden:
            np.tanh(want, out=want)
            g = g * (1.0 - want * want)
        dw, db = x.swapaxes(-1, -2) @ g, g.sum(axis=-2, keepdims=True)
        if members is not None:
            dw_block, db_block = np.zeros(shape[:-2] + (i, o)), np.zeros(
                shape[:-2] + (1, o))
            np.add.at(dw_block, members, dw)
            np.add.at(db_block, members, db)
            dw, db = dw_block, db_block
        case = (n, shape, members is not None)
        assert np.array_equal(got[..., :o], want), case
        if hidden:
            assert (got[..., o] == 1.0).all(), case
        assert np.array_equal(params.grads["x"], g @ w.swapaxes(-1, -2)), case
        ga = params.grads["a"]
        assert np.array_equal(ga[..., :i, :o], dw), case
        assert np.array_equal(ga[..., i:, :o], db), case
        assert not ga[..., o:].any(), case


def test_nodes_without_parameters_upstream_have_no_backward():
    params = dc.ParameterSet()
    params.add("a", np.array([[0.5, -1.0], [0.0, 0.0]]))
    tape = dc.Tape()
    x = tape.leaf(np.array([[2.0], [3.0]]))
    const = dc.clip(x, -1.0, 1.0)
    taped = dc.dense(const, params.tensor(tape, "a"), hidden=True, ones=True)
    for t in (x, const):
        assert not tape.nodes[t.node].needs_grad
        assert tape.nodes[t.node].bwd is None
    assert tape.nodes[taped.node].needs_grad
    assert tape.nodes[taped.node].bwd is not None


def test_backward_of_loss_without_parameters_leaves_gradients_zero():
    params = dc.ParameterSet()
    params.add("w", np.array([1.5, -2.0]))
    tape = dc.Tape()
    # on the tape, not upstream of the output
    _ = dc.clip(params.tensor(tape, "w"), -2.0, 2.0)
    x = tape.leaf(np.array([0.3, 0.4]))
    dc.backward(tape, x, np.array([0.3, 0.4]))
    assert not params.grads["w"].any()


def test_gather_dense_and_stack_gradients():
    # gather rows of a stacked (2, 3, 2) block with repeated indices, from
    # both sides of the concatenation; the finite differences perturb
    # every entry of that block
    rng = np.random.default_rng(9)
    params = dc.ParameterSet()
    params.add("ab", np.stack([rng.standard_normal((3, 2)),
                               rng.standard_normal((3, 2))]))
    a = np.vstack([rng.standard_normal((4, 3)), np.zeros(3)])
    mix = rng.standard_normal((5, 3, 3))

    def build(tape):
        ab = params.tensor(tape, "ab")
        return dc.gather_dense([ab, ab], [np.array([0, 1, 1, 0, 1]),
                                          np.array([1, 1, 0, 0, 0])],
                               a, hidden=True, ones=True)

    assert _fd_check(build, params, mix.ravel()) < 1e-4


def _three_mlps(seed=4, spec=(3, 5, 2)):
    params = dc.ParameterSet()
    rng = np.random.default_rng(seed)
    for prefix in ("m0", "m1", "m2"):
        dc.mlp_init(params, prefix, list(spec), rng)
    return params


def _member(arrays, block, pid):
    """Member j's slice of a stacked block, for the block id ``m<j>/L<i>``."""
    j, layer = int(pid[1]), pid.split("/", 1)[1]
    return arrays[f"{block}/{layer}"][j]


def test_mlp_forward_stacked_matches_separate_mlps_with_one_leaf_per_block():
    spec = [3, 5, 2]
    stacked = dc.ParameterSet()
    dc.mlp_init(stacked, "blk", spec, np.random.default_rng(4), members=3)
    separate = _three_mlps()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4, 3))
    mix = rng.standard_normal((3, 4, 2))
    tape = dc.Tape()
    out = dc.mlp_forward(stacked, spec, "blk", x, tape=tape)
    dc.backward(tape, out, mix)
    leaves = sum(node.op == "param" for node in tape.nodes)
    assert leaves == len(spec) - 1
    for j, prefix in enumerate(("m0", "m1", "m2")):
        tape = dc.Tape()
        want = dc.mlp_forward(separate, spec, prefix, x[j], tape=tape)
        dc.backward(tape, want, mix[j])
        assert np.allclose(out.data[j], want.data, rtol=0, atol=1e-14)
    for pid in separate.values:
        assert np.allclose(_member(stacked.grads, "blk", pid),
                           separate.grads[pid], rtol=0, atol=1e-13)


def test_mlp_members_are_views_of_their_block():
    spec = [3, 5, 2]
    params = dc.ParameterSet()
    dc.mlp_init(params, "blk", spec, np.random.default_rng(4), members=3)
    # member by member, each member's layers in order: the draws of
    # three separate MLPs
    separate = _three_mlps()
    for pid, value in separate.values.items():
        assert np.array_equal(_member(params.values, "blk", pid), value)
    # weight rows and a bias row; the hidden layer's constant unit last
    assert params.values["blk/L0"].shape == (3, 4, 6)
    assert params.values["blk/L1"].shape == (3, 6, 2)
    x = np.random.default_rng(5).standard_normal((3, 4, 3))
    before = dc.mlp_forward(params, spec, "blk", x).data
    dc.mlp_views(_member(params.values, "blk", "m1/L1"), 2)[1][1] = 7.0
    after = dc.mlp_forward(params, spec, "blk", x).data
    assert np.array_equal(after[[0, 2]], before[[0, 2]])
    assert np.allclose(after[1, :, 1] - before[1, :, 1], 7.0)
    dc.mlp_views(_member(params.grads, "blk", "m2/L1"), 2)[0][0, 1] = -3.0
    assert params.grads["blk/L1"][2, 0, 1] == -3.0
    params.zero_grads()
    assert not params.grads["blk/L1"].any()
    with pytest.raises(dc.ContractError, match="duplicate"):
        dc.mlp_init(params, "blk", spec, np.random.default_rng(4), members=3)
    with pytest.raises(dc.ContractError, match="member"):
        dc.mlp_init(params, "other", spec, np.random.default_rng(4), members=0)


def _reference_adam(params, state, lr):
    """Per-id Adam, the update the block walk must reproduce bit for bit."""
    state.t += 1
    c1, c2 = 1.0 - state.beta1 ** state.t, 1.0 - state.beta2 ** state.t
    for pid, value in params.values.items():
        g = params.grads[pid]
        m = state.m.setdefault(pid, np.zeros_like(value))
        v = state.v.setdefault(pid, np.zeros_like(value))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        value -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        g[...] = 0.0


def test_adam_over_blocks_matches_per_id_reference_bit_for_bit():
    # m0 and m1 as one stacked block, m2 on its own; the reference keeps
    # one array per MLP
    spec = [3, 5, 2]
    stacked = dc.ParameterSet()
    rng = np.random.default_rng(4)
    dc.mlp_init(stacked, "blk", spec, rng, members=2)
    dc.mlp_init(stacked, "m2", spec, rng)
    reference = _three_mlps()

    def view(arrays, pid):
        return arrays[pid] if pid.startswith("m2") else _member(arrays, "blk", pid)

    rng = np.random.default_rng(8)
    s_state, r_state = dc.AdamState(), dc.AdamState()
    for _ in range(4):
        for pid in reference.values:
            g = rng.standard_normal(reference.grads[pid].shape)
            reference.grads[pid][...] = g
            view(stacked.grads, pid)[...] = g
        dc.adam_step(stacked, s_state, lr=0.03)
        _reference_adam(reference, r_state, lr=0.03)
    for pid in reference.values:
        assert np.array_equal(view(stacked.values, pid), reference.values[pid])
        assert not view(stacked.grads, pid).any()


def test_operations_on_different_tapes_rejected():
    t1, t2 = dc.Tape(), dc.Tape()
    a = t1.leaf(np.ones((1, 1)))
    b = t2.leaf(np.ones((1, 1)))
    with pytest.raises(dc.ContractError, match="tapes"):
        dc.dense([a, b], np.ones((3, 1)), hidden=False, ones=True)


# ---------------------------------------------------------------------------
# What the tape keeps


def _dies(make):
    """Build ``make(tape, p)`` -> (tensor whose array to watch, output)
    on a fresh tape, drop the caller's references but the output's and
    tell whether that array died before ``backward``; after ``backward``
    it must be dead."""
    params = dc.ParameterSet()
    params.add("p", np.random.default_rng(3).uniform(-0.4, 0.4, (3, 2)))
    tape = dc.Tape()
    watched, out = make(tape, params.tensor(tape, "p"))
    ref = weakref.ref(watched.data)
    del watched
    gc.collect()
    alive = ref() is not None
    dc.backward(tape, out, _seed(out, _MIX))
    gc.collect()
    assert ref() is None  # the reverse pass releases what it read
    assert params.grads["p"].any()
    return not alive


_MIX = np.random.default_rng(4).standard_normal(8)
_A = np.array([[0.4, -0.2], [1.1, 0.3], [0.0, 0.0]])


def _linear_dense(tape, p):
    out = dc.dense(p, _A, hidden=False, ones=True)
    return out, dc.regroup(out, 0, 2, 2)


def _hidden_dense(tape, p):
    out = dc.dense(p, _A, hidden=True, ones=True)
    return out, dc.regroup(out, 0, 2, 2)


def _clip_input(tape, p):
    x = dc.regroup(p, 0, 2, 2)
    return x, dc.clip(x, -0.5, 0.5)


def _route_input(tape, p):
    x = dc.regroup(p, 0, 2, 2)
    return x, dc.route([x], np.array([[1.0, -1.0]]))


def _regroup_input(tape, p):
    x = dc.clip(p, -1.0, 1.0)
    return x, dc.regroup(x, 0, 2, 2)


def _dense_input(tape, p):
    # the block needs a gradient, so the layer keeps its input
    x = tape.leaf(np.array([[0.2, -0.1], [0.4, 0.3]]))
    return x, dc.dense(x, dc.clip(p, -1.0, 1.0), hidden=True, ones=True)


def _dense_part(tape, p):
    # ... and of an input in parts, each part
    x = tape.leaf(np.array([[0.2], [0.4]]))
    return x, dc.dense([x, np.array([[-0.1], [0.3]])], dc.clip(p, -1.0, 1.0),
                       hidden=True, ones=True)


def _gather_dense_input(tape, p):
    # ... and of gathered rows, the tensor they are gathered from
    x = tape.leaf(np.array([[[0.2, -0.1]], [[0.4, 0.3]]]))
    return x, dc.gather_dense([x], [np.array([1, 0, 1])],
                              dc.clip(p, -1.0, 1.0), hidden=True, ones=True)


@pytest.mark.parametrize("make", [_linear_dense, _clip_input, _route_input,
                                  _regroup_input],
                         ids=["dense_linear_output", "clip_input",
                              "route_input", "regroup_input"])
def test_arrays_the_backward_does_not_read_die_with_the_caller(make):
    assert _dies(make)


@pytest.mark.parametrize("make", [_hidden_dense, _dense_input, _dense_part,
                                  _gather_dense_input],
                         ids=["dense_hidden_output", "dense_input",
                              "dense_part", "gather_dense_input"])
def test_arrays_the_backward_reads_live_until_backward(make):
    assert not _dies(make)


# Bytes a taped forward and loss of 128 rows of the conftest pilot world
# may leave held until backward: what the reverse pass reads is about
# 41.6 MB, of which the hidden layers' constant units take 1.3 MB; first
# layers that keep their concatenated inputs hold about 47.5 MB, and
# closures that keep whole tensors or gathered edge inputs about 86 MB.
PILOT_BLOCK_TAPE_BUDGET = 43e6


def test_one_pilot_block_tape_stays_within_its_byte_budget(pilot_world):
    spec, dataset = pilot_world
    schemas = derive_schemas(spec.topology)
    samples = build_samples(dataset, spec.topology, schemas, TrainingConfig())
    model = GnnModel(spec.topology, schemas, GnnConfig())
    f, m, t, lm = samples.batch(np.arange(128))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = dc.Tape()
        mu, logvar = model.forward(f, m, tape=tape)
        loss, _ = nll_loss_packed(mu, logvar, t, lm)
        del mu, logvar
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= PILOT_BLOCK_TAPE_BUDGET, held
    dc.backward(tape, loss, 1.0)
    assert any(g.any() for g in model.params.grads.values())


def test_row_blocks_cut_by_the_row_count_alone():
    # a 512-row training step, the benchmark recipe's last mini-batch
    # and the served test window
    assert dc.BLOCK_ROWS == 128
    assert dc.row_blocks(512) == [(0, 128), (128, 256), (256, 384), (384, 512)]
    assert dc.row_blocks(240) == [(0, 120), (120, 240)]
    assert dc.row_blocks(480) == [(0, 120), (120, 240), (240, 360), (360, 480)]


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_parameters_unchanged():
    params = dc.ParameterSet()
    params.add("w", np.array([1.0, -2.0]))
    state = dc.AdamState()
    dc.adam_step(params, state, lr=0.01)
    assert np.array_equal(params.values["w"], np.array([1.0, -2.0]))
    assert state.t == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # one step with g=0.5: m_hat=0.5, sqrt(v_hat)=0.5 -> step ~= lr*sign(g)
    params = dc.ParameterSet()
    params.add("w", np.array([0.0]))
    params.grads["w"][0] = 0.5
    state = dc.AdamState()
    dc.adam_step(params, state, lr=0.01)
    assert params.values["w"][0] == pytest.approx(-0.01, rel=1e-6)
    assert np.array_equal(params.grads["w"], np.zeros(1))


def test_adam_constant_gradient_moves_monotonically():
    params = dc.ParameterSet()
    params.add("w", np.array([0.3]))
    state = dc.AdamState()
    seen = [0.3]
    for _ in range(3):
        params.grads["w"][0] = 2.0
        dc.adam_step(params, state, lr=0.05)
        seen.append(params.values["w"][0])
    assert seen[0] > seen[1] > seen[2] > seen[3]


def test_adam_rejects_nonpositive_learning_rate():
    params = dc.ParameterSet()
    params.add("w", np.array([0.0]))
    with pytest.raises(dc.ContractError):
        dc.adam_step(params, dc.AdamState(), lr=0.0)


def test_adam_second_moments_nonnegative():
    rng = np.random.default_rng(2)
    params = dc.ParameterSet()
    params.add("w", rng.standard_normal(8))
    state = dc.AdamState()
    for _ in range(5):
        params.grads["w"][...] = rng.standard_normal(8)
        dc.adam_step(params, state, lr=0.01)
    assert np.all(state.v["w"] >= 0.0)


# ---------------------------------------------------------------------------
# ParameterSet


def test_parameter_set_duplicate_id_rejected():
    params = dc.ParameterSet()
    params.add("w", np.zeros(2))
    with pytest.raises(dc.ContractError, match="duplicate"):
        params.add("w", np.zeros(2))


def test_gradient_shape_matches_parameter_shape():
    params = dc.ParameterSet()
    params.add("w", np.zeros((2, 5)))
    assert params.grads["w"].shape == (2, 5)


# ---------------------------------------------------------------------------
# Tape semantics


def test_tape_topological_order_and_replay_idempotence():
    rng = np.random.default_rng(5)
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [3, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    mix = rng.standard_normal((4, 2))
    tape = dc.Tape()
    out = dc.mlp_forward(params, [3, 5, 2], "net", x, tape=tape)
    for nid, node in enumerate(tape.nodes):
        assert all(i < nid for i in node.inputs)
    out_before = out.data.copy()
    dc.backward(tape, out, mix)
    # forward -> backward -> forward again on a fresh tape: the reverse pass
    # leaves parameters and inputs alone, so the second forward is bit-identical
    tape2 = dc.Tape()
    out2 = dc.mlp_forward(params, [3, 5, 2], "net", x, tape=tape2)
    assert np.array_equal(out2.data, out_before)


def test_forward_and_gradients_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(123)
        params = dc.ParameterSet()
        dc.mlp_init(params, "net", [4, 4, 1], rng)
        x = rng.standard_normal((6, 4))
        mix = rng.standard_normal((6, 1))
        tape = dc.Tape()
        out = dc.mlp_forward(params, [4, 4, 1], "net", x, tape=tape)
        # creation order is a topological order
        for nid, node in enumerate(tape.nodes):
            assert all(i < nid for i in node.inputs)
        dc.backward(tape, out, mix)
        return (out.data.copy(),
                {p: g.copy() for p, g in params.grads.items()})

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2)
    for pid in g1:
        assert np.array_equal(g1[pid], g2[pid])


def test_untaped_operations_evaluate_eagerly():
    a = dc.Tensor(np.array([[1.0, 2.0]]))
    clipped = dc.clip(a, 0.0, 1.5)
    grouped = dc.regroup(clipped, 0, 2, 2)
    out = dc.route([grouped], np.array([[2.0, 1.0]]))
    assert clipped.tape is None and grouped.tape is None and out.tape is None
    assert np.array_equal(grouped.data, [[[1.0]], [[1.5]]])
    assert np.array_equal(out.data, [[[3.5]]])
