"""Layer kernels and their backward kernels: forward semantics, adjoints
against central finite differences and against numpy compositions bit
for bit, MLPs over stacks, Adam, record order, what a record keeps
alive, the reverse-pass contract and run-to-run determinism. Every
activation is feature-major: (features, B), or a stack (features, n, B)."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from gridmpnn import diffcore as dc
from gridmpnn import gridsim
from gridmpnn.gridgraph import NodeSchema, derive_schemas, load_topology
from gridmpnn.mpnn import GnnConfig, GnnModel
from gridmpnn.training import (TrainingConfig, _train_block, build_samples,
                               nll_loss_packed)


def _seed(out, mix):
    """The first ``out.size`` entries of ``mix`` in ``out``'s shape: the
    adjoint that seeds the gradient of sum(mix * out)."""
    return np.reshape(mix[:np.size(out)], np.shape(out))


def _fd_check(forward, reverse, params, mix, step=1e-5, floor=1e-6):
    """Analytic gradients of sum(mix * out), ``out = forward(values,
    tape)``, from ``reverse(tape, adjoint)`` -> {parameter id: gradient},
    which must take every record; then the central-difference oracle
    over every parameter entry."""
    tape = dc.Tape()
    out = forward(params.values, tape)
    adjoint = _seed(out, mix)
    analytic = reverse(tape, adjoint)
    assert tape.taken == len(tape.nodes)

    def loss_value():
        return float((forward(params.values, None) * adjoint).sum())

    return dc.gradient_check(loss_value, params, analytic, step=step, floor=floor)


def _mlp(params, spec, x, prefix="net"):
    """(forward, reverse) of the MLP block ``prefix`` over ``x`` for
    ``_fd_check``."""
    def forward(values, tape):
        return dc.mlp_forward(params, spec, prefix, x, tape=tape)

    def reverse(tape, adj):
        grads = {k: np.zeros_like(v) for k, v in params.values.items()}
        dc.mlp_backward(tape, grads, len(spec) - 1, adj)
        return grads

    return forward, reverse


# ---------------------------------------------------------------------------
# MLP forward


def test_mlp_zero_weights_gives_zero_output():
    params = dc.ParameterSet()
    for a, shape in zip(dc.mlp_layer_ids("net", [3, 4, 2]), [(4, 5), (5, 2)]):
        params.add(a, np.zeros(shape))
    out = dc.mlp_forward(params, [3, 4, 2], "net",
                         np.array([[0.3], [-1.2], [2.0]]))
    assert np.array_equal(out, np.zeros((2, 1)))


def test_mlp_single_linear_layer_is_identity_map():
    params = dc.ParameterSet()
    params.add("net/L0", np.array([[1.0], [0.0]]))  # weight 1, bias 0
    out = dc.mlp_forward(params, [1, 1], "net", np.array([[0.7]]))
    assert out[0, 0] == pytest.approx(0.7)


def test_mlp_two_layer_tanh_of_zero_is_zero():
    params = dc.ParameterSet()
    # weight 1 and bias 0, then the constant unit; then weight 1, bias 0
    params.add("net/L0", np.array([[1.0, 0.0], [0.0, dc.CONSTANT_BIAS]]))
    params.add("net/L1", np.array([[1.0], [0.0]]))
    out = dc.mlp_forward(params, [1, 1, 1], "net", np.array([[0.0]]))
    assert out[0, 0] == 0.0


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
    tape = dc.Tape()
    dc.dense(np.array([[3.0]]), np.array([[2.0], [0.0]]), hidden=False,
             ones=True, tape=tape)  # weight 2, bias 0
    _, grad = dc.dense_backward(tape.take(dc.DenseRecord), np.ones((1, 1)))
    assert grad[0, 0] == pytest.approx(3.0)


def test_backward_tanh_prime_at_zero():
    # a hidden dense layer at zero pre-activation: d tanh(x*w + b)/db = 1
    tape = dc.Tape()
    dc.dense(np.array([[0.0]]), np.array([[1.0], [0.0]]), hidden=True,
             ones=True, tape=tape)  # weight 1, bias 0
    _, grad = dc.dense_backward(tape.take(dc.DenseRecord), np.ones((1, 1)))
    assert grad[1, 0] == pytest.approx(1.0)


def _lone_node_model():
    topo = load_topology({"nodes": [{"id": "g", "kind": "global"}],
                          "edges": []})
    model = GnnModel(topo, {"g": NodeSchema("g", [("x", "energy")], [], [],
                                            p=1)},
                     GnnConfig(message_passing_steps=1))
    f = model.pack({"g": np.array([[0.4], [-0.3], [1.2]])})
    return model, f, model.pack({"g": np.ones((3, 1))})


def test_backward_rejects_an_adjoint_of_another_shape():
    # the seed has the loss's shape, () for its scale; backward runs the
    # reverse pass of the model that recorded the tape, once
    model, f, m = _lone_node_model()
    tape = dc.Tape()
    mu, logvar = model.forward(f, m, tape=tape)
    loss, _ = nll_loss_packed(mu, logvar, f, m, tape=tape)
    with pytest.raises(dc.ContractError, match="adjoint"):
        dc.backward(tape, loss, np.ones(3))
    with pytest.raises(dc.ContractError, match="no model"):
        dc.backward(dc.Tape(), loss, 0.5)
    dc.backward(tape, loss, 0.5)
    assert tape.taken == len(tape.nodes) > 0
    assert all(record is None for record in tape.nodes)
    assert any(g.any() for g in model.params.grads.values())
    with pytest.raises(dc.ContractError, match="has run"):
        dc.backward(tape, loss, 0.5)


def test_backward_unreachable_parameter_keeps_zero_gradient():
    params = dc.ParameterSet()
    params.add("net/L0", np.array([[1.5], [0.0]]))  # weight 1.5, bias 0
    params.add("unused", np.array([2.5]))
    tape = dc.Tape()
    dc.mlp_forward(params, [1, 1], "net", np.array([[2.0]]), tape=tape)
    dc.mlp_backward(tape, params.grads, 1, np.ones((1, 1)))
    assert params.grads["net/L0"][0, 0] == pytest.approx(2.0)
    assert params.grads["unused"][0] == 0.0


def test_backward_random_mlp_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [4, 6, 3], rng)
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((3, 5))  # fixed mixing weights -> scalar loss
    forward, reverse = _mlp(params, [4, 6, 3], x)
    assert _fd_check(forward, reverse, params, w.ravel()) < 1e-4


_X_STACK = np.array([[[0.5, -1.5], [2.0, 0.25]]])  # (i=1, n=2, B=2)
# gaussian_nll operands of a (1, 2) group; one zero weight
_NLL = {"y": np.array([[0.8, -1.3]]), "lv": np.array([[0.3, -0.6]]),
        "mu": np.array([[-0.2, 0.5]]), "w": np.array([[1.5, 0.0]])}
# a routing matrix over 3 incoming edges of 2 nodes, one of them fed twice
_ROUTING = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])


def _dense_grads(tape, adj, names):
    """{name: adjoint} of a dense layer's parts and block, for the names
    given in part order, the block's last; a name given twice adds."""
    parts, grad = dc.dense_backward(tape.take(dc.DenseRecord), adj)
    out = {}
    for name, g in zip(names, parts + [grad]):
        if name is not None:
            out[name] = out[name] + g if name in out else g
    return out


def _nll_grads(tape, adj, names):
    """{name: adjoint} of the loss's (mean or log-variance, group)
    operands named in ``names``; a name given twice adds."""
    dmu, dlv = dc.gaussian_nll_backward(tape.take(dc.NllRecord), adj)
    out = {}
    for name, (head, key) in names.items():
        for h, k in ([(head, key)] if isinstance(head, str) else zip(head, key)):
            g = (dmu if h == "mu" else dlv)[k]
            out[name] = out[name] + g if name in out else g
    return out


def _regroup_grads(tape, adj):
    into = np.zeros((7, 2))
    dc.regroup_backward(adj, 1, 7, into)
    return {"h": into}


# name: (parameter shapes, forward over those parameters' values, the
# reverse giving each parameter's gradient). Each affine block is the
# weight rows, then the bias row.
OPS = {
    # the input of a hidden layer
    "dense_hidden": ({"p": (2, 1)}, lambda t, tape: dc.dense(
        t["p"], np.array([[0.7, -1.1], [0.4, 0.9], [0.2, -0.3]]), hidden=True,
        ones=True, tape=tape), lambda tape, adj: _dense_grads(
            tape, adj, ["p", None])),
    # the block of an output layer
    "dense_output": ({"a": (2, 2)}, lambda t, tape: dc.dense(
        np.array([[1.3, -0.6]]), t["a"], hidden=False, ones=True,
        tape=tape), lambda tape, adj: _dense_grads(tape, adj, [None, "a"])),
    # the block of a layer over an (n, B, i) stack
    "dense_stacked": ({"a": (2, 1)}, lambda t, tape: dc.dense(
        _X_STACK, t["a"], hidden=True, ones=True, tape=tape),
        lambda tape, adj: _dense_grads(tape, adj, [None, "a"])),
    # a stack and the one block every slice of it shares
    "dense_shared": ({"x": (1, 2, 2), "a": (2, 1)}, lambda t, tape: dc.dense(
        t["x"], t["a"], hidden=True, ones=True, tape=tape),
        lambda tape, adj: _dense_grads(tape, adj, ["x", "a"])),
    # a part read twice of a multi-part input, and the block
    "dense_parts": ({"x": (1, 2), "a": (4, 2)}, lambda t, tape: dc.dense(
        [t["x"], np.array([[0.6, -0.2]]), t["x"]], t["a"], hidden=True,
        ones=True, tape=tape), lambda tape, adj: _dense_grads(
            tape, adj, ["x", None, "x", "a"])),
    # a gathered array (with repeated rows), and the block
    "gather_dense": ({"x": (1, 2, 1), "a": (3, 1)}, lambda t, tape: dc.dense(
        [t["x"], _X_STACK[..., :1]], t["a"], hidden=True, ones=True,
        rows=[np.array([1, 0, 1]), np.array([0, 1, 1])], tape=tape),
        lambda tape, adj: _dense_grads(tape, adj, ["x", None, "a"])),
    # a group fed by one edge group, and one fed by two
    "route_one_group": ({"m": (2, 3, 2)}, lambda t, tape: dc.route(
        [t["m"]], _ROUTING), lambda tape, adj: dict(zip(
            "m", dc.route_backward(_ROUTING, adj, [3])))),
    "route_several_groups": ({"m": (2, 2, 2), "k": (2, 1, 2)},
                             lambda t, tape: dc.route([t["m"], t["k"]],
                                                      _ROUTING),
                             lambda tape, adj: dict(zip(
                                 "mk", dc.route_backward(_ROUTING, adj,
                                                         [2, 1])))),
    "regroup": ({"h": (7, 2)}, lambda t, tape: dc.regroup(t["h"], 1, 7, 3),
                _regroup_grads),
    "clip": ({"p": (1, 2)}, lambda t, tape: dc.clip(t["p"], -0.5, 0.5, tape),
             lambda tape, adj: {"p": dc.clip_backward(
                 tape.take(dc.ClipRecord), adj)}),
    "gaussian_nll_mu": ({"p": (1, 2)}, lambda t, tape: dc.gaussian_nll(
        {"k": t["p"]}, {"k": _NLL["lv"]}, {"k": _NLL["y"]}, {"k": _NLL["w"]},
        tape), lambda tape, adj: _nll_grads(tape, adj, {"p": ("mu", "k")})),
    "gaussian_nll_logvar": ({"p": (1, 2)}, lambda t, tape: dc.gaussian_nll(
        {"k": _NLL["mu"]}, {"k": t["p"]}, {"k": _NLL["y"]}, {"k": _NLL["w"]},
        tape), lambda tape, adj: _nll_grads(tape, adj, {"p": ("lv", "k")})),
    # two groups, p the mean of one and the log-variance of the other
    "gaussian_nll_groups": ({"p": (1, 2), "q": (1, 2)},
                            lambda t, tape: dc.gaussian_nll(
                                {"a": t["p"], "b": t["q"]},
                                {"a": _NLL["lv"], "b": t["p"]},
                                {"a": _NLL["y"], "b": _NLL["mu"]},
                                {"a": _NLL["w"], "b": _NLL["w"][:, ::-1]},
                                tape),
                            lambda tape, adj: _nll_grads(
                                tape, adj, {"p": (("mu", "lv"), ("a", "b")),
                                            "q": ("mu", "b")})),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(7)
    shapes, forward, reverse = OPS[name]
    params = dc.ParameterSet()
    for key, shape in shapes.items():
        params.add(key, rng.uniform(-0.4, 0.4, size=shape))
    mix = rng.standard_normal(16)
    assert _fd_check(forward, reverse, params, mix) < 1e-4


def test_matmul_stacked_and_broadcast_gradients():
    # one (i + 1, o) block over an (i, n, B) stack, as one GEMM over its
    # n * B columns: each slice's columns get what the slice alone gets;
    # a stacked block, one per slice, is refused
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 2, 5))
    with pytest.raises(dc.ShapeError, match="matrix"):
        dc.dense(x, np.zeros((2, 4, 4)), hidden=False, ones=True)
    params = dc.ParameterSet()
    params.add("a", rng.standard_normal((4, 4)))
    out = dc.dense(x, params.values["a"], hidden=False, ones=True)
    for j in range(2):
        alone = dc.dense(x[:, j], params.values["a"], hidden=False, ones=True)
        np.testing.assert_allclose(out[:, j], alone, rtol=1e-15, atol=0)

    def forward(values, tape):
        return dc.dense(x, values["a"], hidden=False, ones=True, tape=tape)

    def reverse(tape, adj):
        return _dense_grads(tape, adj, [None, "a"])

    assert _fd_check(forward, reverse, params, rng.standard_normal(40)) < 1e-4


def _block_grad_reference(x, g):
    """(weight rows, bias row) of the gradient of a layer over the
    feature-major input ``x``, (i, B) or (i, n, B), whose output has the
    adjoint ``g``: per slice, ``x[:, j] @ g[:, j]^T`` and numpy's sum of
    ``g[:, j]`` over its rows, added over the slices in order."""
    x3 = x.reshape(x.shape[0], -1, x.shape[-1])
    g3 = g.reshape(g.shape[0], -1, g.shape[-1])
    dw = db = None
    for j in range(x3.shape[1]):
        w_j, b_j = x3[:, j] @ g3[:, j].T, g3[:, j].sum(axis=-1)
        dw, db = (w_j, b_j) if dw is None else (dw + w_j, db + b_j)
    return dw, db


@pytest.mark.parametrize("shapes", [
    ((4, 3, 5), (4, 6), (6,)),          # one MLP shared over the stack
    ((4, 5), (4, 6), (6,)),             # plain layer
], ids=["shared", "plain"])
@pytest.mark.parametrize("hidden", [True, False], ids=["hidden", "output"])
def test_dense_matches_unfused_composition_bit_for_bit(shapes, hidden):
    # the reference is the unfused layer in numpy over the stack's
    # columns: a matmul, a bias add and a tanh, each output its own
    # array; backward from the adjoint ``mix``: adj * (1 - out^2) through
    # the tanh, then the matmul's two products and the bias's row sum,
    # per slice of a stack, added over the slices in order. The fused
    # layer computes [w; b]^T @ [x; 1] in one GEMM over the n * B columns
    # of a feature-major (i, n, B) stack.
    rng = np.random.default_rng(12)
    xs, ws, bs = shapes
    mix = rng.standard_normal(ws[-1:] + xs[1:])
    xd = np.random.default_rng(13).standard_normal(xs)
    wd = np.random.default_rng(14).standard_normal(ws)
    bd = np.random.default_rng(15).standard_normal(bs)
    block = np.concatenate([wd, bd.reshape(1, ws[-1])])
    tape = dc.Tape()
    out = dc.dense(xd, block, hidden=hidden, ones=True, tape=tape)
    got = out.copy()  # backward forms the tanh derivative in place
    (gx,), ga = dc.dense_backward(tape.take(dc.DenseRecord), mix)
    want = (wd.T @ xd.reshape(xs[0], -1) + bd[:, None]).reshape(out.shape)
    g = mix
    if hidden:
        want = np.tanh(want)
        g = mix * (1.0 - want * want)
    assert np.array_equal(got, want)
    dw, db = _block_grad_reference(xd, g)
    wants = {"x": (wd @ g.reshape(ws[-1], -1)).reshape(xs), "W": dw, "b": db}
    gots = {"x": gx, "W": ga[:-1], "b": ga[-1]}
    for k, want in wants.items():
        assert gots[k].any()
        assert np.array_equal(gots[k], want), k


def _composed_nll(mu, lv, y, w, c):
    """The loss, times ``c``, as elementwise primitives composed it, in
    numpy: per group d = y - mu, terms = 0.5 * lv + 0.5 * (d * d) *
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
    mu, lv, y, w = {}, {}, {}, {}
    for k, shape in shapes.items():
        mu[k] = rng.standard_normal(shape)
        lv[k] = rng.uniform(-2.0, 2.0, shape)
        y[k] = rng.standard_normal(shape)
        w[k] = (rng.random(shape) > 0.3) * rng.uniform(0.5, 2.0, shape)
    c = 1.0 / 12345.0
    tape = dc.Tape()
    loss = dc.gaussian_nll(mu, lv, y, w, tape)
    dmu, dlv = dc.gaussian_nll_backward(tape.take(dc.NllRecord),
                                        np.asarray(c))
    want, want_mu, want_lv = _composed_nll(mu, lv, y, w, c)
    backwards = {k: mu[k] for k in reversed(shapes)}
    assert _composed_nll(backwards, lv, y, w, c)[0] != want
    assert np.array_equal(loss * c, want)
    for k in shapes:
        assert dmu[k].any() and dlv[k].any()
        assert np.array_equal(dmu[k], want_mu[k]), k
        assert np.array_equal(dlv[k], want_lv[k]), k
    assert np.array_equal(dc.gaussian_nll(mu, lv, y, w), loss)


# per node group, the sizes of the edge groups that feed it
_FEEDS = {"one_edge_group": [5], "several_edge_groups": [3, 1, 4]}


@pytest.mark.parametrize("feeds", sorted(_FEEDS))
def test_route_matches_numpy_reference_bit_for_bit(feeds):
    # the forward is, per message feature, routing @ the messages stacked
    # along their edge axis; the adjoint is, per feature, routing^T @ the
    # output's adjoint, split back into the edge groups
    rng = np.random.default_rng(51)
    sizes, n, batch, m = _FEEDS[feeds], 3, 4, 2
    edges = sum(sizes)
    routing = rng.uniform(0.1, 1.0, (n, edges)) * (rng.random((n, edges)) > 0.4)
    mix = rng.standard_normal((m, n, batch))
    msgs = [rng.standard_normal((m, size, batch)) for size in sizes]
    out = dc.route(msgs, routing)
    pieces = dc.route_backward(routing, mix, sizes)
    stacked = np.concatenate(msgs, axis=1)
    want = np.stack([routing @ stacked[c] for c in range(m)])
    assert out.tobytes() == want.tobytes()
    back = np.stack([routing.T @ mix[c] for c in range(m)])
    for k, piece in enumerate(np.split(back, np.cumsum(sizes)[:-1], axis=1)):
        assert pieces[k].tobytes() == piece.tobytes(), k


def test_regroup_matches_numpy_reference_bit_for_bit():
    # a feature-major flat (D, B) output read as two node groups' means
    # and then their log-variances, packed (n, B, q); each read's adjoint
    # lands in its own rows
    rng = np.random.default_rng(52)
    batch, layout = 4, [(0, 6, 3), (6, 8, 1)]  # (lo, hi, nodes) per group
    d = layout[-1][1]
    h = rng.standard_normal((2 * d, batch))
    into = np.zeros((2 * d, batch))
    want_grad = np.zeros((2 * d, batch))
    for lo, hi, n in [(lo + off, hi + off, n) for off in (0, d)
                      for lo, hi, n in layout]:
        out = dc.regroup(h, lo, hi, n)
        want = h[lo:hi].reshape(n, (hi - lo) // n, batch).transpose(0, 2, 1)
        assert out.tobytes() == np.ascontiguousarray(want).tobytes()
        mix = rng.standard_normal(out.shape)
        dc.regroup_backward(mix, lo, hi, into)  # adds into its rows
        want_grad[lo:hi] = mix.transpose(0, 2, 1).reshape(hi - lo, batch)
    assert into.tobytes() == want_grad.tobytes()
    with pytest.raises(dc.ShapeError, match="regroup"):
        dc.regroup(want_grad, 0, 5, 2)


def test_gaussian_nll_rejects_mismatched_group_shapes():
    with pytest.raises(dc.ShapeError, match="'k'"):
        dc.gaussian_nll({"k": np.zeros((2, 3))}, {"k": np.zeros((2, 3))},
                        {"k": np.zeros((2, 3))}, {"k": np.ones(3)})


def test_dense_rejects_mismatched_inner_dimensions():
    with pytest.raises(dc.ShapeError, match="inner"):
        dc.dense(np.zeros((3, 2)), np.zeros((5, 5)), hidden=True, ones=True)
    # parts are assembled by assignment, which must not broadcast
    with pytest.raises(dc.ShapeError, match="trailing shapes"):
        dc.dense([np.zeros((1, 2, 4)), np.zeros((1, 2, 1))], np.zeros((3, 2)),
                 hidden=False, ones=True)
    with pytest.raises(dc.ShapeError, match="trailing shapes"):
        dc.dense([np.zeros((1, 3, 4)), np.zeros((1, 3, 4))], np.zeros((3, 2)),
                 hidden=False, ones=True,
                 rows=[np.array([0, 1]), np.array([2])])


def _incidence_sum(n, idx, piece):
    """The entries ``piece[:, j]`` summed into entry ``idx[j]`` of n along
    axis 1, per feature one product with the 0/1 incidence matrix of
    ``idx``."""
    incidence = np.zeros((n, idx.size))
    incidence[idx, np.arange(idx.size)] = 1.0
    return np.stack([incidence @ p.reshape(idx.size, -1) for p in piece]
                    ).reshape((len(piece), n) + piece.shape[2:])


@pytest.mark.parametrize("idx", [
    np.array([3, 0, 3, 1, 0, 3, 2]),  # unsorted, repeated
    np.zeros(15, dtype=int),          # 15-to-1 fan-in, as into the global node
    np.array([2, 0, 3, 1]),           # all unique
], ids=["repeated", "fan_in_15", "unique"])
def test_gather_dense_backward_is_one_incidence_product_bit_for_bit(idx):
    # an identity weight and a zero bias row pass the gathered entries and
    # the adjoint through unchanged; the adjoint of the gathered array is
    # the entries' incidence matrix times it, per feature, which sums
    # each entry's occurrences as np.add.at does, up to the order of the
    # additions
    rng = np.random.default_rng(16)
    n = int(idx.max()) + 1
    a = rng.standard_normal((3, n, 7))
    mix = rng.standard_normal((3, idx.size, 7))
    tape = dc.Tape()
    out = dc.dense([a], np.vstack([np.eye(3), np.zeros(3)]), hidden=False,
                   ones=True, rows=[idx], tape=tape)
    assert np.array_equal(out, a[:, idx])
    (ga,), _ = dc.dense_backward(tape.take(dc.DenseRecord), mix)
    assert ga.tobytes() == _incidence_sum(n, idx, mix).tobytes()
    added = np.zeros((3, n, 7))
    np.add.at(added, (slice(None), idx), mix)
    np.testing.assert_allclose(ga, added, rtol=1e-14, atol=1e-14)


# (destination rows, source rows, source group is the destination group)
_EDGE_CASES = {
    "repeated": (np.array([3, 0, 3, 1, 0, 3, 2]), np.array([1, 1, 0, 2, 2, 0, 1]),
                 False),
    # the global node's message to each of 15 substations
    "fan_out_15": (np.arange(15), np.zeros(15, dtype=int), False),
    "unique": (np.array([2, 0, 3, 1]), np.array([1, 2, 0, 3]), False),
    "same_group": (np.array([0, 1, 1, 2, 3]), np.array([1, 0, 2, 1, 2]), True),
}


def _mlp_pass(params, spec, x, mix, **kw):
    """The taped forward of MLP ``m`` and its reverse pass from ``mix``:
    (output, first layer's part adjoints, block gradients)."""
    tape = dc.Tape()
    out = dc.mlp_forward(params, spec, "m", x, tape=tape, **kw)
    grads = {k: np.zeros_like(v) for k, v in params.values.items()}
    parts = dc.mlp_backward(tape, grads, len(spec) - 1, mix)
    return out, parts, grads


@pytest.mark.parametrize("inputs", ["stacked", "lone"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_gather_dense_matches_composed_layers_bit_for_bit(case, layers, inputs):
    # the reference gathers and concatenates in numpy and feeds that copy
    # to dense layers; its adjoint goes back to the destination and to the
    # source entries by their incidence matrices. The arrays are
    # (p, n, B) stacks, or (p, n) matrices whose columns are gathered
    dst, src, same = _EDGE_CASES[case]
    rng = np.random.default_rng(31)
    pd, ps = 3, (3 if same else 2)
    trail = (5,) if inputs == "stacked" else ()
    xd = rng.standard_normal((pd, int(dst.max()) + 1, *trail))
    xs = xd if same else rng.standard_normal((ps, int(src.max()) + 1, *trail))
    spec = [pd + ps] + [4] * (layers - 1) + [2]
    params = dc.ParameterSet()
    dc.mlp_init(params, "m", spec, np.random.default_rng(32))
    mix = rng.standard_normal((2, dst.size, *trail))
    out, (to_dst, to_src), grads = _mlp_pass(params, spec, (xd, xs), mix,
                                             rows=(dst, src))
    x = np.concatenate([xd[:, dst], xs[:, src]])
    want, (gx,), want_grads = _mlp_pass(params, spec, x, mix)
    assert np.array_equal(out, want)
    ref_dst = _incidence_sum(xd.shape[1], dst, gx[:pd])
    ref_src = _incidence_sum(xs.shape[1], src, gx[pd:])
    assert to_dst.tobytes() == ref_dst.tobytes()
    assert to_src.tobytes() == ref_src.tobytes()
    for key, g in want_grads.items():
        assert g.any() and np.array_equal(grads[key], g), key


@pytest.mark.parametrize("inputs", ["stacked", "lone"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("same", [False, True], ids=["two_parts", "one_twice"])
def test_dense_parts_match_concat_then_dense_bit_for_bit(same, layers, inputs):
    # an MLP whose first layer reads (a, b) as parts against the same MLP
    # fed their numpy concatenation: each part's adjoint is its rows of
    # the concatenation's, and with b = a the two row ranges come apart.
    # The parts are (p, n, B) stacks or (p, B) matrices
    rng = np.random.default_rng(41)
    trail, pa, pb = ((3, 5) if inputs == "stacked" else (5,)), 3, (3 if same else 2)
    a = rng.standard_normal((pa, *trail))
    b = a if same else rng.standard_normal((pb, *trail))
    spec = [pa + pb] + [4] * (layers - 1) + [2]
    mix = rng.standard_normal((2, *trail))
    params = dc.ParameterSet()
    dc.mlp_init(params, "m", spec, np.random.default_rng(42))
    out, (to_a, to_b), grads = _mlp_pass(params, spec, (a, b), mix)
    want, (gx,), want_grads = _mlp_pass(
        params, spec, np.concatenate([a, b]), mix)
    assert out.tobytes() == want.tobytes()
    assert to_a.tobytes() == gx[:pa].tobytes()
    assert to_b.tobytes() == gx[pa:].tobytes()
    for key, g in want_grads.items():
        assert g.any() and grads[key].tobytes() == g.tobytes(), key


def _held_arrays(record):
    """Every array a dense record holds, directly or in a list."""
    return [x for x in (*record.parts, record.block, record.out)
            if isinstance(x, np.ndarray)]


def test_dense_parts_keep_no_concatenated_copy(monkeypatch):
    # the block's gradient reads the layer's input, so the layer keeps its
    # parts, while the array it assembled them in is dropped with the
    # forward (a new one) or left to the next layer (a workspace's
    # scratch buffer)
    rng = np.random.default_rng(3)
    p = rng.uniform(-0.4, 0.4, (3, 2))
    a = np.random.default_rng(5).uniform(-0.4, 0.4, (7, 2))
    for ws in (None, dc.Workspace()):
        tape = dc.Tape().fork({}, ws)
        made = []
        empty = np.empty

        def watched(*args, **kwargs):
            out = empty(*args, **kwargs)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "empty", watched)
        out = dc.dense([dc.clip(p, -1.0, 1.0, tape), p], a, hidden=True,
                       ones=True, tape=tape)
        monkeypatch.undo()
        gc.collect()
        held = _held_arrays(tape.nodes[-1])
        assert any(h is p for h in held)
        if ws is None:
            assert len(made) == 1 and made[0]() is None
        else:
            assert ws.scratch.size == 2 * 7 and np.shares_memory(out,
                                                                ws.outputs[0])
            assert not any(np.shares_memory(h, ws.scratch) for h in held)
        (g_clip, g_p), ga = dc.dense_backward(tape.take(dc.DenseRecord),
                                              _seed(out, _MIX), ws)
        g_p = dc.clip_backward(tape.take(dc.ClipRecord), g_clip) + g_p
        assert g_p.any() and ga.any()


def _pilot_layers():
    """(rows' leading size, block shape, inputs, outputs, hidden) of every
    layer of the pilot model, whose node and edge types each run one MLP
    over their stack."""
    topo = gridsim.pilot_topology()
    model = GnnModel(topo, derive_schemas(topo))
    size = {f"type/{g.key}": len(g.node_ids) for g in model.groups}
    size.update({f"etype/{eg.key}": len(eg.pairs) for eg in model.edge_groups})
    layers = []
    for prefix, spec in model._mlps:
        n = size[prefix.rsplit("/", 1)[0]]
        for i, a in enumerate(dc.mlp_layer_ids(prefix, spec)):
            layers.append((n, model.params.values[a].shape, spec[i],
                           spec[i + 1], i < len(spec) - 2))
    return layers


@pytest.mark.parametrize("batch", [1, 24, 120, 256])
def test_affine_layers_match_the_bias_add_composition_bit_for_bit(batch):
    # every layer shape of the pilot model over its feature-major
    # (i, n, B) stack: the one-GEMM layer [W; b]^T @ [x; 1] over the n * B
    # columns against W^T @ x, then += b, then tanh over the same columns,
    # and its adjoints against that composition's: the tanh derivative,
    # the input's adjoint over the same columns, and the weight product
    # and the bias's row sum over each slice's columns, added over the
    # slices in order
    rng = np.random.default_rng(batch)
    for n, shape, i, o, hidden in _pilot_layers():
        block = rng.uniform(-0.5, 0.5, shape)
        if hidden:
            block[:, -1] = 0.0
            block[-1, -1] = dc.CONSTANT_BIAS
        x = rng.standard_normal((i, n, batch))
        mix = rng.standard_normal((shape[-1], n, batch))
        tape = dc.Tape()
        out = dc.dense(x, block, hidden, ones=True, tape=tape)
        got = out.copy()
        (gx,), ga = dc.dense_backward(tape.take(dc.DenseRecord), mix)

        w, b = block[:i, :o], block[i:, :o]
        want = w.T @ x.reshape(i, -1)
        want += b.T
        g = mix[:o].reshape(o, -1)
        if hidden:
            np.tanh(want, out=want)
            g = g * (1.0 - want * want)
        dw, db = _block_grad_reference(x, g.reshape(o, n, batch))
        case = (n, shape)
        assert np.array_equal(got[:o].reshape(o, -1), want), case
        if hidden:
            assert (got[o] == 1.0).all(), case
        assert np.array_equal(gx.reshape(i, -1), w @ g), case
        assert np.array_equal(ga[:i, :o], dw), case
        assert np.array_equal(ga[i, :o], db), case
        assert not ga[:, o:].any(), case


def test_backward_of_loss_without_parameters_leaves_gradients_zero():
    # a loss recorded on a tape that no model's forward recorded has no
    # reverse pass to run: backward refuses it and no gradient moves
    model, f, m = _lone_node_model()
    mu, logvar = model.forward(f, m)
    tape = dc.Tape()
    loss, _ = nll_loss_packed(mu, logvar, f, m, tape=tape)
    with pytest.raises(dc.ContractError, match="no model"):
        dc.backward(tape, loss, 1.0)
    assert not any(g.any() for g in model.params.grads.values())


def test_gather_dense_and_stack_gradients():
    # gather entries of a stacked (2, 3, 2) array, 2 features of 3
    # entries of 2 rows, with repeated indices, from both sides of the
    # concatenation; the finite differences perturb every entry of that
    # array
    rng = np.random.default_rng(9)
    params = dc.ParameterSet()
    params.add("ab", np.stack([rng.standard_normal((3, 2)),
                               rng.standard_normal((3, 2))]))
    a = np.vstack([rng.standard_normal((4, 3)), np.zeros(3)])
    mix = rng.standard_normal((5, 3, 3))

    def forward(values, tape):
        ab = values["ab"]
        return dc.dense([ab, ab], a, hidden=True, ones=True, tape=tape,
                        rows=[np.array([0, 1, 1, 0, 1]),
                              np.array([1, 1, 0, 0, 0])])

    def reverse(tape, adj):
        return _dense_grads(tape, adj, ["ab", "ab", None])

    assert _fd_check(forward, reverse, params, mix.ravel()) < 1e-4


def _three_mlps(seed=4, spec=(3, 5, 2)):
    params = dc.ParameterSet()
    rng = np.random.default_rng(seed)
    for prefix in ("m0", "m1", "m2"):
        dc.mlp_init(params, prefix, list(spec), rng)
    return params


def _views(arrays, spec):
    """{id: weight or bias view} of the blocks ``arrays`` (values or
    gradients) of MLPs of ``spec``."""
    out = {}
    for a, block in arrays.items():
        w, b = dc.mlp_views(block, spec[int(a.rsplit("/L", 1)[1]) + 1])
        out[f"{a}/W"], out[f"{a}/b"] = w, b
    return out


def test_mlp_forward_stacked_matches_separate_mlps_with_one_leaf_per_block():
    # one MLP over an (i, n, B) stack: one record per layer, naming the
    # block the layer computes with; each slice gets what it gets alone,
    # and the block's gradient is the slices' gradients added
    spec = [3, 5, 2]
    params = _three_mlps()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3, 4))
    mix = rng.standard_normal((2, 3, 4))
    tape = dc.Tape()
    out = dc.mlp_forward(params, spec, "m1", x, tape=tape)
    assert [r.key for r in tape.nodes] == dc.mlp_layer_ids("m1", spec)
    stacked = {a: np.zeros_like(v) for a, v in params.values.items()}
    dc.mlp_backward(tape, stacked, len(spec) - 1, mix)
    separate = {a: np.zeros_like(v) for a, v in params.values.items()}
    for j in range(3):
        tape = dc.Tape()
        want = dc.mlp_forward(params, spec, "m1", x[:, j], tape=tape)
        dc.mlp_backward(tape, separate, len(spec) - 1, mix[:, j])
        assert np.allclose(out[:, j], want, rtol=0, atol=1e-14)
    for a in dc.mlp_layer_ids("m1", spec):
        assert stacked[a].any()
        assert np.allclose(stacked[a], separate[a], rtol=0, atol=1e-13), a


def test_mlp_views_are_views_of_their_block():
    spec = [3, 5, 2]
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", spec, np.random.default_rng(4))
    # layer by layer, each its weights from one draw; biases zero
    rng = np.random.default_rng(4)
    for i, a in enumerate(dc.mlp_layer_ids("net", spec)):
        bound = np.sqrt(6.0 / (spec[i] + spec[i + 1]))
        w, b = dc.mlp_views(params.values[a], spec[i + 1])
        assert np.array_equal(w, rng.uniform(-bound, bound, w.shape))
        assert not b.any()
    # weight rows and a bias row; the hidden layer's constant unit last
    assert params.values["net/L0"].shape == (4, 6)
    assert params.values["net/L1"].shape == (6, 2)
    x = np.random.default_rng(5).standard_normal((3, 3, 4))
    before = dc.mlp_forward(params, spec, "net", x)
    dc.mlp_views(params.values["net/L1"], 2)[1][1] = 7.0
    after = dc.mlp_forward(params, spec, "net", x)
    assert np.array_equal(after[0], before[0])
    assert np.allclose(after[1] - before[1], 7.0)
    dc.mlp_views(params.grads["net/L1"], 2)[0][0, 1] = -3.0
    assert params.grads["net/L1"][0, 1] == -3.0
    params.zero_grads()
    assert not params.grads["net/L1"].any()
    with pytest.raises(dc.ContractError, match="duplicate"):
        dc.mlp_init(params, "net", spec, np.random.default_rng(4))


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
    # the blocks of three MLPs against a reference that keeps one array
    # per weight and bias id
    spec = [3, 5, 2]
    blocks = _three_mlps()
    reference = dc.ParameterSet()
    for pid, view in _views(blocks.values, spec).items():
        reference.add(pid, view.copy())
    rng = np.random.default_rng(8)
    s_state, r_state = dc.AdamState(), dc.AdamState()
    for _ in range(4):
        for pid, view in _views(blocks.grads, spec).items():
            g = rng.standard_normal(view.shape)
            reference.grads[pid][...] = g
            view[...] = g
        dc.adam_step(blocks, s_state, lr=0.03)
        _reference_adam(reference, r_state, lr=0.03)
    for pid, view in _views(blocks.values, spec).items():
        assert np.array_equal(view, reference.values[pid])
    assert not any(g.any() for g in blocks.grads.values())


# ---------------------------------------------------------------------------
# What a record keeps


def _dies(make):
    """Build ``make(tape, p)`` -> (array to watch, output, reverse) on a
    fresh tape, drop the caller's references but the output's and tell
    whether that array died before the reverse pass; after
    ``reverse(tape, adjoint)``, which returns p's gradient, it must be
    dead."""
    p = np.random.default_rng(3).uniform(-0.4, 0.4, (3, 2))
    tape = dc.Tape()
    watched, out, reverse = make(tape, p)
    ref = weakref.ref(watched)
    del watched
    gc.collect()
    alive = ref() is not None
    grad = reverse(tape, _seed(out, _MIX))
    gc.collect()
    assert ref() is None  # the reverse pass releases what it read
    assert tape.taken == len(tape.nodes) and grad.any()
    return not alive


_MIX = np.random.default_rng(4).standard_normal(8)
_A = np.array([[0.4, -0.2], [1.1, 0.3], [-0.5, 0.8], [0.0, 0.0]])


def _regroup_back(adj, shape):
    into = np.zeros(shape)
    dc.regroup_backward(adj, 0, 2, into)
    return into


def _dense_back(tape, adj):
    """The first part's adjoint of the last dense record."""
    return dc.dense_backward(tape.take(dc.DenseRecord), adj)[0][0]


def _block_back(tape, adj):
    """The adjoint of p through the last dense record's block, clamped."""
    grad = dc.dense_backward(tape.take(dc.DenseRecord), adj)[1]
    return dc.clip_backward(tape.take(dc.ClipRecord), grad)


def _linear_dense(tape, p):
    out = dc.dense(p, _A, hidden=False, ones=True, tape=tape)
    return out, dc.regroup(out, 0, 2, 2), lambda tape, adj: _dense_back(
        tape, _regroup_back(adj, (2, 2)))


def _hidden_dense(tape, p):
    out = dc.dense(p, _A, hidden=True, ones=True, tape=tape)
    return out, dc.regroup(out, 0, 2, 2), lambda tape, adj: _dense_back(
        tape, _regroup_back(adj, (2, 2)))


def _clip_input(tape, p):
    x = dc.regroup(p, 0, 2, 2)
    return x, dc.clip(x, -0.5, 0.5, tape), lambda tape, adj: _regroup_back(
        dc.clip_backward(tape.take(dc.ClipRecord), adj), (3, 2))


def _route_input(tape, p):
    x = dc.regroup(p, 0, 2, 2)  # read as 2 messages of 2 edges, 1 row
    routing = np.array([[1.0, -1.0]])
    return x, dc.route([x], routing), lambda tape, adj: _regroup_back(
        dc.route_backward(routing, adj, [2])[0], (3, 2))


def _regroup_input(tape, p):
    x = dc.clip(p, -1.0, 1.0, tape)
    return x, dc.regroup(x, 0, 2, 2), lambda tape, adj: dc.clip_backward(
        tape.take(dc.ClipRecord), _regroup_back(adj, (3, 2)))


def _dense_input(tape, p):
    # the block needs a gradient, so the layer keeps its input
    x = np.array([[0.2, -0.1], [0.4, 0.3]])
    return x, dc.dense(x, dc.clip(p, -1.0, 1.0, tape), hidden=True,
                       ones=True, tape=tape), _block_back


def _dense_part(tape, p):
    # ... and of an input in parts, each part
    x = np.array([[0.2, 0.4]])
    return x, dc.dense([x, np.array([[-0.1, 0.3]])],
                       dc.clip(p, -1.0, 1.0, tape), hidden=True, ones=True,
                       tape=tape), _block_back


def _gather_dense_input(tape, p):
    # ... and of gathered rows, the array they are gathered from
    x = np.array([[[0.2], [0.4]], [[-0.1], [0.3]]])
    return x, dc.dense([x], dc.clip(p, -1.0, 1.0, tape), hidden=True,
                       ones=True, rows=[np.array([1, 0, 1])],
                       tape=tape), _block_back


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


# Bytes the layer records of a taped forward and loss of 128 rows of the
# conftest pilot world may hold until the reverse pass: what it reads is
# 27.5 MB at the default 3 message steps, plus the 3.9% headroom the
# budget kept over 41.4 MB at 5 steps. At 5 steps the hidden layers'
# constant units took 1.3 MB; first layers that keep their concatenated
# inputs would hold about 47.5 MB, and records that keep gathered edge
# inputs about 86 MB.
PILOT_BLOCK_TAPE_BUDGET = 28.6e6


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
        loss, _ = nll_loss_packed(mu, logvar, t, lm, tape=tape)
        del mu, logvar
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= PILOT_BLOCK_TAPE_BUDGET, held
    dc.backward(tape, loss, 1.0)
    assert any(g.any() for g in model.params.grads.values())


# Bytes one training worker's workspace may hold after a 128-row block
# of the conftest pilot world: the hidden layers' outputs, which the
# backward reads, take 19.7 MB at the default 3 message steps (30.3 MB
# at 5) and the input scratch buffer, sized for the widest edge layer,
# 1.5 MB, plus the same 3.9% headroom. States, messages and decoder
# outputs stay new arrays.
PILOT_BLOCK_WORKSPACE_BUDGET = 22.05e6


def test_one_pilot_block_workspace_stays_within_its_byte_budget(pilot_world):
    spec, dataset = pilot_world
    schemas = derive_schemas(spec.topology)
    samples = build_samples(dataset, spec.topology, schemas, TrainingConfig())
    model = GnnModel(spec.topology, schemas, GnnConfig())
    f, m, t, lm = samples.batch(np.arange(128))
    ws = dc.Workspace()
    tape = dc.Tape().fork(model.params.grads, ws)
    mu, logvar = model.forward(f, m, tape=tape)
    loss, _ = nll_loss_packed(mu, logvar, t, lm, tape=tape)
    dc.backward(tape, loss, 1.0)
    assert any(g.any() for g in model.params.grads.values())
    held = ws.scratch.nbytes + sum(b.nbytes for b in ws.outputs)
    assert 0 < held <= PILOT_BLOCK_WORKSPACE_BUDGET, held


# Bytes one steady-state 128-row training block of the conftest pilot
# world may allocate at its peak, beyond the buffers its worker's warm
# workspace already holds: its taped forward, loss and backward on a
# fork of the step's tape take 16.3 MB at the default 3 message steps
# (36.1 MB without a workspace), plus the tape budget's 3.9% headroom.
# Once it returns, what it allocated is freed: 1.8 kB stays traced.
PILOT_BLOCK_PEAK_BUDGET = 17.0e6
PILOT_BLOCK_LEFT_BUDGET = 0.1e6


def test_one_pilot_training_block_stays_within_its_peak_budget(pilot_world):
    spec, dataset = pilot_world
    schemas = derive_schemas(spec.topology)
    samples = build_samples(dataset, spec.topology, schemas, TrainingConfig())
    model = GnnModel(spec.topology, schemas, GnnConfig())
    grads = {k: np.zeros_like(g) for k, g in model.params.grads.items()}
    idx, ws = np.arange(dc.BLOCK_ROWS), dc.Workspace()
    _train_block(model, samples, idx, dc.Tape(), grads, 1.0, ws)  # warms ws
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _train_block(model, samples, idx, dc.Tape(), grads, 1.0, ws)
        gc.collect()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(g.any() for g in grads.values())
    assert peak - base <= PILOT_BLOCK_PEAK_BUDGET, peak - base
    assert left - base <= PILOT_BLOCK_LEFT_BUDGET, left - base


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
# Record order


def test_tape_topological_order_and_replay_idempotence():
    rng = np.random.default_rng(5)
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [3, 5, 2], rng)
    x = rng.standard_normal((3, 4))
    mix = rng.standard_normal((2, 4))
    tape = dc.Tape()
    out = dc.mlp_forward(params, [3, 5, 2], "net", x, tape=tape)
    # records in forward order, each layer's input the last one's output
    assert [r.key for r in tape.nodes] == ["net/L0", "net/L1"]
    assert tape.nodes[1].parts[0] is tape.nodes[0].out
    out_before = out.copy()
    dc.mlp_backward(tape, params.grads, 2, mix)
    # forward -> backward -> forward again on a fresh tape: the reverse pass
    # leaves parameters and inputs alone, so the second forward is bit-identical
    tape2 = dc.Tape()
    out2 = dc.mlp_forward(params, [3, 5, 2], "net", x, tape=tape2)
    assert np.array_equal(out2, out_before)
    with pytest.raises(dc.ContractError, match="DenseRecord"):
        tape.take(dc.DenseRecord)  # the reverse pass took every record


def test_forward_and_gradients_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(123)
        params = dc.ParameterSet()
        dc.mlp_init(params, "net", [4, 4, 1], rng)
        x = rng.standard_normal((4, 6))
        mix = rng.standard_normal((1, 6))
        tape = dc.Tape()
        out = dc.mlp_forward(params, [4, 4, 1], "net", x, tape=tape)
        assert [r.key for r in tape.nodes] == ["net/L0", "net/L1"]
        dc.mlp_backward(tape, params.grads, 2, mix)
        return (out.copy(),
                {p: g.copy() for p, g in params.grads.items()})

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2)
    for pid in g1:
        assert np.array_equal(g1[pid], g2[pid])


def test_untaped_operations_evaluate_eagerly():
    a = np.array([[1.0], [2.0]])
    clipped = dc.clip(a, 0.0, 1.5)
    grouped = dc.regroup(clipped, 0, 2, 2)  # packed (n=2, B=1, q=1)
    out = dc.route([grouped.transpose(2, 0, 1)], np.array([[2.0, 1.0]]))
    assert np.array_equal(grouped, [[[1.0]], [[1.5]]])
    assert np.array_equal(out, [[[3.5]]])
    # on a tape only the clamp records: route and regroup read constants
    tape = dc.Tape()
    dc.route([dc.regroup(dc.clip(a, 0.0, 1.5, tape), 0, 2, 2).transpose(
        2, 0, 1)], np.array([[2.0, 1.0]]))
    assert [type(r) for r in tape.nodes] == [dc.ClipRecord]
