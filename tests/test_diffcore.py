"""Tensor engine tests: forward semantics, reverse-mode gradients against
central finite differences, Adam, serialization, tape order and
run-to-run determinism."""

import json

import numpy as np
import pytest

from gridmpnn import diffcore as dc


def _fd_check(build_loss, params, step=1e-5, floor=1e-6):
    """Analytic gradients via one taped backward, then the central-difference
    oracle over every parameter entry."""
    tape = dc.Tape()
    loss = build_loss(tape)
    dc.backward(tape, loss)
    analytic = {pid: params.grads[pid].copy() for pid in params.ids()}
    params.zero_grads()

    def loss_value():
        return float(build_loss(None).data)

    return dc.gradient_check(loss_value, params, analytic, step=step, floor=floor)


# ---------------------------------------------------------------------------
# MLP forward


def test_mlp_zero_weights_gives_zero_output():
    params = dc.ParameterSet()
    for i, (w, b) in enumerate(dc.mlp_layer_param_ids("net", [3, 4, 2])):
        params.add(w, np.zeros((3 if i == 0 else 4, 4 if i == 0 else 2)))
        params.add(b, np.zeros(4 if i == 0 else 2))
    out = dc.mlp_forward(params, [3, 4, 2], np.array([[0.3, -1.2, 2.0]]), "net")
    assert np.array_equal(out.data, np.zeros((1, 2)))


def test_mlp_single_linear_layer_is_identity_map():
    params = dc.ParameterSet()
    params.add("net/L0/W", np.array([[1.0]]))
    params.add("net/L0/b", np.array([0.0]))
    out = dc.mlp_forward(params, [1, 1], np.array([[0.7]]), "net")
    assert out.data[0, 0] == pytest.approx(0.7)


def test_mlp_two_layer_tanh_of_zero_is_zero():
    params = dc.ParameterSet()
    params.add("net/L0/W", np.array([[1.0]]))
    params.add("net/L0/b", np.array([0.0]))
    params.add("net/L1/W", np.array([[1.0]]))
    params.add("net/L1/b", np.array([0.0]))
    out = dc.mlp_forward(params, [1, 1, 1], np.array([[0.0]]), "net")
    assert out.data[0, 0] == 0.0


def test_mlp_shape_mismatch_names_layer():
    params = dc.ParameterSet()
    rng = np.random.default_rng(0)
    dc.mlp_init(params, "net", [3, 4, 2], rng)
    with pytest.raises(dc.ShapeError, match="layer 0"):
        dc.mlp_forward(params, [3, 4, 2], np.zeros((5, 7)), "net")


def test_mlp_missing_parameters_error():
    params = dc.ParameterSet()
    with pytest.raises(dc.ContractError, match="layer 0"):
        dc.mlp_forward(params, [2, 2], np.zeros((1, 2)), "net")


def test_mlp_init_ranges():
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [10, 20], np.random.default_rng(1))
    a = np.sqrt(6.0 / 30.0)
    w = params.values["net/L0/W"]
    assert w.shape == (10, 20)
    assert np.all(np.abs(w) <= a)
    assert np.array_equal(params.values["net/L0/b"], np.zeros(20))


# ---------------------------------------------------------------------------
# backward


def test_backward_linear_gradient():
    params = dc.ParameterSet()
    params.add("w", np.array([[2.0]]))
    tape = dc.Tape()
    x = tape.leaf(np.array([[3.0]]))
    loss = dc.reduce_sum(dc.matmul(x, params.tensor(tape, "w")))
    dc.backward(tape, loss)
    assert params.grads["w"][0, 0] == pytest.approx(3.0)


def test_backward_tanh_prime_at_zero():
    params = dc.ParameterSet()
    params.add("w", np.array([0.0]))
    tape = dc.Tape()
    loss = dc.reduce_sum(dc.tanh(params.tensor(tape, "w")))
    dc.backward(tape, loss)
    assert params.grads["w"][0] == pytest.approx(1.0)


def test_backward_requires_scalar_loss():
    params = dc.ParameterSet()
    params.add("w", np.ones(3))
    tape = dc.Tape()
    out = dc.tanh(params.tensor(tape, "w"))
    with pytest.raises(dc.ContractError, match="scalar"):
        dc.backward(tape, out)


def test_backward_unreachable_parameter_keeps_zero_gradient():
    params = dc.ParameterSet()
    params.add("used", np.array([1.5]))
    params.add("unused", np.array([2.5]))
    tape = dc.Tape()
    loss = dc.reduce_sum(dc.mul(params.tensor(tape, "used"),
                                params.tensor(tape, "used")))
    _ = params.tensor(tape, "unused")  # on the tape but not in the loss
    dc.backward(tape, loss)
    assert params.grads["used"][0] == pytest.approx(3.0)
    assert params.grads["unused"][0] == 0.0


def test_backward_random_mlp_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = dc.ParameterSet()
    dc.mlp_init(params, "net", [4, 6, 3], rng)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((5, 3))  # fixed mixing weights -> scalar loss

    def build(tape):
        out = dc.mlp_forward(params, [4, 6, 3], x, "net", tape=tape)
        return dc.reduce_sum(dc.mul(out, w))

    assert _fd_check(build, params) < 1e-4


OPS = {
    "add": lambda p, t: dc.add(p, np.array([[1.0, -2.0]])),
    "add_broadcast": lambda p, t: dc.add(p, np.array([3.0, -1.0])),
    "sub": lambda p, t: dc.sub(np.array([[2.0, 1.0]]), p),
    "neg": lambda p, t: dc.neg(p),
    "mul": lambda p, t: dc.mul(p, np.array([[0.5, -3.0]])),
    "scale": lambda p, t: dc.scale(p, -1.7),
    "tanh": lambda p, t: dc.tanh(p),
    "exp": lambda p, t: dc.exp(p),
    "clip": lambda p, t: dc.clip(p, -0.5, 0.5),
    "concat": lambda p, t: dc.concat([p, dc.mul(p, p)], axis=1),
    "slice": lambda p, t: dc.slice_(p, (slice(None), slice(0, 1))),
    "reshape": lambda p, t: dc.reshape(p, (2, 1)),
    "transpose": lambda p, t: dc.transpose(p, (1, 0)),
    "reduce_sum_axis": lambda p, t: dc.reduce_sum(p, axis=1, keepdims=True),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(7)
    params = dc.ParameterSet()
    params.add("p", rng.uniform(-0.4, 0.4, size=(1, 2)))
    mix = rng.standard_normal((4,))

    def build(tape):
        p = params.tensor(tape, "p")
        out = OPS[name](p, tape)
        flat = dc.reshape(out, (out.data.size,))
        return dc.reduce_sum(dc.mul(flat, mix[:out.data.size]))

    assert _fd_check(build, params) < 1e-4


def test_matmul_stacked_and_broadcast_gradients():
    rng = np.random.default_rng(3)
    params = dc.ParameterSet()
    params.add("w", rng.standard_normal((2, 3, 4)))  # stacked weights
    params.add("ws", rng.standard_normal((3, 4)))    # broadcast weights
    x = rng.standard_normal((2, 5, 3))
    mix = rng.standard_normal((2, 5, 4))

    def build(tape):
        a = dc.matmul(x, params.tensor(tape, "w"))
        b = dc.matmul(x, params.tensor(tape, "ws"))
        return dc.reduce_sum(dc.mul(dc.add(a, b), mix))

    assert _fd_check(build, params) < 1e-4


def test_gather_and_stack_gradients():
    # gather rows of a ParameterSet.stack block with repeated indices; the
    # finite differences perturb the per-id views of that block
    rng = np.random.default_rng(9)
    params = dc.ParameterSet()
    params.add("a", rng.standard_normal((3, 2)))
    params.add("b", rng.standard_normal((3, 2)))
    params.stack("ab", ["a", "b"], (3, 2))
    idx = np.array([0, 1, 1, 0, 1])
    mix = rng.standard_normal((5, 3, 2))

    def build(tape):
        g = dc.gather(params.tensor(tape, "ab"), idx)
        return dc.reduce_sum(dc.mul(g, mix))

    assert _fd_check(build, params) < 1e-4


def _three_mlps(seed=4, spec=(3, 5, 2)):
    params = dc.ParameterSet()
    rng = np.random.default_rng(seed)
    for prefix in ("m0", "m1", "m2"):
        dc.mlp_init(params, prefix, list(spec), rng)
    return params


def test_mlp_forward_stacked_matches_separate_mlps_with_one_leaf_per_block():
    spec = [3, 5, 2]
    stacked = _three_mlps()
    dc.mlp_stack(stacked, "blk", ["m0", "m1", "m2"], spec)
    separate = _three_mlps()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4, 3))
    mix = rng.standard_normal((3, 4, 2))
    tape = dc.Tape()
    out = dc.mlp_forward_stacked(stacked, spec, "blk", x, tape=tape)
    dc.backward(tape, dc.reduce_sum(dc.mul(out, mix)))
    leaves = sum(node.op == "param" for node in tape.nodes)
    assert leaves == 2 * (len(spec) - 1)
    for j, prefix in enumerate(("m0", "m1", "m2")):
        tape = dc.Tape()
        want = dc.mlp_forward(separate, spec, x[j], prefix, tape=tape)
        dc.backward(tape, dc.reduce_sum(dc.mul(want, mix[j])))
        assert np.allclose(out.data[j], want.data, rtol=0, atol=1e-14)
    for pid in separate.ids():
        assert np.allclose(stacked.grads[pid], separate.grads[pid],
                           rtol=0, atol=1e-13)


def test_stacked_ids_are_views_of_their_block():
    params = _three_mlps()
    text = params.to_json()
    dc.mlp_stack(params, "blk", ["m0", "m1", "m2"], [3, 5, 2])
    assert params.to_json() == text
    assert params.block_values["blk/L0/W"].shape == (3, 3, 5)
    assert params.block_values["blk/L0/b"].shape == (3, 1, 5)
    assert params.values["m1/L0/b"].shape == (5,)
    params.values["m1/L0/b"][2] = 7.0
    params.grads["m2/L1/W"][0, 1] = -3.0
    assert params.block_values["blk/L0/b"][1, 0, 2] == 7.0
    assert params.block_grads["blk/L1/W"][2, 0, 1] == -3.0
    params.zero_grads()
    assert params.grads["m2/L1/W"][0, 1] == 0.0
    with pytest.raises(dc.ContractError, match="standalone"):
        params.stack("again", ["m0/L0/W"], (3, 5))


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
    stacked = _three_mlps()
    dc.mlp_stack(stacked, "blk", ["m0", "m1"], [3, 5, 2])
    reference = _three_mlps()
    rng = np.random.default_rng(8)
    s_state, r_state = dc.AdamState(), dc.AdamState()
    for _ in range(4):
        for pid in reference.ids():
            g = rng.standard_normal(reference.grads[pid].shape)
            reference.grads[pid][...] = g
            stacked.grads[pid][...] = g
        dc.adam_step(stacked, s_state, lr=0.03)
        _reference_adam(reference, r_state, lr=0.03)
    for pid in reference.ids():
        assert np.array_equal(stacked.values[pid], reference.values[pid])
        assert not stacked.grads[pid].any()


def test_operations_on_different_tapes_rejected():
    t1, t2 = dc.Tape(), dc.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(dc.ContractError, match="tapes"):
        dc.add(a, b)


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


def test_parameter_serialization_roundtrip_is_bit_exact():
    rng = np.random.default_rng(11)
    params = dc.ParameterSet()
    params.add("a/L0/W", rng.standard_normal((3, 4)) * 1e-7)
    params.add("a/L0/b", np.array([1.0 / 3.0, -0.0, 2.0 ** -40]))
    params.add("z", rng.standard_normal((2, 2, 2)) * 1e9)
    text = params.to_json()
    back = dc.ParameterSet.from_json(text)
    assert back.ids() == params.ids()
    for pid in params.ids():
        assert params.values[pid].shape == back.values[pid].shape
        assert np.array_equal(params.values[pid], back.values[pid])
    # the JSON is a plain object with shape+values per parameter
    doc = json.loads(text)
    assert doc["a/L0/W"]["shape"] == [3, 4]


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
    tape = dc.Tape()
    out = dc.mlp_forward(params, [3, 5, 2], x, "net", tape=tape)
    loss = dc.reduce_sum(dc.mul(out, out))
    for nid, node in enumerate(tape.nodes):
        assert all(i < nid for i in node.inputs)
    out_before = out.data.copy()
    loss_before = loss.data.copy()
    dc.backward(tape, loss)
    # forward -> backward -> forward again on a fresh tape: the reverse pass
    # leaves parameters and inputs alone, so the second forward is bit-identical
    tape2 = dc.Tape()
    out2 = dc.mlp_forward(params, [3, 5, 2], x, "net", tape=tape2)
    loss2 = dc.reduce_sum(dc.mul(out2, out2))
    assert np.array_equal(out2.data, out_before)
    assert np.array_equal(loss2.data, loss_before)


def test_forward_and_gradients_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(123)
        params = dc.ParameterSet()
        dc.mlp_init(params, "net", [4, 4, 1], rng)
        x = rng.standard_normal((6, 4))
        tape = dc.Tape()
        out = dc.mlp_forward(params, [4, 4, 1], x, "net", tape=tape)
        loss = dc.reduce_sum(dc.mul(out, out))
        # creation order is a topological order
        for nid, node in enumerate(tape.nodes):
            assert all(i < nid for i in node.inputs)
        dc.backward(tape, loss)
        return (out.data.copy(), loss.data.copy(),
                {p: g.copy() for p, g in params.grads.items()})

    o1, l1, g1 = run()
    o2, l2, g2 = run()
    assert np.array_equal(o1, o2)
    assert np.array_equal(l1, l2)
    for pid in g1:
        assert np.array_equal(g1[pid], g2[pid])


def test_untaped_operations_evaluate_eagerly():
    a = dc.Tensor(np.array([1.0, 2.0]))
    out = dc.tanh(dc.add(a, 1.0))
    assert out.tape is None
    assert np.allclose(out.data, np.tanh([2.0, 3.0]))


def test_mlp_param_count():
    assert dc.mlp_param_count([8, 6]) == 54
    assert dc.mlp_param_count([8, 6, 8]) == 110
