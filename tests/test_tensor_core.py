import ast
import gc
import inspect
import math
import re
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sublayer_lab import tensor_core as tc
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.model import ModelConfig, build_model, forward
from sublayer_lab.tensor_core import (
    OptimizerState,
    Tape,
    Tensor,
    adam_step,
    backward,
    cross_entropy_loss,
    dropout,
    finite_difference_check,
    layer_norm,
    matmul,
    no_grad,
    sum_all,
)
from tape_ops import mean_all, mul, relu, reshape, scale, softmax_rows, sub


def rand(*shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


# -- matmul -------------------------------------------------------------------


def test_matmul_identity_and_hand_case():
    x = Tensor(rand(3, 4, seed=1))
    eye = Tensor(np.eye(3))
    assert np.array_equal(matmul(eye, x).data, x.data)
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))
    with pytest.raises(ValueError):
        matmul(Tensor(rand(3)), Tensor(rand(3, 2)))


def test_matmul_gradient_vs_finite_differences():
    b_fixed = rand(5, 3, seed=2)
    w = rand(4, 3, seed=3)

    def f_a(a):
        return sum_all(mul(matmul(a, Tensor(b_fixed)), Tensor(w)))

    err = finite_difference_check(f_a, Tensor(rand(4, 5, seed=4)))
    assert err < 1e-6

    a_fixed = rand(4, 5, seed=5)

    def f_b(b):
        return sum_all(mul(matmul(Tensor(a_fixed), b), Tensor(w)))

    assert finite_difference_check(f_b, Tensor(rand(5, 3, seed=6))) < 1e-6


def test_matmul_batched_gradient():
    w2d = rand(4, 3, seed=8)
    pick = rand(2, 5, 3, seed=9)

    def f(a):
        return sum_all(mul(matmul(a, Tensor(w2d)), Tensor(pick)))

    assert finite_difference_check(f, Tensor(rand(2, 5, 4, seed=10))) < 1e-6

    a_batched = rand(2, 5, 4, seed=11)

    def f_w(w):
        return sum_all(mul(matmul(Tensor(a_batched), w), Tensor(pick)))

    assert finite_difference_check(f_w, Tensor(rand(4, 3, seed=12))) < 1e-6


# -- softmax -------------------------------------------------------------------


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax_rows(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)
    big = softmax_rows(Tensor([1000.0, 1000.0])).data
    assert np.all(np.isfinite(big)) and np.allclose(big, [0.5, 0.5], atol=1e-15)


def test_softmax_causal_mask_support():
    x = Tensor(rand(4, 4, seed=20))
    mask = np.tril(np.ones((4, 4), dtype=bool))
    p = softmax_rows(x, mask).data
    for i in range(4):
        assert np.count_nonzero(p[i]) == i + 1
        assert np.all(p[i, i + 1 :] == 0.0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_softmax_fully_masked_row_raises():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        softmax_rows(Tensor(rand(2, 2, seed=21)), mask)


def test_softmax_gradient():
    w = rand(3, 5, seed=22)

    def f(x):
        return sum_all(mul(softmax_rows(x), Tensor(w)))

    assert finite_difference_check(f, Tensor(rand(3, 5, seed=23))) < 1e-6

    mask = np.tril(np.ones((5, 5), dtype=bool))
    w2 = rand(5, 5, seed=24)

    def fm(x):
        return sum_all(mul(softmax_rows(x, mask), Tensor(w2)))

    assert finite_difference_check(fm, Tensor(rand(5, 5, seed=25))) < 1e-6


# -- layer norm ------------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    g, b = Tensor(np.ones(6)), Tensor(np.zeros(6))
    out = layer_norm(Tensor(np.full((2, 6), 3.7)), g, b)
    assert np.abs(out.data).max() < 1e-10


def test_layer_norm_already_normalized():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = layer_norm(Tensor([1.0, -1.0]), g, b).data
    assert np.allclose(out, [1.0, -1.0], atol=1e-5)


def test_layer_norm_moments_and_shift_invariance():
    x = rand(8, 32, seed=30, scale=50.0)
    g, b = Tensor(np.ones(32)), Tensor(np.zeros(32))
    out = layer_norm(Tensor(x), g, b).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-12
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6
    shifted = layer_norm(Tensor(x + 123.0), g, b).data
    assert np.abs(shifted - out).max() < 1e-10


def test_layer_norm_gradients():
    w = rand(3, 8, seed=31)
    gain = rand(8, seed=32) + 2.0
    bias = rand(8, seed=33)

    def fx(x):
        return sum_all(mul(layer_norm(x, Tensor(gain), Tensor(bias)), Tensor(w)))

    assert finite_difference_check(fx, Tensor(rand(3, 8, seed=34))) < 1e-6

    x_fixed = rand(3, 8, seed=35)

    def fg(g):
        return sum_all(mul(layer_norm(Tensor(x_fixed), g, Tensor(bias)), Tensor(w)))

    assert finite_difference_check(fg, Tensor(gain.copy())) < 1e-6

    def fb(b):
        return sum_all(mul(layer_norm(Tensor(x_fixed), Tensor(gain), b), Tensor(w)))

    assert finite_difference_check(fb, Tensor(bias.copy())) < 1e-6


# -- cross entropy ------------------------------------------------------------------


def test_cross_entropy_uniform_and_confident():
    logits = Tensor(np.zeros((4, 27)))
    loss = cross_entropy_loss(logits, np.array([0, 5, 11, 26]))
    assert abs(float(loss.data) - math.log(27)) < 1e-12

    peaked = np.zeros((1, 8))
    peaked[0, 3] = 1000.0
    assert float(cross_entropy_loss(Tensor(peaked), np.array([3])).data) < 1e-12


def test_cross_entropy_against_independent_oracle():
    rng = np.random.default_rng(40)
    logits = rng.normal(size=(5, 11)) * 3
    targets = rng.integers(0, 11, size=5)
    # independent formula: -z[t] + log(sum(exp(z))) averaged, in plain python
    expected = 0.0
    for row, t in zip(logits, targets):
        expected += -row[t] + math.log(math.fsum(math.exp(v) for v in row))
    expected /= 5
    got = float(cross_entropy_loss(Tensor(logits), targets).data)
    assert abs(got - expected) < 1e-10


def test_cross_entropy_errors_and_gradient():
    with pytest.raises(ValueError):
        cross_entropy_loss(Tensor(np.zeros((2, 4))), np.array([0, 4]))
    with pytest.raises(ValueError):
        cross_entropy_loss(Tensor(np.zeros((2, 4))), np.array([0, -1]))

    targets = np.array([[1, 0], [2, 3]])

    def f(x):
        return cross_entropy_loss(x, targets)

    assert finite_difference_check(f, Tensor(rand(2, 2, 4, seed=41))) < 1e-6


# -- backward / tape ------------------------------------------------------------------


def test_backward_sum_and_square():
    x = Tensor(rand(4, 3, seed=50))
    with Tape() as tape:
        loss = sum_all(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((4, 3)))

    y = Tensor(rand(5, seed=51))
    with Tape() as tape:
        loss = sum_all(mul(y, y))
    backward(loss, tape)
    assert np.allclose(y.grad, 2 * y.data, atol=1e-15)


def test_backward_requires_scalar_and_tape():
    x = Tensor(rand(3, seed=52))
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)
    z = Tensor(rand(3, seed=53))
    with pytest.raises(ValueError):
        backward(z, Tape())  # never recorded


def test_backward_leaves_unreachable_grads_untouched():
    used = Tensor(rand(3, seed=54))
    unused = Tensor(rand(3, seed=55))
    with Tape() as tape:
        loss = sum_all(mul(used, used))
        _dead_end = mul(unused, unused)  # on tape but not feeding the loss
    backward(loss, tape)
    assert used.grad is not None
    assert unused.grad is None


def test_backward_is_deterministic():
    def run():
        x = Tensor(rand(6, 6, seed=56))
        w = Tensor(rand(6, 6, seed=57))
        with Tape() as tape:
            h = relu(matmul(x, w))
            loss = mean_all(mul(h, h))
        backward(loss, tape)
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_ops_outside_tape_do_not_record():
    x = Tensor(rand(3, seed=58))
    with Tape() as tape:
        pass
    loss = sum_all(mul(x, x))
    assert tape.nodes == []
    with pytest.raises(ValueError, match="or on none"):
        backward(loss, tape)


def test_composite_gradient():
    w1 = rand(6, 6, seed=60)
    w2 = rand(6, 6, seed=61)
    gain, bias = np.ones(6), np.zeros(6)

    def f(x):
        h = layer_norm(x, Tensor(gain), Tensor(bias))
        h = relu(matmul(h, Tensor(w1)))
        h = matmul(h, Tensor(w2))
        p = softmax_rows(h)
        return mean_all(mul(p, p))

    assert finite_difference_check(f, Tensor(rand(4, 6, seed=62))) < 1e-4


# -- adam ------------------------------------------------------------------------------


def test_adam_zero_grad_keeps_params():
    p = Tensor(rand(4, seed=70))
    before = p.data.copy()
    adam_step([p], OptimizerState(lr=0.1))
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude():
    p = Tensor(np.zeros(5))
    p.grad = np.full(5, 3.3)
    state = OptimizerState(lr=1e-2)
    adam_step([p], state)
    # bias-corrected first step moves by ~lr in the gradient direction
    assert np.allclose(np.abs(p.data), 1e-2, rtol=1e-6)
    assert p.grad is None  # cleared


def quadratic_bowl_minimize(target, steps, lr=0.05):
    """Tiny convergence harness: minimize ||x - target||^2 with Adam."""
    x = Tensor(np.zeros_like(np.asarray(target, dtype=np.float64)))
    state = OptimizerState(lr=lr)
    loss_value = math.inf
    for _ in range(steps):
        with Tape() as tape:
            diff = sub(x, Tensor(target))
            loss = sum_all(mul(diff, diff))
        backward(loss, tape)
        adam_step([x], state)
        loss_value = float(loss.data)
        if loss_value < 1e-12:
            break
    return loss_value, x.data


def test_adam_quadratic_bowl_convergence():
    target = np.array([1.5, -2.0, 0.25, 3.0])
    loss, x = quadratic_bowl_minimize(target, steps=5000, lr=0.05)
    assert loss < 1e-6
    assert np.abs(x - target).max() < 1e-3


def reference_adam_step(params, state):
    """The textbook per-tensor Adam loop that the flat ``adam_step`` must match."""
    if state.m is None:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    state.step_count += 1
    b1, b2 = state.betas
    c1 = 1.0 - b1**state.step_count
    c2 = 1.0 - b2**state.step_count
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.grad = None


def test_flat_adam_matches_per_tensor_reference_bitwise():
    # sizes straddle ADAM_BLOCK so the update runs over several blocks
    shapes = [(3, 5), (7,), (), (tc.ADAM_BLOCK + 11,), (2, 3, 4), (tc.ADAM_BLOCK // 2,)]
    rng = np.random.default_rng(75)
    ref = [Tensor(rng.normal(size=s)) for s in shapes]
    flat = [Tensor(p.data.copy()) for p in ref]
    ref_state, flat_state = OptimizerState(lr=1e-2), OptimizerState(lr=1e-2)
    for step in range(6):
        for i, (a, b) in enumerate(zip(ref, flat)):
            if (i + step) % 3 == 0:
                continue  # a None grad counts as zeros
            a.grad = rng.normal(size=shapes[i])
            b.grad = a.grad.copy()
        if step == 3:
            # a caller rebinds one parameter: the next step re-packs
            new = rng.normal(size=shapes[1])
            ref[1].data, flat[1].data = new.copy(), new.copy()
        reference_adam_step(ref, ref_state)
        adam_step(flat, flat_state)
        for a, b in zip(ref, flat):
            assert b.grad is None
            assert b.data.shape == a.data.shape
            assert np.array_equal(a.data, b.data)
    assert flat_state.step_count == 6
    # after a step every parameter is a view into one buffer
    buffer = flat[0].data.base
    assert buffer is not None and all(p.data.base is buffer for p in flat)


def test_flat_adam_rejects_mismatched_parameter_lists():
    params = [Tensor(np.ones((2, 3))), Tensor(np.ones(4))]
    state = OptimizerState()
    adam_step(params, state)
    with pytest.raises(ValueError):
        adam_step(params[:1], state)
    with pytest.raises(ValueError):
        adam_step([params[0], Tensor(np.ones(5))], state)
    with pytest.raises(ValueError):
        adam_step([params[0], params[0]], OptimizerState())


# -- finite difference checker ------------------------------------------------------------


def test_fd_check_trivial_and_softmax_pick():
    assert finite_difference_check(sum_all, Tensor(rand(5, seed=80))) < 1e-9

    def pick(x):
        p = softmax_rows(x)
        w = np.zeros(x.data.shape)
        w[..., 1] = 1.0
        return sum_all(mul(p, Tensor(w)))

    assert finite_difference_check(pick, Tensor(rand(6, seed=81))) < 1e-6


def test_fd_check_detects_corrupted_backward():
    def bad_double(x):
        # deliberately wrong backward rule (claims gradient 3 instead of 2)
        out = Tensor(x.data * 2.0)
        return tc._record(out, (x,), lambda g: (g * 3.0,))

    def f(x):
        return sum_all(bad_double(x))

    assert finite_difference_check(f, Tensor(rand(4, seed=82))) > 1e-2


def test_fd_check_requires_scalar():
    with pytest.raises(ValueError):
        finite_difference_check(lambda x: mul(x, x), Tensor(rand(3, seed=83)))


# -- dropout -------------------------------------------------------------------------------


def test_dropout_identity_at_zero_rate():
    x = Tensor(rand(4, 4, seed=90))
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_masks_and_rescales():
    x = Tensor(np.ones((1000,)))
    out = dropout(x, 0.5, np.random.default_rng(1))
    kept = out.data != 0
    assert np.all(out.data[kept] == 2.0)
    assert 350 < kept.sum() < 650
    with pytest.raises(ValueError):
        dropout(x, 1.0, np.random.default_rng(2))


def test_every_op_passes_fd_sweep():
    """Each differentiable op, 10 random shapes/seeds, rel err < 1e-4."""
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x0 = rng.normal(size=(rows, cols))
        other = Tensor(rng.normal(size=(rows, cols)))
        w = Tensor(rng.normal(size=(cols, rows)))
        pick = Tensor(rng.normal(size=(rows, cols)))
        gain = Tensor(rng.normal(size=cols) + 2.0)
        bias = Tensor(rng.normal(size=cols))
        square = Tensor(rng.normal(size=(rows, rows)))
        ids = rng.integers(0, rows, size=(3, 4))
        targets = rng.integers(0, cols, size=rows)
        mask_rng_seed = int(rng.integers(0, 2**31))

        cases = {
            "add": lambda x: sum_all(mul(tc.add(x, other), pick)),
            "sub": lambda x: sum_all(mul(sub(x, other), pick)),
            "mul": lambda x: sum_all(mul(mul(x, other), pick)),
            "scale": lambda x: sum_all(mul(scale(x, -1.7), pick)),
            "matmul": lambda x: sum_all(mul(matmul(x, w), square)),
            "relu": lambda x: sum_all(mul(relu(x), pick)),
            "reshape": lambda x: sum_all(mul(reshape(x, (cols, rows)), Tensor(pick.data.T.copy()))),
            "swap_axes": lambda x: sum_all(mul(tc.swap_axes(x, 0, 1), Tensor(pick.data.T.copy()))),
            "embedding": lambda x: sum_all(tc.embedding(x, ids)),
            "slice_rows": lambda x: sum_all(tc.slice_rows(x, 1, rows - 1)),
            "sum_all": sum_all,
            "mean_all": mean_all,
            "softmax_rows": lambda x: sum_all(mul(softmax_rows(x), pick)),
            "layer_norm": lambda x: sum_all(mul(layer_norm(x, gain, bias), pick)),
            "cross_entropy": lambda x: cross_entropy_loss(x, targets),
            "dropout": lambda x: sum_all(
                mul(dropout(x, 0.4, np.random.default_rng(mask_rng_seed)), pick)
            ),
        }
        for name, f in cases.items():
            err = finite_difference_check(f, Tensor(x0.copy()))
            assert err < 1e-4, f"{name} rel err {err} at seed {seed}"


def test_no_grad_blocks_recording():
    x = Tensor(rand(3, seed=91))
    with Tape() as tape:
        with no_grad():
            y = mul(x, x)
        z = sum_all(x)
    assert [node.output for node in tape.nodes] == [z]
    backward(z, tape)
    assert np.array_equal(x.grad, np.ones(3))


# -- row ops ------------------------------------------------------------------------------------


def _weighted(out, seed):
    """A scalar that weights every element of ``out`` differently."""
    return sum_all(mul(out, Tensor(rand(*out.data.shape, seed=seed))))


def test_row_ops_slice_the_leading_axis_of_unstacked_3d_inputs():
    x0 = rand(5, 3, 2, seed=95)
    ids = np.array([[4, 0], [2, 2]])
    assert np.array_equal(tc.slice_rows(Tensor(x0), 1, 3).data, x0[1:4])
    assert np.array_equal(tc.embedding(Tensor(x0), ids).data, x0[ids])
    for f in (
        lambda x: _weighted(tc.slice_rows(x, 1, 3), 96),
        lambda x: _weighted(tc.embedding(x, ids), 97),
    ):
        assert finite_difference_check(f, Tensor(x0.copy())) < 1e-4


# -- fused ops ---------------------------------------------------------------------------------


def _reference_attention(xq, xkv, ws, heads, mask):
    """The primitive-op composition that ``attention`` fuses."""
    wq, wk, wv, wo, bq, bk, bv, bo = ws

    def split(x):
        *batch, t, d = x.shape
        return tc.swap_axes(reshape(x, (*batch, t, heads, d // heads)), -2, -3)

    def merge(x):
        x = tc.swap_axes(x, -2, -3)
        *batch, t, h, hd = x.shape
        return reshape(x, (*batch, t, h * hd))

    d = xq.shape[-1]
    q = split(tc.add(matmul(xq, wq), bq))
    k = split(tc.add(matmul(xkv, wk), bk))
    v = split(tc.add(matmul(xkv, wv), bv))
    scores = scale(matmul(q, tc.swap_axes(k, -1, -2)), 1.0 / math.sqrt(d // heads))
    probs = softmax_rows(scores, mask)
    out = tc.add(matmul(merge(matmul(probs, v)), wo), bo)
    return out, probs.data


def _run_with_grads(fn, inputs, pick):
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = fn()
        loss = sum_all(mul(out, pick))
    backward(loss, tape)
    return out.data, [t.grad for t in inputs]


def _attention_case(self_attn, layout, heads, masked, seed=0):
    rng = np.random.default_rng(seed)
    d, t, m = 8, 5, (5 if self_attn else 3)
    q_lead = () if layout == "unbatched" else (2,)
    kv_lead = (2,) if layout == "batched" else ()
    xq = Tensor(rng.normal(size=(*q_lead, t, d)))
    xkv = xq if self_attn else Tensor(rng.normal(size=(*kv_lead, m, d)))
    ws = [Tensor(rng.normal(size=(d, d)) * 0.5) for _ in range(4)]
    ws += [Tensor(rng.normal(size=d) * 0.1) for _ in range(4)]
    mask = np.tril(np.ones((t, m), dtype=bool)) if masked else None
    pick = Tensor(rng.normal(size=(*q_lead, t, d)))
    return xq, xkv, ws, mask, pick


ATTENTION_CASES = [
    (self_attn, layout, heads, masked)
    for self_attn, layouts in ((True, ("unbatched", "batched")), (False, ("unbatched", "batched", "shared_memory")))
    for layout in layouts
    for heads in (1, 2, 4)
    for masked in (False, True)
]


@pytest.mark.parametrize("self_attn,layout,heads,masked", ATTENTION_CASES)
def test_fused_attention_matches_primitive_composition(self_attn, layout, heads, masked):
    xq, xkv, ws, mask, pick = _attention_case(self_attn, layout, heads, masked)
    inputs = [xq] + ([] if self_attn else [xkv]) + ws
    captured, ref_captured = [], []

    def reference():
        out, probs = _reference_attention(xq, xkv, ws, heads, mask)
        ref_captured.append(probs)
        return out

    out, grads = _run_with_grads(
        lambda: tc.attention(xq, xkv, *ws, heads, mask, captured.append), inputs, pick
    )
    ref_out, ref_grads = _run_with_grads(reference, inputs, pick)
    assert np.abs(out - ref_out).max() < 1e-12
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() < 1e-10
    (probs,), (ref_probs,) = captured, ref_captured
    assert probs.shape == ref_probs.shape
    assert np.abs(probs - ref_probs).max() < 1e-12
    if masked:
        assert np.all(probs[..., ~mask] == 0.0)


@pytest.mark.parametrize("self_attn", [True, False])
def test_fused_attention_passes_fd_check(self_attn):
    xq, xkv, ws, mask, pick = _attention_case(self_attn, "batched", 2, True, seed=1)

    def via(x, xkv_of, ws_of):
        return sum_all(mul(tc.attention(x, xkv_of(x), *ws_of, 2, mask), pick))

    same = (lambda x: x) if self_attn else (lambda x: xkv)
    assert finite_difference_check(lambda x: via(x, same, ws), xq) < 1e-4
    for i in (0, 1, 2, 3, 4, 6, 7):  # not bk: softmax cancels it, its gradient is 0
        def f(w, i=i):
            return via(xq, same, ws[:i] + [w] + ws[i + 1 :])

        assert finite_difference_check(f, ws[i]) < 1e-4
    if not self_attn:
        assert finite_difference_check(
            lambda m: sum_all(mul(tc.attention(xq, m, *ws, 2, mask), pick)), xkv
        ) < 1e-4


def test_fused_attention_mask_errors():
    xq, xkv, ws, _, _ = _attention_case(True, "unbatched", 2, False)
    bad = np.tril(np.ones((5, 5), dtype=bool))
    bad[3] = False
    with pytest.raises(ValueError, match="fully masked"):
        tc.attention(xq, xkv, *ws, 2, bad)
    with pytest.raises(ValueError, match="mask shape"):
        tc.attention(xq, xkv, *ws, 2, np.ones((1, 5), dtype=bool))


@pytest.mark.parametrize("with_relu", [False, True])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_fused_linear_matches_primitive_composition(with_relu, lead):
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(*lead, 4, 6)))
    w, b = Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=5))
    pick = Tensor(rng.normal(size=(*lead, 4, 5)))
    fused = tc.linear_relu if with_relu else tc.linear

    def reference():
        y = tc.add(matmul(x, w), b)
        return relu(y) if with_relu else y

    out, grads = _run_with_grads(lambda: fused(x, w, b), [x, w, b], pick)
    ref_out, ref_grads = _run_with_grads(reference, [x, w, b], pick)
    assert np.abs(out - ref_out).max() < 1e-12
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() < 1e-10
    for i, t in enumerate((x, w, b)):
        def f(v, i=i):
            args = [x, w, b]
            args[i] = v
            return sum_all(mul(fused(*args), pick))

        assert finite_difference_check(f, Tensor(t.data.copy())) < 1e-4


def test_fused_linear_shape_errors():
    with pytest.raises(ValueError):
        tc.linear(Tensor(rand(3, 4)), Tensor(rand(5, 2)), Tensor(rand(2)))
    with pytest.raises(ValueError):
        tc.linear(Tensor(rand(3, 4)), Tensor(rand(4, 2)), Tensor(rand(3)))


# -- reference kernels ---------------------------------------------------------------
# The layer-norm and attention bodies as they were before the key-major softmax,
# kept as references: layer norm must match bit for bit, attention within the
# rounding of its sum over keys.


def _reference_reduce_to_shape(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _reference_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = centered * ivar

    def bwd(g):
        dxhat = g * gain
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx *= ivar
        dgain = _reference_reduce_to_shape(g * xhat, gain.shape)
        return dx, dgain, _reference_reduce_to_shape(g, bias.shape)

    return gain * xhat + bias, bwd


@pytest.mark.parametrize("shape", [(4, 16, 16), (64, 16, 16), (8, 32, 64), (12, 24)])
def test_layer_norm_is_bitwise_the_reference(shape):
    rng = np.random.default_rng(sum(shape))
    x, pick = Tensor(rng.normal(size=shape) * 3.0 + 1.0), Tensor(rng.normal(size=shape))
    gain, bias = Tensor(rng.normal(size=shape[-1])), Tensor(rng.normal(size=shape[-1]))
    out, grads = _run_with_grads(lambda: layer_norm(x, gain, bias), [x, gain, bias], pick)
    ref_out, ref_bwd = _reference_layer_norm(x.data, gain.data, bias.data)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_bwd(pick.data)):  # sum_all(mul(out, pick)) feeds back pick
        assert g.shape == ref.shape and np.array_equal(g, ref)


def _reference_fused_attention(xq, xkv, ws, heads, mask, self_attn):
    """Forward output, probabilities and backward of the last-axis softmax kernel."""
    wq, wk, wv, wo, bq, bk, bv, bo = ws
    d = wq.shape[0]
    t, m = xq.shape[-2], xkv.shape[-2]

    def split_heads(a, lead, length):
        return np.swapaxes(a.reshape(*lead, length, heads, -1), -2, -3)

    def merge_heads(a):
        return np.swapaxes(a, -2, -3).reshape(-1, a.shape[-3] * a.shape[-1])

    if self_attn:
        groups = ((xq, (wq, wk, wv), (bq, bk, bv)),)
    else:
        groups = ((xq, (wq,), (bq,)), (xkv, (wk, wv), (bk, bv)))
    projections, saved = [], []
    for x, w_group, b_group in groups:
        x2 = x.reshape(-1, d)
        w = np.concatenate(w_group, axis=1)
        y = x2 @ w
        y += np.concatenate(b_group)
        projections += [y[:, i * d : (i + 1) * d] for i in range(len(w_group))]
        saved.append((x.shape, x2, w, len(w_group)))
    q = split_heads(projections[0], xq.shape[:-2], t)
    k = split_heads(projections[1], xkv.shape[:-2], m)
    v = split_heads(projections[2], xkv.shape[:-2], m)
    scale = 1.0 / math.sqrt(d // heads)
    probs = np.matmul(q, np.swapaxes(k, -1, -2))
    probs *= scale
    if mask is not None:
        np.copyto(probs, -np.inf, where=~mask)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx2 = merge_heads(np.matmul(probs, v))
    y = ctx2 @ wo
    y += bo
    lead = probs.shape[:-3]

    def bwd(g):
        g2 = g.reshape(-1, d)
        gctx = split_heads(g2 @ wo.T, lead, t)
        gz = np.matmul(gctx, np.swapaxes(v, -1, -2))
        gz -= (gz * probs).sum(axis=-1, keepdims=True)
        gz *= probs
        gz *= scale
        gq = _reference_reduce_to_shape(np.matmul(gz, k), q.shape)
        gk = _reference_reduce_to_shape(np.matmul(np.swapaxes(gz, -1, -2), q), k.shape)
        gv = _reference_reduce_to_shape(np.matmul(np.swapaxes(probs, -1, -2), gctx), v.shape)
        gproj = [merge_heads(gq), merge_heads(gk), merge_heads(gv)]
        gxs, gws, gbs, i = [], [], [], 0
        for shape, x2, w, n in saved:
            gy = np.concatenate(gproj[i : i + n], axis=1)
            i += n
            gxs.append((gy @ w.T).reshape(shape))
            gw, gb = x2.T @ gy, gy.sum(axis=0)
            gws += [gw[:, j * d : (j + 1) * d] for j in range(n)]
            gbs += [gb[j * d : (j + 1) * d] for j in range(n)]
        return (*gxs, *gws, ctx2.T @ g2, *gbs, g2.sum(axis=0))

    return y.reshape(*lead, t, d), probs, bwd


REFERENCE_ATTENTION_CASES = [
    (self_attn, layout, heads, masked, t)
    for self_attn, layout in (
        (True, "unbatched"), (True, "batched"),
        (False, "unbatched"), (False, "batched"), (False, "shared_memory"),
    )
    for heads in (1, 2, 4)
    for masked in (False, True)
    for t in (1, 7, 16, 32)
]


@pytest.mark.parametrize("self_attn,layout,heads,masked,t", REFERENCE_ATTENTION_CASES)
def test_attention_matches_the_last_axis_reference(self_attn, layout, heads, masked, t):
    rng = np.random.default_rng(1000 + t + 10 * heads)
    d, m = 16, (t if self_attn else 5)
    q_lead = () if layout == "unbatched" else (3,)
    kv_lead = (3,) if layout == "batched" else ()
    xq = Tensor(rng.normal(size=(*q_lead, t, d)))
    xkv = xq if self_attn else Tensor(rng.normal(size=(*kv_lead, m, d)))
    ws = [Tensor(rng.normal(size=(d, d)) * 0.5) for _ in range(4)]
    ws += [Tensor(rng.normal(size=d) * 0.1) for _ in range(4)]
    mask = np.tril(np.ones((t, m), dtype=bool)) if masked else None
    pick = Tensor(rng.normal(size=(*q_lead, t, d)))
    inputs = [xq] + ([] if self_attn else [xkv]) + ws
    captured = []
    out, grads = _run_with_grads(
        lambda: tc.attention(xq, xkv, *ws, heads, mask, captured.append), inputs, pick
    )
    ref_out, ref_probs, ref_bwd = _reference_fused_attention(
        xq.data, xkv.data, [w.data for w in ws], heads, mask, self_attn
    )
    ref_grads = ref_bwd(pick.data)

    def close(a, ref):  # relative to the largest entry; exact where that is 0 (one key)
        return np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()

    assert out.shape == ref_out.shape and close(out, ref_out)
    names = ["x"] + ([] if self_attn else ["memory"]) + ["wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"]
    for name, g, ref in zip(names, grads, ref_grads, strict=True):
        assert g.shape == ref.shape, name
        if name == "bk":  # its true gradient is 0: rounding noise on the scale of bq's
            bq_scale = np.abs(ref_grads[names.index("bq")]).max()
            assert np.abs(g - ref).max() <= 1e-13 * bq_scale, name
        else:
            assert close(g, ref), name
    (probs,) = captured
    assert probs.shape == ref_probs.shape and np.abs(probs - ref_probs).max() < 1e-13
    if masked:
        assert np.all(probs[..., ~mask] == 0.0)


# -- backward consumes its tape ------------------------------------------------------------


def reference_backward(loss, tape):
    """The backward loop that keeps the whole tape alive, which the consuming
    ``backward`` must match bit for bit."""
    one = np.ones((), dtype=np.float64)
    loss.grad = one if loss.grad is None else loss.grad + one
    for node in reversed(tape.nodes):
        out_grad = node.output.grad
        if out_grad is None:
            continue
        for tensor, g in zip(node.inputs, node.backward_fn(out_grad)):
            if g is None:
                continue
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def test_a_consumed_tape_raises():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        z = sum_all(mul(x, x))
    backward(z, tape)
    assert np.array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(ValueError, match="already consumed by backward"):
        backward(z, tape)
    assert np.array_equal(x.grad, [2.0, 4.0])  # nothing propagated twice
    with tape:  # recording more on it does not make it usable again
        w = sum_all(mul(z, z))
    with pytest.raises(ValueError, match="already consumed by backward"):
        backward(w, tape)


def test_a_loss_from_another_tape_raises():
    x = Tensor([1.0, 2.0])
    with Tape() as tape1:
        z = sum_all(mul(x, x))
    tape2 = Tape()
    with pytest.raises(ValueError, match="recorded on another tape"):
        backward(z, tape2)
    assert not tape2._consumed and z.grad is None and x.grad is None
    backward(z, tape1)
    assert np.array_equal(x.grad, [2.0, 4.0])
    leaf = Tensor(3.0)  # recorded on no tape
    with pytest.raises(ValueError, match="recorded on another tape or on none"):
        backward(leaf, Tape())
    assert leaf.grad is None


def _model_config(ordering="sfsf", d=16, context=8, **kw):
    decoder = "c" in ordering
    return ModelConfig(
        d=d, heads=4, vocab=13, context=context,
        ordering=parse_ordering(ordering, decoder_mode=decoder), **kw,
    )


def _recorded_step(cfg, batch=2, seed=0):
    """One training step of a fresh model, recorded but not yet backpropagated:
    (model, memory or None, loss, tape)."""
    model = build_model(cfg, rng_seed=seed)
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, cfg.vocab, size=(batch, cfg.context + 1))
    memory = Tensor(rng.normal(size=(batch, 5, cfg.d))) if cfg.ordering.decoder_mode else None
    with Tape() as tape:
        logits = forward(model, toks[:, :-1], memory=memory, dropout_rng=np.random.default_rng(seed + 1))
        loss = cross_entropy_loss(logits, toks[:, 1:])
    return model, memory, loss, tape


GRADIENT_CASES = {
    "pre-norm": {},
    "post-norm": dict(pre_norm=False),
    "dropout": dict(dropout=0.1),
    "untied": dict(tie_embeddings=False),
    "decoder-scfscf": dict(ordering="scfscf"),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_consuming_backward_matches_the_reference_bitwise(case):
    grads = []
    for run in (reference_backward, backward):
        model, memory, loss, tape = _recorded_step(_model_config(**GRADIENT_CASES[case]))
        run(loss, tape)
        leaves = model.parameters() + ([memory] if memory is not None else [])
        grads.append([t.grad for t in leaves])
    ref, got = grads
    assert len(ref) == len(got)
    for i, (a, b) in enumerate(zip(ref, got)):
        if a is None:  # a post-norm stack does not use its final norm
            assert b is None and case == "post-norm", i
        else:
            assert b is not None and a.shape == b.shape and np.array_equal(a, b), i


def test_backward_frees_later_nodes_before_the_first_runs():
    _, _, loss, tape = _recorded_step(_model_config("sfsf", dropout=0.1))
    # the root stays alive in the caller; every other later output must be gone
    later = [weakref.ref(node.output.data) for node in tape.nodes[1:-1]]
    first = tape.nodes[0]
    first_fn = first.backward_fn
    alive_then = []

    def first_backward(g):
        alive_then.append([i + 1 for i, ref in enumerate(later) if ref() is not None])
        return first_fn(g)

    first.backward_fn = first_backward
    del first
    gc.disable()  # freed by reference counts alone
    try:
        backward(loss, tape)
    finally:
        gc.enable()
    assert alive_then == [[]]


def test_backward_keeps_the_tape_length_and_clears_non_leaf_grads():
    model, _, loss, tape = _recorded_step(_model_config("sfsf"))
    outputs = [node.output for node in tape.nodes]
    backward(loss, tape)
    assert len(tape.nodes) == len(outputs)
    assert all(t.grad is None for t in outputs)
    assert all(p.grad is not None for p in model.parameters())


def test_backward_peak_memory_stays_near_what_forward_holds():
    cfg = _model_config("sfsfsfsf", d=32, context=32)
    model = build_model(cfg, rng_seed=0)
    toks = np.random.default_rng(0).integers(0, cfg.vocab, size=(8, cfg.context + 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = cross_entropy_loss(forward(model, toks[:, :-1]), toks[:, 1:])
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a backward that keeps the tape alive until it ends peaks at about 1.54x
    assert peak <= 1.3 * held, (peak, held)


# -- fixed constants and per-thread state -------------------------------------


def test_the_numerical_constants_are_fixed_not_parameters():
    state = OptimizerState()
    assert state.betas == (0.9, 0.999) and state.eps == 1e-8 and tc.LAYER_NORM_EPS == 1e-5
    for fn, names in (
        (OptimizerState, ["lr"]),
        (layer_norm, ["x", "gain", "bias"]),
        (finite_difference_check, ["f", "x"]),
    ):
        assert list(inspect.signature(fn).parameters) == names


def test_a_tape_open_in_one_thread_does_not_record_another_threads_ops():
    seen = []

    def other_thread():
        y = mul(Tensor([2.0]), Tensor([3.0]))
        seen.append((list(tc._LOCAL.tapes), tc._LOCAL.pool, y.data.tolist()))

    with Tape() as tape:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert tc._LOCAL.tapes == [tape]
    assert seen == [([], None, [6.0])] and tape.nodes == [] and tc._LOCAL.tapes == []


# -- public surface ---------------------------------------------------------------------


def _names_taken_from_tensor_core(path: Path) -> set[str]:
    """Names a module imports from ``tensor_core`` or reads as attributes of
    the module itself, found by parsing: a name in a string does not count."""
    names, aliases = set(), set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.module or "").split(".")[-1] == "tensor_core":
            names.update(a.name for a in node.names)
        else:  # from . import tensor_core [as tc]
            aliases.update(a.asname or a.name for a in node.names if a.name == "tensor_core")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return names


def test_every_public_tensor_core_name_is_used_or_documented():
    """What ``tensor_core`` exports is run by another package module, imported
    by the acceptance tests, or named in backticks in README: an op that only
    tests call belongs with the tests."""
    root = Path(tc.__file__).resolve().parent
    used = _names_taken_from_tensor_core(Path(__file__).parent / "test_acceptance.py")
    for path in root.glob("*.py"):
        if path.name != "tensor_core.py":
            used |= _names_taken_from_tensor_core(path)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    spans = [
        span for line in readme.splitlines() if not line.lstrip().startswith("```")
        for span in re.findall(r"`([^`]+)`", line)
    ]
    unused = [
        name for name in tc.__all__
        if name not in used and not any(re.search(rf"\b{name}\b", span) for span in spans)
    ]
    assert unused == []
