import math

import numpy as np
import pytest

from sublayer_lab import tensor_core as tc
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
    mean_all,
    mul,
    no_grad,
    relu,
    softmax_rows,
    sum_all,
)


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
        backward(z)  # never recorded


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
    y = mul(x, x)
    assert y.tape is None


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
            diff = tc.sub(x, Tensor(target))
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
            "sub": lambda x: sum_all(mul(tc.sub(x, other), pick)),
            "mul": lambda x: sum_all(mul(mul(x, other), pick)),
            "scale": lambda x: sum_all(mul(tc.scale(x, -1.7), pick)),
            "matmul": lambda x: sum_all(mul(matmul(x, w), square)),
            "relu": lambda x: sum_all(mul(relu(x), pick)),
            "reshape": lambda x: sum_all(mul(tc.reshape(x, (cols, rows)), Tensor(pick.data.T.copy()))),
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
    assert y.tape is None
    assert len(tape.nodes) == 1
    backward(z, tape)
    assert np.array_equal(x.grad, np.ones(3))


# -- fused ops ---------------------------------------------------------------------------------


def _reference_attention(xq, xkv, ws, heads, mask):
    """The primitive-op composition that ``attention`` fuses."""
    wq, wk, wv, wo, bq, bk, bv, bo = ws

    def split(x):
        *batch, t, d = x.shape
        return tc.swap_axes(tc.reshape(x, (*batch, t, heads, d // heads)), -2, -3)

    def merge(x):
        x = tc.swap_axes(x, -2, -3)
        *batch, t, h, hd = x.shape
        return tc.reshape(x, (*batch, t, h * hd))

    d = xq.shape[-1]
    q = split(tc.add(matmul(xq, wq), bq))
    k = split(tc.add(matmul(xkv, wk), bk))
    v = split(tc.add(matmul(xkv, wv), bv))
    scores = tc.scale(matmul(q, tc.swap_axes(k, -1, -2)), 1.0 / math.sqrt(d // heads))
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
