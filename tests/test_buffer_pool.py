"""The training-step buffer pool: its reuse rule, its steady state and scope,
and pooled training bitwise against the unpooled loop."""

import contextlib
import platform
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from sublayer_lab import lm_harness as lm
from sublayer_lab import tensor_core as tc
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.model import ModelConfig, build_model, forward
from sublayer_lab.tensor_core import (
    OptimizerState,
    Tape,
    Tensor,
    adam_step,
    backward,
    buffer_pool,
    cross_entropy_loss,
)
from tape_ops import mul

# (d, heads, context, batch): search-d16-w2's and train-d64's training shapes
SHAPES = {"d16": (16, 2, 16, 4), "d64": (64, 4, 32, 8)}
VARIANTS = {
    "pre-norm": {},
    "post-norm": dict(pre_norm=False),
    "dropout": dict(dropout=0.1),
    "untied": dict(tie_embeddings=False, ffn_inner=24),
}


def _active_pool():
    return tc._LOCAL.pool


@pytest.fixture
def pool_everything(monkeypatch):
    """Let every op pool, so that small shapes exercise every site."""
    monkeypatch.setattr(tc, "POOL_MIN_SIZE", 1)


def reference_train_model(cfg, corpus):
    """``train_model``'s loop without a pool: (loss curve, valid_nats, model)."""
    model = build_model(cfg.model, rng_seed=lm.derive_seed(cfg.seed, 0, "model"))
    params = model.parameters()
    state = OptimizerState(lr=cfg.lr)
    rng = np.random.Generator(np.random.PCG64(lm.derive_seed(cfg.seed, 0, "batch")))
    drop_rng = np.random.Generator(np.random.PCG64(lm.derive_seed(cfg.seed, 0, "dropout")))
    curve = []
    for step in range(1, cfg.steps + 1):
        x, y = lm._sample_batch(rng, corpus.train_ids, cfg.context, cfg.batch_size)
        with Tape() as tape:
            loss = cross_entropy_loss(forward(model, x, dropout_rng=drop_rng), y)
        backward(loss, tape)
        adam_step(params, state)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            curve.append((step, float(loss.data)))
    del state, tape, loss
    return curve, lm.evaluate(model, corpus.valid_ids, cfg.context), model


def _train_config(corpus, shape, steps=6, **model_kw):
    d, heads, context, batch = SHAPES[shape]
    mc = ModelConfig(
        d=d, heads=heads, vocab=corpus.vocab_size, context=context,
        ordering=parse_ordering("ssfsfsff"), **model_kw,
    )
    return lm.TrainConfig(
        model=mc, steps=steps, batch_size=batch, context=context, lr=3e-3, seed=5,
        eval_interval=2,
    )


@pytest.mark.parametrize("floor", ["default", "every-op"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pooled_training_is_bitwise_the_unpooled_loop(bundled_corpus, monkeypatch, shape, variant, floor):
    if floor == "every-op":
        monkeypatch.setattr(tc, "POOL_MIN_SIZE", 1)
    cfg = _train_config(bundled_corpus, shape, **VARIANTS[variant])
    curve, valid_nats, ref = reference_train_model(cfg, bundled_corpus)
    record, got = lm.train_model(cfg, bundled_corpus)
    assert record.loss_curve == curve
    assert record.valid_nats == valid_nats
    for a, b in zip(ref.parameters(), got.parameters(), strict=True):
        assert np.array_equal(a.data, b.data)


def test_pooled_decoder_steps_are_bitwise_the_unpooled_ones(pool_everything):
    """``scfscf`` with memory: cross-attention projects its queries and its
    keys and values in two groups. Three steps, so later ones reuse buffers."""
    cfg = ModelConfig(
        d=16, heads=4, vocab=13, context=8,
        ordering=parse_ordering("scfscf", decoder_mode=True), dropout=0.1,
    )
    runs = []
    for pooled in (False, True):
        model = build_model(cfg, rng_seed=3)
        params, state = model.parameters(), OptimizerState(lr=1e-2)
        rng = np.random.default_rng(4)
        seen = []
        with buffer_pool() if pooled else contextlib.nullcontext():
            for _ in range(3):
                toks = rng.integers(0, cfg.vocab, size=(3, cfg.context + 1))
                memory = Tensor(rng.normal(size=(3, 5, cfg.d)))
                with Tape() as tape:
                    logits = forward(model, toks[:, :-1], memory=memory, dropout_rng=rng)
                    loss = cross_entropy_loss(logits, toks[:, 1:])
                backward(loss, tape)
                seen.append([loss.data.copy(), memory.grad.copy()] + [p.grad.copy() for p in params])
                adam_step(params, state)
        runs.append((seen, [p.data.copy() for p in params]))
    (ref_steps, ref_params), (got_steps, got_params) = runs
    for ref, got in zip(ref_steps + [ref_params], got_steps + [got_params], strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(ref, got, strict=True))


# -- the pool's contract ------------------------------------------------------------


def test_a_held_buffer_is_not_handed_out_until_released():
    with buffer_pool() as pool:
        held = pool.take((4, 6))  # held as an array
        view = pool.take((24,))[2:5]  # held only through a view of it
        for _ in range(3):  # each result is dropped at once, so one buffer serves all three
            out = pool.take((6, 4))
            assert not np.shares_memory(out, held) and not np.shares_memory(out, view)
            spare = out.ctypes.data
            del out
        assert pool.misses == 3
        assert not np.shares_memory(pool.take((24,), bool), held)  # dtype is part of the key
        addresses = {held.ctypes.data, view.base.ctypes.data, spare}
        del held, view
        reused = [pool.take((2, 12)) for _ in range(3)]  # released buffers come back reshaped
        assert {a.ctypes.data for a in reused} == addresses
        assert pool.misses == 4


def test_a_tensor_held_across_later_ops_keeps_its_values(pool_everything):
    with buffer_pool():
        x = Tensor(np.arange(6.0).reshape(2, 3))
        kept = tc.add(x, x)
        expected = kept.data.copy()
        for _ in range(4):
            tc.add(x, Tensor(np.ones((2, 3))))
        assert np.array_equal(kept.data, expected)


def test_a_broadcast_add_allocates_its_sum_and_reduces_both_gradients(pool_everything):
    """``add`` of [3, 1] and [4]: the sum's shape [3, 4] is not a's, so numpy
    allocates it; a's gradient sums over its size-1 axis, b's over the
    leading one, bitwise as with no pool."""
    rng = np.random.default_rng(7)
    a0, b0, w = rng.normal(size=(3, 1)), rng.normal(size=4), Tensor(rng.normal(size=(3, 4)))

    def weighted_sum(a, b):
        return tc.sum_all(mul(tc.add(a, b), w))

    def run(pooled):
        a, b = Tensor(a0.copy()), Tensor(b0.copy())
        with buffer_pool() if pooled else contextlib.nullcontext():
            with Tape() as tape:
                shape = tc.add(a, b).shape
                loss = weighted_sum(a, b)
            backward(loss, tape)
            err_a = tc.finite_difference_check(lambda x: weighted_sum(x, Tensor(b0)), Tensor(a0.copy()))
            err_b = tc.finite_difference_check(lambda x: weighted_sum(Tensor(a0), x), Tensor(b0.copy()))
        return shape, a.grad, b.grad, err_a, err_b

    shape, grad_a, grad_b, err_a, err_b = run(pooled=True)
    _, ref_a, ref_b, _, _ = run(pooled=False)
    assert shape == (3, 4)
    assert grad_a.shape == (3, 1) and grad_b.shape == (4,)
    assert np.array_equal(grad_a, ref_a) and np.array_equal(grad_b, ref_b)
    assert err_a < 1e-6 and err_b < 1e-6


@pytest.mark.parametrize("floor", ["default", "every-op"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_steps_after_the_first_allocate_no_buffer(monkeypatch, shape, floor):
    if floor == "every-op":
        monkeypatch.setattr(tc, "POOL_MIN_SIZE", 1)
    d, heads, context, batch = SHAPES[shape]
    cfg = ModelConfig(
        d=d, heads=heads, vocab=13, context=context, ordering=parse_ordering("ssfsfsff"),
        dropout=0.1, tie_embeddings=False,
    )
    model = build_model(cfg, rng_seed=0)
    params, state = model.parameters(), OptimizerState()
    rng = np.random.default_rng(1)
    misses = []
    with buffer_pool() as pool:
        for _ in range(4):
            toks = rng.integers(0, cfg.vocab, size=(batch, context + 1))
            with Tape() as tape:
                loss = cross_entropy_loss(forward(model, toks[:, :-1], dropout_rng=rng), toks[:, 1:])
            backward(loss, tape)
            adam_step(params, state)
            misses.append(pool.misses)
    assert misses == misses[:1] * 4
    # no op of a d=16 step reaches the default floor
    assert (misses[0] > 0) == (shape == "d64" or floor == "every-op")


def test_a_pool_is_seen_only_by_the_thread_that_entered_it(pool_everything):
    seen = []

    def other_thread():
        seen.append(_active_pool())
        for _ in range(3):
            tc.add(Tensor(np.ones(4)), Tensor(np.ones(4)))

    with buffer_pool() as pool:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == [None] and pool.misses == 0
        tc.add(Tensor(np.ones(4)), Tensor(np.ones(4)))
        assert pool.misses == 1
    assert _active_pool() is None


def test_no_pool_is_active_during_the_final_evaluation(bundled_corpus, monkeypatch):
    steps, evals = [], []
    real_forward, real_evaluate = lm.forward, lm.evaluate

    def spy_forward(*args, **kw):
        steps.append(_active_pool())
        return real_forward(*args, **kw)

    def spy_evaluate(*args):
        evals.append(_active_pool())
        return real_evaluate(*args)

    monkeypatch.setattr(lm, "forward", spy_forward)
    monkeypatch.setattr(lm, "evaluate", spy_evaluate)
    lm.train_model(_train_config(bundled_corpus, "d16", steps=3), bundled_corpus)
    # three training steps, then the evaluation's forwards
    assert len(steps) > 3 and all(p is not None for p in steps[:3])
    assert steps[3:] == [None] * (len(steps) - 3)
    assert evals == [None] and _active_pool() is None


def test_a_step_that_raises_leaves_no_pool_active(bundled_corpus, monkeypatch):
    pools = []
    real_forward = lm.forward

    def fails_at_step_3(*args, **kw):
        pools.append(_active_pool())
        if len(pools) == 3:
            raise RuntimeError("step 3 failed")
        return real_forward(*args, **kw)

    monkeypatch.setattr(lm, "forward", fails_at_step_3)
    with pytest.raises(RuntimeError, match="step 3 failed"):
        lm.train_model(_train_config(bundled_corpus, "d16", steps=5), bundled_corpus)
    assert len(pools) == 3 and all(p is not None for p in pools)
    assert _active_pool() is None


FAULTS_PER_STEP = textwrap.dedent(
    """
    import resource
    from sublayer_lab import lm_harness as lm
    from sublayer_lab.arch_dsl import parse_ordering
    from sublayer_lab.model import ModelConfig

    corpus = lm.load_corpus(lm.bundled_corpus_path())
    faults = []
    adam_step = lm.adam_step

    def counted(*args):
        adam_step(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    lm.adam_step = counted
    config = ModelConfig(d=64, heads=4, vocab=corpus.vocab_size, context=32,
                         ordering=parse_ordering("ssfsfsff"))
    lm.train_model(lm.TrainConfig(model=config, steps=22, batch_size=8, context=32), corpus)
    print((faults[21] - faults[1]) / 20)  # steps 3 to 22
    """
)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the fault counts follow glibc's allocator"
)
def test_d64_training_steps_do_not_page_fault():
    """Without buffer reuse, glibc returns each step's freed activations to
    the OS and the next step faults them in again: 825 faults a step for this
    training with glibc 2.36."""
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_STEP], capture_output=True, text=True,
        timeout=300, check=True,
    )
    per_step = float(done.stdout.split()[-1])
    assert per_step <= 300, per_step
