import ast
import dataclasses
import gc
import importlib
import importlib.util
import json
import math
import os
import shutil
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sublayer_lab import lm_harness as lm
from sublayer_lab.arch_dsl import (
    OrderingSpec,
    load_table_records,
    parse_ordering,
    sandwich,
    total_units,
)
from sublayer_lab.model import ModelConfig, build_model, forward
from sublayer_lab.tensor_core import OptimizerState, Tape, cross_entropy_loss, no_grad


def tiny_template(**kw):
    base = dict(d=16, heads=2, steps=8, batch_size=4, context=16, lr=1e-3, eval_interval=4)
    base.update(kw)
    return lm.TrainTemplate(**base)


TINY_TEXT = (
    "the quick brown fox jumps over the lazy dog; 0123456789! "
    "Pack my box with five dozen liquor jugs? "
) * 40


# -- corpus ---------------------------------------------------------------------


def test_load_corpus_text_splits():
    c = lm.load_corpus_text("abab", (0.5, 0.25, 0.25))
    assert (c.train_text, c.valid_text, c.test_text) == ("ab", "a", "b")
    assert c.charset == ("a", "b")
    assert c.vocab_size == 3


def test_unknown_chars_map_to_reserved_id():
    c = lm.load_corpus_text("aabb", (0.5, 0.25, 0.25))
    assert c.charset == ("a",)
    assert c.valid_text == "b"
    assert c.valid_ids.tolist() == [c.unknown_id]


def test_corpus_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        lm.load_corpus_text("abc", (0.5, 0.25, 0.1))
    with pytest.raises(ValueError):
        lm.load_corpus_text("", (0.8, 0.1, 0.1))
    for fractions in ((1.0, 0.0, math.nan), (math.nan, 0.5, 0.5)):
        with pytest.raises(ValueError, match="split fractions must be"):
            lm.load_corpus_text("abc" * 10, fractions)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        lm.load_corpus(empty)


def test_bundled_corpus_charset_size(bundled_corpus):
    assert 60 <= len(bundled_corpus.charset) <= 90
    assert len(bundled_corpus.train_text) > 50_000


def test_a_copy_of_the_package_under_another_name_reads_its_own_data(tmp_path):
    copy = tmp_path / "slab_copy"
    shutil.copytree(Path(lm.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "data" / "tables_1_2.jsonl").write_text(
        '{"ordering": "sf", "dev_ppl": 1.5, "source": "table1", "baseline": false}\n'
    )
    spec = importlib.util.spec_from_file_location(
        "slab_copy", copy / "__init__.py", submodule_search_locations=[str(copy)]
    )
    sys.modules["slab_copy"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(sys.modules["slab_copy"])
        copied_lm = importlib.import_module("slab_copy.lm_harness")
        copied_dsl = importlib.import_module("slab_copy.arch_dsl")
        corpus_path = copied_lm.bundled_corpus_path()
        records = copied_dsl.load_table_records()
    finally:
        for name in [n for n in sys.modules if n == "slab_copy" or n.startswith("slab_copy.")]:
            del sys.modules[name]
    assert corpus_path.resolve() == (copy / "data" / "corpus.txt").resolve()
    assert records == [{"ordering": "sf", "dev_ppl": 1.5, "source": "table1", "baseline": False}]


# -- evaluate --------------------------------------------------------------------


def test_evaluate_uniform_model_gives_log_vocab():
    alphabet = "".join(chr(ord("a") + i) for i in range(26)) + "01234"
    corpus = lm.load_corpus_text(alphabet * 8, (0.5, 0.25, 0.25))
    assert corpus.vocab_size == 32
    cfg = ModelConfig(
        d=8, heads=2, vocab=32, context=16, ordering=parse_ordering("sf")
    )
    model = build_model(cfg, 0)
    for p in model.parameters():
        p.data[:] = 0.0
    nats = lm.evaluate(model, corpus.valid_ids, context=16)
    assert abs(nats - math.log(32)) < 1e-12
    assert abs(nats / math.log(2) - 5.0) < 1e-12  # 5 bits per character


def test_evaluate_matches_training_loss_on_identical_batch():
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=16, heads=2, vocab=corpus.vocab_size, context=12,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 1)
    window = corpus.valid_ids[:13]
    with Tape():
        loss = cross_entropy_loss(forward(model, window[None, :-1]), window[None, 1:])
    nats = lm.evaluate(model, window, context=12)
    assert abs(float(loss.data) - nats) < 1e-12


def test_evaluate_each_char_predicted_once():
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("s"))
    model = build_model(cfg, 2)
    stream = corpus.valid_ids[:23]  # 4 full windows + tail of 3
    nats = lm.evaluate(model, stream, context=5)
    # independent accumulation window by window
    total, count = 0.0, 0
    for start in range(0, 22, 5):
        w = stream[start : start + 6]
        with Tape():
            l = cross_entropy_loss(forward(model, w[None, :-1]), w[None, 1:])
        total += float(l.data) * (w.size - 1)
        count += w.size - 1
    assert count == 22
    assert abs(nats - total / count) < 1e-12
    with pytest.raises(ValueError):
        lm.evaluate(model, stream[:1], context=5)


def one_forward_per_chunk(model, stream, context):
    """The reference for ``evaluate``: one unsliced forward per chunk of 64 windows."""
    starts = range(0, stream.size - 1, context)
    windows = [stream[s : s + context + 1] for s in starts]
    full = [w for w in windows if w.size == context + 1]
    tail = [w for w in windows if w.size != context + 1]
    total, chars = 0.0, 0
    with no_grad():
        for group in (full, tail):
            for off in range(0, len(group), 64):
                w = np.stack(group[off : off + 64])
                total += float(lm._target_nlls(forward(model, w[:, :-1]).data, w[:, 1:]).sum())
                chars += w[:, 1:].size
    return total / chars


@pytest.mark.parametrize("per_slice", [1, 3])
def test_evaluate_in_slices_is_bitwise_one_forward_per_chunk(monkeypatch, per_slice):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sfsf"))
    model = build_model(cfg, 4)
    stream = corpus.train_ids[: 66 * 5 + 1 + 3]  # 66 full windows and a tail of 3
    expected = one_forward_per_chunk(model, stream, 5)
    widest = max(3 * cfg.d, cfg.ffn_inner, cfg.heads * 5, cfg.vocab)
    monkeypatch.setattr(lm, "EVAL_FLOATS", per_slice * 5 * widest)
    monkeypatch.setattr(lm, "_cpu_count", lambda: 1)  # one thread, so the calls come in order
    sizes = []

    def counted(model, tokens):
        sizes.append(len(tokens))
        return forward(model, tokens)

    monkeypatch.setattr(lm, "forward", counted)
    assert lm.evaluate(model, stream, 5) == expected
    # chunks of 64 and 2 full windows, then the tail, each cut into slices
    chunks = [64, 2, 1]
    assert sizes == [min(per_slice, n - i) for n in chunks for i in range(0, n, per_slice)]


def test_evaluate_memory_is_bounded_by_its_slices(bundled_corpus, monkeypatch):
    cfg = ModelConfig(d=32, heads=8, vocab=bundled_corpus.vocab_size, context=64,
                      ordering=parse_ordering("sfsf"))
    model = build_model(cfg, 0)
    monkeypatch.setattr(lm, "_cpu_count", lambda: 2)
    # one chunk (no thread), then five chunks and a tail on two threads
    for stream in (bundled_corpus.valid_ids[: 64 * 64 + 1], bundled_corpus.train_ids[: 5 * 64 * 64 + 1 + 9]):
        expected = one_forward_per_chunk(model, stream, 64)
        tracemalloc.start()
        try:
            nats = lm.evaluate(model, stream, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nats == expected
        # one forward over all 64 windows peaks at about 24 MB; a thread's slice
        # of 4 windows, scored in place, at about 1.7 MB, so two threads stay under 6 MB
        assert peak < 6e6, peak


def _chunked_stream(corpus, chunks: int) -> np.ndarray:
    """``chunks - 1`` chunks of 64 windows of 5, the last of them 10 windows
    short, then a tail of 3: ``chunks`` chunks in all."""
    return corpus.train_ids[: ((chunks - 2) * 64 + 54) * 5 + 1 + 3]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_evaluate_on_threads_is_bitwise_one_forward_per_chunk(monkeypatch, cpus):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sfsf"))
    model = build_model(cfg, 4)
    stream = _chunked_stream(corpus, 5)
    expected = one_forward_per_chunk(model, stream, 5)
    widest = max(3 * cfg.d, cfg.ffn_inner, cfg.heads * 5, cfg.vocab)
    monkeypatch.setattr(lm, "EVAL_FLOATS", 7 * 5 * widest)  # slices of 7 windows
    monkeypatch.setattr(lm, "_cpu_count", lambda: cpus)
    threads = set()

    def spied(model, tokens):
        threads.add(threading.get_ident())
        return forward(model, tokens)

    monkeypatch.setattr(lm, "forward", spied)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        assert lm.evaluate(model, stream, 5) == expected
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == cpus


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_error_while_scoring_is_raised_in_the_caller_once_every_thread_joined(monkeypatch, cpus):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 4)
    # marker ids in chunks 1 and 2 (64 windows of 5 each), scored on different threads
    slow, fast = cfg.vocab - 1, cfg.vocab - 2
    stream = _chunked_stream(corpus, 5)
    stream = np.where(np.isin(stream, [slow, fast]), 0, stream)
    stream[1 * 64 * 5 + 7], stream[2 * 64 * 5 + 7] = slow, fast
    monkeypatch.setattr(lm, "_cpu_count", lambda: cpus)

    def fails_on_a_marked_chunk(model, tokens):
        if (tokens == slow).any():
            time.sleep(0.2)  # chunk 2 raises first, and the caller has no more chunks to score
            raise RuntimeError("chunk 1 failed")
        if (tokens == fast).any():
            raise RuntimeError("chunk 2 failed")
        return forward(model, tokens)

    monkeypatch.setattr(lm, "forward", fails_on_a_marked_chunk)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^chunk 1 failed$"):
        lm.evaluate(model, stream, 5)
    assert threading.active_count() == before


def test_a_thread_that_cannot_start_leaves_no_thread_running(monkeypatch):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 4)

    class Unstartable(threading.Thread):
        def start(self):
            if self.name == "evaluate-2":
                raise RuntimeError("can't start new thread")
            super().start()

    caller = threading.current_thread()

    def slow_off_the_caller(model, tokens):
        if threading.current_thread() is not caller:
            time.sleep(0.05)  # thread 1 is still scoring when the start fails
        return forward(model, tokens)

    monkeypatch.setattr(lm, "threading", types.SimpleNamespace(Thread=Unstartable))
    monkeypatch.setattr(lm, "forward", slow_off_the_caller)
    monkeypatch.setattr(lm, "_cpu_count", lambda: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        lm.evaluate(model, _chunked_stream(corpus, 5), 5)
    assert threading.active_count() == before


def test_a_one_chunk_stream_starts_no_thread(monkeypatch):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 4)
    monkeypatch.setattr(lm, "_cpu_count", lambda: 4)
    before, seen = threading.active_count(), []

    def spied(model, tokens):
        seen.append((threading.current_thread(), threading.active_count()))
        return forward(model, tokens)

    monkeypatch.setattr(lm, "forward", spied)
    lm.evaluate(model, corpus.train_ids[: 64 * 5 + 1], 5)
    assert seen == [(threading.current_thread(), before)]


@pytest.mark.parametrize("per_slice, slices", [(64, 3), (7, 12)], ids=["one_slice_a_chunk", "several_slices_a_chunk"])
def test_every_slice_is_scored_on_the_forwards_own_logits(monkeypatch, per_slice, slices):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 4)
    stream = corpus.train_ids[: 66 * 5 + 1 + 3]  # chunks of 64 and 2 full windows, then a tail
    expected = one_forward_per_chunk(model, stream, 5)
    widest = max(3 * cfg.d, cfg.ffn_inner, cfg.heads * 5, cfg.vocab)
    monkeypatch.setattr(lm, "EVAL_FLOATS", per_slice * 5 * widest)
    monkeypatch.setattr(lm, "_cpu_count", lambda: 1)
    outputs, scored, target_nlls = [], [], lm._target_nlls

    def spied_forward(model, tokens):
        out = forward(model, tokens)
        outputs.append(out.data)
        return out

    def spied_target_nlls(logits, targets):
        scored.append(logits)
        return target_nlls(logits, targets)

    monkeypatch.setattr(lm, "forward", spied_forward)
    monkeypatch.setattr(lm, "_target_nlls", spied_target_nlls)
    assert lm.evaluate(model, stream, 5) == expected
    # slices of 64 windows are one per chunk; slices of 7 are 10 for the chunk of 64
    assert len(scored) == len(outputs) == slices
    assert all(a is b for a, b in zip(scored, outputs))


@pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
def test_cpu_count_without_an_affinity_call_is_os_cpu_count_or_1(monkeypatch, cpus, threads):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 4)
    stream = _chunked_stream(corpus, 5)
    expected = one_forward_per_chunk(model, stream, 5)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert lm._cpu_count() == threads
    seen = set()

    def spied(model, tokens):
        seen.add(threading.get_ident())
        return forward(model, tokens)

    monkeypatch.setattr(lm, "forward", spied)
    assert lm.evaluate(model, stream, 5) == expected
    assert len(seen) == threads


def test_evaluate_rejects_a_token_id_outside_the_vocabulary_before_any_forward(monkeypatch):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("sf"))
    model = build_model(cfg, 2)
    calls = []
    monkeypatch.setattr(lm, "forward", lambda *args: calls.append(args))
    for bad in (cfg.vocab, -1):
        stream = corpus.train_ids[: 3 * 64 * 5 + 1].copy()
        stream[-2] = bad
        with pytest.raises(ValueError, match=rf"token id out of range \[0, {cfg.vocab}\)"):
            lm.evaluate(model, stream, 5)
    assert calls == []


def test_evaluate_rejects_a_context_outside_the_model():
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=5,
                      ordering=parse_ordering("s"))
    model = build_model(cfg, 2)
    # a context below 1 would never advance the window, so evaluate would never return
    for context in (0, -1, 6):
        with pytest.raises(ValueError, match=f"context {context} outside"):
            lm.evaluate(model, corpus.valid_ids, context)


def test_final_evaluation_runs_after_the_optimizer_is_freed(monkeypatch):
    corpus = lm.load_corpus_text(TINY_TEXT)
    cfg = tiny_template(steps=3).instantiate(parse_ordering("sf"), corpus.vocab_size, seed=1)

    def live_states():
        gc.collect()
        return sum(isinstance(o, OptimizerState) for o in gc.get_objects())

    before, during = live_states(), []
    evaluate = lm.evaluate

    def stub(model, stream, context):
        during.append(live_states())
        return evaluate(model, stream, context)

    monkeypatch.setattr(lm, "evaluate", stub)
    lm.train_model(cfg, corpus)
    assert during == [before]


# -- train ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", 0, "steps must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("eval_interval", 0, "eval_interval must be >= 1, got 0"),
        ("context", 0, r"context 0 outside \[1, model.context=8\]"),
        ("context", 9, r"context 9 outside \[1, model.context=8\]"),
    ],
)
def test_train_config_rejects_a_field_out_of_range(field, value, message):
    model = ModelConfig(d=8, heads=2, vocab=5, context=8, ordering=parse_ordering("sf"))
    with pytest.raises(ValueError, match=message):
        lm.TrainConfig(**{"model": model, "steps": 1, "batch_size": 1, "context": 8, field: value})


def test_train_model_rejects_a_train_split_shorter_than_one_window():
    corpus = lm.load_corpus_text("abcdefghij", (0.5, 0.25, 0.25))  # 5 train characters
    cfg = tiny_template(context=5).instantiate(parse_ordering("sf"), corpus.vocab_size, seed=0)
    with pytest.raises(ValueError, match="train split shorter than one context window"):
        lm.train_model(cfg, corpus)


def test_train_with_dropout_is_deterministic_and_distinct():
    corpus = lm.load_corpus_text(TINY_TEXT)
    template = tiny_template(steps=30, dropout=0.2)
    cfg = template.instantiate(parse_ordering("sf"), corpus.vocab_size, seed=6)
    rec1, rec2 = lm.train_model(cfg, corpus)[0], lm.train_model(cfg, corpus)[0]
    assert rec1.loss_curve == rec2.loss_curve  # dropout masks are seeded
    plain = tiny_template(steps=30).instantiate(
        parse_ordering("sf"), corpus.vocab_size, seed=6
    )
    assert lm.train_model(plain, corpus)[0].loss_curve != rec1.loss_curve


def test_train_learns_and_is_deterministic():
    corpus = lm.load_corpus_text(TINY_TEXT)
    template = tiny_template(steps=200, eval_interval=50)
    cfg = template.instantiate(parse_ordering("sf"), corpus.vocab_size, seed=3)
    rec1 = lm.train_model(cfg, corpus)[0]
    rec2 = lm.train_model(cfg, corpus)[0]
    assert rec1.loss_curve == rec2.loss_curve
    assert rec1.valid_nats == rec2.valid_nats
    assert rec1.loss_curve[-1][1] < rec1.loss_curve[0][1]
    assert rec1.param_count == total_units(parse_ordering("sf")) * 4 * 16 * 16
    # consistency identities
    assert abs(rec1.valid_bpc - rec1.valid_nats / math.log(2)) < 1e-12
    assert abs(rec1.valid_ppl - math.exp(rec1.valid_nats)) < 1e-12


def test_zero_sublayer_model_lands_between_bigram_and_unigram(bundled_corpus):
    corpus = bundled_corpus
    # independent oracles over the encoded id streams, add-one smoothed
    V = corpus.vocab_size
    uni = np.bincount(corpus.train_ids, minlength=V).astype(float) + 1.0
    p_uni = uni / uni.sum()
    unigram_nats = float(-np.log(p_uni[corpus.valid_ids]).mean())

    pair_counts = np.zeros((V, V))
    np.add.at(pair_counts, (corpus.train_ids[:-1], corpus.train_ids[1:]), 1.0)
    pair_counts += 1.0
    p_cond = pair_counts / pair_counts.sum(axis=1, keepdims=True)
    bigram_nats = float(
        -np.log(p_cond[corpus.valid_ids[:-1], corpus.valid_ids[1:]]).mean()
    )
    assert bigram_nats < unigram_nats

    template = tiny_template(d=32, heads=2, steps=600, batch_size=16, context=16,
                             lr=3e-3, eval_interval=200)
    cfg = template.instantiate(OrderingSpec(kinds=()), corpus.vocab_size, seed=4)
    rec = lm.train_model(cfg, corpus)[0]
    # embedding->output only: sees just the current character, so it can do no
    # better than a bigram model and should at least reach unigram level
    assert rec.valid_nats <= unigram_nats * 1.05
    assert rec.valid_nats >= bigram_nats * 0.90


# -- search / sweep ------------------------------------------------------------------


def test_run_random_search_permutation(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    out = tmp_path / "perm.jsonl"
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(), master_seed=5,
        out_path=str(out), trials=3, n_s=4, n_f=4,
    )
    records = lm.run_random_search(search, corpus)
    assert len(records) == 3
    for rec in records:
        spec = parse_ordering(rec.ordering)
        assert sum(1 for k in spec.kinds if k.char == "s") == 4
        assert sum(1 for k in spec.kinds if k.char == "f") == 4
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["mode"] == "permutation"
    assert header["v"] == 1 and header["tool"] == "sublayer-lab"
    assert [json.loads(l)["index"] for l in lines[1:]] == [0, 1, 2]


def test_run_random_search_budgeted(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    search = lm.SearchConfig(
        mode="budgeted", template=tiny_template(), master_seed=6,
        out_path=str(tmp_path / "b.jsonl"), trials=3, budget=12,
    )
    for rec in lm.run_random_search(search, corpus):
        assert total_units(parse_ordering(rec.ordering)) == 12


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(mode="grid"), "run_random_search mode must be permutation|budgeted, got 'grid'"),
        (dict(trials=0), "trials must be >= 1"),
    ],
    ids=["mode_grid", "no_trials"],
)
def test_run_random_search_rejects_a_bad_mode_or_trial_count(tmp_path, change, message):
    out = tmp_path / "r.jsonl"
    search = lm.SearchConfig(
        **{"mode": "permutation", "template": tiny_template(), "master_seed": 0, "out_path": str(out),
           "trials": 1, "n_s": 1, "n_f": 1, **change}
    )
    with pytest.raises(ValueError, match=message):
        lm.run_random_search(search, lm.load_corpus_text(TINY_TEXT))
    assert not out.exists()


def test_search_resume_skips_completed(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    full_out = tmp_path / "full.jsonl"
    cfg = dict(mode="permutation", template=tiny_template(), master_seed=7,
               trials=4, n_s=2, n_f=2)
    lm.run_random_search(lm.SearchConfig(out_path=str(full_out), **cfg), corpus)
    full_lines = full_out.read_text().splitlines()
    assert len(full_lines) == 5

    # interrupted copy: header + 2 records + a truncated third record
    part_out = tmp_path / "part.jsonl"
    part_out.write_text("\n".join(full_lines[:3]) + "\n" + full_lines[3][:25])
    records = lm.run_random_search(
        lm.SearchConfig(out_path=str(part_out), **cfg), corpus
    )
    assert [r.index for r in records] == [0, 1, 2, 3]

    def canonical(lines):
        docs = [json.loads(l) for l in lines]
        for d in docs:
            d.pop("meta", None)
        return docs

    assert canonical(part_out.read_text().splitlines()) == canonical(full_lines)


def test_search_determinism_across_runs(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    recs = []
    for name in ("a.jsonl", "b.jsonl"):
        search = lm.SearchConfig(
            mode="budgeted", template=tiny_template(), master_seed=8,
            out_path=str(tmp_path / name), trials=2, budget=9,
        )
        recs.append(lm.run_random_search(search, corpus))
    for r1, r2 in zip(*recs):
        assert r1.loss_curve == r2.loss_curve and r1.ordering == r2.ordering


def test_sweep_orders_and_param_parity(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    records = lm.run_sandwich_sweep(
        4, range(4), tiny_template(), corpus,
        out_path=str(tmp_path / "sweep.jsonl"), master_seed=9,
    )
    assert [r.sandwich_k for r in records] == [0, 1, 2, 3]
    for rec in records:
        assert rec.ordering == str(sandwich(4, rec.sandwich_k))
    assert records[0].ordering == "sf" * 4
    assert len({r.param_count for r in records}) == 1
    with pytest.raises(ValueError):
        lm.run_sandwich_sweep(4, [4], tiny_template(), corpus)


def test_search_writes_an_index_ordered_file_that_a_rerun_repeats(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    out = tmp_path / "w.jsonl"
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(), master_seed=10,
        out_path=str(out), trials=4, n_s=2, n_f=1,
    )
    lm.run_random_search(search, corpus)
    indices = [json.loads(l)["index"] for l in out.read_text().splitlines()[1:]]
    assert indices == [0, 1, 2, 3]

    def outside_meta(path):
        docs = [json.loads(l) for l in path.read_text().splitlines()]
        for doc in docs:
            doc.pop("meta")
        return [json.dumps(doc, sort_keys=True) for doc in docs]

    rerun = tmp_path / "w1.jsonl"
    search.out_path = str(rerun)
    lm.run_random_search(search, corpus)
    assert outside_meta(rerun) == outside_meta(out)


def test_failing_trial_cancels_the_queued_trials(tmp_path, monkeypatch):
    corpus = lm.load_corpus_text(TINY_TEXT)
    out = tmp_path / "fail.jsonl"
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(), master_seed=11,
        out_path=str(out), trials=8, n_s=2, n_f=1,
    )
    index_of = {lm.derive_seed(11, i, "train"): i for i in range(8)}
    started = []

    def stub_train_model(cfg, corpus):
        started.append(index_of[cfg.seed])
        if started[-1] == 0:
            raise RuntimeError("trial 0 failed")
        return lm.TrialRecord.build(str(cfg.model.ordering), -1, cfg.seed, [], 1.0, 0, 0.0), None

    monkeypatch.setattr(lm, "train_model", stub_train_model)
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        lm.run_random_search(search, corpus)
    assert started == [0]  # no later trial started
    assert len(out.read_text().splitlines()) == 1  # the header; no trial written


def test_trials_are_sampled_only_when_their_cohort_forms(tmp_path, monkeypatch):
    """A trial's ordering is drawn only when the trial starts."""
    corpus = lm.load_corpus_text(TINY_TEXT)
    calls = []
    sample = lm.sample_permutation

    def counted(*args):
        calls.append(args)
        return sample(*args)

    def fail(cfg, corpus):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(lm, "sample_permutation", counted)
    monkeypatch.setattr(lm, "train_model", fail)
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(), master_seed=12,
        out_path=str(tmp_path / "lazy.jsonl"), trials=10**5, n_s=2, n_f=2,
    )
    with pytest.raises(RuntimeError, match="trial failed"):
        lm.run_random_search(search, corpus)
    assert len(calls) == 1


def test_a_failing_cohort_keeps_earlier_cohorts_and_a_rerun_resumes_there(tmp_path, monkeypatch):
    """A failing trial keeps the trials before it, and a rerun resumes there."""
    corpus = lm.load_corpus_text(TINY_TEXT)
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(steps=2, eval_interval=1), master_seed=13,
        out_path=str(tmp_path / "resume.jsonl"), trials=5, n_s=2, n_f=1,
    )
    real, calls = lm.train_model, []

    def second_fails(cfg, corpus):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise RuntimeError("second trial failed")
        return real(cfg, corpus)

    monkeypatch.setattr(lm, "train_model", second_fails)
    with pytest.raises(RuntimeError, match="second trial failed"):
        lm.run_random_search(search, corpus)
    assert len(calls) == 2  # no third trial started
    assert [r.index for r in lm.read_results(search.out_path)] == [0]
    monkeypatch.setattr(lm, "train_model", real)
    lm.run_random_search(search, corpus)
    clean = lm.SearchConfig(**{**vars(search), "out_path": str(tmp_path / "clean.jsonl")})
    lm.run_random_search(clean, corpus)

    def outside_meta(path):
        return [{k: v for k, v in json.loads(line).items() if k != "meta"} for line in Path(path).read_text().splitlines()]

    assert outside_meta(search.out_path) == outside_meta(clean.out_path)


def test_each_pending_trial_is_one_train_model_call_in_index_order(tmp_path, monkeypatch):
    """Search trains each trial through ``train_model``."""
    corpus = lm.load_corpus_text(TINY_TEXT)
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(steps=2, eval_interval=1), master_seed=15,
        out_path=str(tmp_path / "half.jsonl"), trials=2, n_s=2, n_f=1,
    )
    lm.run_random_search(search, corpus)  # the first half
    index_of = {lm.derive_seed(15, i, "train"): i for i in range(5)}
    real, trained = lm.train_model, []

    def counted(cfg, corpus):
        trained.append(index_of[cfg.seed])
        return real(cfg, corpus)

    monkeypatch.setattr(lm, "train_model", counted)
    search.trials = 5
    records = lm.run_random_search(search, corpus)
    assert trained == [2, 3, 4]
    assert [r.index for r in records] == [0, 1, 2, 3, 4]


def test_no_package_module_runs_trials_on_threads_or_processes():
    """Trials run one way, one after another in the caller's thread."""
    src = Path(lm.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "multiprocessing" or name.startswith("concurrent.futures"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_every_name_in_each_modules_all_exists():
    src = Path(lm.__file__).parent
    missing, exported = [], 0
    for path in sorted(src.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"sublayer_lab.{path.stem}")
        names = getattr(module, "__all__", [])
        exported += len(names)
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert missing == [] and exported > 0


# -- records ---------------------------------------------------------------------------


def test_record_json_round_trip():
    rec = lm.TrialRecord.build(
        ordering="sfsf", sandwich_k=2, seed=44, loss_curve=[(10, 2.5), (20, 2.1)],
        valid_nats=1.234, param_count=768, wall_clock_s=3.3, index=7,
    )
    doc = lm.record_to_json_dict(rec)
    back = lm.record_from_json_dict(json.loads(json.dumps(doc)))
    assert back == rec
    doc["valid_bpc"] = 99.0
    with pytest.raises(ValueError):
        lm.record_from_json_dict(doc)


def test_diverged_run_records_infinite_perplexity(bundled_corpus):
    cfg = tiny_template(steps=30, lr=1000.0, eval_interval=10).instantiate(
        parse_ordering("sfsf"), bundled_corpus.vocab_size, seed=0
    )
    rec = lm.train_model(cfg, bundled_corpus)[0]
    assert math.isfinite(rec.valid_nats) and rec.valid_nats > 710.0  # exp overflows
    assert rec.valid_ppl == math.inf
    back = lm.record_from_json_dict(json.loads(json.dumps(lm.record_to_json_dict(rec))))
    assert back == rec
    for nats, ppl in ((rec.valid_nats, 1e300), (1.0, math.inf)):
        doc = lm.record_to_json_dict(rec)
        doc.update(valid_nats=nats, valid_bpc=nats / math.log(2.0), valid_ppl=ppl)
        with pytest.raises(ValueError, match="ppl inconsistent"):
            lm.record_from_json_dict(doc)


@pytest.mark.parametrize(
    "nats, bpc, ppl, error",
    [
        (math.nan, math.nan, math.nan, None),  # a diverged run's record reads back
        (math.nan, 5.0, 7.0, "bpc inconsistent"),
        (1.5, math.nan, math.nan, "bpc inconsistent"),
        (1.5, 1.5 / math.log(2.0), math.nan, "ppl inconsistent"),
    ],
)
def test_record_nan_metrics_match_only_nan(nats, bpc, ppl, error):
    rec = lm.TrialRecord.build(
        ordering="sf", sandwich_k=-1, seed=0, loss_curve=[], valid_nats=1.0,
        param_count=768, wall_clock_s=0.0,
    )
    doc = lm.record_to_json_dict(rec)
    doc.update(valid_nats=nats, valid_bpc=bpc, valid_ppl=ppl)
    doc = json.loads(json.dumps(doc))
    if error is None:
        back = lm.record_from_json_dict(doc)
        assert all(math.isnan(v) for v in (back.valid_nats, back.valid_bpc, back.valid_ppl))
    else:
        with pytest.raises(ValueError, match=error):
            lm.record_from_json_dict(doc)


# -- half-split analysis -----------------------------------------------------------------


def test_analyze_halves_on_bundled_tables():
    rows = [r for r in load_table_records() if not r["baseline"]]
    pairs = [(r["ordering"], r["dev_ppl"]) for r in rows]
    report = lm.analyze_halves(pairs, threshold=lm.DEFAULT_REFERENCE_THRESHOLD)
    assert report.better.count == 11 and report.worse.count == 29
    # frozen group sums computed independently from the transcribed tables
    assert abs(report.better.mean_bottom_s - 110 / 11) < 1e-12
    assert abs(report.better.mean_bottom_f - 76 / 11) < 1e-12
    assert abs(report.better.mean_top_s - 68 / 11) < 1e-12
    assert abs(report.better.mean_top_f - 99 / 11) < 1e-12
    assert abs(report.worse.mean_bottom_s - 226 / 29) < 1e-12
    assert abs(report.worse.mean_bottom_f - 230 / 29) < 1e-12
    assert abs(report.worse.mean_top_s - 254 / 29) < 1e-12
    assert abs(report.worse.mean_top_f - 226 / 29) < 1e-12
    assert report.better.mean_bottom_s > report.worse.mean_bottom_s
    assert report.better.mean_top_f > report.worse.mean_top_f


def test_analyze_halves_edges():
    with pytest.raises(ValueError):
        lm.analyze_halves([("sf", 1.0)], threshold=2.0)

    report = lm.analyze_halves([("ssff", 1.0), ("ssff", 3.0)], threshold=2.0)
    assert report.better.count == report.worse.count == 1
    assert report.better == lm.GroupStats(1, 2.0, 0.0, 0.0, 2.0)
    assert report.better.mean_bottom_s - report.worse.mean_bottom_s == 0.0

    empty_side = lm.analyze_halves([("ssssff", 1.0), ("sf", 1.5)], threshold=5.0)
    assert empty_side.worse.count == 0 and empty_side.worse.mean_bottom_s is None
    assert empty_side.warnings
    single = lm.analyze_halves([("ssssff", 1.0), ("ssssff", 9.0)], threshold=5.0)
    assert single.better == lm.GroupStats(1, 4.0, 0.0, 0.0, 2.0)


# -- reports --------------------------------------------------------------------------------


def fake_records(n=3):
    recs = []
    for i in range(n):
        recs.append(
            lm.TrialRecord.build(
                ordering=str(sandwich(4, i % 4)), sandwich_k=i % 4, seed=i,
                loss_curve=[(10, 2.0)], valid_nats=1.0 + 0.1 * i,
                param_count=768, wall_clock_s=1.0, index=i,
            )
        )
    return recs


def test_render_csv_and_markdown():
    recs = fake_records(3)
    csv_text = lm.render_csv(recs)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("index,ordering,sandwich_k,seed,param_count")
    md = lm.render_markdown(recs)
    assert md.splitlines()[0] == "| ordering | k | params | valid_bpc | valid_ppl |"
    assert md.count("|") > 0 and len(md.strip().splitlines()) == 5


def test_render_svg_well_formed_with_markers(tmp_path):
    recs = fake_records(5)
    svg = lm.render_svg(recs)
    root = ET.fromstring(svg)
    circles = [
        el for el in root.iter("{http://www.w3.org/2000/svg}circle")
        if el.get("class") == "record"
    ]
    assert len(circles) == 5

    written = lm.write_report(recs, ["csv", "markdown", "svg"], tmp_path / "rep")
    assert sorted(p.name for p in written.values()) == [
        "report.csv", "report.md", "report.svg",
    ]
    with pytest.raises(ValueError):
        lm.write_report(recs, ["pdf"], tmp_path / "rep2")
    with pytest.raises(ValueError):
        lm.write_report([], ["csv"], tmp_path / "rep3")


def test_derive_seed_stability():
    a = lm.derive_seed(42, 0, "train")
    assert a == lm.derive_seed(42, 0, "train")
    assert a != lm.derive_seed(42, 1, "train")
    assert a != lm.derive_seed(42, 0, "arch")
    assert 0 <= a < 2**63


# -- encoding, diverged plots and damaged results files ---------------------------------


def test_encode_matches_per_character_lookup():
    corpus = lm.load_corpus_text("hello, world \U0001F600 \ud800 café\n" * 3, (0.5, 0.25, 0.25))
    text = "héllo \U0001F600\U0001F601 𐏿? \x00￿" + corpus.train_text
    unk = corpus.unknown_id
    expected = [corpus.char_to_id.get(c, unk) for c in text]
    ids = corpus.encode(text)
    assert ids.dtype == np.int64 and ids.tolist() == expected
    assert unk in expected and corpus.char_to_id["\U0001F600"] in expected
    assert corpus.encode("").shape == (0,)
    assert corpus.train_ids.tolist() == [corpus.char_to_id[c] for c in corpus.train_text]


def _svg_coordinates(svg):
    root = ET.fromstring(svg)
    return [
        (el.tag.split("}")[1], name, el.get(name))
        for el in root.iter()
        for name in ("x", "y", "cx", "cy", "x1", "y1", "x2", "y2")
        if el.get(name) is not None
    ]


@pytest.mark.parametrize("nats", [(1.2, 1.5, 800.0), (800.0, 900.0)])
def test_render_svg_places_diverged_records_on_the_top_edge(nats):
    recs = [
        lm.TrialRecord.build(
            ordering="sfsf", sandwich_k=-1, seed=i, loss_curve=[(10, 2.0)],
            valid_nats=n, param_count=768, wall_clock_s=1.0, index=i,
        )
        for i, n in enumerate(nats)
    ]
    svg = lm.render_svg(recs)
    coords = _svg_coordinates(svg)
    assert all(math.isfinite(float(value)) for _, _, value in coords)
    cy = {r.valid_nats: float(el.get("cy")) for r, el in zip(
        recs, [el for el in ET.fromstring(svg).iter() if el.get("class") == "record"]
    )}
    top = min(float(v) for tag, name, v in coords if tag == "line" and name in ("y1", "y2"))
    for n, y in cy.items():
        assert (y == top) == (n > 709.0)
    if nats[0] < 709.0:  # the finite records keep their own, distinct heights
        assert top < cy[1.5] < cy[1.2]


def _results_file(tmp_path, edit=None):
    recs = [
        lm.TrialRecord.build(
            ordering="sfsf", sandwich_k=-1, seed=i, loss_curve=[(10, 2.5)],
            valid_nats=1.0 + i, param_count=768, wall_clock_s=1.0, index=i,
        )
        for i in range(2)
    ]
    lines = [json.dumps({"v": 1, "kind": "header", "mode": "permutation"})]
    for rec in recs:
        doc = lm.record_to_json_dict(rec)
        if edit is not None and rec.index == 1:
            doc = edit(doc)
        lines.append(json.dumps(doc))
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, recs


def _without(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _with(**fields):
    def edit(doc):
        doc.update(fields)
        return doc
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [1, 2], "line 3 is not a JSON object"),
        (lambda doc: "trial", "line 3 is not a JSON object"),
        (_without("ordering"), "line 3: record lacks 'ordering'"),
        (_without("index"), "line 3: record lacks 'index'"),
        (_with(valid_nats="a"), "line 3: record field 'valid_nats' must be a JSON number"),
        (_with(param_count=768.0), "line 3: record field 'param_count' must be a JSON int"),
        (_with(seed=True), "line 3: record field 'seed' must be a JSON int"),
        (_with(loss_curve=[[10]]), "line 3: record field 'loss_curve'"),
        (_with(loss_curve=[[10.5, 2.0]]), "line 3: record field 'loss_curve'"),
        (_with(loss_curve=[[10, "2"]]), "line 3: a 'loss_curve' loss"),
        (_with(valid_nats=10**400), "line 3: record field 'valid_nats' is out of float range"),
        (_with(meta=[]), "line 3: record field 'meta'"),
        (_with(index=None), "line 3: record field 'index' must be a JSON int"),
        (_with(index=1.5), "line 3: record field 'index' must be a JSON int"),
        (_with(index=True), "line 3: record field 'index' must be a JSON int"),
        (_with(index=-1), "line 3: trial index must be >= 0"),
        (_with(valid_nats=math.nan), "line 3: record bpc inconsistent with nats"),
        (_with(v=99), "line 3: format version 99, expected 1"),
    ],
)
def test_read_results_fails_closed_naming_the_line(tmp_path, edit, message):
    path, _ = _results_file(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        lm.read_results(path)


@pytest.mark.parametrize("edited, line", [((0,), 1), ((0, 1, 2), 2)], ids=["header", "every_line"])
def test_read_results_rejects_a_file_of_another_format_version(tmp_path, edited, line):
    path, _ = _results_file(tmp_path)
    docs = [json.loads(text) for text in path.read_text().splitlines()]
    for i in edited:
        docs[i]["v"] = 99
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    with pytest.raises(ValueError, match=f"results line {line}: format version 99, expected 1"):
        lm.read_results(path)


def test_read_results_tolerates_a_truncated_final_line(tmp_path):
    path, recs = _results_file(tmp_path)
    full = path.read_text()
    path.write_text(full[: len(full) - 20])
    assert lm.read_results(path) == recs[:1]
    path.write_text(full + '{"kind": "trial", "ind')
    assert lm.read_results(path) == recs
    path.write_text(full + "[" * 100_000 + "\n")  # nested too deeply to parse: truncated
    assert lm.read_results(path) == recs


def test_record_from_json_dict_rejects_a_non_object():
    for doc in ([1, 2], None, "x"):
        with pytest.raises(ValueError, match="JSON object"):
            lm.record_from_json_dict(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with(index=0), "line 3: trial index 0 repeats"),
        (_with(kind="trail"), "line 3: unknown kind 'trail'"),
        (_without("kind"), "line 3: unknown kind None"),
        (lambda doc: {"v": 1, "kind": "header"}, "line 3: a header may only be line 1"),
    ],
)
def test_read_results_rejects_damage_mid_file(tmp_path, edit, message):
    path, _ = _results_file(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        lm.read_results(path)


def test_read_results_rejects_an_unparseable_line_before_the_last(tmp_path):
    path, recs = _results_file(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    # the closing brace of a record removed: fatal mid-file, truncation at the end
    path.write_text(lines[0] + lines[1].replace("}\n", "\n") + lines[2])
    with pytest.raises(ValueError, match="line 2 does not parse and is not the last line"):
        lm.read_results(path)
    path.write_text(lines[0] + lines[1] + lines[2].replace("}\n", "\n"))
    assert lm.read_results(path) == recs[:1]
    path.write_text("".join([lines[0], lines[0], *lines[1:]]))
    with pytest.raises(ValueError, match="line 2: a header may only be line 1"):
        lm.read_results(path)


def test_read_results_rejects_a_trial_before_the_header(tmp_path):
    path, _ = _results_file(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:]))
    with pytest.raises(ValueError, match="results line 1: a trial before the header"):
        lm.read_results(path)
    path.write_text("".join([lines[1], lines[0], lines[2]]))
    with pytest.raises(ValueError, match="results line 1: a trial before the header"):
        lm.read_results(path)


def test_train_template_defaults_are_the_config_defaults():
    owners = {f.name: cls for cls in (ModelConfig, lm.TrainConfig) for f in dataclasses.fields(cls)}
    defaulted = [f for f in dataclasses.fields(lm.TrainTemplate) if f.default is not dataclasses.MISSING]
    assert defaulted
    for f in defaulted:
        assert f.default == getattr(owners[f.name], f.name), f.name


def test_train_template_instantiate_copies_every_shared_field():
    template = lm.TrainTemplate(
        d=12, heads=3, steps=7, batch_size=5, context=9, lr=2e-3, eval_interval=4,
        ffn_inner=10, tie_embeddings=False, pre_norm=False, dropout=0.25,
    )
    ordering = parse_ordering("ssf")
    cfg = template.instantiate(ordering, vocab=17, seed=23)
    assert (cfg.model.ordering, cfg.model.vocab, cfg.seed) == (ordering, 17, 23)
    model_fields = {f.name for f in dataclasses.fields(ModelConfig)}
    train_fields = {f.name for f in dataclasses.fields(lm.TrainConfig)}
    for f in dataclasses.fields(lm.TrainTemplate):
        value = getattr(template, f.name)
        assert f.name in model_fields | train_fields, f.name
        if f.name in model_fields:
            assert getattr(cfg.model, f.name) == value, f.name
        if f.name in train_fields:
            assert getattr(cfg, f.name) == value, f.name


@pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3, 0.0])
def test_train_config_rejects_an_lr_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        tiny_template(lr=lr).instantiate(parse_ordering("sf"), 10, seed=0)


def test_sweep_rejects_non_integer_coefficients():
    corpus = lm.load_corpus_text(TINY_TEXT)
    for k in (True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="must be an int"):
            lm.run_sandwich_sweep(3, [0, k], tiny_template(), corpus)


def test_a_template_of_numpy_sizes_writes_and_resumes_the_same_header(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    sizes = {"d": 16, "heads": 2, "steps": 2, "batch_size": 4, "context": 16}
    paths = []
    for name, template in (
        ("plain.jsonl", tiny_template(**sizes)),
        ("numpy.jsonl", tiny_template(**{k: np.int64(v) for k, v in sizes.items()}, dropout=np.float64(0.0))),
    ):
        paths.append(tmp_path / name)
        for trials in (1, 2):
            lm.run_random_search(lm.SearchConfig("permutation", template, 3, str(paths[-1]), trials, 1, 1), corpus)
    headers = [json.loads(p.read_text().splitlines()[0]) for p in paths]
    assert headers[0]["train"] == headers[1]["train"] == vars(tiny_template(**sizes))
    assert headers[0]["corpus_sha256"] == headers[1]["corpus_sha256"]
    assert [len(p.read_text().splitlines()) for p in paths] == [3, 3]


@pytest.mark.parametrize("mode, sizes", [("permutation", {"n_s": 1, "n_f": 1}), ("budgeted", {"budget": 3})])
def test_numpy_sampler_sizes_write_and_resume_the_same_header(tmp_path, mode, sizes):
    corpus = lm.load_corpus_text(TINY_TEXT)
    headers = []
    for name, given in (("plain", sizes), ("numpy", {k: np.int64(v) for k, v in sizes.items()})):
        path = tmp_path / name
        for trials in (1, 2):
            lm.run_random_search(lm.SearchConfig(mode, tiny_template(steps=2), 3, str(path), trials, **given), corpus)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        headers.append({k: v for k, v in json.loads(lines[0]).items() if k != "meta"})
    assert headers[0] == headers[1] and {k: headers[0][k] for k in sizes} == sizes
