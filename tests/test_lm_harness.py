import json
import math
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
from sublayer_lab.tensor_core import Tape, cross_entropy_loss


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
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        lm.load_corpus(empty)


def test_bundled_corpus_charset_size(bundled_corpus):
    assert 60 <= len(bundled_corpus.charset) <= 90
    assert len(bundled_corpus.train_text) > 50_000


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


# -- train ------------------------------------------------------------------------


def test_train_with_dropout_is_deterministic_and_distinct():
    corpus = lm.load_corpus_text(TINY_TEXT)
    template = tiny_template(steps=30, dropout=0.2)
    cfg = template.instantiate(parse_ordering("sf"), corpus.vocab_size, seed=6)
    rec1, rec2 = lm.train(cfg, corpus), lm.train(cfg, corpus)
    assert rec1.loss_curve == rec2.loss_curve  # dropout masks are seeded
    plain = tiny_template(steps=30).instantiate(
        parse_ordering("sf"), corpus.vocab_size, seed=6
    )
    assert lm.train(plain, corpus).loss_curve != rec1.loss_curve


def test_train_learns_and_is_deterministic():
    corpus = lm.load_corpus_text(TINY_TEXT)
    template = tiny_template(steps=200, eval_interval=50)
    cfg = template.instantiate(parse_ordering("sf"), corpus.vocab_size, seed=3)
    rec1 = lm.train(cfg, corpus)
    rec2 = lm.train(cfg, corpus)
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
    rec = lm.train(cfg, corpus)
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


def test_workers_produce_index_ordered_file(tmp_path):
    corpus = lm.load_corpus_text(TINY_TEXT)
    out = tmp_path / "w.jsonl"
    search = lm.SearchConfig(
        mode="permutation", template=tiny_template(), master_seed=10,
        out_path=str(out), trials=4, n_s=2, n_f=1, workers=3,
    )
    lm.run_random_search(search, corpus)
    indices = [json.loads(l)["index"] for l in out.read_text().splitlines()[1:]]
    assert indices == [0, 1, 2, 3]


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
    rec = lm.train(cfg, bundled_corpus)
    assert math.isfinite(rec.valid_nats) and rec.valid_nats > 710.0  # exp overflows
    assert rec.valid_ppl == math.inf
    back = lm.record_from_json_dict(json.loads(json.dumps(lm.record_to_json_dict(rec))))
    assert back == rec
    for nats, ppl in ((rec.valid_nats, 1e300), (1.0, math.inf)):
        doc = lm.record_to_json_dict(rec)
        doc.update(valid_nats=nats, valid_bpc=nats / math.log(2.0), valid_ppl=ppl)
        with pytest.raises(ValueError, match="ppl inconsistent"):
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
