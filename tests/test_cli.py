import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sublayer_lab import arch_dsl, attn_analysis, lm_harness, results
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.cli import main
from sublayer_lab.model import ModelConfig, build_model, save_checkpoint

PANGRAM = (
    "Jovial zebras quickly fixed the glum pond; 42 herons watched. " * 60
)


@pytest.fixture()
def tiny_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(PANGRAM)
    return path


def train_block(steps=6):
    return {
        "d": 16, "heads": 2, "steps": steps, "batch_size": 4,
        "context": 12, "lr": 1e-3, "eval_interval": 3,
    }


# -- flag-driven commands -------------------------------------------------------


def test_gen_outputs(capsys):
    assert main(["gen", "--decoder-sandwich", "3", "1"]) == 0
    assert capsys.readouterr().out.strip() == "scscfscff"
    assert main(["gen", "--sandwich", "16", "0"]) == 0
    assert capsys.readouterr().out.strip() == "sf" * 16
    assert main(["gen", "--sandwich", "2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "ssff"


def test_gen_invalid_k_exits_2(capsys):
    assert main(["gen", "--sandwich", "4", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_params_table(capsys):
    assert main(["params", "--ordering", "sf", "--d", "1024"]) == 0
    out = capsys.readouterr().out
    assert "4,194,304" in out and "8,388,608" in out and "12,582,912" in out

    assert main(["params", "--ordering", "ssssff", "--d", "8"]) == 0
    assert "2,048" in capsys.readouterr().out

    assert main(["params", "--ordering", "s", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2].split()[-1] == "4"


def test_params_parse_failure_exits_2_with_index(capsys):
    assert main(["params", "--ordering", "sfq", "--d", "8"]) == 2
    assert "index 2" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    assert main(["gen", "--sandwich", "2", "1", "--bogus"]) == 2
    assert main(["nonsense"]) == 2


def test_sample_and_split(capsys):
    assert main(["sample", "--mode", "permutation", "--n-s", "3", "--n-f", "2",
                 "--seed", "1"]) == 0
    first = capsys.readouterr().out.strip()
    assert sorted(first) == ["f", "f", "s", "s", "s"]
    main(["sample", "--mode", "permutation", "--n-s", "3", "--n-f", "2", "--seed", "1"])
    assert capsys.readouterr().out.strip() == first

    assert main(["sample", "--mode", "budgeted", "--budget", "9", "--seed", "4"]) == 0
    drawn = capsys.readouterr().out.strip()
    assert drawn.count("s") + 2 * drawn.count("f") == 9

    assert main(["sample", "--mode", "budgeted", "--seed", "4"]) == 2

    assert main(["split", "--ordering", "ssssff"]) == 0
    out = capsys.readouterr().out
    assert "bottom: ssss" in out and "top: ff" in out
    assert "bottom_s=4 bottom_f=0 top_s=0 top_f=2" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mode", "permutation", "--n-s", "2", "--n-f", "2", "--budget", "9"],
         "error: permutation mode takes no --budget\n"),
        (["--mode", "budgeted", "--n-s", "2", "--budget", "9"], "error: budgeted mode takes no --n-s\n"),
        (["--mode", "budgeted", "--n-f", "0", "--budget", "9"], "error: budgeted mode takes no --n-f\n"),
    ],
    ids=["budget_in_permutation_mode", "n_s_in_budgeted_mode", "n_f_in_budgeted_mode"],
)
def test_sample_refuses_the_other_modes_sizes(capsys, argv, message):
    assert main(["sample", *argv, "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", message)


# -- config-driven commands ---------------------------------------------------------


def test_train_writes_record_and_checkpoint(tmp_path, tiny_corpus, capsys):
    cfg = {
        "ordering": "sf",
        "train": train_block(),
        "corpus": str(tiny_corpus),
        "seed": 3,
        "out": str(tmp_path / "rec.json"),
        "checkpoint_out": str(tmp_path / "model.ckpt"),
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert "valid_nats=" in capsys.readouterr().out
    rec = json.loads((tmp_path / "rec.json").read_text())
    assert rec["ordering"] == "sf" and rec["kind"] == "trial"
    assert (tmp_path / "model.ckpt").exists()


def test_train_creates_output_directories_before_training(tmp_path, tiny_corpus, capsys, monkeypatch):
    rec_path = tmp_path / "records" / "deep" / "rec.json"
    ckpt_path = tmp_path / "checkpoints" / "model.ckpt"
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "train": train_block(), "corpus": str(tiny_corpus),
        "out": str(rec_path), "checkpoint_out": str(ckpt_path),
    }))
    train_model = lm_harness.train_model
    seen = []

    def checked(cfg, corpus):
        seen.append((rec_path.parent.is_dir(), ckpt_path.parent.is_dir()))
        return train_model(cfg, corpus)

    monkeypatch.setattr(lm_harness, "train_model", checked)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert seen == [(True, True)]
    assert json.loads(rec_path.read_text())["ordering"] == "sf"
    assert ckpt_path.is_file()


def test_diverged_train_exits_0_with_infinite_perplexity(tmp_path, tiny_corpus, capsys):
    cfg = {
        "ordering": "sfsf",
        "train": {**train_block(steps=30), "lr": 1000.0},
        "corpus": str(tiny_corpus),
        "out": str(tmp_path / "rec.json"),
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert "valid_ppl=inf" in capsys.readouterr().out
    assert json.loads((tmp_path / "rec.json").read_text())["valid_ppl"] == float("inf")


def test_config_validation_lists_every_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sfx",
        "train": {"d": 16, "heads": 3, "steps": 0, "batch_size": 4, "context": 12},
        "corpus": str(tmp_path / "missing.txt"),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "ordering" in err
    assert "train.steps" in err
    assert "train.heads" in err
    assert "corpus" in err


def test_bad_lr_and_dropout_are_listed_together(tmp_path, tiny_corpus, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "train": {**train_block(), "lr": -1, "dropout": 1.5},
        "corpus": str(tiny_corpus),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: train.lr" in err
    assert "config error: train.dropout" in err


def test_analyze_halves_unknown_metric_field_exits_2(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "search.json"
    cfg_path.write_text(json.dumps({
        "mode": "permutation", "trials": 2, "n_s": 1, "n_f": 1,
        "train": train_block(steps=2), "corpus": str(tiny_corpus), "out": str(out),
    }))
    assert main(["search", "--config", str(cfg_path)]) == 0
    for records, field in (
        ("bundled-tables", "nope"), ("bundled-tables", "source"),
        (str(out), "nope"), (str(out), "ordering"), (str(out), "loss_curve"),
    ):
        cfg_path.write_text(json.dumps({"records": records, "metric_field": field}))
        capsys.readouterr()
        assert main(["analyze-halves", "--config", str(cfg_path)]) == 2, field
        assert "config error: metric_field" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"records": str(out), "metric_field": "valid_nats"}))
    assert main(["analyze-halves", "--config", str(cfg_path)]) == 0


def test_config_invalid_json_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    cfg_path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"config: invalid JSON in {cfg_path}: nested too deeply" in capsys.readouterr().err


def test_search_and_report_round_trip(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "search.json"
    cfg_path.write_text(json.dumps({
        "mode": "permutation", "trials": 3, "n_s": 2, "n_f": 2,
        "master_seed": 5, "train": train_block(),
        "corpus": str(tiny_corpus), "out": str(out),
    }))
    assert main(["search", "--config", str(cfg_path)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 records
    assert json.loads(lines[0])["tool_version"]

    rep_cfg = tmp_path / "report.json"
    rep_cfg.write_text(json.dumps({
        "records": str(out),
        "formats": ["csv", "markdown", "svg"],
        "out_dir": str(tmp_path / "rep"),
    }))
    assert main(["report", "--config", str(rep_cfg)]) == 0
    csv_lines = (tmp_path / "rep" / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 4
    assert (tmp_path / "rep" / "report.md").exists()
    assert (tmp_path / "rep" / "report.svg").exists()


def test_sweep_cli(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "sweep.jsonl"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "n": 3, "k_values": [0, 2], "master_seed": 1,
        "train": train_block(), "corpus": str(tiny_corpus), "out": str(out),
    }))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    docs = [json.loads(l) for l in out.read_text().splitlines()[1:]]
    assert [d["sandwich_k"] for d in docs] == [0, 2]
    assert docs[0]["ordering"] == "sfsfsf"

    bad = tmp_path / "sweep_bad.json"
    bad.write_text(json.dumps({
        "n": 3, "k_values": [0, 3], "train": train_block(),
        "corpus": str(tiny_corpus), "out": str(out),
    }))
    assert main(["sweep", "--config", str(bad)]) == 2


def test_capture_and_distance_cli(tmp_path, tiny_corpus, capsys):
    ckpt = tmp_path / "m.ckpt"
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "ordering": "sfsf", "train": train_block(),
        "corpus": str(tiny_corpus), "checkpoint_out": str(ckpt),
    }))
    assert main(["train", "--config", str(train_cfg)]) == 0

    dump_path = tmp_path / "dump.jsonl"
    cap_cfg = tmp_path / "cap.json"
    cap_cfg.write_text(json.dumps({
        "checkpoint": str(ckpt), "corpus": str(tiny_corpus),
        "split": "valid", "length": 10, "model_id": "demo",
        "out": str(dump_path),
    }))
    assert main(["capture", "--config", str(cap_cfg)]) == 0
    header = json.loads(dump_path.read_text().splitlines()[0])
    assert header["s_count"] == 2 and header["t"] == 10

    dist_cfg = tmp_path / "dist.json"
    dist_out = tmp_path / "dist.json.out"
    dist_cfg.write_text(json.dumps({
        "dumps": [str(dump_path), str(dump_path)],
        "groups": {"demo": "g"},
        "out": str(dist_out),
    }))
    assert main(["distance", "--config", str(dist_cfg)]) == 0
    payload = json.loads(dist_out.read_text())
    assert payload["grand_means"][0][1] == 0.0
    assert payload["grand_means"][1][0] == 0.0
    assert "0" == f"{payload['grand_means'][0][0]:.0f}"
    out = capsys.readouterr().out
    assert "g--g" in out


def test_analyze_halves_cli_on_bundled_tables(tmp_path, capsys):
    cfg_path = tmp_path / "ah.json"
    out_path = tmp_path / "ah.out.json"
    cfg_path.write_text(json.dumps({
        "records": "bundled-tables", "threshold": 18.65, "out": str(out_path),
    }))
    assert main(["analyze-halves", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "better: n=11" in out and "worse: n=29" in out
    payload = json.loads(out_path.read_text())
    assert payload["better"]["mean_bottom_s"] > payload["worse"]["mean_bottom_s"]
    assert payload["better"]["mean_top_f"] > payload["worse"]["mean_top_f"]


def test_seed_flag_overrides_config(tmp_path, tiny_corpus, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "train": train_block(), "corpus": str(tiny_corpus),
        "seed": 3,
    }))
    assert main(["train", "--config", str(cfg_path), "--seed", "99"]) == 0
    assert "seed=99" in capsys.readouterr().out


def test_runtime_failure_exits_1(tmp_path, tiny_corpus, capsys):
    # a checkpoint whose payload is cut short is a runtime error, not config
    ckpt = tmp_path / "m.ckpt"
    train_cfg = tmp_path / "t.json"
    train_cfg.write_text(json.dumps({
        "ordering": "sf", "train": train_block(),
        "corpus": str(tiny_corpus), "checkpoint_out": str(ckpt),
    }))
    assert main(["train", "--config", str(train_cfg)]) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    cap_cfg = tmp_path / "c.json"
    cap_cfg.write_text(json.dumps({
        "checkpoint": str(ckpt), "corpus": str(tiny_corpus),
        "split": "valid", "out": str(tmp_path / "d.jsonl"),
    }))
    assert main(["capture", "--config", str(cap_cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sublayer-lab" in capsys.readouterr().out


def test_sweep_boolean_or_float_coefficients_exit_2(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "sweep.jsonl"
    cfg_path = tmp_path / "sweep.json"
    for k_values in ([True, False], [0, 1.0]):
        cfg_path.write_text(json.dumps({
            "n": 3, "k_values": k_values, "train": train_block(),
            "corpus": str(tiny_corpus), "out": str(out),
        }))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "config error: k_values" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "search", "sweep"])
def test_unusable_splits_exit_2_before_training(tmp_path, command, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(PANGRAM[:100])
    fields = {
        "train": {"ordering": "sf"},
        "search": {"mode": "permutation", "trials": 2, "n_s": 1, "n_f": 1},
        "sweep": {"n": 2},
    }[command]
    cfg_path = tmp_path / "cfg.json"
    for fractions, messages in (
        ([1.0, 0.0, 0.0], ["validation split holds 0 characters"]),
        ([0.99, 0.01, 0.0], ["validation split holds 1 characters"]),
        ([0.1, 0.5, 0.4], ["train split holds 10 characters, train.context=12 needs at least 13"]),
        ([0.1, 0.0, 0.9], ["validation split holds 0", "train split holds 10"]),
    ):
        cfg_path.write_text(json.dumps({
            **fields, "train": train_block(), "corpus": str(corpus),
            "split_fractions": fractions, "out": 5,
        }))
        assert main([command, "--config", str(cfg_path)]) == 2, fractions
        err = capsys.readouterr().err
        assert "config error: out: expected str" in err  # listed with the other errors
        for message in messages:
            assert f"config error: split_fractions: {message}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "corpus.txt"]


@pytest.mark.parametrize("name", ["corpus.txt", "fractions.txt"])
def test_an_empty_corpus_file_is_named_under_corpus_whatever_its_name(tmp_path, capsys, name):
    corpus = tmp_path / name
    corpus.write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "train": train_block(), "corpus": str(corpus), "out": str(tmp_path / "rec.json"),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: corpus: corpus file is empty: {corpus}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", name]


@pytest.mark.parametrize(
    "damage",
    [
        lambda line: line[: line.rindex("}")],  # closing brace removed
        lambda line: line.replace('"kind"', '"kinx"', 1),
    ],
    ids=["closing_brace_removed", "kind_key_changed"],
)
def test_resume_into_a_file_damaged_mid_way_exits_1_unchanged(tmp_path, tiny_corpus, capsys, damage):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "search.json"
    cfg_path.write_text(json.dumps({
        "mode": "permutation", "trials": 3, "n_s": 1, "n_f": 1,
        "train": train_block(steps=2), "corpus": str(tiny_corpus), "out": str(out),
    }))
    assert main(["search", "--config", str(cfg_path)]) == 0
    lines = out.read_text().splitlines()
    lines[2] = damage(lines[2])  # the second of three records
    out.write_text("\n".join(lines) + "\n")
    before = out.read_bytes()
    capsys.readouterr()
    assert main(["search", "--config", str(cfg_path)]) == 1
    assert "results line 3" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_resume_into_a_file_without_its_header_exits_1_unchanged(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "search.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    out.write_text("".join(out.read_text().splitlines(keepends=True)[1:]))  # the header removed
    before = hashlib.md5(out.read_bytes()).hexdigest()
    for changes in ({"trials": 3}, {"trials": 3, "master_seed": 99}):
        cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus, **changes)))
        capsys.readouterr()
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert "results line 1: a trial before the header" in capsys.readouterr().err
        assert hashlib.md5(out.read_bytes()).hexdigest() == before


def _search_doc(out, tiny_corpus, **changes):
    return {
        "mode": "permutation", "trials": 2, "n_s": 1, "n_f": 1, "master_seed": 4,
        "train": train_block(steps=2), "corpus": str(tiny_corpus), "out": str(out), **changes,
    }


def _budgeted_doc(out, tiny_corpus, **changes):
    return _search_doc(out, tiny_corpus, **{"mode": "budgeted", "budget": 3, "n_s": 0, "n_f": 0, **changes})


def _sweep_doc(out, tiny_corpus, **changes):
    return {
        "n": 2, "k_values": [0], "master_seed": 4,
        "train": train_block(steps=2), "corpus": str(tiny_corpus), "out": str(out), **changes,
    }


@pytest.mark.parametrize(
    "first, rerun, fields",
    [
        (("search", _search_doc), ("search", _search_doc, {"master_seed": 99, "trials": 3}), ["master_seed"]),
        (("search", _search_doc), ("search", _budgeted_doc, {"master_seed": 5}),
         ["mode", "master_seed", "budget", "n_f", "n_s"]),
        (("sweep", _sweep_doc), ("sweep", _sweep_doc, {"n": 3, "k_values": [0, 1]}), ["sweep_n", "k_values"]),
        (("sweep", _sweep_doc), ("search", _search_doc, {}), ["mode", "n_s", "n_f", "k_values", "sweep_n"]),
        (("search", _search_doc), ("search", _search_doc, {"n_s": 3, "trials": 3}), ["n_s"]),
        (("search", _search_doc), ("search", _search_doc, {"n_f": 2}), ["n_f"]),
        (("search", _budgeted_doc), ("search", _budgeted_doc, {"budget": 4, "trials": 3}), ["budget"]),
        (("sweep", _sweep_doc), ("sweep", _sweep_doc, {"k_values": [0, 1]}), ["k_values"]),
    ],
    ids=["master_seed", "mode_and_master_seed", "sweep_n", "sweep_file_resumed_by_a_search",
         "n_s", "n_f", "budget", "k_values"],
)
def test_resume_under_another_config_exits_2_listing_every_field(
    tmp_path, tiny_corpus, capsys, monkeypatch, first, rerun, fields
):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    command, doc = first
    cfg_path.write_text(json.dumps(doc(out, tiny_corpus)))
    assert main([command, "--config", str(cfg_path)]) == 0
    before = out.read_bytes()

    def never(*args, **kwargs):
        raise AssertionError("a trial trained under another config")

    monkeypatch.setattr(lm_harness, "train_model", never)
    command, doc, changes = rerun
    cfg_path.write_text(json.dumps(doc(out, tiny_corpus, **changes)))
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    named = [line.split(": ")[1] for line in err.splitlines()]
    assert named == fields and all(line.startswith("config error: ") for line in err.splitlines())
    assert f"results file {out} was written with" in err
    assert out.read_bytes() == before


def test_resume_with_more_trials_or_other_workers_extends_the_file(tmp_path, tiny_corpus, capsys):
    out, clean = tmp_path / "results.jsonl", tmp_path / "clean.jsonl"
    cfg_path = tmp_path / "cfg.json"
    for doc in (
        _search_doc(out, tiny_corpus),
        _search_doc(out, tiny_corpus, trials=3, workers=2),
        _search_doc(clean, tiny_corpus, trials=3),
    ):
        cfg_path.write_text(json.dumps(doc))
        assert main(["search", "--config", str(cfg_path)]) == 0

    def outside_meta(path):
        return [{k: v for k, v in json.loads(line).items() if k != "meta"} for line in path.read_text().splitlines()]

    assert [doc.get("index") for doc in outside_meta(out)] == [None, 0, 1, 2]
    assert outside_meta(out) == outside_meta(clean)


def _edit_header(out, **fields):
    header, *records = out.read_text().splitlines(keepends=True)
    out.write_text(json.dumps({**json.loads(header), **fields}, sort_keys=True) + "\n" + "".join(records))


@pytest.mark.parametrize(
    "key, value, expected",
    [("tool", "another-tool", "sublayer-lab"), ("v", 2, 1), ("budget", 1, None)],
    ids=["tool", "v", "a_key_this_run_lacks"],
)
def test_resume_into_a_header_differing_in_any_other_key_exits_2_unchanged(
    tmp_path, tiny_corpus, capsys, monkeypatch, key, value, expected
):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    _edit_header(out, **{key: value})
    before = out.read_bytes()

    def never(*args, **kwargs):
        raise AssertionError("a trial trained into another run's file")

    monkeypatch.setattr(lm_harness, "train_model", never)
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus, trials=3)))
    capsys.readouterr()
    assert main(["search", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {key}: the results file {out} was written with {value!r}, this run has {expected!r}"
    ]
    assert out.read_bytes() == before


def test_resume_ignores_the_tool_version_and_meta(tmp_path, tiny_corpus, capsys):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    _edit_header(out, tool_version="0.0.1", meta={"created_unix": 0})
    header = out.read_text().splitlines()[0]
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus, trials=3)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header and [json.loads(line)["index"] for line in lines[1:]] == [0, 1, 2]


def _rerun_refused(monkeypatch, capsys, cfg_path, out) -> list[str]:
    """Rerun the search at ``cfg_path`` into ``out``: it must exit 2, train
    nothing and leave ``out`` byte-unchanged. Returns the fields it names."""
    before = out.read_bytes()

    def never(*args, **kwargs):
        raise AssertionError("a trial trained into another run's file")

    monkeypatch.setattr(lm_harness, "train_model", never)
    capsys.readouterr()
    assert main(["search", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("config error: ") and f"results file {out} was written with" in line for line in err)
    assert out.read_bytes() == before
    return [line.split(": ")[1] for line in err]


def test_resume_under_another_train_block_exits_2_naming_each_train_field(tmp_path, tiny_corpus, capsys, monkeypatch):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    rerun = _search_doc(out, tiny_corpus, trials=3, train={**train_block(steps=5), "d": 8})
    cfg_path.write_text(json.dumps(rerun))
    assert _rerun_refused(monkeypatch, capsys, cfg_path, out) == ["train.d", "train.steps"]


def test_resume_on_a_corpus_one_character_apart_exits_2_naming_its_digest(tmp_path, tiny_corpus, capsys, monkeypatch):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    other = tmp_path / "other.txt"
    text = tiny_corpus.read_text()
    other.write_text(text[:-2] + ("x" if text[-2] != "x" else "y") + text[-1])
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus, trials=3, corpus=str(other))))
    assert _rerun_refused(monkeypatch, capsys, cfg_path, out) == ["corpus_sha256"]


def test_resume_into_a_header_without_the_train_block_and_corpus_digest_exits_2(
    tmp_path, tiny_corpus, capsys, monkeypatch
):
    out = tmp_path / "results.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus)))
    assert main(["search", "--config", str(cfg_path)]) == 0
    header, *records = out.read_text().splitlines(keepends=True)
    doc = json.loads(header)
    assert doc["train"] == train_block(steps=2) | {
        "ffn_inner": 0, "tie_embeddings": True, "pre_norm": True, "dropout": 0.0,
    }
    corpus = lm_harness.load_corpus(tiny_corpus)
    splits = json.dumps([corpus.train_text, corpus.valid_text, corpus.test_text]).encode()
    assert doc["corpus_sha256"] == hashlib.sha256(splits).hexdigest()
    del doc["train"], doc["corpus_sha256"]  # as a header written before it named them
    out.write_text(json.dumps(doc, sort_keys=True) + "\n" + "".join(records))
    cfg_path.write_text(json.dumps(_search_doc(out, tiny_corpus, trials=3)))
    assert _rerun_refused(monkeypatch, capsys, cfg_path, out) == ["train", "corpus_sha256"]


def _results_with(path, trials: int) -> None:
    """A results file holding a header and ``trials`` trial lines."""
    lines = [json.dumps({"v": 1, "kind": "header"})]
    for i in range(trials):
        rec = results.TrialRecord.build("sfsf", -1, i, [(1, 2.0)], 1.5 + i, 10, 0.1, index=i)
        lines.append(json.dumps(results.record_to_json_dict(rec)))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("sweep", lambda p: _sweep_doc(p["out"], p["corpus"], k_values=[]), "k_values: length must be >= 1, got 0"),
        ("report", lambda p: {"records": p["records0"], "out_dir": p["out"]},
         "records: no trial records in {records0}"),
        ("analyze-halves", lambda p: {"records": p["records0"], "threshold": 5.0, "out": p["out"]},
         "records: analyze-halves needs at least 2 records, {records0} holds 0"),
        ("analyze-halves", lambda p: {"records": p["records1"], "threshold": 5.0, "out": p["out"]},
         "records: analyze-halves needs at least 2 records, {records1} holds 1"),
    ],
    ids=["sweep_no_k_values", "report_no_trials", "analyze_halves_no_trials", "analyze_halves_one_trial"],
)
def test_a_config_that_names_nothing_to_do_exits_2_with_one_line_and_no_output(
    tmp_path, tiny_corpus, capsys, command, doc, message
):
    p = {name: str(tmp_path / name) for name in ("records0", "records1", "out")}
    p["corpus"] = str(tiny_corpus)
    _results_with(tmp_path / "records0", 0)
    _results_with(tmp_path / "records1", 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc(p)))
    before = sorted(tmp_path.iterdir())
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"config error: {message.format(**p)}"]
    assert captured.out == "" and sorted(tmp_path.iterdir()) == before


def test_capture_bad_window_exits_2_before_the_model_runs(tmp_path, tiny_corpus, capsys, monkeypatch):
    ckpt = tmp_path / "m.ckpt"
    train_cfg = tmp_path / "t.json"
    train_cfg.write_text(json.dumps({
        "ordering": "sf", "train": train_block(),
        "corpus": str(tiny_corpus), "checkpoint_out": str(ckpt),
    }))
    assert main(["train", "--config", str(train_cfg)]) == 0

    def never(*args, **kwargs):
        raise AssertionError("capture ran on an invalid window")

    monkeypatch.setattr(attn_analysis, "capture", never)
    valid_size = lm_harness.load_corpus(tiny_corpus).valid_ids.size
    dump_path = tmp_path / "d.jsonl"
    cap_cfg = tmp_path / "c.json"
    for window, messages in (
        ({"offset": valid_size}, [f"offset: must be < the valid split's length {valid_size}"]),
        ({"offset": valid_size + 7}, ["offset: must be < the valid split's length"]),
        ({"length": 50}, ["length: must be <= the checkpoint's context 12, got 50"]),
        ({"offset": 3, "length": 13}, ["length: must be <= the checkpoint's context 12"]),
        ({"offset": 10_000_000, "length": 5}, ["offset: must be < the valid split's length"]),
        (
            {"offset": valid_size - 2, "length": 5},
            [f"length: window [{valid_size - 2}, {valid_size + 3}) runs past the valid split's length"],
        ),
    ):
        cap_cfg.write_text(json.dumps({
            "checkpoint": str(ckpt), "corpus": str(tiny_corpus), "split": "valid",
            **window, "out": str(dump_path),
        }))
        capsys.readouterr()
        assert main(["capture", "--config", str(cap_cfg)]) == 2, window
        err = capsys.readouterr().err
        for message in messages:
            assert f"config error: {message}" in err
        assert not dump_path.exists()


def test_capture_vocabulary_mismatch_exits_2_naming_corpus(tmp_path, tiny_corpus, capsys, monkeypatch):
    ckpt = tmp_path / "vocab5.ckpt"
    save_checkpoint(build_model(ModelConfig(d=8, heads=2, vocab=5, context=8, ordering=parse_ordering("sf")), 0), ckpt)

    def never(*args, **kwargs):
        raise AssertionError("capture ran a model on another corpus's ids")

    monkeypatch.setattr(attn_analysis, "capture", never)
    dump_path = tmp_path / "d.jsonl"
    cfg = tmp_path / "c.json"
    for corpus in ("bundled", str(tiny_corpus)):
        cfg.write_text(json.dumps({"checkpoint": str(ckpt), "corpus": corpus, "out": str(dump_path)}))
        capsys.readouterr()
        assert main(["capture", "--config", str(cfg)]) == 2, corpus
        size = lm_harness.load_corpus(
            lm_harness.bundled_corpus_path() if corpus == "bundled" else corpus
        ).vocab_size
        err = capsys.readouterr().err
        assert "config error: corpus: its vocabulary" in err and f"has {size} ids, the checkpoint's model 5" in err
        assert not dump_path.exists()


def test_distance_bad_groups_exit_2_listing_every_id(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(0)
    paths = []
    for mid in ("a", "b", "c"):
        probs = rng.random((2, 2, 4, 4))
        probs /= probs.sum(axis=-1, keepdims=True)
        path = tmp_path / f"{mid}.jsonl"
        attn_analysis.save_dump(
            attn_analysis.AttentionDump(model_id=mid, ordering="sfsf", heads=2, t=4, probs=probs),
            path,
        )
        paths.append(str(path))

    def never(dumps):
        raise AssertionError("distance_matrix ran with bad groups")

    monkeypatch.setattr(attn_analysis, "distance_matrix", never)
    out = tmp_path / "dist.out.json"
    cfg = tmp_path / "dist.json"
    for groups, messages in (
        ({"a": "g"}, ["no group label for dumped model_id 'b'",
                      "no group label for dumped model_id 'c'"]),
        ({"a": "g", "b": 3, "c": ["h"]}, ["label of 'b' must be a string, got 3",
                                         "label of 'c' must be a string, got ['h']"]),
    ):
        cfg.write_text(json.dumps({"dumps": paths, "groups": groups, "out": str(out)}))
        capsys.readouterr()
        assert main(["distance", "--config", str(cfg)]) == 2, groups
        captured = capsys.readouterr()
        for message in messages:
            assert f"config error: groups: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()


HUGE = 10**400  # a JSON int that no float can hold


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("train", {"ordering": "sf", "train": {**train_block(), "lr": HUGE}}, "train.lr is out of float range"),
        ("train", {"ordering": "sf", "split_fractions": [HUGE, 0.1, 0.1]}, "split_fractions is out of float range"),
        ("analyze-halves", {"records": "bundled-tables", "threshold": HUGE}, "threshold is out of float range"),
    ],
    ids=["train.lr", "split_fractions", "threshold"],
)
def test_number_out_of_float_range_exits_2_naming_the_field(
    tmp_path, tiny_corpus, capsys, command, config, message
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": train_block(), "corpus": str(tiny_corpus), **config}))
    assert main([command, "--config", str(cfg_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["out", "checkpoint_out"])
def test_train_output_naming_a_directory_exits_2_before_training(
    tmp_path, tiny_corpus, capsys, monkeypatch, field
):
    def never(cfg, corpus):
        raise AssertionError("a model was built for an unwritable output")

    monkeypatch.setattr(lm_harness, "train_model", never)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "train": train_block(), "corpus": str(tiny_corpus), field: str(tmp_path),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"config error: {field}: names a directory: {tmp_path}" in capsys.readouterr().err


def _output_inputs(tmp_path, tiny_corpus) -> dict:
    """Inputs every config-driven command can read: the corpus, a checkpoint
    on its vocabulary, two dumps and a results file of 2 trials."""
    p = {name: str(tmp_path / name) for name in ("ckpt", "dump_a", "dump_b", "records")}
    p["corpus"] = str(tiny_corpus)
    vocab = lm_harness.load_corpus(tiny_corpus).vocab_size
    save_checkpoint(build_model(ModelConfig(d=8, heads=2, vocab=vocab, context=8, ordering=parse_ordering("sf")), 0),
                    p["ckpt"])
    for name in ("dump_a", "dump_b"):
        attn_analysis.save_dump(attn_analysis.AttentionDump(name, "sf", 1, 2, np.full((1, 1, 2, 2), 0.5)), p[name])
    _results_with(Path(p["records"]), 2)
    return p


def _output_config(command, p, out):
    small = {"train": train_block(steps=2), "corpus": p["corpus"], "out": out}
    return {
        "train": {"ordering": "sf", **small},
        "search": {"mode": "permutation", "trials": 1, "n_s": 1, "n_f": 1, **small},
        "sweep": {"n": 1, **small},
        "capture": {"checkpoint": p["ckpt"], "corpus": p["corpus"], "out": out},
        "distance": {"dumps": [p["dump_a"], p["dump_b"]], "out": out},
        "analyze-halves": {"records": p["records"], "threshold": 2.0, "out": out},
        "report": {"records": p["records"], "out_dir": out},
    }[command]


OUTPUT_WORK = {
    "train": (lm_harness, "train_model"),
    "search": (lm_harness, "train_model"),
    "sweep": (lm_harness, "train_model"),
    "capture": (attn_analysis, "capture"),
    "distance": (attn_analysis, "distance_matrix"),
    "analyze-halves": (lm_harness, "analyze_halves"),
    "report": (lm_harness, "write_report"),
}


@pytest.mark.parametrize(
    "command, through",
    [(c, False) for c in sorted(OUTPUT_WORK)] + [(c, True) for c in sorted(OUTPUT_WORK)],
    ids=sorted(OUTPUT_WORK) + [f"{c}-through-a-file" for c in sorted(OUTPUT_WORK)],
)
def test_an_output_naming_the_wrong_kind_of_file_exits_2_before_any_work(
    tmp_path, tiny_corpus, capsys, monkeypatch, command, through
):
    p = _output_inputs(tmp_path, tiny_corpus)

    def never(*args, **kwargs):
        raise AssertionError("the command worked for an unwritable output")

    monkeypatch.setattr(*OUTPUT_WORK[command], never)
    taken = tmp_path / "taken"
    field = "out_dir" if command == "report" else "out"
    if through:  # a file where the output needs a directory
        taken.write_text("")
        out, message = taken / "sub" / "x", f"{field}: runs through a file: {taken}"
    elif command == "report":  # out_dir is written into, so a file is what it must not name
        taken.write_text("")
        out, message = taken, f"{field}: names a file: {taken}"
    else:
        taken.mkdir()
        out, message = taken, f"{field}: names a directory: {taken}"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_output_config(command, p, str(out))))
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"config error: {message}"]
    assert captured.out == "" and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", sorted(OUTPUT_WORK))
def test_an_output_in_a_missing_directory_gets_its_directories(tmp_path, tiny_corpus, capsys, command):
    p = _output_inputs(tmp_path, tiny_corpus)
    out = tmp_path / "new" / "nested" / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_output_config(command, p, str(out))))
    assert main([command, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert out.is_dir() if command == "report" else out.is_file()


# case -> (command, the field that names the file an output would write, the output's field)
CLASHES = {
    "train": ("train", "corpus", "out"),
    "train-outputs": ("train", "out", "checkpoint_out"),
    "search": ("search", "corpus", "out"),
    "sweep": ("sweep", "corpus", "out"),
    "capture": ("capture", "checkpoint", "out"),
    "distance": ("distance", "dumps", "out"),
    "analyze-halves": ("analyze-halves", "records", "out"),
    "analyze-halves-bundled-tables": ("analyze-halves", "records", "out"),
    "analyze-halves-config": ("analyze-halves", "--config", "out"),
    "report": ("report", "records", "out_dir"),
}


@pytest.mark.parametrize("case", sorted(CLASHES))
def test_an_output_naming_an_input_or_another_output_exits_2_before_any_work(
    tmp_path, tiny_corpus, capsys, monkeypatch, case
):
    command, named, field = CLASHES[case]
    p = _output_inputs(tmp_path, tiny_corpus)
    p["dumps"], p["checkpoint"] = p["dump_b"], p["ckpt"]

    def never(*args, **kwargs):
        raise AssertionError("the command worked for an output that names one of its files")

    monkeypatch.setattr(*OUTPUT_WORK[command], never)
    cfg, cfg_path = _output_config(command, p, None), tmp_path / "cfg.json"
    if case == "train-outputs":
        target = tmp_path / "taken"
        cfg["out"] = cfg["checkpoint_out"] = str(target)
    elif case == "analyze-halves-config":
        target = cfg_path
        cfg["out"] = str(target)
    elif case == "analyze-halves-bundled-tables":  # a copy stands in for the package's tables
        target = tmp_path / "tables.jsonl"
        target.write_bytes(arch_dsl.bundled_tables_path().read_bytes())
        monkeypatch.setattr(arch_dsl, "bundled_tables_path", lambda: target)
        cfg.update(records="bundled-tables", out=str(target))
    elif command == "report":  # a results file named like the report's csv, in out_dir
        target = tmp_path / "reports" / "report.csv"
        target.parent.mkdir()
        _results_with(target, 2)
        cfg.update(records=str(target), out_dir=str(target.parent), formats=["markdown", "csv"])
    else:
        target = Path(p[named])
        cfg[field] = str(target)
    cfg_path.write_text(json.dumps(cfg))
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"config error: {field}: writes {target}, which {named} names"]
    assert captured.out == ""
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "command, field",
    [("train", "corpus"), ("capture", "checkpoint"), ("distance", "dumps"), ("analyze-halves", "records"),
     ("report", "records")],
)
def test_an_input_path_the_os_cannot_look_up_is_not_found_and_exits_2(tmp_path, tiny_corpus, capsys, command, field):
    p = _output_inputs(tmp_path, tiny_corpus)
    cfg = _output_config(command, p, str(tmp_path / "out"))
    bad = str(tmp_path / "in\0put")
    cfg[field] = [bad, p["dump_b"]] if field == "dumps" else bad
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path)]) == 2
    assert f"config error: {field}: file not found: {bad}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("case", ["symlink-loop", "null-byte", "empty", "up-from-a-file", "dangling-symlink"])
def test_an_output_is_checked_as_written_and_as_resolved_before_training(
    tmp_path, tiny_corpus, capsys, monkeypatch, case
):
    link, target = tmp_path / "link", tmp_path / "missing" / "x.json"
    if case == "symlink-loop":  # the error's own text differs between Python versions
        (tmp_path / "loop").symlink_to(link)
        link.symlink_to(tmp_path / "loop")
        out, message = str(link), f"out: cannot resolve {link}: "
    elif case == "null-byte":
        out = str(tmp_path / "a\0b")
        message = f"out: cannot resolve {out}: embedded null byte"
    elif case == "empty":
        out, message = "", "out: names no file"
    elif case == "up-from-a-file":  # the OS looks the file up as a directory, so the .. does not cancel it
        out, message = f"{tiny_corpus}/../x.json", f"out: runs through a file: {tiny_corpus}"
    else:  # written through, into the directory the link's target needs
        link.symlink_to(target)
        out, message = str(link), None
    train_model, seen = lm_harness.train_model, []

    def checked(cfg, corpus):
        seen.append(target.parent.is_dir())
        return train_model(cfg, corpus)

    monkeypatch.setattr(lm_harness, "train_model", checked)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ordering": "sf", "train": train_block(steps=2), "corpus": str(tiny_corpus),
                                    "out": out}))
    before = sorted(tmp_path.iterdir())
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    if message is None:
        assert (rc, captured.err, seen) == (0, "", [True])
        assert json.loads(target.read_text())["ordering"] == "sf"
        return
    assert (rc, seen, captured.out) == (2, [], "")
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: {message}")
    assert case == "symlink-loop" or line == f"config error: {message}"
    assert sorted(tmp_path.iterdir()) == before


def test_a_report_file_that_is_a_directory_exits_2_before_any_work(tmp_path, tiny_corpus, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the report was written over a directory")

    monkeypatch.setattr(lm_harness, "write_report", never)
    p = _output_inputs(tmp_path, tiny_corpus)
    taken = tmp_path / "reports" / "report.md"
    taken.mkdir(parents=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_output_config("report", p, str(taken.parent)), "formats": ["csv", "markdown"]}))
    before = sorted(tmp_path.rglob("*"))
    assert main(["report", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"config error: out_dir: writes {taken}, which is a directory"]
    assert captured.out == "" and sorted(tmp_path.rglob("*")) == before


def test_capture_of_a_checkpoint_without_self_attention_exits_2_naming_it(tmp_path, tiny_corpus, capsys):
    ckpt, dump_path, cfg_path = tmp_path / "ff.ckpt", tmp_path / "d.jsonl", tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "ordering": "ff", "train": {**train_block(steps=2), "d": 8}, "corpus": str(tiny_corpus),
        "checkpoint_out": str(ckpt),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 0
    cfg_path.write_text(json.dumps({"checkpoint": str(ckpt), "corpus": str(tiny_corpus), "out": str(dump_path)}))
    capsys.readouterr()
    assert main(["capture", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: checkpoint: its ordering 'ff' has no self-attention sublayer to capture"
    ]
    assert not dump_path.exists()


@pytest.mark.parametrize("threshold", [float("nan"), float("-inf")], ids=["NaN", "-Infinity"])
def test_analyze_halves_non_finite_threshold_exits_2(tmp_path, capsys, threshold):
    cfg_path = tmp_path / "ah.json"
    cfg_path.write_text(json.dumps({"records": "bundled-tables", "threshold": threshold}))
    assert main(["analyze-halves", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "config error: threshold: must be finite" in captured.err
    assert captured.out == ""


def test_misspelled_keys_exit_2_before_a_model_is_built(tmp_path, tiny_corpus, capsys, monkeypatch):
    def never(cfg, corpus):
        raise AssertionError("a model was built for a config with unknown keys")

    monkeypatch.setattr(lm_harness, "train_model", never)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "ordering": "sf", "sead": 3, "corpus": str(tiny_corpus),
        "train": {**train_block(), "lerning_rate": 5.0, "drop_out": 0.5},
    }))
    for _ in range(2):
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sead: unknown field",
            "config error: train.lerning_rate: unknown field",
            "config error: train.drop_out: unknown field",
        ]


def test_distance_incompatible_dumps_exit_2_listing_every_one(tmp_path, capsys):
    paths = []
    for mid, heads, t in (("a", 2, 4), ("b", 3, 4), ("c", 2, 5)):
        path = tmp_path / f"{mid}.jsonl"
        probs = np.full((2, heads, t, t), 1.0 / t)
        attn_analysis.save_dump(attn_analysis.AttentionDump(mid, "sfsf", heads, t, probs), path)
        paths.append(str(path))
    out = tmp_path / "dist.out.json"
    cfg = tmp_path / "dist.json"
    cfg.write_text(json.dumps({"dumps": paths, "out": str(out)}))
    assert main(["distance", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: dumps: dump 1 ('b') has (s_count, heads, t) = (2, 3, 4), dump 0 ('a') has (2, 2, 4)",
        "config error: dumps: dump 2 ('c') has (s_count, heads, t) = (2, 2, 5), dump 0 ('a') has (2, 2, 4)",
    ]
    assert captured.out == "" and not out.exists()


def test_distance_groups_take_any_model_id(tmp_path, capsys):
    paths = []
    for mid in ("sead", "train.lerning_rate"):
        path = tmp_path / f"{mid}.jsonl"
        probs = np.full((1, 1, 2, 2), 0.5)
        attn_analysis.save_dump(attn_analysis.AttentionDump(mid, "sf", 1, 2, probs), path)
        paths.append(str(path))
    cfg = tmp_path / "dist.json"
    groups = {"sead": "g", "train.lerning_rate": "h", "not dumped": "h"}
    cfg.write_text(json.dumps({"dumps": paths, "groups": groups}))
    assert main(["distance", "--config", str(cfg)]) == 0
    assert "g--h: 0" in capsys.readouterr().out


# -- each config error alone: exit 2, one line, no output ------------------------


def _search(**fields):
    return lambda p: {"trials": 1, "n_s": 1, "n_f": 1, "train": train_block(), "corpus": p["corpus"],
                      "out": p["out"], **fields}


CONFIG_ERRORS = {
    "unreadable_config": ("train", None, "config: cannot read "),
    "top_level_not_an_object": ("train", lambda p: [p["corpus"]], "config: top level must be a JSON object"),
    "required_field_missing": (
        "train", lambda p: {"train": train_block(), "corpus": p["corpus"], "out": p["out"]},
        "ordering: required field is missing",
    ),
    "count_of_2**63": ("search", _search(mode="permutation", trials=2**63), "trials: must be <= 9223372036854775807"),
    "mode_grid": ("search", _search(mode="grid"), "mode: expected permutation|budgeted, got 'grid'"),
    "no_sublayers": ("search", _search(mode="permutation", n_s=0, n_f=0), "n_s: permutation mode needs n_s + n_f >= 1"),
    "budget_0": ("search", _search(mode="budgeted", budget=0, n_s=0, n_f=0), "budget: budgeted mode needs budget >= 1"),
    "budget_in_permutation_mode": (
        "search", _search(mode="permutation", budget=48), "budget: permutation mode takes no budget, got 48",
    ),
    "n_s_in_budgeted_mode": (
        "search", _search(mode="budgeted", budget=3, n_f=0), "n_s: budgeted mode takes no n_s, got 1",
    ),
    "n_f_in_budgeted_mode": (
        "search", _search(mode="budgeted", budget=3, n_s=0), "n_f: budgeted mode takes no n_f, got 1",
    ),
    "capture_missing_checkpoint": (
        "capture", lambda p: {"checkpoint": p["missing"], "corpus": p["corpus"], "out": p["out"]},
        "checkpoint: file not found: ",
    ),
    "capture_split_dev": (
        "capture", lambda p: {"checkpoint": p["ckpt"], "corpus": p["corpus"], "split": "dev", "out": p["out"]},
        "split: expected train|valid|test, got 'dev'",
    ),
    "distance_missing_dump": (
        "distance", lambda p: {"dumps": [p["dump"], p["missing"]], "out": p["out"]}, "dumps: file not found: ",
    ),
    "analyze_halves_include_baselines_on_a_results_file": (
        "analyze-halves", lambda p: {"records": p["records"], "include_baselines": True, "out": p["out"]},
        "include_baselines: applies to bundled-tables only, not to a results file",
    ),
    "analyze_halves_missing_records": (
        "analyze-halves", lambda p: {"records": p["missing"], "out": p["out"]}, "records: file not found: ",
    ),
    "report_missing_records": (
        "report", lambda p: {"records": p["missing"], "out_dir": p["out"]}, "records: file not found: ",
    ),
    "report_unknown_format": (
        "report", lambda p: {"records": p["records"], "formats": ["pdf"], "out_dir": p["out"]},
        "formats: unknown format 'pdf'",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_a_lone_config_error_exits_2_with_one_line_and_no_output(tmp_path, tiny_corpus, capsys, case):
    command, doc, message = CONFIG_ERRORS[case]
    p = {name: str(tmp_path / name) for name in ("ckpt", "dump", "records", "missing", "out")}
    p["corpus"] = str(tiny_corpus)
    save_checkpoint(build_model(ModelConfig(d=8, heads=2, vocab=5, context=4, ordering=parse_ordering("sf")), 0), p["ckpt"])
    attn_analysis.save_dump(attn_analysis.AttentionDump("a", "sf", 1, 2, np.full((1, 1, 2, 2), 0.5)), p["dump"])
    Path(p["records"]).write_text(json.dumps({"v": 1, "kind": "header"}) + "\n")
    cfg_path = tmp_path / "cfg.json"
    if doc is None:
        cfg_path = tmp_path / "missing"
    else:
        cfg_path.write_text(json.dumps(doc(p)))
    before = sorted(tmp_path.iterdir())
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before
