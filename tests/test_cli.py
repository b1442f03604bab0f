import json

import pytest

from sublayer_lab.cli import main

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
    # capture window exceeding the split length is a runtime error, not config
    ckpt = tmp_path / "m.ckpt"
    train_cfg = tmp_path / "t.json"
    train_cfg.write_text(json.dumps({
        "ordering": "sf", "train": train_block(),
        "corpus": str(tiny_corpus), "checkpoint_out": str(ckpt),
    }))
    assert main(["train", "--config", str(train_cfg)]) == 0
    cap_cfg = tmp_path / "c.json"
    cap_cfg.write_text(json.dumps({
        "checkpoint": str(ckpt), "corpus": str(tiny_corpus),
        "split": "valid", "offset": 10_000_000, "length": 5,
        "out": str(tmp_path / "d.jsonl"),
    }))
    assert main(["capture", "--config", str(cap_cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sublayer-lab" in capsys.readouterr().out
