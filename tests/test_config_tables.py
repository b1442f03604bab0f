"""Config documents one change away from a valid one, and the README's
examples: each config-driven command exits 0 or 2 (never 1), an exit 2 names
what changed, and every documented example passes validation."""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublayer_lab import attn_analysis, cli, lm_harness
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.model import ModelConfig, build_model, save_checkpoint

PANGRAM = "Jovial zebras quickly fixed the glum pond; 42 herons watched. " * 60
README = Path(__file__).resolve().parent.parent / "README.md"


class Reached(BaseException):
    """Raised by the stubbed ``train_model``: the config passed validation.
    Not an ``Exception``, so ``main`` does not turn it into exit 1."""


def reached(cfg, corpus):
    raise Reached


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid input file of each kind a config names."""
    tmp = tmp_path_factory.mktemp("inputs")
    (tmp / "corpus.txt").write_text(PANGRAM)
    corpus = lm_harness.load_corpus(tmp / "corpus.txt")
    model = build_model(
        ModelConfig(d=8, heads=2, vocab=corpus.vocab_size, context=8, ordering=parse_ordering("sf")), 0
    )
    save_checkpoint(model, tmp / "model.ckpt")
    attn_analysis.save_dump(attn_analysis.capture(model, corpus.valid_ids[:8], "demo"), tmp / "dump.jsonl")
    template = lm_harness.TrainTemplate(d=8, heads=2, steps=2, batch_size=2, context=8, eval_interval=1)
    lm_harness.run_random_search(
        lm_harness.SearchConfig("permutation", template, 0, str(tmp / "results.jsonl"), trials=2, n_s=1, n_f=1),
        corpus,
    )
    return {name: str(tmp / name) for name in ("corpus.txt", "model.ckpt", "dump.jsonl", "results.jsonl")}


def valid_config(command, files, tmp):
    """A valid config for ``command`` that sets every field of its table."""
    train = {
        "d": 8, "heads": 2, "steps": 2, "batch_size": 2, "context": 8, "lr": 1e-3, "eval_interval": 1,
        "ffn_inner": 0, "tie_embeddings": True, "pre_norm": True, "dropout": 0.0,
    }
    corpus = {"corpus": files["corpus.txt"], "split_fractions": [0.8, 0.1, 0.1]}
    trials = {"master_seed": 0, "workers": 1, "out": str(tmp / "out.jsonl"), "train": train, **corpus}
    return {
        "train": {
            "ordering": "sf", "train": train, **corpus, "seed": 0, "sandwich_k": -1,
            "out": str(tmp / "out.json"), "checkpoint_out": str(tmp / "out.ckpt"),
        },
        "search": {"mode": "permutation", "trials": 2, "n_s": 1, "n_f": 1, "budget": 0, **trials},
        "sweep": {"n": 2, "k_values": [0, 1], **trials},
        "capture": {
            "checkpoint": files["model.ckpt"], "split": "valid", "offset": 0, "length": 0,
            "model_id": "m", "out": str(tmp / "out.jsonl"), **corpus,
        },
        "distance": {
            "dumps": [files["dump.jsonl"]] * 2, "groups": {"demo": "g"}, "out": str(tmp / "out.json"),
        },
        "analyze-halves": {
            "records": files["results.jsonl"], "threshold": 18.65, "include_baselines": False,
            "metric_field": "", "out": str(tmp / "out.json"),
        },
        "report": {"records": files["results.jsonl"], "formats": ["csv"], "out_dir": str(tmp / "out")},
    }[command]


def strings_for(key, files, tmp):
    """The strings ``key`` may take: a path field names a valid input file or
    no file (an output names no file), and any other field takes any text."""
    valid = {
        "corpus": [files["corpus.txt"]], "checkpoint": [files["model.ckpt"]], "dumps": [files["dump.jsonl"]],
        "records": [files["results.jsonl"], "bundled-tables"], "out": [], "checkpoint_out": [], "out_dir": [],
    }
    return st.sampled_from([*valid[key], str(tmp / "missing")]) if key in valid else st.text(max_size=8)


def nest(value, depth=200):
    for _ in range(depth):
        value = [value]
    return value


def json_values(strings):
    """Any JSON value: huge integers, NaN and infinities, wrong types, nesting."""
    leaves = (
        st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([2**63, 10**400, -(10**400)])
        | st.floats() | strings
    )
    nested = st.recursive(
        leaves, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
        max_leaves=6,
    )
    return nested | st.builds(nest, leaves)


def run(command, cfg, tmp):
    """``main``'s exit code and standard error for ``cfg``; 0 once training
    would start."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(lm_harness, "train_model", reached)
        try:
            rc = cli.main([command, "--config", str(path)])
        except Reached:
            rc = 0
    return rc, err.getvalue()


@pytest.mark.parametrize("command", sorted(cli.TABLES))
def test_valid_configs_set_every_field_of_the_table(command, files, tmp_path):
    cfg = valid_config(command, files, tmp_path)
    table = cli.TABLES[command]
    assert set(cfg) == set(table)
    if "train" in table:
        assert set(cfg["train"]) == set(table["train"])
    assert run(command, cfg, tmp_path) == (0, "")


@pytest.mark.parametrize("command", sorted(cli.TABLES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_change_exits_0_or_2_naming_the_field(command, files, data):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        cfg = valid_config(command, files, tmp)
        blocks = [()] + [(key,) for key, spec in cli.TABLES[command].items() if isinstance(spec, dict)]
        if data.draw(st.booleans(), label="add an unknown key"):
            where = data.draw(st.sampled_from(blocks), label="block")
            block = cfg[where[0]] if where else cfg
            key = data.draw(st.text(max_size=8).filter(lambda k: k not in block), label="key")
            block[key] = data.draw(json_values(st.text(max_size=8)), label="value")
            rc, err = run(command, cfg, tmp)
            assert rc == 2 and f"config error: {'.'.join((*where, key))}: unknown field\n" in err
            return
        fields = [(*b, key) for b in blocks for key in (cfg[b[0]] if b else cfg)]
        where = data.draw(st.sampled_from(fields), label="field")
        block = cfg[where[0]] if len(where) == 2 else cfg
        block[where[-1]] = data.draw(json_values(strings_for(where[-1], files, tmp)), label="value")
        rc, err = run(command, cfg, tmp)
        assert rc in (0, 2), err
        if rc == 2:
            assert re.search(rf"(?<![\w.]){re.escape('.'.join(where))}(?!\w)", err), err


@pytest.mark.parametrize(
    "command, fractions, message",
    [
        ("train", [0.25] * 4, "expected a list of 3 numbers"),
        ("train", [0.5, 0.6, -0.1], "split fractions must be 3 non-negatives summing to 1"),
        ("search", [0.0, 0.5, 0.5], "train fraction must be positive"),
        ("capture", [1.0, 0.0, 0.0], "the valid split is empty"),
    ],
)
def test_unusable_split_fractions_are_named(command, fractions, message, files, tmp_path):
    cfg = {**valid_config(command, files, tmp_path), "split_fractions": fractions}
    rc, err = run(command, cfg, tmp_path)
    assert rc == 2 and f"config error: split_fractions: {message}" in err


def readme_cli_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## CLI\n") : text.index("\n## File formats")]


def test_readme_cli_examples_pass_validation(tmp_path, monkeypatch):
    examples = re.findall(r"Example `(\w+)\.json`.*?```json\n(.*?)```", readme_cli_section(), re.S)
    assert sorted(command for command, _ in examples) == ["search", "sweep", "train"]
    monkeypatch.chdir(tmp_path)  # the examples write relative outputs
    for command, body in examples:
        assert run(command, json.loads(body), tmp_path) == (0, ""), command


def test_readme_lists_every_config_field():
    section = readme_cli_section()
    for command, table in cli.TABLES.items():
        for key, spec in table.items():
            assert f"`{key}`" in section, (command, key)
            for sub in spec if isinstance(spec, dict) else ():
                assert f"`{sub}`" in section, (command, key, sub)


def test_the_train_table_is_the_train_templates_fields():
    fields = dataclasses.fields(lm_harness.TrainTemplate)
    assert list(cli.TRAIN) == [f.name for f in fields]
    for f in fields:
        assert cli.TRAIN[f.name].default == (... if f.default is dataclasses.MISSING else f.default)
    assert {name: spec.minimum for name, spec in cli.TRAIN.items() if spec.kind is int} == {
        "d": 1, "heads": 1, "steps": 1, "batch_size": 1, "context": 1, "eval_interval": 1, "ffn_inner": 0,
    }
    assert all(spec.minimum is None for spec in cli.TRAIN.values() if spec.kind is not int)
