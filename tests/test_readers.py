"""The three file readers on damaged input: whatever the bytes, each returns a
valid object or raises ``ValueError``."""

import ast
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublayer_lab import _json
from sublayer_lab import attn_analysis as aa
from sublayer_lab import lm_harness as lm
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.model import (
    ModelConfig,
    TransformerStack,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

DEEP = "[" * 100_000 + "]" * 100_000  # nested far past the JSON parser's stack


def _is_dump(dump):
    return isinstance(dump, aa.AttentionDump) and np.isfinite(dump.probs).all()


def _is_results(records):
    return isinstance(records, list) and all(isinstance(r, lm.TrialRecord) for r in records)


READERS = {
    "checkpoint": (load_checkpoint, lambda m: isinstance(m, TransformerStack)),
    "dump": (aa.load_dump, _is_dump),
    "results": (lm.read_results, _is_results),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per reader, as bytes."""
    tmp = tmp_path_factory.mktemp("valid")
    cfg = ModelConfig(d=4, heads=1, vocab=3, context=4, ordering=parse_ordering("sf"))
    save_checkpoint(build_model(cfg, 0), tmp / "model.ckpt")
    probs = np.array([[[[1.0, 0.0], [0.25, 0.75]]]])
    aa.save_dump(aa.AttentionDump("m", "sf", 1, 2, probs), tmp / "dump.jsonl")
    search = lm.SearchConfig(
        mode="permutation", master_seed=0, out_path=str(tmp / "results.jsonl"), trials=2, n_s=1, n_f=1,
        template=lm.TrainTemplate(d=4, heads=1, steps=2, batch_size=2, context=4, eval_interval=1),
    )
    lm.run_random_search(search, lm.load_corpus_text("abcabcab" * 8))
    return {
        "checkpoint": (tmp / "model.ckpt").read_bytes(),
        "dump": (tmp / "dump.jsonl").read_bytes(),
        "results": (tmp / "results.jsonl").read_bytes(),
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


def read_or_reject(kind, data, path):
    """Read ``data`` as a ``kind`` file; True when it was accepted."""
    reader, is_valid = READERS[kind]
    path.write_bytes(data)
    try:
        result = reader(path)
    except ValueError:
        return False
    assert is_valid(result)
    return True


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_truncation_is_read_or_rejected(kind, valid_files, scratch):
    data = valid_files[kind]
    accepted = [cut for cut in range(len(data) + 1) if read_or_reject(kind, data[:cut], scratch)]
    if kind == "results":  # a cut line is a killed run's tail: the records before it stand
        assert accepted == list(range(len(data) + 1))
        assert len(lm.read_results(scratch)) == 2
    elif kind == "dump":  # only the final newline may go
        assert accepted == [len(data) - 1, len(data)]
    else:
        assert accepted == [len(data)]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(READERS)), data=st.binary(max_size=400))
def test_arbitrary_bytes_are_read_or_rejected(kind, data, scratch):
    read_or_reject(kind, data, scratch)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(READERS)), edit=st.data())
def test_damaged_valid_files_are_read_or_rejected(kind, edit, valid_files, scratch):
    data = valid_files[kind]
    start = edit.draw(st.integers(0, len(data)))
    stop = edit.draw(st.integers(start, min(len(data), start + 16)))
    patch = edit.draw(st.binary(max_size=16) | st.sampled_from([b"0", b"-1", b"1e400", b"[", b"\n", b"null"]))
    read_or_reject(kind, data[:start] + patch + data[stop:], scratch)


@settings(max_examples=200, deadline=None)
@given(edit=st.data())
def test_damage_to_a_middle_results_line_never_drops_a_record(edit, valid_files, scratch):
    header, first, second = valid_files["results"].decode().splitlines(keepends=True)
    start = edit.draw(st.integers(0, len(first) - 2))
    stop = edit.draw(st.integers(start + 1, len(first) - 1))  # the newline stays
    scratch.write_text(header + first[:start] + first[stop:] + second)
    try:
        records = lm.read_results(scratch)
    except ValueError:
        return
    assert len(records) == 2


def test_deeply_nested_json_raises_value_error(valid_files, scratch):
    ckpt = valid_files["checkpoint"]
    deep = DEEP.encode()
    scratch.write_bytes(ckpt[:5] + struct.pack("<I", len(deep)) + deep)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_checkpoint(scratch)
    header, first, *rest = valid_files["dump"].decode().splitlines()
    for lines in ([DEEP, first, *rest], [header, DEEP, *rest]):
        scratch.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="nested too deeply"):
            aa.load_dump(scratch)


def test_checkpoint_claiming_a_huge_model_is_rejected_before_building(valid_files, scratch):
    ckpt = valid_files["checkpoint"]
    hlen = struct.unpack("<I", ckpt[5:9])[0]
    header = json.loads(ckpt[9 : 9 + hlen])
    raw = json.dumps({**header, "d": 200_000}).encode()  # 4d^2 floats: 1.3 TB
    scratch.write_bytes(ckpt[:5] + struct.pack("<I", len(raw)) + raw + ckpt[9 + hlen :])
    with pytest.raises(ValueError, match="truncated in its parameters"):
        load_checkpoint(scratch)


def test_dump_claiming_a_huge_shape_is_rejected_before_allocating(valid_files, scratch):
    header, *rest = valid_files["dump"].decode().splitlines()
    doc = {**json.loads(header), "t": 10**7}  # t^2 floats: 800 TB
    scratch.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
    with pytest.raises(ValueError, match="too short"):
        aa.load_dump(scratch)


def test_checkpoint_of_another_version_or_activation_is_rejected(valid_files, scratch):
    ckpt = valid_files["checkpoint"]
    scratch.write_bytes(ckpt[:4] + bytes([2]) + ckpt[5:])  # the version byte
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        load_checkpoint(scratch)
    hlen = struct.unpack("<I", ckpt[5:9])[0]
    raw = json.dumps({**json.loads(ckpt[9 : 9 + hlen]), "activation": "gelu"}).encode()
    scratch.write_bytes(ckpt[:5] + struct.pack("<I", len(raw)) + raw + ckpt[9 + hlen :])
    with pytest.raises(ValueError, match="unsupported activation 'gelu'"):
        load_checkpoint(scratch)


def test_dump_of_another_version_or_off_unit_mass_is_rejected(valid_files, scratch):
    header, first, *rest = valid_files["dump"].decode().splitlines()
    scratch.write_text("\n".join([json.dumps({**json.loads(header), "v": 2}), first, *rest]) + "\n")
    with pytest.raises(ValueError, match="unsupported dump version 2"):
        aa.load_dump(scratch)
    doc = json.loads(first)
    doc["p"][0] += 1e-6
    scratch.write_text("\n".join([header, json.dumps(doc), *rest]) + "\n")
    with pytest.raises(ValueError, match="rows deviate from unit mass by 1e-06"):
        aa.load_dump(scratch)


def test_only_the_json_module_parses_json():
    """Every reader parses through ``sublayer_lab._json``, so one module
    decides how a bad document fails."""
    src = Path(aa.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_json.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):  # json.loads(...)
                found = node.attr == "loads" and getattr(node.value, "id", None) == "json"
            elif isinstance(node, ast.ImportFrom):  # from json import loads
                found = node.module == "json" and any(a.name == "loads" for a in node.names)
            else:
                continue
            if found:
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


@pytest.mark.parametrize(
    "value, kind, expected",
    [(1, float, 1.0), (1.5, float, 1.5), (1, int, 1), (True, bool, True), ("x", str, "x"), ([], list, [])],
)
def test_typed_accepts_its_kind(value, kind, expected):
    out = _json.typed(value, kind, "v")
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "v must be a JSON int, got True"),
        (False, float, "v must be a JSON number, got False"),
        (1.0, int, "v must be a JSON int, got 1.0"),
        (1, bool, "v must be a JSON boolean, got 1"),
        (None, str, "v must be a JSON string, got None"),
        ({}, list, "v must be a JSON array"),
        ([], dict, "v must be a JSON object"),
        (10**400, float, "v is out of float range"),
    ],
)
def test_typed_rejects_everything_else(value, kind, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _json.typed(value, kind, "v")
