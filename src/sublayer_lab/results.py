"""The results file that search and sweep write, and its trial record.

A results file is JSON Lines with sorted keys. Line 1 is a header naming the
run that wrote it; each later line is one trial's record. Timing that varies
from run to run sits under each line's ``meta``, so the rest of a finished
file is byte-stable across reruns. A run appends each record as its trial
finishes, so an interrupted run resumes by trial index
(:func:`open_results`).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, get_origin, get_type_hints

from . import __version__
from ._json import loads, typed

__all__ = [
    "RESULTS_VERSION",
    "TrialRecord",
    "record_to_json_dict",
    "record_from_json_dict",
    "read_results",
    "ResumeMismatch",
    "open_results",
    "append_record",
]

RESULTS_VERSION = 1


@dataclass
class TrialRecord:
    """One trained architecture and its metrics.

    ``valid_bpc`` and ``valid_ppl`` are definitional transforms of
    ``valid_nats`` (nats/char / ln 2 and exp(nats/char)); a diverged run's
    ``valid_ppl`` is ``inf`` once exp overflows.
    """

    ordering: str
    sandwich_k: int  # -1 when the trial is not part of a sweep
    seed: int
    loss_curve: list[tuple[int, float]]
    valid_nats: float
    valid_bpc: float
    valid_ppl: float
    param_count: int
    wall_clock_s: float
    index: int = -1

    @classmethod
    def build(
        cls, ordering, sandwich_k, seed, loss_curve, valid_nats, param_count,
        wall_clock_s, index=-1,
    ) -> "TrialRecord":
        return cls(
            ordering=ordering,
            sandwich_k=sandwich_k,
            seed=seed,
            loss_curve=loss_curve,
            valid_nats=valid_nats,
            valid_bpc=valid_nats / math.log(2.0),
            valid_ppl=_perplexity(valid_nats),
            param_count=param_count,
            wall_clock_s=wall_clock_s,
            index=index,
        )


def _perplexity(nats: float) -> float:
    """exp(nats), or inf where that overflows a float."""
    try:
        return math.exp(nats)
    except OverflowError:
        return math.inf


# A record line's keys are TrialRecord's fields and their JSON kinds are the
# fields' types; the fields in _META vary from run to run and sit under "meta".
_KINDS = {name: get_origin(hint) or hint for name, hint in get_type_hints(TrialRecord).items()}
_META = ("wall_clock_s",)


def record_to_json_dict(rec: TrialRecord) -> dict:
    doc = {name: getattr(rec, name) for name in _KINDS if name not in _META}
    doc["loss_curve"] = [[int(s), float(l)] for s, l in rec.loss_curve]
    meta = {name: getattr(rec, name) for name in _META}
    return {"v": RESULTS_VERSION, "kind": "trial", **doc, "meta": meta}


def record_from_json_dict(doc: dict) -> TrialRecord:
    """Inverse of :func:`record_to_json_dict`.

    Raises ``ValueError`` for anything but a JSON object holding every field
    with its JSON type, an ``index`` that is -1 (no trial) or more, and a
    ``valid_bpc`` and ``valid_ppl`` consistent with ``valid_nats``.
    """
    typed(doc, dict, "record")
    meta = typed(doc.get("meta", {}), dict, "record field 'meta'")
    values = {}
    for name, kind in _KINDS.items():
        if name in _META:
            values[name] = typed(meta.get(name, 0.0), kind, f"record field {name!r}")
        elif name in doc:
            values[name] = typed(doc[name], kind, f"record field {name!r}")
        else:
            raise ValueError(f"record lacks {name!r}")
    if values["index"] < -1:
        raise ValueError(f"record index must be >= -1, got {values['index']}")
    curve = []
    for point in values["loss_curve"]:
        if not (isinstance(point, list) and len(point) == 2 and type(point[0]) is int):
            raise ValueError(f"record field 'loss_curve' holds {point!r}, not a [step, loss] pair")
        curve.append((point[0], typed(point[1], float, "a 'loss_curve' loss")))
    rec = TrialRecord(**{**values, "loss_curve": curve})
    if not _agree(rec.valid_bpc, rec.valid_nats / math.log(2.0)):
        raise ValueError(f"record bpc inconsistent with nats: {doc}")
    if not _agree(rec.valid_ppl, _perplexity(rec.valid_nats)):
        raise ValueError(f"record ppl inconsistent with nats: {doc}")
    return rec


def _agree(got: float, want: float) -> bool:
    """Whether a stored value matches the one derived from ``valid_nats``:
    NaN matches only NaN and an infinity only itself; finite values agree
    within 1e-9 times the smaller magnitude, and within 1e-9 below 1."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-9 * max(1.0, min(abs(got), abs(want)))


def _scan_results(path) -> tuple[dict | None, dict[int, TrialRecord], int]:
    """Parse an existing results file, tolerating a truncated final line.

    Returns (header, trial records by index, byte offset where clean content
    ends). Only what a killed writer can leave is taken for truncated: a
    final segment without a newline, or a final line that does not parse.
    Every other defect raises ``ValueError`` naming the line: an unparseable
    line with content after it, a line that is not a JSON object, a ``kind``
    other than ``header`` or ``trial``, a header anywhere but line 1, a trial
    before the header, and a trial of another format version, that is not a
    valid record or that repeats an index. A header's version is left to the
    caller: a resume names it as a mismatch.
    """
    if not os.path.exists(path):
        return None, {}, 0
    raw = Path(path).read_bytes()
    header = None
    records: dict[int, TrialRecord] = {}
    good_end = 0
    lineno = 0
    while True:
        nl = raw.find(b"\n", good_end)
        if nl == -1:
            break
        lineno += 1
        try:  # UnicodeDecodeError is a ValueError
            doc = loads(raw[good_end:nl].decode("utf-8"))
        except ValueError:
            if nl + 1 < len(raw):
                raise ValueError(
                    f"results line {lineno} does not parse and is not the last line"
                ) from None
            break
        if not isinstance(doc, dict):
            raise ValueError(f"results line {lineno} is not a JSON object")
        kind = doc.get("kind")
        if kind == "header":
            if lineno != 1:
                raise ValueError(f"results line {lineno}: a header may only be line 1")
            header = doc
        elif kind == "trial":
            if header is None:
                raise ValueError(f"results line {lineno}: a trial before the header")
            if doc.get("v") != RESULTS_VERSION:
                raise ValueError(f"results line {lineno}: format version {doc.get('v')!r}, expected {RESULTS_VERSION}")
            try:
                rec = record_from_json_dict(doc)
            except ValueError as exc:
                raise ValueError(f"results line {lineno}: {exc}") from None
            if rec.index < 0:
                raise ValueError(f"results line {lineno}: trial index must be >= 0, got {rec.index}")
            if rec.index in records:
                raise ValueError(f"results line {lineno}: trial index {rec.index} repeats")
            records[rec.index] = rec
        else:
            raise ValueError(f"results line {lineno}: unknown kind {kind!r}")
        good_end = nl + 1
    return header, records, good_end


def read_results(path) -> list[TrialRecord]:
    """Load trial records from a results file, sorted by index; a header of
    another format version raises ``ValueError``."""
    header, records, _ = _scan_results(path)
    if header is not None and header.get("v") != RESULTS_VERSION:
        raise ValueError(f"results line 1: format version {header.get('v')!r}, expected {RESULTS_VERSION}")
    return [records[i] for i in sorted(records)]


class ResumeMismatch(ValueError):
    """A results file's header disagrees with the run that would resume it;
    carries one message per differing field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _check_resume(path, header: dict, run: dict) -> None:
    """Raise :class:`ResumeMismatch` naming each key whose value differs
    between the file's ``header`` and the header ``run`` this run would
    write, in ``run``'s key order and then the file's; where both values are
    objects, each differing key inside them is named, as ``train.d``.
    ``meta`` and ``tool_version`` are not compared."""

    def differences(old: dict, new: dict, prefix: str):
        for key in dict.fromkeys([*new, *old]):
            was, has = old.get(key), new.get(key)
            if key in ("meta", "tool_version") or was == has:
                continue
            if type(was) is dict and type(has) is dict:
                yield from differences(was, has, f"{prefix}{key}.")
            else:
                yield f"{prefix}{key}: the results file {path} was written with {was!r}, this run has {has!r}"

    errors = list(differences(header, run, ""))
    if errors:
        raise ResumeMismatch(errors)


def _append(fh: BinaryIO, doc: dict) -> None:
    fh.write((json.dumps(doc, sort_keys=True) + "\n").encode())
    fh.flush()  # a killed run loses at most the line it was writing


def open_results(path, run: dict) -> tuple[BinaryIO, dict[int, TrialRecord]]:
    """Open the results file at ``path`` for the run that ``run`` names.

    ``run`` holds the header fields that identify the run (``mode``,
    ``master_seed``, ...). A new file gets its header line. An existing file
    must hold the header this run would write, or :class:`ResumeMismatch`
    is raised before the file is touched (see :func:`_check_resume`); a
    torn last line is then cut off. Returns the file, open to append, and
    the trial records already in it by index.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    header, records, good_end = _scan_results(path)
    doc = {
        "v": RESULTS_VERSION,
        "kind": "header",
        "tool": "sublayer-lab",
        "tool_version": __version__,
        **run,
        "meta": {"created_unix": int(time.time())},
    }
    if header is not None:
        _check_resume(path, header, doc)
    fh = open(path, "ab")
    fh.truncate(good_end)
    if header is None:
        _append(fh, doc)
    return fh, records


def append_record(fh: BinaryIO, rec: TrialRecord) -> None:
    """Append ``rec``'s line to a file that :func:`open_results` opened."""
    _append(fh, record_to_json_dict(rec))
