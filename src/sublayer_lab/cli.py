"""Command-line front end for the laboratory.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
config-validation failure (validation lists every invalid field). All
randomness enters through explicit seeds in flags or config files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

from . import __version__, arch_dsl, attn_analysis, lm_harness, results
from ._json import loads, typed
from .arch_dsl import OrderingError, parse_ordering
from .model import load_checkpoint, save_checkpoint

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 2."""


class ConfigErrors(Exception):
    """Config validation failures; carries one message per invalid field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# config tables and the walk that checks a document against one


class Field(NamedTuple):
    """One config field: its JSON kind (``list[int]`` is a list of ints), its
    default (``...`` when it is required) and its least value or list length.
    An int with a least value is a count or a size, so it must also fit an
    index (``sys.maxsize``), as a number must fit a float."""

    kind: object
    default: object = ...
    minimum: int | None = None


# The train block is TrainTemplate's fields: an int's least value is 1 unless
# the field's metadata gives a "minimum".
_TRAIN_KINDS = get_type_hints(lm_harness.TrainTemplate)
TRAIN = {
    f.name: Field(_TRAIN_KINDS[f.name], ... if f.default is MISSING else f.default,
                  f.metadata.get("minimum", 1) if _TRAIN_KINDS[f.name] is int else None)
    for f in fields(lm_harness.TrainTemplate)
}
CORPUS = {"corpus": Field(str), "split_fractions": Field(list[float], [0.8, 0.1, 0.1])}
# ``workers`` is checked and then read by nothing: configs that send it keep working
TRIALS = {"master_seed": Field(int, 0), "workers": Field(int, 1, 1), "out": Field(str), "train": TRAIN, **CORPUS}
TABLES = {
    "train": {
        "ordering": Field(str),
        "train": TRAIN,
        **CORPUS,
        "seed": Field(int, 0),
        "sandwich_k": Field(int, -1),
        "out": Field(str, None),
        "checkpoint_out": Field(str, None),
    },
    "search": {
        "mode": Field(str),
        "trials": Field(int, minimum=1),
        **dict.fromkeys(("n_s", "n_f", "budget"), Field(int, 0, 0)),
        **TRIALS,
    },
    "sweep": {"n": Field(int, minimum=1), "k_values": Field(list[int], None, 1), **TRIALS},
    "capture": {
        "checkpoint": Field(str), "split": Field(str, "valid"), "offset": Field(int, 0, 0),
        "length": Field(int, 0, 0), "model_id": Field(str, ""), "out": Field(str), **CORPUS,
    },
    # the keys of groups are model ids, so only its labels are checked
    "distance": {"dumps": Field(list[str], minimum=2), "groups": Field(dict, None), "out": Field(str, None)},
    "analyze-halves": {
        "records": Field(str), "threshold": Field(float, lm_harness.DEFAULT_REFERENCE_THRESHOLD),
        "include_baselines": Field(bool, False), "metric_field": Field(str, ""), "out": Field(str, None),
    },
    "report": {
        "records": Field(str), "formats": Field(list[str], list(lm_harness.REPORT_FORMATS), 1),
        "out_dir": Field(str),
    },
}


def _checked(value, spec: Field, name: str, errors: list[str]):
    """``value`` if it has ``spec``'s JSON kind (``_json.typed`` decides) and
    bounds, else None after adding why not to ``errors``."""
    kind = get_origin(spec.kind) or spec.kind
    try:
        value = typed(value, kind, name)
    except ValueError as e:  # an int that no float holds fails as such
        out_of_range = kind is float and type(value) is int
        errors.append(str(e) if out_of_range else f"{name}: expected {kind.__name__}, got {type(value).__name__}")
        return None
    if kind is list and None in [_checked(x, Field(get_args(spec.kind)[0]), name, errors) for x in value]:
        return None
    if spec.minimum is None:
        return value
    if kind is list:
        if len(value) >= spec.minimum:
            return value
        errors.append(f"{name}: length must be >= {spec.minimum}, got {len(value)}")
    elif value < spec.minimum:
        errors.append(f"{name}: must be >= {spec.minimum}, got {value}")
    elif value > sys.maxsize:
        errors.append(f"{name}: must be <= {sys.maxsize}")
    else:
        return value
    return None


def _walk(doc: dict, table: dict, errors: list[str], prefix: str = "") -> dict:
    """Every field of ``table`` (a nested table is a required object), checked,
    with its default where ``doc`` lacks it or it fails (None if required).
    Adds to ``errors`` each key of ``doc`` that the table lacks, in document
    order, and then each failure."""
    errors.extend(f"{prefix}{key}: unknown field" for key in doc if key not in table)
    out = {}
    for key, spec in table.items():
        name = prefix + key
        if isinstance(spec, dict):
            block = doc.get(key)
            out[key] = _walk(block, spec, errors, name + ".") if type(block) is dict else None
            if out[key] is None:
                errors.append(f"{name}: required object is missing")
            continue
        if key not in doc and spec.default is ...:
            errors.append(f"{name}: required field is missing")
        value = _checked(doc[key], spec, name, errors) if key in doc else None
        default = None if spec.default is ... else spec.default
        out[key] = default if value is None else value
    return out


# the fields that name files a command reads, and those that name what it
# writes (``out_dir`` a directory, into which ``report`` writes its files)
_INPUTS = ("corpus", "checkpoint", "dumps", "records")
_OUTPUTS = ("out", "checkpoint_out", "out_dir")


def _file(key: str, raw: str) -> Path:
    """The file that ``raw`` names in the field ``key``: a bundled name stands
    for the package's own file."""
    if (key, raw) == ("corpus", "bundled"):
        return lm_harness.bundled_corpus_path()
    if (key, raw) == ("records", "bundled-tables"):
        return arch_dsl.bundled_tables_path()
    return Path(raw)


def _config(path, command: str) -> tuple[dict, list[str], list[Path]]:
    """The config file at ``path`` walked against ``command``'s table and its
    files checked: the normalised config, with ``path`` itself under
    ``"--config"`` and each input that names no file set to None; the errors
    found, to which the handler adds its cross-field checks before
    :func:`_raise_if`; and the directories its outputs need, which the
    handler creates with :func:`_make_dirs` once every check has passed."""
    try:
        doc = loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigErrors([f"config: cannot read {path}: {e}"])
    except ValueError as e:
        raise ConfigErrors([f"config: invalid JSON in {path}: {e}"])
    if not isinstance(doc, dict):
        raise ConfigErrors(["config: top level must be a JSON object"])
    errors: list[str] = []
    cfg = {**_walk(doc, TABLES[command], errors), "--config": path}
    # each resolved path an input names, and that field, the config file first
    named = {Path(path).resolve(): "--config"} if os.path.isfile(path) else {}
    for key in (k for k in _INPUTS if cfg.get(k) is not None):
        for raw in cfg[key] if key == "dumps" else [cfg[key]]:
            # report reads results files only, so its records take no bundled name
            file = Path(raw) if command == "report" else _file(key, raw)
            if os.path.isfile(file):
                named.setdefault(file.resolve(), key)
            else:  # corpus shows the path it looked up, the others the value given
                errors.append(f"{key}: file not found: {file if key == 'corpus' else raw}")
                cfg[key] = None
    dirs = [d for key in _OUTPUTS if cfg.get(key) is not None for d in _output_dirs(key, cfg, named, errors)]
    return cfg, errors, dirs


def _raise_if(errors: list[str]) -> None:
    if errors:  # a check run per list entry may fail the same way twice
        raise ConfigErrors(list(dict.fromkeys(errors)))


def _unwritable(key: str, raw: str, path: Path) -> list[str]:
    """Why the output ``key`` (``raw`` in the config) cannot be written at
    ``path``: it names a directory (for ``out_dir``, which is one, a file), or
    its nearest existing ancestor is not a directory."""
    is_dir, errors = key == "out_dir", []
    if path.exists() and path.is_dir() != is_dir:
        errors.append(f"{key}: names {'a file' if is_dir else 'a directory'}: {raw}")
    above = next((p for p in path.parents if p.exists()), None)
    if above is not None and not above.is_dir():
        errors.append(f"{key}: runs through a file: {above}")
    return errors


def _output_dirs(key: str, cfg: dict, named: dict[Path, str], errors: list[str]) -> list[Path]:
    """The directories that the output ``cfg[key]`` is written into, after
    adding to ``errors`` why it cannot be: it is empty; the OS cannot resolve
    it; the path as written, or else the file it resolves to, is
    :func:`_unwritable`; or a file it writes (for ``out_dir``, the report's
    files) is a directory or one that ``named`` holds, which it then joins."""
    raw = cfg[key]
    if not raw:
        errors.append(f"{key}: names no file")
        return []
    path = Path(raw)
    try:
        real = path.resolve()  # a symlink loop or a null byte raises here, a name too long below
        found = _unwritable(key, raw, path) or _unwritable(key, raw, real)
        reports = lm_harness.REPORT_FILES
        files = [path / reports[f] for f in cfg["formats"] or () if f in reports] if key == "out_dir" else [path]
        for file in files:
            other = named.setdefault(file.resolve(), key)
            if other != key:
                found.append(f"{key}: writes {file}, which {other} names")
            elif key == "out_dir" and file.is_dir():  # a file output itself is checked above
                found.append(f"{key}: writes {file}, which is a directory")
    except (OSError, RuntimeError, ValueError) as e:
        errors.append(f"{key}: cannot resolve {raw}: {e}")
        return []
    errors += found
    # the target's directories first: the path as written may run through a dangling symlink
    return [real, path] if key == "out_dir" else [real.parent, path.parent]


def _make_dirs(dirs: list[Path]) -> None:
    for path in dirs:
        path.mkdir(parents=True, exist_ok=True)


def _write_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as indented JSON to the optional output ``path``."""
    if path is not None:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_corpus(cfg: dict, errors: list[str]) -> lm_harness.Corpus | None:
    raw, fractions = cfg["corpus"], cfg["split_fractions"]
    if fractions is not None and len(fractions) != 3:
        errors.append("split_fractions: expected a list of 3 numbers")
        return None
    if raw is None or fractions is None:
        return None
    try:
        return lm_harness.load_corpus(_file("corpus", raw), tuple(fractions))
    except ValueError as e:  # a fault of the fractions says so; else it is the file's
        errors.append(f"{'split_fractions' if 'fraction' in str(e) else 'corpus'}: {e}")
        return None


def _training_inputs(cfg: dict, errors: list[str]) -> lm_harness.Corpus | None:
    """Corpus of a training command after the checks the table cannot make:
    the train block's cross-field rules, and splits no trial can use."""
    train = cfg["train"]
    if train is not None:
        d, heads, lr, dropout = train["d"], train["heads"], train["lr"], train["dropout"]
        if d and heads and d % heads:
            errors.append(f"train.heads: must divide train.d={d}")
        if not (math.isfinite(lr) and lr > 0):
            errors.append(f"train.lr: must be finite and > 0, got {lr}")
        if not 0.0 <= dropout < 1.0:
            errors.append(f"train.dropout: must be in [0, 1), got {dropout}")
    corpus = _resolve_corpus(cfg, errors)
    if corpus is not None:
        n_valid, n_train = corpus.valid_ids.size, corpus.train_ids.size
        if n_valid < 2:
            errors.append(f"split_fractions: validation split holds {n_valid} characters, evaluation needs at least 2")
        context = train and train["context"]
        if context and n_train < context + 1:
            errors.append(
                f"split_fractions: train split holds {n_train} characters, "
                f"train.context={context} needs at least {context + 1}"
            )
    return corpus


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    try:
        if args.sandwich is not None:
            spec = arch_dsl.sandwich(*args.sandwich)
        else:
            spec = arch_dsl.sandwich_decoder(*args.decoder_sandwich)
    except ValueError as e:
        raise UsageError(str(e))
    print(spec)
    return 0


def _cmd_params(args) -> int:
    try:
        spec = parse_ordering(args.ordering, decoder_mode=args.decoder)
        if args.d < 1:
            raise ValueError(f"--d must be >= 1, got {args.d}")
    except ValueError as e:
        raise UsageError(str(e))
    d = args.d
    total = 0
    print(f"{'kind':<6}{'count':>6}{'params_each':>14}{'params_total':>14}")
    for kind in arch_dsl.SublayerKind:
        count = spec.count(kind)
        if count == 0:
            continue
        each = arch_dsl.sublayer_param_count(kind, d)
        total += count * each
        print(f"{kind.char:<6}{count:>6}{each:>14,}{count * each:>14,}")
    print(f"{'total':<6}{len(spec):>6}{'':>14}{total:>14,}")
    print(f"units: {arch_dsl.total_units(spec)}")
    return 0


def _cmd_sample(args) -> int:
    try:
        if args.mode == "permutation":
            if args.n_s is None or args.n_f is None:
                raise ValueError("permutation mode requires --n-s and --n-f")
            spec = arch_dsl.sample_permutation(args.n_s, args.n_f, args.seed)
        else:
            if args.budget is None:
                raise ValueError("budgeted mode requires --budget")
            spec = arch_dsl.sample_budgeted(args.budget, args.seed)
    except ValueError as e:
        raise UsageError(str(e))
    print(spec)
    return 0


def _cmd_split(args) -> int:
    try:
        spec = parse_ordering(args.ordering)
        bottom, top = arch_dsl.split_halves(spec)
        counts = arch_dsl.half_counts(spec)
    except ValueError as e:
        raise UsageError(str(e))
    print(f"bottom: {bottom}")
    print(f"top: {top}")
    print(
        f"counts: bottom_s={counts.bottom_s} bottom_f={counts.bottom_f} "
        f"top_s={counts.top_s} top_f={counts.top_f}"
    )
    return 0


def _cmd_train(args) -> int:
    cfg, errors, dirs = _config(args.config, "train")
    ordering = None
    if cfg["ordering"] is not None:
        try:
            ordering = parse_ordering(cfg["ordering"])
        except OrderingError as e:
            errors.append(f"ordering: {e}")
    corpus = _training_inputs(cfg, errors)
    _raise_if(errors)
    _make_dirs(dirs)

    seed = cfg["seed"] if args.seed is None else args.seed
    template = lm_harness.TrainTemplate(**cfg["train"])
    record, model = lm_harness.train_model(template.instantiate(ordering, corpus.vocab_size, seed), corpus)
    record.sandwich_k = cfg["sandwich_k"]
    if cfg["checkpoint_out"] is not None:
        save_checkpoint(model, cfg["checkpoint_out"])
    _write_json(cfg["out"], results.record_to_json_dict(record))
    print(
        f"ordering={record.ordering} seed={record.seed} "
        f"valid_nats={record.valid_nats:.6f} valid_bpc={record.valid_bpc:.6f} "
        f"valid_ppl={record.valid_ppl:.6f}"
    )
    return 0


def _cmd_search(args) -> int:
    cfg, errors, dirs = _config(args.config, "search")
    mode = cfg["mode"]
    if mode is not None and mode not in ("permutation", "budgeted"):
        errors.append(f"mode: expected permutation|budgeted, got {mode!r}")
    if mode == "permutation" and cfg["n_s"] + cfg["n_f"] < 1:
        errors.append("n_s: permutation mode needs n_s + n_f >= 1")
    if mode == "budgeted" and cfg["budget"] < 1:
        errors.append("budget: budgeted mode needs budget >= 1")
    corpus = _training_inputs(cfg, errors)
    _raise_if(errors)
    _make_dirs(dirs)

    search = lm_harness.SearchConfig(
        mode=mode, template=lm_harness.TrainTemplate(**cfg["train"]), out_path=cfg["out"],
        master_seed=cfg["master_seed"] if args.seed is None else args.seed,
        **{k: cfg[k] for k in ("trials", "n_s", "n_f", "budget")},
    )
    records = lm_harness.run_random_search(search, corpus)
    print(f"{len(records)} trials complete -> {search.out_path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, errors, dirs = _config(args.config, "sweep")
    n, k_values = cfg["n"], cfg["k_values"]
    for k in k_values if n is not None and k_values is not None else ():
        if not 0 <= k <= n - 1:
            errors.append(f"k_values: k={k} out of range [0, {n - 1}] for n={n}")
    corpus = _training_inputs(cfg, errors)
    _raise_if(errors)
    _make_dirs(dirs)

    records = lm_harness.run_sandwich_sweep(
        n, range(n) if k_values is None else k_values,
        lm_harness.TrainTemplate(**cfg["train"]), corpus, out_path=cfg["out"],
        master_seed=cfg["master_seed"] if args.seed is None else args.seed,
    )
    print(f"{len(records)} sweep trials complete -> {cfg['out']}")
    return 0


def _cmd_capture(args) -> int:
    cfg, errors, dirs = _config(args.config, "capture")
    ckpt, split, offset, length = cfg["checkpoint"], cfg["split"], cfg["offset"], cfg["length"]
    if split not in ("train", "valid", "test"):
        errors.append(f"split: expected train|valid|test, got {split!r}")
    corpus = _resolve_corpus(cfg, errors)
    stream = getattr(corpus, f"{split}_ids", None)  # None without a corpus or a valid split
    if stream is not None:
        if stream.size == 0:
            errors.append(f"split_fractions: the {split} split is empty")
        elif offset >= stream.size:
            errors.append(f"offset: must be < the {split} split's length {stream.size}, got {offset}")
        elif offset + length > stream.size:
            errors.append(
                f"length: window [{offset}, {offset + length}) runs past the {split} split's length {stream.size}"
            )
    _raise_if(errors)

    model = load_checkpoint(ckpt)
    context, vocab, ordering = model.config.context, model.config.vocab, model.config.ordering
    if not ordering.count(arch_dsl.SublayerKind.SELF_ATTENTION):
        errors.append(f"checkpoint: its ordering {str(ordering)!r} has no self-attention sublayer to capture")
    if vocab != corpus.vocab_size:
        errors.append(
            f"corpus: its vocabulary (the train split's charset under split_fractions, plus unknown) "
            f"has {corpus.vocab_size} ids, the checkpoint's model {vocab}"
        )
    if length > context:
        errors.append(f"length: must be <= the checkpoint's context {context}, got {length}")
    _raise_if(errors)
    _make_dirs(dirs)
    length = length or min(context, stream.size - offset)
    tokens = stream[offset : offset + length]
    dump = attn_analysis.capture(model, tokens, model_id=cfg["model_id"] or Path(ckpt).stem)
    attn_analysis.save_dump(dump, cfg["out"])
    print(f"dump: {dump.s_count} sublayers x {dump.heads} heads x {dump.t} tokens -> {cfg['out']}")
    return 0


def _cmd_distance(args) -> int:
    cfg, errors, dirs = _config(args.config, "distance")
    paths, groups = cfg["dumps"], cfg["groups"]
    for mid, label in (groups or {}).items():
        if type(label) is not str:
            errors.append(f"groups: label of {mid!r} must be a string, got {label!r}")
    _raise_if(errors)

    dumps = [attn_analysis.load_dump(p) for p in paths]
    errors = [f"dumps: {msg}" for msg in attn_analysis.shape_mismatches(dumps)]
    errors += [
        f"groups: no group label for dumped model_id {mid!r}"
        for mid in dict.fromkeys(dump.model_id for dump in dumps)
        if groups and mid not in groups
    ]
    _raise_if(errors)
    _make_dirs(dirs)
    table = attn_analysis.distance_matrix(dumps)
    print("model_id\t" + "\t".join(table.model_ids))
    for mid, row in zip(table.model_ids, table.grand_means):
        print(mid + "\t" + "\t".join(f"{x:.9g}" for x in row))
    payload = {
        "model_ids": table.model_ids,
        "grand_means": [[float(x) for x in row] for row in table.grand_means],
    }
    if groups:
        pair_means = attn_analysis.group_pair_means(table, groups)
        payload["group_pair_means"] = {
            f"{a}--{b}": val for (a, b), val in sorted(pair_means.items())
        }
        for key, val in sorted(payload["group_pair_means"].items()):
            print(f"{key}: {val:.9g}")
    _write_json(cfg["out"], payload)
    return 0


def _cmd_analyze_halves(args) -> int:
    cfg, errors, dirs = _config(args.config, "analyze-halves")
    records_path, threshold, metric_field = cfg["records"], cfg["threshold"], cfg["metric_field"]
    if not math.isfinite(threshold):
        errors.append(f"threshold: must be finite, got {threshold}")
    rows: list[tuple[str, object]] = []
    field = metric_field
    if records_path == "bundled-tables":
        field = metric_field or "dev_ppl"
        rows = [
            (r["ordering"], r.get(field))
            for r in arch_dsl.load_table_records()
            if cfg["include_baselines"] or not r["baseline"]
        ]
    elif records_path is not None:
        field = metric_field or "valid_ppl"
        rows = [(rec.ordering, getattr(rec, field, None)) for rec in results.read_results(records_path)]
    try:
        pairs = [(ordering, typed(x, float, "metric_field")) for ordering, x in rows]
    except ValueError:
        errors.append(f"metric_field: {field!r} is not a numeric field of the records")
    _raise_if(errors)
    if len(pairs) < 2:
        raise ConfigErrors([f"records: analyze-halves needs at least 2 records, {records_path} holds {len(pairs)}"])
    _make_dirs(dirs)

    report = lm_harness.analyze_halves(pairs, threshold)
    print(f"threshold: {report.threshold}")
    for name, g in (("better", report.better), ("worse", report.worse)):
        if g.count == 0:
            print(f"{name}: empty")
            continue
        print(
            f"{name}: n={g.count} bottom_s={g.mean_bottom_s:.4f} "
            f"bottom_f={g.mean_bottom_f:.4f} top_s={g.mean_top_s:.4f} "
            f"top_f={g.mean_top_f:.4f}"
        )
    for w in report.warnings:
        print(f"warning: {w}")
    _write_json(cfg["out"], report.to_json_dict())
    return 0


def _cmd_report(args) -> int:
    cfg, errors, dirs = _config(args.config, "report")
    records_path, formats = cfg["records"], cfg["formats"]
    for f in formats or ():
        if f not in lm_harness.REPORT_FORMATS:
            errors.append(f"formats: unknown format {f!r}")
    _raise_if(errors)

    records = results.read_results(records_path)
    if not records:
        raise ConfigErrors([f"records: no trial records in {records_path}"])
    _make_dirs(dirs)
    written = lm_harness.write_report(records, formats, cfg["out_dir"])
    for fmt, path in written.items():
        print(f"{fmt}: {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublayer-lab",
        description="Compose, sample, train, and analyze sublayer-reordered transformer stacks.",
    )
    parser.add_argument("--version", action="version", version=f"sublayer-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a sandwich-family ordering string")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sandwich", nargs=2, type=int, metavar=("N", "K"))
    group.add_argument("--decoder-sandwich", nargs=2, type=int, metavar=("N", "K"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("params", help="per-kind parameter counts for an ordering")
    p.add_argument("--ordering", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--decoder", action="store_true", help="permit cross-attention 'c'")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("sample", help="draw a random ordering")
    p.add_argument("--mode", choices=("permutation", "budgeted"), required=True)
    p.add_argument("--n-s", type=int, default=None)
    p.add_argument("--n-f", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("split", help="half-split an ordering by parameter mass")
    p.add_argument("--ordering", required=True)
    p.set_defaults(func=_cmd_split)

    for name, handler, seed_flag in (
        ("train", _cmd_train, True),
        ("search", _cmd_search, True),
        ("sweep", _cmd_sweep, True),
        ("capture", _cmd_capture, False),
        ("distance", _cmd_distance, False),
        ("analyze-halves", _cmd_analyze_halves, False),
        ("report", _cmd_report, False),
    ):
        p = sub.add_parser(name, help=f"{name} (config-driven)")
        p.add_argument("--config", required=True, help="path to a JSON config document")
        if seed_flag:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigErrors, results.ResumeMismatch) as e:  # a resume under another config is one too
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure contract: exit 1, message to stderr
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
