"""Command-line front end for the laboratory.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
config-validation failure (validation lists every invalid field). All
randomness enters through explicit seeds in flags or config files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, arch_dsl, attn_analysis, lm_harness
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
# config loading and validation helpers


def _load_config(path) -> dict:
    try:
        doc = loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigErrors([f"config: cannot read {path}: {e}"])
    except ValueError as e:
        raise ConfigErrors([f"config: invalid JSON in {path}: {e}"])
    if not isinstance(doc, dict):
        raise ConfigErrors(["config: top level must be a JSON object"])
    return doc


class _Validator:
    """Collects every field error so the user sees all of them at once."""

    def __init__(self, doc: dict, prefix: str = ""):
        self.doc = doc
        self.prefix = prefix
        self.errors: list[str] = []

    def _name(self, field):
        return f"{self.prefix}{field}"

    def fail(self, field, msg):
        self.errors.append(f"{self._name(field)}: {msg}")

    def check(self, field, value, kind, expected):
        """``value`` as a JSON ``kind`` (``_json.typed`` decides), or None after
        failing ``field`` with ``expected`` (an int no float holds fails as such)."""
        try:
            return typed(value, kind, self._name(field))
        except ValueError as e:
            out_of_range = kind is float and type(value) is int
            self.errors.append(str(e) if out_of_range else f"{self._name(field)}: {expected}")
            return None

    def get(self, field, kind, required=False, default=None, minimum=None):
        if field not in self.doc:
            if required:
                self.fail(field, "required field is missing")
            return default
        value = self.doc[field]
        value = self.check(field, value, kind, f"expected {kind.__name__}, got {type(value).__name__}")
        if value is None:
            return default
        if minimum is not None and value < minimum:
            self.fail(field, f"must be >= {minimum}, got {value}")
            return default
        return value

    def raise_if_failed(self):
        if self.errors:  # a check run per list entry may fail the same way twice
            raise ConfigErrors(list(dict.fromkeys(self.errors)))


def _resolve_corpus(v: _Validator) -> lm_harness.Corpus | None:
    raw = v.get("corpus", str, required=True)
    fractions = v.doc.get("split_fractions", [0.8, 0.1, 0.1])
    expected = "expected a list of 3 numbers"
    if not (isinstance(fractions, list) and len(fractions) == 3):
        v.fail("split_fractions", expected)
        return None
    fractions = [v.check("split_fractions", f, float, expected) for f in fractions]
    if None in fractions or raw is None:
        return None
    path = lm_harness.bundled_corpus_path() if raw == "bundled" else Path(raw)
    if not path.is_file():
        v.fail("corpus", f"file not found: {path}")
        return None
    try:
        return lm_harness.load_corpus(path, tuple(fractions))
    except ValueError as e:
        v.fail("corpus", str(e))
        return None


def _template_from(v: _Validator) -> lm_harness.TrainTemplate | None:
    sub = v.doc.get("train")
    if not isinstance(sub, dict):
        v.fail("train", "required object is missing")
        return None
    tv = _Validator(sub, prefix="train.")
    kwargs = dict(
        d=tv.get("d", int, required=True, minimum=1),
        heads=tv.get("heads", int, required=True, minimum=1),
        steps=tv.get("steps", int, required=True, minimum=1),
        batch_size=tv.get("batch_size", int, required=True, minimum=1),
        context=tv.get("context", int, required=True, minimum=1),
        lr=tv.get("lr", float, default=1e-3),
        eval_interval=tv.get("eval_interval", int, default=100, minimum=1),
        ffn_inner=tv.get("ffn_inner", int, default=0, minimum=0),
        tie_embeddings=tv.get("tie_embeddings", bool, default=True),
        pre_norm=tv.get("pre_norm", bool, default=True),
        dropout=tv.get("dropout", float, default=0.0),
    )
    if kwargs["d"] and kwargs["heads"] and kwargs["d"] % kwargs["heads"]:
        tv.fail("heads", f"must divide d={kwargs['d']}")
    if not (math.isfinite(kwargs["lr"]) and kwargs["lr"] > 0):
        tv.fail("lr", f"must be finite and > 0, got {kwargs['lr']}")
    if not 0.0 <= kwargs["dropout"] < 1.0:
        tv.fail("dropout", f"must be in [0, 1), got {kwargs['dropout']}")
    v.errors.extend(tv.errors)
    if tv.errors:
        return None
    return lm_harness.TrainTemplate(**kwargs)


def _training_inputs(v: _Validator):
    """Template and corpus of a training command; splits no trial can use fail."""
    template = _template_from(v)
    corpus = _resolve_corpus(v)
    if corpus is not None:
        n_valid, n_train = corpus.valid_ids.size, corpus.train_ids.size
        if n_valid < 2:
            v.fail(
                "split_fractions",
                f"validation split holds {n_valid} characters, evaluation needs at least 2",
            )
        if template is not None and n_train < template.context + 1:
            v.fail(
                "split_fractions",
                f"train split holds {n_train} characters, "
                f"train.context={template.context} needs at least {template.context + 1}",
            )
    return template, corpus


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
    doc = _load_config(args.config)
    v = _Validator(doc)
    ordering_text = v.get("ordering", str, required=True)
    ordering = None
    if ordering_text is not None:
        try:
            ordering = parse_ordering(ordering_text)
        except OrderingError as e:
            v.fail("ordering", str(e))
    template, corpus = _training_inputs(v)
    seed = v.get("seed", int, default=0)
    sandwich_k = v.get("sandwich_k", int, default=-1)
    out = v.get("out", str)
    checkpoint_out = v.get("checkpoint_out", str)
    for field, path in (("out", out), ("checkpoint_out", checkpoint_out)):
        if path and Path(path).is_dir():
            v.fail(field, f"names a directory: {path}")
    v.raise_if_failed()
    if args.seed is not None:
        seed = args.seed
    for path in (checkpoint_out, out):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)

    cfg = template.instantiate(ordering, corpus.vocab_size, seed)
    record, model = lm_harness.train_model(cfg, corpus)
    record.sandwich_k = sandwich_k
    if checkpoint_out:
        save_checkpoint(model, checkpoint_out)
    if out:
        payload = lm_harness.record_to_json_dict(record)
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"ordering={record.ordering} seed={record.seed} "
        f"valid_nats={record.valid_nats:.6f} valid_bpc={record.valid_bpc:.6f} "
        f"valid_ppl={record.valid_ppl:.6f}"
    )
    return 0


def _cmd_search(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    mode = v.get("mode", str, required=True)
    if mode is not None and mode not in ("permutation", "budgeted"):
        v.fail("mode", f"expected permutation|budgeted, got {mode!r}")
    trials = v.get("trials", int, required=True, minimum=1)
    n_s = v.get("n_s", int, default=0, minimum=0)
    n_f = v.get("n_f", int, default=0, minimum=0)
    budget = v.get("budget", int, default=0, minimum=0)
    if mode == "permutation" and n_s + n_f < 1:
        v.fail("n_s", "permutation mode needs n_s + n_f >= 1")
    if mode == "budgeted" and budget < 1:
        v.fail("budget", "budgeted mode needs budget >= 1")
    master_seed = v.get("master_seed", int, default=0)
    workers = v.get("workers", int, default=1, minimum=1)
    out = v.get("out", str, required=True)
    template, corpus = _training_inputs(v)
    v.raise_if_failed()
    if args.seed is not None:
        master_seed = args.seed

    search = lm_harness.SearchConfig(
        mode=mode,
        template=template,
        master_seed=master_seed,
        out_path=out,
        trials=trials,
        n_s=n_s,
        n_f=n_f,
        budget=budget,
        workers=workers,
    )
    records = lm_harness.run_random_search(search, corpus)
    print(f"{len(records)} trials complete -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    n = v.get("n", int, required=True, minimum=1)
    k_values = v.doc.get("k_values")
    if k_values is None and n is not None:
        k_values = list(range(n))
    expected = "expected a list of integers"
    if not isinstance(k_values, list):
        v.fail("k_values", expected)
    elif all(v.check("k_values", k, int, expected) is not None for k in k_values) and n is not None:
        for k in k_values:
            if not 0 <= k <= n - 1:
                v.fail("k_values", f"k={k} out of range [0, {n - 1}]")
    master_seed = v.get("master_seed", int, default=0)
    workers = v.get("workers", int, default=1, minimum=1)
    out = v.get("out", str, required=True)
    template, corpus = _training_inputs(v)
    v.raise_if_failed()
    if args.seed is not None:
        master_seed = args.seed

    records = lm_harness.run_sandwich_sweep(
        n, k_values, template, corpus, out_path=out,
        master_seed=master_seed, workers=workers,
    )
    print(f"{len(records)} sweep trials complete -> {out}")
    return 0


def _cmd_capture(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    ckpt = v.get("checkpoint", str, required=True)
    if ckpt is not None and not Path(ckpt).is_file():
        v.fail("checkpoint", f"file not found: {ckpt}")
    split = v.get("split", str, default="valid")
    if split not in ("train", "valid", "test"):
        v.fail("split", f"expected train|valid|test, got {split!r}")
    offset = v.get("offset", int, default=0, minimum=0)
    length = v.get("length", int, default=0, minimum=0)
    model_id = v.get("model_id", str, default="")
    out = v.get("out", str, required=True)
    corpus = _resolve_corpus(v)
    stream = getattr(corpus, f"{split}_ids", None)  # None without a corpus or a valid split
    if stream is not None:
        if offset >= stream.size:
            v.fail("offset", f"must be < the {split} split's length {stream.size}, got {offset}")
        elif offset + length > stream.size:
            v.fail("length", f"window [{offset}, {offset + length}) runs past the {split} split's length {stream.size}")
    v.raise_if_failed()

    model = load_checkpoint(ckpt)
    context = model.config.context
    if length > context:
        v.fail("length", f"must be <= the checkpoint's context {context}, got {length}")
    v.raise_if_failed()
    length = length or min(context, stream.size - offset)
    tokens = stream[offset : offset + length]
    dump = attn_analysis.capture(model, tokens, model_id=model_id or Path(ckpt).stem)
    attn_analysis.save_dump(dump, out)
    print(f"dump: {dump.s_count} sublayers x {dump.heads} heads x {dump.t} tokens -> {out}")
    return 0


def _cmd_distance(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    paths = v.doc.get("dumps")
    expected = "expected a list of >=2 dump paths"
    if not (isinstance(paths, list) and len(paths) >= 2):
        v.fail("dumps", expected)
    elif all(v.check("dumps", p, str, expected) is not None for p in paths):
        for p in paths:
            if not Path(p).is_file():
                v.fail("dumps", f"file not found: {p}")
    groups = v.doc.get("groups")
    if groups is not None and not isinstance(groups, dict):
        v.fail("groups", "expected an object mapping model_id to group label")
    elif groups:
        for mid, label in groups.items():
            v.check("groups", label, str, f"label of {mid!r} must be a string, got {label!r}")
    out = v.get("out", str)
    v.raise_if_failed()

    dumps = [attn_analysis.load_dump(p) for p in paths]
    if groups:
        for mid in dict.fromkeys(dump.model_id for dump in dumps):
            if mid not in groups:
                v.fail("groups", f"no group label for dumped model_id {mid!r}")
        v.raise_if_failed()
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
    if out:
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_analyze_halves(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    records_path = v.get("records", str, required=True)
    threshold = v.get("threshold", float, default=lm_harness.DEFAULT_REFERENCE_THRESHOLD)
    if not math.isfinite(threshold):
        v.fail("threshold", f"must be finite, got {threshold}")
    include_baselines = v.get("include_baselines", bool, default=False)
    metric_field = v.get("metric_field", str, default="")
    out = v.get("out", str)
    rows: list[tuple[str, object]] = []
    field = metric_field
    if records_path == "bundled-tables":
        field = metric_field or "dev_ppl"
        rows = [
            (r["ordering"], r.get(field))
            for r in arch_dsl.load_table_records()
            if include_baselines or not r["baseline"]
        ]
    elif records_path is not None:
        if not Path(records_path).is_file():
            v.fail("records", f"file not found: {records_path}")
        else:
            field = metric_field or "valid_ppl"
            rows = [
                (rec.ordering, getattr(rec, field, None))
                for rec in lm_harness.read_results(records_path)
            ]
    expected = f"{field!r} is not a numeric field of the records"
    pairs = [(ordering, v.check("metric_field", x, float, expected)) for ordering, x in rows]
    v.raise_if_failed()

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
    if out:
        Path(out).write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_report(args) -> int:
    doc = _load_config(args.config)
    v = _Validator(doc)
    records_path = v.get("records", str, required=True)
    if records_path is not None and not Path(records_path).is_file():
        v.fail("records", f"file not found: {records_path}")
    formats = v.doc.get("formats", list(lm_harness.REPORT_FORMATS))
    if not (isinstance(formats, list) and formats):
        v.fail("formats", "expected a non-empty list")
    else:
        for f in formats:
            if f not in lm_harness.REPORT_FORMATS:
                v.fail("formats", f"unknown format {f!r}")
    out_dir = v.get("out_dir", str, required=True)
    v.raise_if_failed()

    records = lm_harness.read_results(records_path)
    if not records:
        raise ValueError(f"no trial records in {records_path}")
    written = lm_harness.write_report(records, formats, out_dir)
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
    except ConfigErrors as e:
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
