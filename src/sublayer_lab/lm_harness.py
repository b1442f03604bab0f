"""Character-level training, evaluation, and the search/sweep/analysis protocols.

Runs are deterministic functions of their configuration: model init, batch
order, and per-trial seeds all derive from explicit integer seeds. Search and
sweep results go to an append-only JSON Lines file with one record per trial,
which makes interrupted runs resumable by trial index.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .arch_dsl import (
    OrderingSpec,
    half_counts,
    parse_ordering,
    sample_budgeted,
    sample_permutation,
    sandwich,
)
from .model import ModelConfig, TransformerStack, build_model, count_params, forward
from .tensor_core import (
    OptimizerState,
    Tape,
    adam_step,
    backward,
    cross_entropy_loss,
    no_grad,
)

__all__ = [
    "Corpus",
    "load_corpus",
    "load_corpus_text",
    "bundled_corpus_path",
    "TrainConfig",
    "TrainTemplate",
    "TrialRecord",
    "SearchConfig",
    "derive_seed",
    "train",
    "train_model",
    "evaluate",
    "run_random_search",
    "run_sandwich_sweep",
    "GroupStats",
    "HalfSplitReport",
    "analyze_halves",
    "DEFAULT_REFERENCE_THRESHOLD",
    "record_to_json_dict",
    "record_from_json_dict",
    "read_results",
    "render_csv",
    "render_markdown",
    "render_svg",
    "write_report",
    "REPORT_FORMATS",
]

RESULTS_VERSION = 1

# Mean dev perplexity of the five bundled interleaved reference runs; the
# default better/worse threshold when analyzing the bundled tables.
DEFAULT_REFERENCE_THRESHOLD = 18.65


# ---------------------------------------------------------------------------
# corpus handling


@dataclass
class Corpus:
    """Contiguous train/valid/test character streams with a train-only charset.

    Characters absent from the train split map to a reserved unknown id, so
    ``vocab_size == len(charset) + 1``.
    """

    train_text: str
    valid_text: str
    test_text: str
    charset: tuple[str, ...]
    char_to_id: dict[str, int]
    train_ids: np.ndarray = field(repr=False)
    valid_ids: np.ndarray = field(repr=False)
    test_ids: np.ndarray = field(repr=False)

    @property
    def unknown_id(self) -> int:
        return len(self.charset)

    @property
    def vocab_size(self) -> int:
        return len(self.charset) + 1

    def encode(self, text: str) -> np.ndarray:
        unk = self.unknown_id
        return np.array([self.char_to_id.get(c, unk) for c in text], dtype=np.int64)


def load_corpus_text(
    text: str, split_fractions: Sequence[float] = (0.8, 0.1, 0.1)
) -> Corpus:
    if not text:
        raise ValueError("corpus text is empty")
    fr = tuple(split_fractions)
    if len(fr) != 3 or any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be 3 non-negatives summing to 1, got {fr}")
    if fr[0] <= 0:
        raise ValueError("train fraction must be positive")
    n = len(text)
    i1 = int(n * fr[0])
    i2 = i1 + int(n * fr[1])
    train, valid, test = text[:i1], text[i1:i2], text[i2:]
    charset = tuple(sorted(set(train)))
    char_to_id = {c: i for i, c in enumerate(charset)}
    corpus = Corpus(
        train_text=train,
        valid_text=valid,
        test_text=test,
        charset=charset,
        char_to_id=char_to_id,
        train_ids=np.empty(0, dtype=np.int64),
        valid_ids=np.empty(0, dtype=np.int64),
        test_ids=np.empty(0, dtype=np.int64),
    )
    corpus.train_ids = corpus.encode(train)
    corpus.valid_ids = corpus.encode(valid)
    corpus.test_ids = corpus.encode(test)
    return corpus


def load_corpus(path, split_fractions: Sequence[float] = (0.8, 0.1, 0.1)) -> Corpus:
    """Read a UTF-8 text file and split it contiguously by character count."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ValueError(f"corpus file is empty: {path}")
    return load_corpus_text(text, split_fractions)


def bundled_corpus_path() -> Path:
    """Path of the ~100KB sample corpus shipped with the package."""
    return Path(str(resources.files("sublayer_lab").joinpath("data", "corpus.txt")))


# ---------------------------------------------------------------------------
# training configuration and records


@dataclass
class TrainConfig:
    model: ModelConfig
    steps: int
    batch_size: int
    context: int  # batch window length; must not exceed model.context
    lr: float = 1e-3
    seed: int = 0
    eval_interval: int = 100

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if not 1 <= self.context <= self.model.context:
            raise ValueError(
                f"context {self.context} outside [1, model.context={self.model.context}]"
            )


@dataclass
class TrainTemplate:
    """Everything a search trial shares; ordering and seed are filled per trial."""

    d: int
    heads: int
    steps: int
    batch_size: int
    context: int
    lr: float = 1e-3
    eval_interval: int = 100
    ffn_inner: int = 0
    tie_embeddings: bool = True
    pre_norm: bool = True
    dropout: float = 0.0

    def instantiate(self, ordering: OrderingSpec, vocab: int, seed: int) -> TrainConfig:
        model = ModelConfig(
            d=self.d,
            heads=self.heads,
            vocab=vocab,
            context=self.context,
            ordering=ordering,
            ffn_inner=self.ffn_inner,
            tie_embeddings=self.tie_embeddings,
            pre_norm=self.pre_norm,
            dropout=self.dropout,
        )
        return TrainConfig(
            model=model,
            steps=self.steps,
            batch_size=self.batch_size,
            context=self.context,
            lr=self.lr,
            seed=seed,
            eval_interval=self.eval_interval,
        )


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


def record_to_json_dict(rec: TrialRecord) -> dict:
    return {
        "v": RESULTS_VERSION,
        "kind": "trial",
        "index": rec.index,
        "ordering": rec.ordering,
        "sandwich_k": rec.sandwich_k,
        "seed": rec.seed,
        "loss_curve": [[int(s), float(l)] for s, l in rec.loss_curve],
        "valid_nats": rec.valid_nats,
        "valid_bpc": rec.valid_bpc,
        "valid_ppl": rec.valid_ppl,
        "param_count": rec.param_count,
        "meta": {"wall_clock_s": rec.wall_clock_s},
    }


def record_from_json_dict(doc: dict) -> TrialRecord:
    rec = TrialRecord(
        ordering=doc["ordering"],
        sandwich_k=doc["sandwich_k"],
        seed=doc["seed"],
        loss_curve=[(int(s), float(l)) for s, l in doc["loss_curve"]],
        valid_nats=doc["valid_nats"],
        valid_bpc=doc["valid_bpc"],
        valid_ppl=doc["valid_ppl"],
        param_count=doc["param_count"],
        wall_clock_s=doc.get("meta", {}).get("wall_clock_s", 0.0),
        index=doc.get("index", -1),
    )
    if abs(rec.valid_bpc - rec.valid_nats / math.log(2.0)) > 1e-9:
        raise ValueError(f"record bpc inconsistent with nats: {doc}")
    ppl = _perplexity(rec.valid_nats)
    # the tolerance scales with the smaller value, so inf matches only inf
    tol = 1e-9 * max(1.0, min(ppl, rec.valid_ppl))
    if ppl != rec.valid_ppl and abs(rec.valid_ppl - ppl) > tol:
        raise ValueError(f"record ppl inconsistent with nats: {doc}")
    return rec


def derive_seed(master_seed: int, index: int, label: str = "") -> int:
    """Stable 63-bit seed from (master seed, trial index, purpose label)."""
    digest = hashlib.blake2b(
        f"{master_seed}:{index}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


# ---------------------------------------------------------------------------
# training and evaluation


def _sample_batch(rng, ids, context, batch_size):
    starts = rng.integers(0, ids.size - context, size=batch_size)
    x = np.stack([ids[s : s + context] for s in starts])
    y = np.stack([ids[s + 1 : s + context + 1] for s in starts])
    return x, y


def train_model(cfg: TrainConfig, corpus: Corpus) -> tuple[TrialRecord, TransformerStack]:
    """Train one model with Adam over random causal LM batches.

    Returns the record and the trained stack (so callers can checkpoint or
    capture attention). Bit-reproducible for a given config.
    """
    if corpus.train_ids.size < cfg.context + 1:
        raise ValueError("train split shorter than one context window")
    t0 = time.perf_counter()
    model = build_model(cfg.model, rng_seed=derive_seed(cfg.seed, 0, "model"))
    params = model.parameters()
    state = OptimizerState(lr=cfg.lr)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0, "batch")))
    drop_rng = None
    if cfg.model.dropout > 0.0:
        drop_rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0, "dropout")))
    curve: list[tuple[int, float]] = []
    for step in range(1, cfg.steps + 1):
        x, y = _sample_batch(rng, corpus.train_ids, cfg.context, cfg.batch_size)
        with Tape() as tape:
            loss = cross_entropy_loss(forward(model, x, dropout_rng=drop_rng), y)
        backward(loss, tape)
        adam_step(params, state)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            curve.append((step, float(loss.data)))
    valid_nats = evaluate(model, corpus.valid_ids, cfg.context)
    record = TrialRecord.build(
        ordering=str(cfg.model.ordering),
        sandwich_k=-1,
        seed=cfg.seed,
        loss_curve=curve,
        valid_nats=valid_nats,
        param_count=count_params(model),
        wall_clock_s=time.perf_counter() - t0,
    )
    return record, model


def train(cfg: TrainConfig, corpus: Corpus) -> TrialRecord:
    return train_model(cfg, corpus)[0]


def evaluate(model: TransformerStack, stream: np.ndarray, context: int) -> float:
    """Average NLL (nats/char) over non-overlapping context windows.

    Windows stride by ``context`` so every character after the first is
    predicted exactly once; a short tail window is evaluated as-is.
    """
    ids = np.asarray(stream)
    if ids.size < 2:
        raise ValueError("evaluation stream must hold at least 2 characters")
    full: list[np.ndarray] = []
    tail: list[np.ndarray] = []
    start = 0
    while start + 1 < ids.size:
        window = ids[start : start + context + 1]
        (full if window.size == context + 1 else tail).append(window)
        start += context
    total_nll = 0.0
    total_chars = 0
    with no_grad():
        for group in (full, tail):
            for off in range(0, len(group), 64):
                chunk = group[off : off + 64]
                if not chunk:
                    continue
                w = np.stack(chunk)
                logits = forward(model, w[:, :-1]).data
                total_nll += _nll_sum(logits, w[:, 1:])
                total_chars += w[:, 1:].size
    return total_nll / total_chars


def _nll_sum(logits: np.ndarray, targets: np.ndarray) -> float:
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float((lse - picked).sum())


# ---------------------------------------------------------------------------
# search protocols with resumable JSONL persistence


@dataclass
class SearchConfig:
    """One search run: a sampling mode plus the shared training template."""

    mode: str  # "permutation" | "budgeted" | "sandwich_sweep"
    template: TrainTemplate
    master_seed: int
    out_path: str | None = None
    trials: int = 0
    n_s: int = 0
    n_f: int = 0
    budget: int = 0
    sweep_n: int = 0
    k_values: tuple[int, ...] = ()
    workers: int = 1


def _scan_results(path) -> tuple[dict | None, dict[int, dict], int]:
    """Parse an existing results file, tolerating a truncated final line.

    Returns (header, trial docs by index, byte offset where clean content
    ends). Anything after the first unparseable line is treated as truncated.
    """
    if not os.path.exists(path):
        return None, {}, 0
    raw = Path(path).read_bytes()
    header = None
    records: dict[int, dict] = {}
    good_end = 0
    pos = 0
    while True:
        nl = raw.find(b"\n", pos)
        if nl == -1:
            break
        line = raw[pos:nl]
        try:
            doc = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if doc.get("kind") == "header":
            header = doc
        elif doc.get("kind") == "trial":
            records[int(doc["index"])] = doc
        good_end = nl + 1
        pos = nl + 1
    return header, records, good_end


def _run_trials(
    specs: list[tuple[int, OrderingSpec, int]],
    template: TrainTemplate,
    corpus: Corpus,
    master_seed: int,
    out_path,
    workers: int,
    header_extra: dict,
) -> list[TrialRecord]:
    """Train every (index, ordering, sandwich_k) trial not already on disk.

    Records append to ``out_path`` in index order regardless of worker
    completion order, so a finished file is byte-stable across reruns
    except for timestamp metadata.
    """
    fh = None
    existing: dict[int, dict] = {}
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        header, existing, good_end = _scan_results(out_path)
        fh = open(out_path, "ab")
        fh.truncate(good_end)
        if header is None:
            header_doc = {
                "v": RESULTS_VERSION,
                "kind": "header",
                "tool": "sublayer-lab",
                "tool_version": __version__,
                "master_seed": master_seed,
                **header_extra,
                "meta": {"created_unix": int(time.time())},
            }
            fh.write((json.dumps(header_doc, sort_keys=True) + "\n").encode())
            fh.flush()

    def run_one(spec):
        index, ordering, sandwich_k = spec
        cfg = template.instantiate(
            ordering, corpus.vocab_size, seed=derive_seed(master_seed, index, "train")
        )
        rec = train(cfg, corpus)
        rec.index = index
        rec.sandwich_k = sandwich_k
        return rec

    def emit(rec):
        if fh is not None:
            fh.write((json.dumps(record_to_json_dict(rec), sort_keys=True) + "\n").encode())
            fh.flush()

    pending = [s for s in specs if s[0] not in existing]
    done: dict[int, TrialRecord] = {
        i: record_from_json_dict(doc) for i, doc in existing.items()
    }
    try:
        if workers <= 1:
            for spec in pending:
                rec = run_one(spec)
                emit(rec)
                done[rec.index] = rec
        else:
            order = [s[0] for s in pending]
            buffered: dict[int, TrialRecord] = {}
            next_pos = 0
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(run_one, s) for s in pending}
                while futures:
                    finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        rec = fut.result()
                        buffered[rec.index] = rec
                        done[rec.index] = rec
                    while next_pos < len(order) and order[next_pos] in buffered:
                        emit(buffered.pop(order[next_pos]))
                        next_pos += 1
    finally:
        if fh is not None:
            fh.close()
    return [done[i] for i in sorted(done)]


def run_random_search(search: SearchConfig, corpus: Corpus) -> list[TrialRecord]:
    """Sample-and-train protocol: one record per trial, resumable by index."""
    if search.mode not in ("permutation", "budgeted"):
        raise ValueError(f"run_random_search mode must be permutation|budgeted, got {search.mode!r}")
    if search.trials < 1:
        raise ValueError("trials must be >= 1")
    specs = []
    for i in range(search.trials):
        arch_seed = derive_seed(search.master_seed, i, "arch")
        if search.mode == "permutation":
            ordering = sample_permutation(search.n_s, search.n_f, arch_seed)
        else:
            ordering = sample_budgeted(search.budget, arch_seed)
        specs.append((i, ordering, -1))
    return _run_trials(
        specs,
        search.template,
        corpus,
        search.master_seed,
        search.out_path,
        search.workers,
        header_extra={"mode": search.mode},
    )


def run_sandwich_sweep(
    n: int,
    k_values: Iterable[int],
    template: TrainTemplate,
    corpus: Corpus,
    out_path=None,
    master_seed: int = 0,
    workers: int = 1,
) -> list[TrialRecord]:
    """One trial per sandwich coefficient, identical hyperparameters throughout."""
    ks = list(k_values)
    for k in ks:
        if not 0 <= k <= n - 1:
            raise ValueError(f"sandwich coefficient k={k} out of range [0, {n - 1}]")
    specs = [(i, sandwich(n, k), k) for i, k in enumerate(ks)]
    return _run_trials(
        specs,
        template,
        corpus,
        master_seed,
        out_path,
        workers,
        header_extra={"mode": "sandwich_sweep", "sweep_n": n},
    )


def read_results(path) -> list[TrialRecord]:
    """Load trial records from a results file, sorted by index."""
    _, docs, _ = _scan_results(path)
    return [record_from_json_dict(docs[i]) for i in sorted(docs)]


# ---------------------------------------------------------------------------
# half-split analysis


@dataclass
class GroupStats:
    count: int
    mean_bottom_s: float | None
    mean_bottom_f: float | None
    mean_top_s: float | None
    mean_top_f: float | None


@dataclass
class HalfSplitReport:
    threshold: float
    better: GroupStats
    worse: GroupStats
    warnings: list[str]

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "better": vars(self.better),
            "worse": vars(self.worse),
            "warnings": list(self.warnings),
        }


def _group_stats(counts) -> GroupStats:
    if not counts:
        return GroupStats(0, None, None, None, None)
    n = len(counts)
    return GroupStats(
        count=n,
        mean_bottom_s=sum(c.bottom_s for c in counts) / n,
        mean_bottom_f=sum(c.bottom_f for c in counts) / n,
        mean_top_s=sum(c.top_s for c in counts) / n,
        mean_top_f=sum(c.top_f for c in counts) / n,
    )


def analyze_halves(
    records: Iterable[tuple[str, float]], threshold: float
) -> HalfSplitReport:
    """Split records at the threshold (lower metric = better) and compare the
    mean per-half sublayer tallies of the two groups."""
    pairs = list(records)
    if len(pairs) < 2:
        raise ValueError("analyze_halves needs at least 2 records")
    better, worse = [], []
    for ordering, metric in pairs:
        hc = half_counts(parse_ordering(ordering))
        (better if metric < threshold else worse).append(hc)
    warnings = []
    if not better:
        warnings.append(f"no records beat the threshold {threshold}")
    if not worse:
        warnings.append(f"all records beat the threshold {threshold}")
    return HalfSplitReport(
        threshold=threshold,
        better=_group_stats(better),
        worse=_group_stats(worse),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# report rendering

REPORT_FORMATS = ("csv", "markdown", "svg")

_CSV_COLUMNS = (
    "index",
    "ordering",
    "sandwich_k",
    "seed",
    "param_count",
    "valid_nats",
    "valid_bpc",
    "valid_ppl",
)


def _sorted_records(records):
    return sorted(records, key=lambda r: (r.index, r.ordering, r.seed))


def render_csv(records: Sequence[TrialRecord]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in _sorted_records(records):
        lines.append(
            f"{r.index},{r.ordering},{r.sandwich_k},{r.seed},{r.param_count},"
            f"{r.valid_nats:.9g},{r.valid_bpc:.9g},{r.valid_ppl:.9g}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(records: Sequence[TrialRecord]) -> str:
    lines = [
        "| ordering | k | params | valid_bpc | valid_ppl |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in _sorted_records(records):
        lines.append(
            f"| `{r.ordering}` | {r.sandwich_k} | {r.param_count} "
            f"| {r.valid_bpc:.4f} | {r.valid_ppl:.4f} |"
        )
    return "\n".join(lines) + "\n"


def render_svg(records: Sequence[TrialRecord]) -> str:
    """Scatter of validation perplexity vs sandwich coefficient (or trial index)."""
    recs = _sorted_records(records)
    use_k = all(r.sandwich_k >= 0 for r in recs)
    xs = [float(r.sandwich_k if use_k else r.index) for r in recs]
    ys = [r.valid_ppl for r in recs]
    x_label = "sandwich coefficient k" if use_k else "trial index"
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 20, 50
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return left + (x - x_lo) / x_span * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / y_span * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})" '
        f'text-anchor="middle">validation perplexity</text>',
        f'<text x="{left}" y="{height - bottom + 16}" font-size="11" '
        f'text-anchor="middle">{x_lo:.6g}</text>',
        f'<text x="{width - right}" y="{height - bottom + 16}" font-size="11" '
        f'text-anchor="middle">{x_hi:.6g}</text>',
        f'<text x="{left - 6}" y="{py(y_lo):.1f}" font-size="11" '
        f'text-anchor="end">{y_lo:.6g}</text>',
        f'<text x="{left - 6}" y="{py(y_hi):.1f}" font-size="11" '
        f'text-anchor="end">{y_hi:.6g}</text>',
    ]
    for x, y, r in zip(xs, ys, recs):
        parts.append(
            f'<circle class="record" cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" '
            f'fill="steelblue"><title>{r.ordering}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(records: Sequence[TrialRecord], formats: Iterable[str], out_dir) -> dict:
    """Render the requested formats into ``out_dir`` as report.{csv,md,svg}."""
    if not records:
        raise ValueError("write_report needs at least 1 record")
    renderers = {"csv": render_csv, "markdown": render_markdown, "svg": render_svg}
    names = {"csv": "report.csv", "markdown": "report.md", "svg": "report.svg"}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for fmt in formats:
        if fmt not in renderers:
            raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
        path = out_dir / names[fmt]
        path.write_text(renderers[fmt](records), encoding="utf-8")
        written[fmt] = path
    return written
