"""Character-level training, evaluation, and the search/sweep/analysis protocols.

Runs are deterministic functions of their configuration: model init, batch
order, and per-trial seeds all derive from explicit integer seeds. Search and
sweep train their trials one at a time and append each record to a results
file as it finishes, which makes interrupted runs resumable by trial index;
the file's format is the ``results`` module's.

Evaluation works in bounded memory: the NLL is summed per chunk of 64
windows, and each chunk's forward runs in slices of windows sized so that one
slice's widest activation fits ``EVAL_FLOATS``, with the same result bit for
bit. The slices are the unit of work: with ``T = min(slices, CPUs this
process may run on)`` threads, the caller among them (numpy's GEMMs and ufunc
loops release the GIL), thread ``k`` scores slices ``k, k + T, ...`` of the
stream. Once every thread has joined, each chunk's slice NLLs are summed as
one array and the chunk sums added in chunk order, so the result is bitwise
that of one thread. Each thread holds one slice of activations at a time;
the slice NLLs, one float64 per target, are held until their chunk is
summed, the size of the window array ``evaluate`` already builds. A
documented ``ValueError`` is raised before any thread starts; an exception
raised while scoring reaches the caller once every thread has joined, the
lowest-indexed slice's first. Search, sweep and ``train_model`` still run
their trials and steps in the caller's thread.

Training runs its steps inside a ``tensor_core.buffer_pool()``, so each step
reuses the activation and gradient buffers of the step before it; it leaves
the pool, and frees Adam's state, before its final evaluation. ``evaluate``
itself never enters a pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .arch_dsl import (
    OrderingSpec,
    half_counts,
    parse_ordering,
    sample_budgeted,
    sample_permutation,
    sandwich,
)
from .model import ModelConfig, TransformerStack, build_model, count_params, forward
from .results import TrialRecord, append_record, open_results
from .tensor_core import (
    OptimizerState,
    Tape,
    adam_step,
    backward,
    buffer_pool,
    cross_entropy_loss,
    no_grad,
)

__all__ = [
    "Corpus",
    "load_corpus",
    "load_corpus_text",
    "check_split_fractions",
    "bundled_corpus_path",
    "TrainConfig",
    "TrainTemplate",
    "SearchConfig",
    "derive_seed",
    "train_model",
    "evaluate",
    "run_random_search",
    "run_sandwich_sweep",
    "GroupStats",
    "HalfSplitReport",
    "analyze_halves",
    "DEFAULT_REFERENCE_THRESHOLD",
    "render_csv",
    "render_markdown",
    "render_svg",
    "write_report",
    "REPORT_FORMATS",
    "REPORT_FILES",
]

# Mean dev perplexity of the five bundled interleaved reference runs; the
# default better/worse threshold when analyzing the bundled tables.
DEFAULT_REFERENCE_THRESHOLD = 18.65

# Floats one slice of an evaluation forward may give to its widest activation
# (q, k and v, the FFN's inner layer, the attention scores or the logits).
EVAL_FLOATS = 2**17


# ---------------------------------------------------------------------------
# corpus handling


@dataclass
class Corpus:
    """Contiguous train/valid/test character streams with a train-only charset.

    Characters absent from the train split map to a reserved unknown id, so
    ``vocab_size == len(charset) + 1``. The three id arrays are the texts
    through :meth:`encode`, set on construction.
    """

    train_text: str
    valid_text: str
    test_text: str
    charset: tuple[str, ...]
    train_ids: np.ndarray = field(init=False, repr=False)
    valid_ids: np.ndarray = field(init=False, repr=False)
    test_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.train_ids = self.encode(self.train_text)
        self.valid_ids = self.encode(self.valid_text)
        self.test_ids = self.encode(self.test_text)

    @property
    def unknown_id(self) -> int:
        return len(self.charset)

    @property
    def vocab_size(self) -> int:
        return len(self.charset) + 1

    def encode(self, text: str) -> np.ndarray:
        """Ids of ``text``'s characters, ``unknown_id`` for any outside the charset.

        The charset is sorted, so a character's id is its code point's position
        among the charset's, found by one ``searchsorted``.
        """
        # the sentinel lies above every code point, so each position indexes keys
        keys = np.array([ord(c) for c in self.charset] + [0x110000], dtype="<u4")
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        ids = np.searchsorted(keys, codes)
        ids[keys[ids] != codes] = self.unknown_id
        return ids.astype(np.int64, copy=False)


def load_corpus_text(
    text: str, split_fractions: Sequence[float] = (0.8, 0.1, 0.1)
) -> Corpus:
    if not text:
        raise ValueError("corpus text is empty")
    fr = check_split_fractions(split_fractions)
    n = len(text)
    i1 = int(n * fr[0])
    i2 = i1 + int(n * fr[1])
    train, valid, test = text[:i1], text[i1:i2], text[i2:]
    return Corpus(train, valid, test, charset=tuple(sorted(set(train))))


def check_split_fractions(split_fractions: Sequence[float]) -> tuple[float, ...]:
    """The fractions as a tuple; ``ValueError`` unless they are 3 non-negatives
    summing to 1 with a positive train fraction."""
    fr = tuple(split_fractions)
    # each test passes only for good values, since a comparison with NaN is False
    if len(fr) != 3 or not all(f >= 0 for f in fr) or not abs(sum(fr) - 1.0) <= 1e-9:
        raise ValueError(f"split fractions must be 3 non-negatives summing to 1, got {fr}")
    if fr[0] <= 0:
        raise ValueError("train fraction must be positive")
    return fr


def load_corpus(path, split_fractions: Sequence[float] = (0.8, 0.1, 0.1)) -> Corpus:
    """Read a UTF-8 text file and split it contiguously by character count."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ValueError(f"corpus file is empty: {path}")
    return load_corpus_text(text, split_fractions)


def bundled_corpus_path() -> Path:
    """Path of the ~100KB sample corpus shipped with the package."""
    return Path(str(resources.files(__package__).joinpath("data", "corpus.txt")))


# ---------------------------------------------------------------------------
# training configuration


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 1 <= self.context <= self.model.context:
            raise ValueError(
                f"context {self.context} outside [1, model.context={self.model.context}]"
            )


@dataclass
class TrainTemplate:
    """Everything a search trial shares; ordering and seed are filled per trial.

    Its fields are the config's ``train`` block (``cli.TRAIN``): an int's least
    value is 1 unless its metadata gives a ``minimum``.
    """

    d: int
    heads: int
    steps: int
    batch_size: int
    context: int
    lr: float = TrainConfig.lr
    eval_interval: int = TrainConfig.eval_interval
    ffn_inner: int = field(default=ModelConfig.ffn_inner, metadata={"minimum": 0})  # 0 means 4 * d
    tie_embeddings: bool = ModelConfig.tie_embeddings
    pre_norm: bool = ModelConfig.pre_norm
    dropout: float = ModelConfig.dropout

    def instantiate(self, ordering: OrderingSpec, vocab: int, seed: int) -> TrainConfig:
        values = vars(self)

        def shared(cls) -> dict:
            return {f.name: values[f.name] for f in fields(cls) if f.name in values}

        model = ModelConfig(ordering=ordering, vocab=vocab, **shared(ModelConfig))
        return TrainConfig(model=model, seed=seed, **shared(TrainConfig))


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
    windows = ids[starts[:, None] + np.arange(context + 1)]
    return windows[:, :-1], windows[:, 1:]


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
    drop_rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0, "dropout")))
    curve: list[tuple[int, float]] = []
    with buffer_pool():  # each step reuses the buffers the step before it freed
        for step in range(1, cfg.steps + 1):
            x, y = _sample_batch(rng, corpus.train_ids, cfg.context, cfg.batch_size)
            with Tape() as tape:
                loss = cross_entropy_loss(forward(model, x, dropout_rng=drop_rng), y)
            backward(loss, tape)
            adam_step(params, state)
            if step % cfg.eval_interval == 0 or step == cfg.steps:
                curve.append((step, float(loss.data)))
    del state, tape, loss  # Adam's moments and flat gradient are not needed to score
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


def evaluate(model: TransformerStack, stream: np.ndarray, context: int) -> float:
    """Average NLL (nats/char) over non-overlapping context windows.

    Windows stride by ``context`` so every character after the first is
    predicted exactly once; a short tail window is evaluated as-is. The NLL
    is summed per chunk of 64 windows, and each chunk's forward runs in
    slices of windows whose widest activation fits ``EVAL_FLOATS`` floats;
    the logits are bitwise those of one forward per chunk.

    Every slice of the stream, in order, is one work item. They are spread
    over ``T = min(slices, CPUs this process may run on)`` threads, the
    caller being thread 0: thread ``k`` scores slices ``k, k + T, ...`` under
    its own ``no_grad()``, so the threads' slice counts differ by at most
    one. After the joins each chunk's slice NLLs are concatenated and
    summed, and the chunk sums added in chunk order, so the result is
    bitwise that of one thread. Each thread holds one slice of activations
    at a time; the slice NLLs (one float64 per target, the size of the
    window array) are kept until their chunk is summed. A stream of one
    slice starts no thread.

    Raises ``ValueError`` before any work for a ``context`` outside
    ``[1, model.config.context]``, a stream of fewer than 2 characters, or a
    token id outside ``[0, vocab)``. Anything a thread raises while scoring
    is raised here once every thread has joined; where several slices
    raise, the lowest-indexed slice's (so the lowest chunk's) exception wins.
    """
    cfg = model.config
    if not 1 <= context <= cfg.context:
        raise ValueError(f"context {context} outside [1, model.config.context={cfg.context}]")
    ids = np.asarray(stream)
    if ids.size < 2:
        raise ValueError("evaluation stream must hold at least 2 characters")
    if ids.min() < 0 or ids.max() >= cfg.vocab:
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    widest = max(3 * cfg.d, cfg.ffn_inner, cfg.heads * context, cfg.vocab)
    step = max(1, EVAL_FLOATS // (context * widest))
    n_full = (ids.size - 1) // context
    full = ids[np.arange(n_full)[:, None] * context + np.arange(context + 1)]
    chunks = [full[off : off + 64] for off in range(0, n_full, 64)]
    if n_full * context + 1 < ids.size:
        chunks.append(ids[None, n_full * context :])
    # every slice in stream order, with the index of its chunk
    slices = [(i, w[j : j + step]) for i, w in enumerate(chunks) for j in range(0, len(w), step)]
    n_threads = min(len(slices), _cpu_count())
    scored: list = [None] * len(slices)  # each slice's target NLLs, or what scoring it raised

    def score(k: int) -> None:
        with no_grad():
            for s, (_, w) in itertools.islice(enumerate(slices), k, None, n_threads):
                try:
                    # under no_grad nothing else holds a forward's logits, so they are scored in place
                    scored[s] = _target_nlls(forward(model, w[:, :-1]).data, w[:, 1:])
                except BaseException as exc:  # raised by the caller, after the joins
                    scored[s] = exc
                    return

    threads = []
    try:
        for k in range(1, n_threads):
            t = threading.Thread(target=score, args=(k,), name=f"evaluate-{k}")
            t.start()
            threads.append(t)
        score(0)
    finally:
        for t in threads:
            t.join()
    # in slice order: a thread's unscored slices follow the one that raised
    for nlls in scored:
        if isinstance(nlls, BaseException):
            raise nlls
    total_nll = 0.0
    # a chunk's slice NLLs summed as one array are bitwise its one forward's
    for _, chunk in itertools.groupby(zip(slices, scored), key=lambda pair: pair[0][0]):
        total_nll += float(np.concatenate([nlls for _, nlls in chunk]).sum())
    return total_nll / (ids.size - 1)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _target_nlls(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The NLL of each of ``targets`` under ``logits``, which it overwrites."""
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    m = logits.max(axis=-1, keepdims=True)
    np.exp(np.subtract(logits, m, out=logits), out=logits)
    lse = np.log(logits.sum(axis=-1)) + m[..., 0]
    return lse - picked


# ---------------------------------------------------------------------------
# search protocols


@dataclass
class SearchConfig:
    """One search run: a sampling mode plus the shared training template."""

    mode: str  # "permutation" | "budgeted"
    template: TrainTemplate
    master_seed: int
    out_path: str | None = None
    trials: int = 0
    n_s: int = 0
    n_f: int = 0
    budget: int = 0


def _run_trials(
    count: int,
    spec_of: Callable[[int], tuple[OrderingSpec, int]],
    template: TrainTemplate,
    corpus: Corpus,
    out_path,
    run: dict,
) -> list[TrialRecord]:
    """Train every trial index below ``count`` not already on disk, one
    :func:`train_model` call each, in index order; ``spec_of(index)`` gives
    its (ordering, sandwich_k) and is called only when the trial starts.

    ``run`` holds the results-file header fields that name the run, among
    them the ``master_seed`` each trial's seed derives from; the header adds
    ``train``, the template's fields, and ``corpus_sha256``, the SHA-256 of
    the JSON list of the corpus's three split texts. Each record
    appends to ``out_path`` as its trial finishes, so a finished file is
    byte-stable across reruns except for timestamp metadata. A trial that
    raises stops the run with the earlier trials on disk, so a rerun resumes
    at that trial. A file whose header another run wrote raises
    ``ResumeMismatch`` before it is opened (see :func:`results.open_results`).
    """
    fh, done = None, {}
    if out_path is not None:
        splits = json.dumps([corpus.train_text, corpus.valid_text, corpus.test_text]).encode()

        def plain(fields: dict) -> dict:  # numpy scalars as the Python numbers JSON holds
            return {k: v.item() if isinstance(v, np.generic) else v for k, v in fields.items()}

        run = {**plain(run), "train": plain(vars(template)), "corpus_sha256": hashlib.sha256(splits).hexdigest()}
        fh, done = open_results(out_path, run)
    try:
        for index in range(count):
            if index in done:
                continue
            ordering, sandwich_k = spec_of(index)
            seed = derive_seed(run["master_seed"], index, "train")
            rec, _ = train_model(template.instantiate(ordering, corpus.vocab_size, seed), corpus)
            rec.index, rec.sandwich_k = index, sandwich_k
            if fh is not None:
                append_record(fh, rec)
            done[index] = rec
    finally:
        if fh is not None:
            fh.close()
    return [done[i] for i in sorted(done)]


def run_random_search(search: SearchConfig, corpus: Corpus) -> list[TrialRecord]:
    """Sample-and-train protocol: one record per trial, resumable by index.
    The header names the sampler's sizes, ``n_s`` and ``n_f`` or ``budget``."""
    if search.mode not in ("permutation", "budgeted"):
        raise ValueError(f"run_random_search mode must be permutation|budgeted, got {search.mode!r}")
    if search.trials < 1:
        raise ValueError("trials must be >= 1")

    def spec_of(i):
        arch_seed = derive_seed(search.master_seed, i, "arch")
        if search.mode == "permutation":
            return sample_permutation(search.n_s, search.n_f, arch_seed), -1
        return sample_budgeted(search.budget, arch_seed), -1

    sizes = {"n_s": search.n_s, "n_f": search.n_f} if search.mode == "permutation" else {"budget": search.budget}
    return _run_trials(
        search.trials,
        spec_of,
        search.template,
        corpus,
        search.out_path,
        {"mode": search.mode, "master_seed": search.master_seed, **sizes},
    )


def run_sandwich_sweep(
    n: int,
    k_values: Iterable[int],
    template: TrainTemplate,
    corpus: Corpus,
    out_path=None,
    master_seed: int = 0,
) -> list[TrialRecord]:
    """One trial per sandwich coefficient, identical hyperparameters throughout.
    The header holds the whole ``k_values`` list, so only the same list resumes."""
    ks = list(k_values)
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"sandwich coefficient must be an int, got {k!r}")
        if not 0 <= k <= n - 1:
            raise ValueError(f"sandwich coefficient k={k} out of range [0, {n - 1}]")
    return _run_trials(
        len(ks),
        lambda i: (sandwich(n, ks[i]), ks[i]),
        template,
        corpus,
        out_path,
        {"mode": "sandwich_sweep", "master_seed": master_seed, "sweep_n": n, "k_values": ks},
    )


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
    """Scatter of validation perplexity vs sandwich coefficient (or trial index).

    The y range spans the finite perplexities; a diverged record (``inf``)
    sits on the top edge, above a band that the finite range leaves free.
    """
    recs = _sorted_records(records)
    use_k = all(r.sandwich_k >= 0 for r in recs)
    xs = [float(r.sandwich_k if use_k else r.index) for r in recs]
    ys = [r.valid_ppl for r in recs]
    finite = [y for y in ys if math.isfinite(y)]
    x_label = "sandwich coefficient k" if use_k else "trial index"
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 20, 50
    band = 24 if len(finite) < len(ys) else 0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return left + (x - x_lo) / x_span * (width - left - right)

    def py(y):
        if not math.isfinite(y):
            return float(top)
        return height - bottom - (y - y_lo) / y_span * (height - top - band - bottom)

    y_ticks = [y_lo, y_hi] if finite else []
    y_ticks += [math.inf] if band else []

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
    ]
    for y in y_ticks:
        parts.append(
            f'<text x="{left - 6}" y="{py(y):.1f}" font-size="11" '
            f'text-anchor="end">{y:.6g}</text>'
        )
    for x, y, r in zip(xs, ys, recs):
        parts.append(
            f'<circle class="record" cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" '
            f'fill="steelblue"><title>{r.ordering}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# each report format's file name and renderer
_REPORTS = {
    "csv": ("report.csv", render_csv),
    "markdown": ("report.md", render_markdown),
    "svg": ("report.svg", render_svg),
}
REPORT_FORMATS = tuple(_REPORTS)
REPORT_FILES = {fmt: name for fmt, (name, _) in _REPORTS.items()}  # the file each format writes in out_dir


def write_report(records: Sequence[TrialRecord], formats: Iterable[str], out_dir) -> dict:
    """Render the requested formats into ``out_dir`` as report.{csv,md,svg}."""
    if not records:
        raise ValueError("write_report needs at least 1 record")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for fmt in formats:
        if fmt not in _REPORTS:
            raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
        name, render = _REPORTS[fmt]
        path = out_dir / name
        path.write_text(render(records), encoding="utf-8")
        written[fmt] = path
    return written
