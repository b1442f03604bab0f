"""The benchmark's three closed-loop workloads.

Each workload calls the package's public functions (through the module
attributes, so a tracer can wrap them) and checks every output. A cycle is
one closed-loop operation group: the next cycle starts after the previous
one returns. Every public call made in a cycle is one attempted operation; a
call that raises, or an output check that fails, fails that operation and
ends the cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from sublayer_lab import arch_dsl, attn_analysis, cli, lm_harness, model


class Failed(Exception):
    """An operation raised or produced a wrong output."""


class Ops:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name, fn, *args):
        """Run one operation; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:
            self.fail(name, f"{type(e).__name__}: {e}")
        return out, time.perf_counter() - t0

    def check(self, ok, name, what) -> None:
        if not ok:
            self.fail(name, what)

    def fail(self, name, what):
        self.failed += 1
        self.errors.append(f"{name}: {what}")
        raise Failed(what)


class EvalClock:
    """Times every ``lm_harness.evaluate`` call, including the one that
    ``train_model`` makes after its last step, so training time can exclude it."""

    def __init__(self):
        self.calls: list[tuple[int, float]] = []  # (thread id, seconds)
        self._orig = None

    def install(self) -> None:
        self._orig = orig = lm_harness.evaluate

        def timed(*args):
            t0 = time.perf_counter()
            out = orig(*args)
            self.calls.append((threading.get_ident(), time.perf_counter() - t0))
            return out

        lm_harness.evaluate = timed

    def restore(self) -> None:
        lm_harness.evaluate = self._orig


class HostSpeed:
    """Times a fixed reference kernel (interpreter loop, small GEMMs and small
    numpy ops, like the workloads' own mix) to follow the host's speed.

    On a shared host the same code runs up to 1.5x slower or faster from one
    minute to the next. Throughputs and set-up times are scaled by the kernel
    time measured next to them, relative to ``REF_S``, so they read as if the
    host ran at one fixed speed; the scaling cannot follow changes to the
    package, whose code the kernel never calls.
    """

    REF_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 32, 64))
        self._w = rng.standard_normal((64, 256))
        self._v = rng.standard_normal((4, 16))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(5):
            self._x @ self._w
        for _ in range(300):
            self._v * 1.5 + self._v
        return time.perf_counter() - t0

    def measure(self) -> float:
        s = statistics.median(self._kernel() for _ in range(5))
        self.samples.append(s)
        return s


class NullTracer:
    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, ops: Ops, clock: EvalClock, host: HostSpeed, toy: bool):
        self.seed = seed
        self.host = host
        self.workdir = workdir
        self.ops = ops
        self.clock = clock
        self.toy = toy
        self.tracer = NullTracer()
        self.first: dict = {}  # first output per input, for the repeat checks
        self.first_trace = None
        self.items_per_s: list[float] = []
        self.infer_chars_per_s: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, n: int) -> None:
        raise NotImplementedError

    def probe(self) -> dict:
        """Traced run only: untraced measurements beyond the cycles."""
        return {}

    def valid_nats(self) -> float:
        raise NotImplementedError

    def loop(self, seconds: float) -> list[float]:
        """Closed loop for ``seconds`` (at least one cycle). Returns the cycle
        wall times; they and the cycle's throughput samples are scaled to the
        reference host speed."""
        walls = []
        end = time.perf_counter() + seconds
        n = 0
        while n == 0 or time.perf_counter() < end:
            marks = [len(xs) for xs in (self.items_per_s, self.infer_chars_per_s)]
            before = self.host.measure()
            t0 = time.perf_counter()
            with self.tracer.span(f"bench.{self.name}", cycle=n) as sp:
                if n == 0 and sp is not None:
                    self.first_trace = sp.id
                try:
                    self.cycle(n)
                except Failed:
                    pass
            wall = time.perf_counter() - t0
            scale = (before + self.host.measure()) / (2 * HostSpeed.REF_S)
            for xs, mark in zip((self.items_per_s, self.infer_chars_per_s), marks):
                xs[mark:] = [x * scale for x in xs[mark:]]
            walls.append(wall / scale)
            n += 1
        return walls

    def same_as_first(self, key, value, name, what) -> None:
        """Outputs must repeat exactly across cycles for the same input."""
        if key not in self.first:
            self.first[key] = value
            return
        self.ops.check(_equal(self.first[key], value), name, f"{what} differs from the first run")


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _train_config(corpus, ordering: str, d, heads, context, batch, steps, seed) -> lm_harness.TrainConfig:
    mc = model.ModelConfig(
        d=d, heads=heads, vocab=corpus.vocab_size, context=context,
        ordering=arch_dsl.parse_ordering(ordering),
    )
    return lm_harness.TrainConfig(
        model=mc, steps=steps, batch_size=batch, context=context, lr=1e-3,
        seed=seed, eval_interval=max(1, steps // 4),
    )


def _same_params(a: model.TransformerStack, b: model.TransformerStack) -> bool:
    pa, pb = a.parameters(), b.parameters()
    return (
        a.config == b.config
        and len(pa) == len(pb)
        and all(x.data.dtype == y.data.dtype and np.array_equal(x.data, y.data) for x, y in zip(pa, pb))
    )


# ---------------------------------------------------------------------------


class TrainD64(Workload):
    name = "train-d64"
    orderings = ("sfsfsfsf", str(arch_dsl.sandwich(4, 1)))

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.corpus = lm_harness.load_corpus(lm_harness.bundled_corpus_path())
        d, heads, context, batch, steps = (16, 2, 8, 2, 3) if self.toy else (64, 4, 32, 8, 60)
        self.chars_per_train = steps * batch * context
        self.context = context
        seeds = rng.integers(0, 2**31, size=len(self.orderings))
        self.cfgs = [
            _train_config(self.corpus, o, d, heads, context, batch, steps, int(s))
            for o, s in zip(self.orderings, seeds)
        ]
        # warm-up: a short training and a full evaluation at the timed shape
        warm = _train_config(self.corpus, self.orderings[0], d, heads, context, batch, max(1, steps // 5), 0)
        _, m = lm_harness.train_model(warm, self.corpus)
        lm_harness.evaluate(m, self.corpus.valid_ids, context)
        self.ckpt = self.workdir / "train.ckpt"

    def cycle(self, n: int) -> None:
        ops, i = self.ops, n % len(self.cfgs)
        mark = len(self.clock.calls)
        (rec, trained), secs = ops.call("train_model", lm_harness.train_model, self.cfgs[i], self.corpus)
        final_eval = sum(s for _, s in self.clock.calls[mark:])
        ops.check(all(math.isfinite(l) for _, l in rec.loss_curve), "train_model", "non-finite loss")
        self.same_as_first(("curve", i), rec.loss_curve, "train_model", "loss curve")
        self.same_as_first(("nats", i), rec.valid_nats, "train_model", "valid_nats")
        nats, eval_s = ops.call("evaluate", lm_harness.evaluate, trained, self.corpus.valid_ids, self.context)
        ops.check(nats == rec.valid_nats, "evaluate", "differs from train_model's own evaluation")
        ops.call("save_checkpoint", model.save_checkpoint, trained, self.ckpt)
        loaded, _ = ops.call("load_checkpoint", model.load_checkpoint, self.ckpt)
        ops.check(_same_params(trained, loaded), "load_checkpoint", "round trip changed the parameters")
        nats, reload_eval_s = ops.call("evaluate", lm_harness.evaluate, loaded, self.corpus.valid_ids, self.context)
        ops.check(nats == rec.valid_nats, "evaluate", "the reloaded model scores differently")
        self.items_per_s.append(self.chars_per_train / (secs - final_eval))
        # all three evaluations score the same characters
        for s in (final_eval, eval_s, reload_eval_s):
            self.infer_chars_per_s.append((self.corpus.valid_ids.size - 1) / s)

    def valid_nats(self) -> float:
        vals = [v for (kind, _), v in self.first.items() if kind == "nats"]
        return math.fsum(vals) / len(vals)


class SearchD16W2(Workload):
    name = "search-d16-w2"
    workers = 2

    def _config(self, out: str, trials, steps, workers) -> str:
        n, d = (2, 8) if self.toy else (4, 16)
        doc = {
            "mode": "permutation", "trials": trials, "n_s": n, "n_f": n,
            "master_seed": self.master_seed, "workers": workers,
            "train": {"d": d, "heads": 2, "steps": steps, "batch_size": 4,
                      "context": 8 if self.toy else 16, "eval_interval": max(1, steps // 3)},
            "corpus": "bundled", "out": str(self.workdir / out),
        }
        path = self.workdir / f"{Path(out).stem}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def setup(self) -> None:
        self.master_seed = int(np.random.default_rng(self.seed).integers(0, 2**31))
        # the CLI loads the corpus itself; this only counts the characters its evaluations score
        self.valid_chars = lm_harness.load_corpus(lm_harness.bundled_corpus_path()).valid_ids.size - 1
        self.trials, steps = (2, 3) if self.toy else (4, 60)
        self.config = self._config("results.jsonl", self.trials, steps, self.workers)
        self.config_w1 = self._config("results_w1.jsonl", self.trials, steps, 1)
        self.out = self.workdir / "results.jsonl"
        self.walls: list[float] = []
        # warm-up: a short search at the timed shape, and its resume
        warm = self._config("warmup.jsonl", 2, max(1, steps // 10), self.workers)
        (self.workdir / "warmup.jsonl").unlink(missing_ok=True)
        for _ in range(2):
            if _search(warm) != 0:
                raise RuntimeError("warm-up search failed")

    def _run(self, config: str, out: Path) -> tuple[bytes, float]:
        out.unlink(missing_ok=True)
        mark = len(self.clock.calls)
        rc, secs = self.ops.call("cli search", _search, config)
        self.ops.check(rc == 0, "cli search", f"exit code {rc}")
        data = out.read_bytes()
        docs = [json.loads(line) for line in data.splitlines()]
        self.ops.check(
            [d.get("index") for d in docs[1:]] == list(range(self.trials)),
            "cli search", "results file does not hold every trial in order",
        )
        for _, s in self.clock.calls[mark:]:
            self.infer_chars_per_s.append(self.valid_chars / s)
        return data, secs

    def cycle(self, n: int) -> None:
        data, secs = self._run(self.config, self.out)
        self.same_as_first("results", _without_meta(data), "cli search", "results outside meta")
        self.walls.append(secs)
        self.items_per_s.append(self.trials / secs)
        mark = len(self.clock.calls)
        with self.tracer.span("bench.resume"):
            rc, _ = self.ops.call("cli search resume", _search, self.config)
        self.ops.check(rc == 0, "cli search resume", f"exit code {rc}")
        self.ops.check(len(self.clock.calls) == mark, "cli search resume", "resume trained a trial")
        self.ops.check(self.out.read_bytes() == data, "cli search resume", "resume changed the results file")

    def probe(self) -> dict:
        """The same search with one worker: pool speed-up, and the results
        must not depend on the worker count."""
        data, secs = self._run(self.config_w1, self.workdir / "results_w1.jsonl")
        self.same_as_first("results", _without_meta(data), "cli search", "one-worker results outside meta")
        canonical = self.first["results"]
        return {
            "pool_speedup": secs / statistics.median(self.walls),
            "results_bytes": sum(len(line) + 1 for line in canonical),
            "workers": self.workers,
        }

    def valid_nats(self) -> float:
        docs = [json.loads(line) for line in self.first["results"][1:]]
        return math.fsum(d["valid_nats"] for d in docs) / len(docs)


def _search(config: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["search", "--config", config])


def _without_meta(data: bytes) -> list[str]:
    out = []
    for line in data.splitlines():
        doc = json.loads(line)
        doc.pop("meta", None)
        out.append(json.dumps(doc, sort_keys=True))
    return out


class DistanceH8(Workload):
    name = "distance-h8"
    orderings = ("sfsfsfsf", str(arch_dsl.sandwich(4, 1)))

    def _shape(self, heads):
        # (d, heads, context, batch, steps)
        return (16, min(heads, 4), 8, 2, 3) if self.toy else (64, heads, 32, 4, 50)

    def _train(self, ordering, heads, seed):
        cfg = _train_config(self.corpus, ordering, *self._shape(heads), seed)
        return lm_harness.train_model(cfg, self.corpus)

    def setup(self) -> None:
        # a short validation split keeps train_model's final evaluation cheap;
        # the train split, and so the vocabulary, is the bundled default
        self.corpus = lm_harness.load_corpus(lm_harness.bundled_corpus_path(), (0.8, 0.02, 0.18))
        self.context = self._shape(8)[2]
        self.models, self.records, self.ckpts, self.groups = [], [], [], {}
        for o in self.orderings:
            for s in (1, 2):  # fixed models: the seed picks the windows
                rec, m = self._train(o, 8, s)
                mid = f"{o}-{s}"
                path = self.workdir / f"{mid}.ckpt"
                model.save_checkpoint(m, path)
                self.models.append(m)
                self.records.append(rec)
                self.ckpts.append((mid, path))
                self.groups[mid] = o
        # ten windows, so a run's median spans many windows and the first
        # ones repeat (for the same-as-first checks) within --seconds
        n_windows = (self.corpus.valid_ids.size - 1) // self.context
        picks = np.random.default_rng(self.seed).choice(n_windows, size=2 if self.toy else 10, replace=False)
        self.windows = [int(w) * self.context for w in picks]
        # warm-up: one capture and one pair at the timed shape
        dumps = [attn_analysis.capture(m, self._tokens(0)) for m in self.models[:2]]
        attn_analysis.attention_distance(dumps[0], dumps[1])

    def _tokens(self, n: int) -> np.ndarray:
        start = self.windows[n % len(self.windows)]
        return self.corpus.valid_ids[start : start + self.context]

    def cycle(self, n: int) -> None:
        ops, tokens = self.ops, self._tokens(n)
        dumps = []
        for (mid, path), trained in zip(self.ckpts, self.models):
            loaded, _ = ops.call("load_checkpoint", model.load_checkpoint, path)
            ops.check(_same_params(trained, loaded), "load_checkpoint", "parameters differ from the trained model")
            dump, secs = ops.call("capture", attn_analysis.capture, loaded, tokens, mid)
            self.infer_chars_per_s.append(tokens.size / secs)
            dump_path = self.workdir / f"{mid}.dump"
            ops.call("save_dump", attn_analysis.save_dump, dump, dump_path)
            back, _ = ops.call("load_dump", attn_analysis.load_dump, dump_path)
            ops.check(
                np.array_equal(back.probs, dump.probs) and back.model_id == mid,
                "load_dump", "round trip changed the dump",
            )
            dumps.append(back)
        table, secs = ops.call("distance_matrix", attn_analysis.distance_matrix, dumps)
        g = table.grand_means
        off = ~np.eye(len(dumps), dtype=bool)
        ops.check(
            np.all(np.diag(g) == 0) and np.array_equal(g, g.T) and np.all(g[off] > 0) and np.isfinite(g).all(),
            "distance_matrix", "needs a zero diagonal, exact symmetry and positive off-diagonal entries",
        )
        self.same_as_first(("table", n % len(self.windows)), g, "distance_matrix", "grand means")
        means, _ = ops.call("group_pair_means", attn_analysis.group_pair_means, table, self.groups)
        self.same_as_first(("groups", n % len(self.windows)), means, "group_pair_means", "group means")
        pairs = len(dumps) * (len(dumps) - 1) // 2
        self.items_per_s.append(pairs / secs)

    def probe(self) -> dict:
        """Head-count scaling: one pair of briefly trained models at 4 and 16 heads."""
        out = {}
        for heads in (4, 16):
            dumps = []
            for s in (1, 2):
                _, m = self._train(self.orderings[0], heads, s)
                dumps.append(attn_analysis.capture(m, self._tokens(0)))
            report, secs = self.ops.call("attention_distance", attn_analysis.attention_distance, *dumps)
            self.ops.check(report.grand_mean > 0, "attention_distance", "distinct models at distance 0")
            out[f"pair_ms.h{heads}"] = 1e3 * secs
        return out

    def valid_nats(self) -> float:
        return math.fsum(r.valid_nats for r in self.records) / len(self.records)


WORKLOADS = {w.name: w for w in (TrainD64, SearchD16W2, DistanceH8)}
