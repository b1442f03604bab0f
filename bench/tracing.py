"""Spans recorded around the package's module boundaries, and the per-layer
metrics derived from them.

The tracer replaces module attributes (``lm_harness.backward``,
``model.self_attention_sublayer``, ...) with thin wrappers, so the package's
own ``train_model``, ``distance_matrix`` and CLI run unchanged and call
through the wrappers. Spans stay in memory until the run writes them out.

Backward time is assigned to a sublayer by the range of tape nodes the
sublayer recorded: the wrapper marks the range's last node (backward enters
the sublayer there) and its first node (backward leaves it there).
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from sublayer_lab import attn_analysis, cli, lm_harness, model, tensor_core

MODULES = ("tensor_core", "model", "lm_harness", "cli", "attn_analysis", "arch_dsl")


class Span:
    __slots__ = ("id", "parent", "trace", "step", "name", "t0", "t1", "thread", "scope", "phase", "attrs")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans in memory. ``scope`` and ``phase`` label the workload and
    run phase that the main thread is in; worker threads inherit them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scope = ""
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.solves = 0  # calls of attn_analysis._assignment_min

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        sp = Span()
        sp.id = next(self._ids)
        sp.parent = stack[-1].id if stack else None
        # one id per closed-loop operation, trial (worker thread root) or window
        sp.trace = stack[0].id if stack else sp.id
        sp.step = getattr(self._local, "step", None)
        sp.name = name
        sp.thread = threading.get_ident()
        sp.scope = self.scope
        sp.phase = self.phase
        sp.attrs = attrs
        sp.t1 = None
        stack.append(sp)
        sp.t0 = time.perf_counter()
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sp = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(sp, args, out)
                return out
            finally:
                tracer.end(sp)

        self._set(owner, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tracer = self
        local = self._local
        steps = itertools.count(1)

        class TracedTape(tensor_core.Tape):
            """Opens a training step: spans until the Adam update share its id."""

            def __enter__(self):
                local.tape = self
                local.step = next(steps)
                return super().__enter__()

            def __exit__(self, *exc):
                local.tape = None
                return super().__exit__(*exc)

        self._set(lm_harness, "Tape", TracedTape)

        def grad_flag(sp, args, out):
            sp.attrs["grad"] = getattr(local, "tape", None) is not None

        def tape_size(sp, args, out):
            sp.attrs["nodes"] = len(args[1].nodes)  # train_model passes its tape

        def end_step(sp, args, out):
            local.step = None

        def record_wall(sp, args, out):
            sp.attrs["wall_clock_s"] = out[0].wall_clock_s

        def record_rc(sp, args, out):
            sp.attrs["rc"] = out

        self.wrap(lm_harness, "forward", "model.forward", grad_flag)
        self.wrap(attn_analysis, "forward", "model.forward", grad_flag)
        self.wrap(lm_harness, "cross_entropy_loss", "tensor_core.cross_entropy_loss")
        self.wrap(lm_harness, "backward", "tensor_core.backward", tape_size)
        self.wrap(lm_harness, "adam_step", "tensor_core.adam_step", end_step)
        self.wrap(lm_harness, "train_model", "lm_harness.train_model", record_wall)
        self.wrap(lm_harness, "evaluate", "lm_harness.evaluate")
        self.wrap(lm_harness, "run_random_search", "lm_harness.run_random_search")
        self.wrap(lm_harness, "sample_permutation", "arch_dsl.sample_permutation")
        self.wrap(model, "save_checkpoint", "model.save_checkpoint")
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        self.wrap(cli, "main", "cli.main", record_rc)
        for fn in ("capture", "save_dump", "load_dump", "distance_matrix", "group_pair_means"):
            self.wrap(attn_analysis, fn, f"attn_analysis.{fn}")
        self._wrap_pair()
        self._wrap_sublayer("self_attention_sublayer", "s")
        self._wrap_sublayer("feedforward_sublayer", "f")

        solve = attn_analysis._assignment_min

        def counted_solve(cost):
            tracer.solves += 1
            return solve(cost)

        self._set(attn_analysis, "_assignment_min", counted_solve)

    def _wrap_pair(self) -> None:
        orig = attn_analysis.attention_distance
        tracer = self

        def wrapper(a, b):
            solves = tracer.solves
            sp = tracer.begin("attn_analysis.attention_distance", same=a is b, cells=a.s_count * a.t)
            try:
                return orig(a, b)
            finally:
                sp.attrs["solves"] = tracer.solves - solves
                tracer.end(sp)

        self._set(attn_analysis, "attention_distance", wrapper)

    def _wrap_sublayer(self, attr: str, kind: str) -> None:
        orig = getattr(model, attr)
        tracer = self
        local = self._local

        def wrapper(*args, **kwargs):
            tape = getattr(local, "tape", None)
            first = len(tape.nodes) if tape is not None else None
            sp = tracer.begin(f"model.{attr}", kind=kind)
            try:
                out = orig(*args, **kwargs)
                if tape is not None:
                    last = len(tape.nodes)
                    sp.attrs["nodes"] = last - first
                    if last > first:
                        _time_backward_range(tape.nodes[first], tape.nodes[last - 1], sp.attrs)
                return out
            finally:
                tracer.end(sp)

        self._set(model, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sp in sorted(self.spans, key=lambda s: s.t0):
                fh.write(json.dumps(sp.to_json(), sort_keys=True, default=str) + "\n")


def _time_backward_range(first_node, last_node, attrs: dict) -> None:
    """Stamp when backward enters the range (its last node) and leaves it (its
    first node); backward walks the tape in reverse."""
    enter_fn = last_node.backward_fn

    def entered(g):
        attrs["bwd_t0"] = time.perf_counter()
        return enter_fn(g)

    last_node.backward_fn = entered
    leave_fn = first_node.backward_fn

    def left(g):
        out = leave_fn(g)
        attrs["bwd_t1"] = time.perf_counter()
        return out

    first_node.backward_fn = left


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(xs):
    xs = list(xs)
    return statistics.median(xs) if xs else None


def _ms(x):
    return None if x is None else 1e3 * x


def _self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of span duration minus the part covered by child spans, by module."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.dur
    out = defaultdict(float)
    for sp in spans:
        out[sp.name.split(".", 1)[0]] += sp.dur - child[sp.id]
    return out


def _step_metrics(spans: list[Span]) -> dict:
    by_step = defaultdict(list)
    for sp in spans:
        if sp.step is not None:
            by_step[(sp.thread, sp.step)].append(sp)
    acc = defaultdict(list)
    for group in by_step.values():
        named = defaultdict(list)
        for sp in group:
            named[sp.name].append(sp)
        fwd = [s for s in named["model.forward"] if s.attrs.get("grad")]
        bwd = named["tensor_core.backward"]
        adam = named["tensor_core.adam_step"]
        loss = named["tensor_core.cross_entropy_loss"]
        subs = sorted(
            named["model.self_attention_sublayer"] + named["model.feedforward_sublayer"],
            key=lambda s: s.t0,
        )
        if not (fwd and bwd and adam and loss and subs) or "bwd_t0" not in subs[-1].attrs:
            continue  # a step interrupted by an error
        fwd, bwd = fwd[0], bwd[0]
        acc["tape_nodes"].append(bwd.attrs["nodes"])
        acc["backward"].append(bwd.dur)
        acc["adam"].append(adam[0].dur)
        acc["embed_fwd"].append(subs[0].t0 - fwd.t0)
        acc["head_loss"].append(
            (fwd.t1 - subs[-1].t1) + loss[0].dur + (subs[-1].attrs["bwd_t0"] - bwd.t0)
        )
        for sp in subs:
            k = sp.attrs["kind"]
            acc[f"{k}_fwd"].append(sp.dur)
            acc[f"{k}_bwd"].append(sp.attrs["bwd_t1"] - sp.attrs["bwd_t0"])
            acc[f"{k}_nodes"].append(sp.attrs["nodes"])
    return acc


def layer_metrics(spans: list[Span], ops: int, extras: dict) -> dict:
    """Per-layer metrics of one workload's traced spans (``None`` where the
    workload does not exercise the layer). ``extras`` holds values measured
    outside the spans, such as the pool speed-up."""
    named = defaultdict(list)
    for sp in spans:
        named[sp.name].append(sp)

    def med_ms(name, pred=lambda s: True):
        return _ms(_median(s.dur for s in named[name] if pred(s)))

    steps = _step_metrics(spans)
    m: dict = {}
    timed = [s for s in spans if s.phase == "timed"]
    m["tensor_core.tape_nodes_per_step"] = _median(steps["tape_nodes"])
    m["tensor_core.backward_ms"] = _ms(_median(steps["backward"]))
    m["tensor_core.adam_step_ms"] = _ms(_median(steps["adam"]))
    m["model.embed_fwd_ms"] = _ms(_median(steps["embed_fwd"]))
    for k in ("s", "f"):
        m[f"model.{k}_fwd_ms"] = _ms(_median(steps[f"{k}_fwd"]))
        m[f"model.{k}_bwd_ms"] = _ms(_median(steps[f"{k}_bwd"]))
        m[f"model.{k}_tape_nodes"] = _median(steps[f"{k}_nodes"])
    m["model.head_loss_ms"] = _ms(_median(steps["head_loss"]))
    m["model.no_grad_forward_ms"] = med_ms("model.forward", lambda s: not s.attrs.get("grad"))
    m["model.save_checkpoint_ms"] = med_ms("model.save_checkpoint")
    m["model.load_checkpoint_ms"] = med_ms("model.load_checkpoint")
    m["lm_harness.evaluate_ms"] = med_ms("lm_harness.evaluate")
    m["lm_harness.trial_s"] = _median(
        s.attrs["wall_clock_s"] for s in named["lm_harness.train_model"] if s.phase == "timed"
    )
    busy = []
    for search in named["lm_harness.run_random_search"]:
        if search.phase != "timed":
            continue
        trials = [s for s in named["lm_harness.train_model"] if search.t0 <= s.t0 and s.t1 <= search.t1]
        busy.append(sum(s.dur for s in trials) / (extras["workers"] * search.dur))
    m["lm_harness.pool_busy_frac"] = _median(busy)
    m["lm_harness.pool_speedup"] = extras.get("pool_speedup")
    m["lm_harness.results_bytes"] = extras.get("results_bytes")
    cli_calls = named["cli.main"]
    resumes = {s.id for s in named["bench.resume"]}
    m["cli.resume_noop_ms"] = med_ms("cli.main", lambda s: s.parent in resumes)
    m["cli.nonzero_exits"] = sum(s.attrs.get("rc") != 0 for s in cli_calls) if cli_calls else None
    pairs = named["attn_analysis.attention_distance"]
    m["attn_analysis.pair_ms"] = med_ms(
        "attn_analysis.attention_distance", lambda s: not s.attrs["same"]
    )
    m["attn_analysis.self_pair_ms"] = med_ms(
        "attn_analysis.attention_distance", lambda s: s.attrs["same"]
    )
    first_window = [s for s in pairs if s.trace == extras.get("first_trace")]
    m["attn_analysis.assignment_solves_per_cell"] = (
        sum(s.attrs["solves"] for s in first_window) / sum(s.attrs["cells"] for s in first_window)
        if first_window else None
    )
    for fn in ("capture", "save_dump", "load_dump"):
        m[f"attn_analysis.{fn}_ms"] = med_ms(f"attn_analysis.{fn}")
    for h in (4, 16):
        m[f"attn_analysis.pair_ms.h{h}"] = extras.get(f"pair_ms.h{h}")
    samples = []
    for search in named["lm_harness.run_random_search"]:
        calls = [s for s in named["arch_dsl.sample_permutation"] if search.t0 <= s.t0 <= search.t1]
        samples.append(sum(s.dur for s in calls))
    m["arch_dsl.sample_ms"] = _ms(_median(samples))
    selfs = _self_times(timed)
    for mod in MODULES:
        m[f"{mod}.self_ms"] = _ms(selfs[mod] / ops) if mod in selfs and ops else None
    m["trace.overhead_frac"] = extras.get("overhead_frac")
    return m
