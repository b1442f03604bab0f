"""sublayer-lab benchmark: three closed-loop workloads and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload train-d64 --seed 1 --seconds 20 --trace 0

Workloads, metric names, units and directions live in ``BENCHMARK.json``.
The package is imported from the checkout's ``src/``; nothing is installed
and nothing under ``src/`` is edited. BLAS is pinned to one thread before
numpy loads, and the run refuses to start if it is not.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the import time
plus the median of three full set-ups (corpus load, workload inputs and a
warm-up call), and the closed loop then runs for ``--seconds``. Times and
throughputs are scaled to a fixed host speed (see ``workloads.HostSpeed``);
the ``env`` line reports the reference kernel's measured and reference time.

``--trace 1`` is a separate run. After one traced set-up it runs the closed
loop untraced for a third of ``--seconds`` and then traced for the rest, on
the same inputs, so the traced outputs are checked against the untraced ones
and the difference in cycle time is the tracing overhead. Per-layer metrics
of a layer the chosen workload does not exercise (for example attention
distance on train-d64) come from one traced cycle of the workload that does.
Spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is the result object; the line before it
holds the ``env`` block.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
COVERAGE_ORDER = ("search-d16-w2", "distance-h8", "train-d64")


def _fatal(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _env(blas_threads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _untraced(wl, seconds: float, import_s: float) -> dict:
    ref = wl.host.REF_S
    import_s *= ref / wl.host.measure()
    reps = []
    for _ in range(SETUP_REPS):
        before = wl.host.measure()
        t0 = time.perf_counter()
        wl.setup()
        secs = time.perf_counter() - t0
        reps.append(secs * 2 * ref / (before + wl.host.measure()))
    wl.loop(seconds)
    ops = wl.ops
    return {
        "setup_s": import_s + statistics.median(reps),
        "items_per_s": _median(wl.items_per_s),
        "infer_chars_per_s": _median(wl.infer_chars_per_s),
        "valid_nats": wl.valid_nats() if wl.first else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - ops.failed / max(1, ops.attempted),
    }


def _traced(selected, others, seconds: float):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    layer: dict = {}
    for i, wl in enumerate([selected, *others]):
        if i and all(v is not None for v in layer.values()):
            break
        untraced_s, traced_s = (seconds / 3, 2 * seconds / 3) if i == 0 else (0.0, 0.0)
        tracer.scope = wl.name
        tracer.phase = "setup"
        tracer.install()
        try:
            wl.tracer = tracer
            wl.setup()
        finally:
            tracer.restore()
        tracer.phase = "untraced"
        wl.tracer = workloads.NullTracer()
        walls_a = wl.loop(untraced_s)
        extras = wl.probe()
        tracer.phase = "timed"
        tracer.install()
        try:
            wl.tracer = tracer
            walls_b = wl.loop(traced_s)
        finally:
            tracer.restore()
        extras["overhead_frac"] = statistics.median(b / a for a, b in zip(walls_a, walls_b)) - 1.0
        extras["first_trace"] = wl.first_trace
        spans = [s for s in tracer.spans if s.scope == wl.name]
        for k, v in tracing.layer_metrics(spans, len(walls_b), extras).items():
            if layer.get(k) is None:
                layer[k] = v
    return layer, tracer


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "sublayer_lab" / "__init__.py").is_file():
        _fatal(f"package source not found under {SRC}")
    unpinned = {v: os.environ[v] for v in THREAD_VARS if os.environ[v] != "1"}
    if unpinned:
        _fatal(f"BLAS must run on one thread; unset or set to 1: {unpinned}")
    sys.path.insert(0, str(SRC))
    blas_threads = _blas_threads()
    if blas_threads not in (None, 1):
        _fatal(f"BLAS reports {blas_threads} threads; expected 1")
    import sublayer_lab

    if Path(sublayer_lab.__file__).resolve().parent != (SRC / "sublayer_lab").resolve():
        _fatal(f"imported sublayer_lab from {sublayer_lab.__file__}, not from {SRC}")
    import workloads

    import_s = time.perf_counter() - _T0
    env = _env(blas_threads)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.Ops()
    clock = workloads.EvalClock()
    clock.install()
    host = workloads.HostSpeed()

    def make(name):
        return workloads.WORKLOADS[name](args.seed, workdir, ops, clock, host, args.toy)

    try:
        if args.trace:
            others = [make(n) for n in COVERAGE_ORDER if n != args.workload]
            metrics, tracer = _traced(make(args.workload), others, args.seconds)
            wanted = spec["per_layer"]
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl", {"env": env, "layer": metrics})
        else:
            metrics = _untraced(make(args.workload), args.seconds, import_s)
            wanted = spec["end_to_end"]
    finally:
        clock.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        ops.attempted += 1
        ops.failed += 1
        ops.errors.append(f"no value measured for {missing}")
    for err in ops.errors[:20]:
        print(f"bench: failed: {err}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"]) or 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    env["host_kernel_ms"] = {"median": 1e3 * statistics.median(host.samples), "reference": 1e3 * host.REF_S}
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
