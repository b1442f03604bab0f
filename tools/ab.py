"""Paired in-process A/B of a parent tree's package against this tree's.

    python3 tools/ab.py PARENT_DIR ROUNDS

Loads ``PARENT_DIR/src/sublayer_lab`` and this tree's package under two other
names, so both sides share one process, one heap and one host speed; each copy
reads its own bundled corpus. Every round calls, at train-d64's shape and at
search-d16-w2's (``SHAPES``), one training step on each side and then
``evaluate`` on the validation split on each side, the side that goes first
alternating from round to round. A side's steps run inside one buffer pool
and keep its model and Adam state, as ``train_model``'s do; ``evaluate`` runs
on a thread that entered no pool, as ``train_model``'s final evaluation does.

Prints, for each call, both sides' quartiles in ms, how many rounds the change
was faster, and whether every output (each step's loss and, at the end, every
parameter, and each evaluation) was bitwise equal. BLAS is pinned to one
thread unless the environment says otherwise. Stdlib and numpy only.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads its BLAS, and only when run as a script
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import contextlib
import importlib
import importlib.util
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

CHANGE_DIR = Path(__file__).resolve().parent.parent
# name -> (d, heads, context, batch) of the training steps and evaluations
SHAPES = {"d64": (64, 4, 32, 8), "d16": (16, 2, 16, 4)}
ORDERING = "sfsfsfsf"


def load(tree: Path, name: str) -> dict:
    """The modules of the package under ``tree/src/sublayer_lab``, imported
    as ``name``; the package uses only relative imports."""
    root = tree / "src" / "sublayer_lab"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {m: importlib.import_module(f"{name}.{m}") for m in ("arch_dsl", "lm_harness", "model", "tensor_core")}


class Side:
    """One tree's models and optimizer states, one per shape."""

    def __init__(self, pkg: dict, shapes: dict):
        self.tc, self.lm, self.model = pkg["tensor_core"], pkg["lm_harness"], pkg["model"]
        self.corpus = self.lm.load_corpus(self.lm.bundled_corpus_path())
        self.runs = {}
        for name, (d, heads, context, batch) in shapes.items():
            cfg = self.model.ModelConfig(d=d, heads=heads, vocab=self.corpus.vocab_size, context=context,
                                         ordering=pkg["arch_dsl"].parse_ordering(ORDERING))
            m = self.model.build_model(cfg, 0)
            rng = np.random.Generator(np.random.PCG64(0))
            self.runs[name] = (m, m.parameters(), self.tc.OptimizerState(lr=1e-3), rng, context, batch)

    def step(self, name: str) -> float:
        m, params, state, rng, context, batch = self.runs[name]
        ids = self.corpus.train_ids
        windows = ids[rng.integers(0, ids.size - context, size=batch)[:, None] + np.arange(context + 1)]
        with self.tc.Tape() as tape:
            loss = self.tc.cross_entropy_loss(self.model.forward(m, windows[:, :-1]), windows[:, 1:])
        self.tc.backward(loss, tape)
        self.tc.adam_step(params, state)
        return float(loss.data)

    def evaluate(self, name: str) -> float:
        m, *_, context, _ = self.runs[name]
        return self.lm.evaluate(m, self.corpus.valid_ids, context)


def _timed(fn, *args, pool_free: bool = False):
    """(result, seconds) of ``fn(*args)``; on a fresh thread when ``pool_free``."""
    box = []

    def run():
        t0 = time.perf_counter()
        out = fn(*args)
        box.append((out, time.perf_counter() - t0))

    if not pool_free:
        run()
        return box[0]
    t = threading.Thread(target=run)
    t.start()
    t.join()
    if not box:
        raise RuntimeError(f"{fn.__name__} failed on its thread")
    return box[0]


class Row(NamedTuple):
    call: str
    parent_ms: tuple[float, float, float]  # quartiles
    change_ms: tuple[float, float, float]
    change_won: int
    rounds: int
    equal: bool


def compare(parent_dir: Path, rounds: int, shapes: dict = SHAPES) -> list[Row]:
    """Run both trees' calls for ``rounds`` rounds; one row per call."""
    try:
        sides = [Side(load(Path(parent_dir), "ab_parent"), shapes), Side(load(CHANGE_DIR, "ab_change"), shapes)]
        times, equal = _interleave(sides, shapes, rounds)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] in ("ab_parent", "ab_change")]:
            del sys.modules[name]

    def quartiles(ms):
        return tuple(float(x) for x in np.percentile(ms, [25, 50, 75]))

    return [
        Row(call, quartiles(parent), quartiles(change), sum(c < p for p, c in zip(parent, change)), rounds, equal[call])
        for call, (parent, change) in times.items()
    ]


def _interleave(sides: list[Side], shapes: dict, rounds: int) -> tuple[dict, dict]:
    """Each call's ms per side, [parent, change], and whether its outputs were equal."""
    calls = [(f"step {n}", "step", n) for n in shapes] + [(f"evaluate {n}", "evaluate", n) for n in shapes]
    times = {c: ([], []) for c, *_ in calls}
    equal = dict.fromkeys(times, True)
    with contextlib.ExitStack() as pools:
        for side in sides:
            pools.enter_context(side.tc.buffer_pool())
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for call, method, shape in calls:
                outs = [None, None]
                for i in order:
                    outs[i], secs = _timed(getattr(sides[i], method), shape, pool_free=method == "evaluate")
                    times[call][i].append(1e3 * secs)
                equal[call] &= repr(outs[0]) == repr(outs[1])
    for n in shapes:
        pa, pb = sides[0].runs[n][1], sides[1].runs[n][1]
        equal[f"step {n}"] &= all(np.array_equal(a.data, b.data) for a, b in zip(pa, pb, strict=True))
    return times, equal


def report(rows: list[Row]) -> str:
    lines = [f"{'call':<14}{'parent ms q1/med/q3':>26}{'change ms q1/med/q3':>26}{'change won':>12}  bitwise"]
    for r in rows:
        cols = ["/".join(f"{x:.3f}" for x in ms) for ms in (r.parent_ms, r.change_ms)]
        lines.append(f"{r.call:<14}{cols[0]:>26}{cols[1]:>26}{f'{r.change_won}/{r.rounds}':>12}  "
                     f"{'equal' if r.equal else 'DIFFER'}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit() or int(argv[1]) < 1:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0])
    if not (parent / "src" / "sublayer_lab" / "__init__.py").is_file():
        print(f"no package at {parent / 'src' / 'sublayer_lab'}", file=sys.stderr)
        return 2
    rows = compare(parent, int(argv[1]))
    print(report(rows))
    return 0 if all(r.equal for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
