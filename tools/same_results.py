"""Check that a parent tree's search and sweep files equal this tree's outside ``meta``.

    python3 tools/same_results.py PARENT_DIR

Runs one small permutation search (with dropout) and one sandwich sweep (post-norm)
through ``python -m sublayer_lab`` on each tree (``RUNS``), each process with
that tree's ``src`` as its only ``PYTHONPATH`` entry, the tree's own bundled
corpus and BLAS pinned to one thread. Then compares each pair of results files
line by line, with every line's ``meta`` removed, and prints ``equal`` or the
first line that differs. Exits 1 on any difference or failed run. Stdlib only.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE_DIR = Path(__file__).resolve().parent.parent
TRAIN = {"d": 16, "heads": 2, "context": 16, "batch_size": 4, "steps": 30, "eval_interval": 10, "lr": 3e-3}
# results file -> (command, its fields besides train, corpus and out, changes to the train block)
RUNS = {
    "search.jsonl": ("search", {"mode": "permutation", "trials": 3, "n_s": 4, "n_f": 4, "master_seed": 5},
                     {"dropout": 0.1}),
    "sweep.jsonl": ("sweep", {"n": 4, "k_values": [0, 1, 3], "master_seed": 5}, {"pre_norm": False}),
}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(tree: Path, workdir: Path, train: dict = TRAIN) -> dict[str, Path]:
    """Every run of ``RUNS`` on ``tree``'s package, written under ``workdir``;
    the results files by name. A run that exits non-zero raises ``RuntimeError``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src"), **dict.fromkeys(BLAS_THREADS, "1")}
    files = {}
    for name, (command, fields, train_changes) in RUNS.items():
        files[name] = workdir / name
        config = workdir / f"{command}.json"
        config.write_text(json.dumps({
            **fields, "train": {**train, **train_changes}, "corpus": "bundled", "out": str(files[name]),
        }))
        proc = subprocess.run([sys.executable, "-m", "sublayer_lab", command, "--config", str(config)],
                              env=env, cwd=workdir, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{command} on {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return files


def _lines_without_meta(path: Path) -> list[str]:
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [json.dumps({key: value for key, value in doc.items() if key != "meta"}) for doc in docs]


def first_difference(parent: Path, change: Path) -> str | None:
    """None when both files' lines agree once each line's ``meta`` is removed,
    else the first line that differs, from both sides."""
    pairs = itertools.zip_longest(_lines_without_meta(parent), _lines_without_meta(change), fillvalue="(no line)")
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {number} differs\n  parent: {a}\n  change: {b}"
    return None


def compare(parent_dir: Path, train: dict = TRAIN) -> dict[str, str | None]:
    """Run ``RUNS`` on both trees; :func:`first_difference` of each results file."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side, tree in (("parent", parent_dir), ("change", CHANGE_DIR)):
            (Path(tmp) / side).mkdir()
            sides.append(run(tree, Path(tmp) / side, train))
        return {name: first_difference(sides[0][name], sides[1][name]) for name in RUNS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0])
    if not (parent / "src" / "sublayer_lab" / "__init__.py").is_file():
        print(f"no package at {parent / 'src' / 'sublayer_lab'}", file=sys.stderr)
        return 2
    try:
        diffs = compare(parent)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, diff in diffs.items():
        print(f"{name}: {'equal' if diff is None else diff}")
    return 0 if all(diff is None for diff in diffs.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
