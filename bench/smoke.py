"""Smoke test of the benchmark itself, at toy shapes (about half a minute).

    python3 -m pytest bench/smoke.py -q

Every workload must emit every metric named in BENCHMARK.json with its unit,
traced and untraced, with no failed operation; the traced run's exact counts
must repeat; and a directory holding only the benchmark must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = (
    "tensor_core.tape_nodes_per_step",
    "model.s_tape_nodes",
    "model.f_tape_nodes",
    "attn_analysis.assignment_solves_per_cell",
    "lm_harness.results_bytes",
)


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--toy")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = _result(_run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_traced_exact_counts_repeat():
    a, b = (_result(_run("search-d16-w2", 1))["metrics"] for _ in range(2))
    assert {k: a[k]["value"] for k in EXACT} == {k: b[k]["value"] for k in EXACT}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
