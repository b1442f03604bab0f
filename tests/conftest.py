import os
import re
from pathlib import Path

# Pin BLAS to one thread before numpy loads: the matrices here are tiny, so
# threading only adds overhead and run-to-run timing noise.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

# pytest's ``pythonpath`` setting reaches this process only; child processes
# that run ``python -m sublayer_lab`` from an uninstalled checkout find the
# package through the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import pytest  # noqa: E402

from sublayer_lab import lm_harness  # noqa: E402


@pytest.fixture(scope="session")
def bundled_corpus():
    return lm_harness.load_corpus(lm_harness.bundled_corpus_path())


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] criterion {int(m.group(1)):>2}: {status}")
