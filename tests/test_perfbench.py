"""Smoke runs of the benchmark's entry point, so that a change to the names
the benchmark reaches (pmbp.engine, the traced classes) shows in the suite
rather than only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["--workload", "forecast", "--seed", "1", "--seconds", "0"],
    ["--workload", "recover", "--seed", "1", "--seconds", "0", "--trace", "1"],
], ids=["forecast", "recover_traced"])
def test_benchmark_round_is_correct(args):
    # one round: every output check passes and no operation fails
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args], cwd=ROOT,
        check=True, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_import_leaves_scipy_and_click_unloaded():
    # the benchmark's setup_s includes a fresh `import pmbp`; SciPy and
    # click are imported only by the code paths that use them
    probe = ("import sys, pmbp; "
             "print(sorted(m for m in ('scipy', 'click') if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"
