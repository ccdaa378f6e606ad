"""Smoke tests of the benchmark.

``paper-certify`` runs record-every-step max-loss solves and checks each
against a rate report and the max-distance envelope, which reads the
recorded ``q_error``.  A traced ``large-setup`` run installs every span
patch point of ``bench/tracing.py``, so it fails when a package name the
tracer patches goes away.  Each run must report itself correct with no
failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout


def test_paper_certify_workload_is_correct(tmp_path):
    run_bench(tmp_path, "--workload", "paper-certify", "--seed", "1", "--seconds", "0")


def test_traced_large_setup_run_is_correct(tmp_path):
    run_bench(tmp_path, "--workload", "large-setup", "--seed", "1", "--seconds", "0",
              "--trace", "1")
