"""Smoke test of the benchmark's certificate workload.

``paper-certify`` runs record-every-step max-loss solves and checks each
against a rate report and the max-distance envelope, which reads the
recorded ``q_error``; the run must report itself correct with no failed
operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paper_certify_workload_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "paper-certify",
         "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
