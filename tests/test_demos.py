"""Smoke tests of the demos, each run as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout, proc.stdout


def test_rate_certificate_demo(tmp_path):
    run_demo("03_rate_certificates.py", tmp_path)


@pytest.mark.parametrize("name", [
    "01_tubal_algebra_tour.py",
    "02_solver_comparison.py",
    "04_per_slice_sketching.py",
    "05_image_deblurring.py",
])
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)
