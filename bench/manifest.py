"""What the benchmark measures: workloads, metrics, units and bounds.

``run.py`` reports exactly these metrics.  Running this file writes them to
``BENCHMARK.json`` at the repository root:

    python3 bench/manifest.py
"""

import json
from pathlib import Path

RUN_SECONDS = 16

WORKLOADS = [
    ("paper-all11",
     "all 11 methods via harness and io at 50x20x5, 8 trials: per-iteration "
     "Python overhead and index draws dominate"),
    ("large-setup",
     "ATSP-MD on 600x100x8 with 600 slice sketches: setup (member FFTs, "
     "factors, cross table, completeness check) is most of the solve"),
    ("paper-certify",
     "10 systems: record-every-step max-loss runs, rate reports and bound "
     "checks, where analysis and the block-circulant oracles do the work"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("loop_s", "s", "lower", 0.25),
    ("iterations", "count", "lower", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.1),
]

METHODS = ["TSP", "NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS", "TSP-I", "TSP-II",
           "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II"]

# (name, unit, better)
PER_LAYER = [
    ("sketching.complete_check.s", "s", "lower"),
    ("sketching.member_hat.calls", "count", "lower"),
    ("sketching.member_hat.per_member", "count", "lower"),
    ("solvers.setup.s", "s", "lower"),
    ("solvers.setup_tables_mb", "MB", "lower"),
    ("solvers.loop.s", "s", "lower"),
    ("solvers.us_per_iter", "us", "lower"),
    ("solvers.gflops", "GFLOP/s-computed", "higher"),
    ("sketching.sample_index.calls", "count", "lower"),
    ("sketching.sample_index.s", "s", "lower"),
    ("solvers.select_index.calls", "count", "lower"),
    ("solvers.select_index.s", "s", "lower"),
    *[(f"solvers.{m}.solve_s", "s", "lower") for m in METHODS],
    *[(f"solvers.{m}.iterations", "count", "lower") for m in METHODS],
    ("harness.run_experiment.s", "s", "lower"),
    ("harness.generate_problem.s", "s", "lower"),
    ("io.write_trace.calls", "count", "lower"),
    ("io.write_trace.s", "s", "lower"),
    ("io.write_curve.s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("analysis.compute_rate_report.s", "s", "lower"),
    ("analysis.expected_projector.s", "s", "lower"),
    ("analysis.per_slice_rates.s", "s", "lower"),
    ("analysis.estimate_delta_inf.s", "s", "lower"),
    ("analysis.closed_form_rate_bounds.s", "s", "lower"),
    ("analysis.verify_bounds.s", "s", "lower"),
    ("t_algebra.tprod_oracle.calls", "count", "lower"),
    ("t_algebra.tprod_oracle.s", "s", "lower"),
    ("t_algebra.bcirc.s", "s", "lower"),
    ("t_algebra.tpinv.s", "s", "lower"),
    ("t_algebra.tprod.calls", "count", "lower"),
    ("t_algebra.tprod.s", "s", "lower"),
    *[(f"{layer}.self.s", "s", "lower")
      for layer in ("solvers", "sketching", "harness", "io", "analysis", "t_algebra")],
    ("trace.overhead_s", "s", "lower"),
]


def manifest():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
