"""Rate certificates and envelope verification.

The expected sketched projector's smallest eigenvalue is the per-step
contraction constant of fixed-probability sampling; the max-loss rule
contracts at least as fast on every single step.  This script computes the
constants on a small instance, runs an ensemble, and checks the recorded
errors against the geometric envelopes.
"""

import numpy as np

from tubalsketch import (
    SolverConfig,
    compute_rate_report,
    make_slice_sketches,
    solve,
    verify_bounds,
)
from tubalsketch.harness import ProblemSpec, gen_gaussian

spec = ProblemSpec(m=12, n=5, p=2, l=3, seed=4)
A, x_star, B = gen_gaussian(spec)
sketches = make_slice_sketches(spec.m, spec.l)

report = compute_rate_report(A, None, sketches, n_samples=2000,
                             rng=np.random.default_rng(5))
print("== certificates ==")
print(f"  fixed-sampling constant (exact) : {report.delta_p_sq:.5f}")
print(f"  worst-direction constant        : >= {report.delta_inf_sq_lower:.5f},"
      f" sampled estimate {report.delta_inf_sq_estimate:.5f}")
print(f"  per-slice minimum               : {report.per_slice_min_rate:.5f}")

print(f"  closed-form lower bounds        : "
      f"{ {k: round(v, 5) for k, v in report.closed_form_bounds.items()} }")

print("\n== envelope checks ==")
ensemble = []
for seed in range(40):
    cfg = SolverConfig(method="NTSP", sketches=sketches, seed=seed, tol=0.0,
                       max_iters=120)
    _, record = solve(A, B, cfg, x_star=x_star)
    ensemble.append(record)
check = verify_bounds(ensemble, report, "nonadaptive")
print(f"  fixed sampling, 40-run mean vs (1 - {report.delta_p_sq:.4f})^t: "
      f"{'PASS' if check.passed else 'FAIL'} "
      f"(worst mean/envelope {check.worst_ratio:.3f})")

cfg = SolverConfig(method="ATSP-MD", sketches=sketches, seed=99, tol=0.0,
                   max_iters=120)
_, md_record = solve(A, B, cfg, x_star=x_star)
check = verify_bounds([md_record], report, "max-distance")
print(f"  max rule, per-step ratios vs {check.rate:.4f}: "
      f"{'PASS' if check.passed else 'FAIL'} "
      f"(worst step ratio {check.worst_ratio:.4f})")

ensemble = []
for seed in range(40):
    cfg = SolverConfig(method="ATSP-PR", sketches=sketches, seed=seed, tol=0.0,
                       max_iters=120)
    _, record = solve(A, B, cfg, x_star=x_star)
    ensemble.append(record)
check = verify_bounds(ensemble, report, "proportional")
print(f"  proportional rule, (1+1/q)-improved envelope: "
      f"{'PASS' if check.passed else 'FAIL'} "
      f"(worst mean/envelope {check.worst_ratio:.3f})")
