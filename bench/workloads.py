"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``prepare``,
outside any timing, and makes one pass of calls into ``tubalsketch`` in
``run``.  A :class:`Pass` times those calls and keeps each ``solve`` call's
result; ``check`` then judges every result against references computed
here, independently of the package's code paths.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from tubalsketch import analysis, harness, sketching, solvers, t_algebra
from tubalsketch.harness import ExperimentConfig, MethodSpec, ProblemSpec
from tubalsketch.solvers import DivergenceError, SolverConfig

# Slack on ``tol`` when an error the solver measured in the Fourier domain is
# measured again here in the spatial domain: the two agree up to rounding.
ROUNDING_SLACK = 1e-6


@dataclass
class Solve:
    """One observed ``solve`` call."""

    config: SolverConfig
    shape: tuple  # (m, n, p, l)
    wall: float
    record: object = None  # RunRecord; None when the solve raised
    X: object = None
    x_star: object = None
    error: str = ""


class Pass:
    """Times one pass of calls into the package and keeps what they returned."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.remainders = []  # per call: its wall time minus that of the solves in it
        self.solves = []
        self.bytes_written = 0
        self.checks = []  # (what, failure message or "") of workload-level checks
        self.failed = []  # readable failure lines, filled in by the workload's check

    def call(self, name, fn, *args, **kwargs):
        """Call a public package function, adding its wall time to the pass."""
        if self.tracer is not None:
            fn = self.tracer.wrap(name, fn)
        first_solve = len(self.solves)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            self.wall += wall
            self.remainders.append(wall - sum(s.wall for s in self.solves[first_solve:]))

    def observe(self, solve):
        """``solve`` wrapped so that each call is timed and its result kept;
        a divergence is recorded and raised on."""

        def observed(A, B, config, x_star=None):
            shape = (A.shape[0], A.shape[1], B.shape[1], A.shape[2])
            start = time.perf_counter()
            try:
                X, record = solve(A, B, config, x_star=x_star)
            except DivergenceError as exc:
                wall = time.perf_counter() - start
                self.solves.append(Solve(config, shape, wall, error=str(exc)))
                raise
            wall = time.perf_counter() - start
            self.solves.append(Solve(config, shape, wall, record, X, x_star))
            return X, record

        return observed

    def solve(self, A, B, config, x_star=None):
        """Call ``solvers.solve``; returns (None, None) if it diverged."""
        try:
            return self.call(
                "solvers.solve", self.observe(solvers.solve), A, B, config, x_star=x_star
            )
        except DivergenceError:
            return None, None

    def failures(self, check_solve):
        """Every failed solve or workload check, as readable lines."""
        out = []
        for number, s in enumerate(self.solves):
            what = f"solve {number} ({s.config.method})"
            if s.error:
                out.append(f"{what}: {s.error}")
            elif not s.record.converged:
                out.append(f"{what}: did not converge in {s.record.iterations} iterations")
            else:
                message = check_solve(s)
                if message:
                    out.append(f"{what}: {message}")
        out.extend(f"{what}: {message}" for what, message in self.checks if message)
        return out

    @property
    def attempted(self):
        return len(self.solves) + len(self.checks)


def relative_error(X, ref):
    return float(np.linalg.norm(X - ref) / np.linalg.norm(ref))


def check_tol(name, value, tol):
    if value <= tol * (1.0 + ROUNDING_SLACK):
        return ""
    return f"{name} {value:.3e} exceeds {tol:.1e}"


def check_x_star(s):
    """x_star mode: the final relative error, measured here, is within tol."""
    return check_tol("relative error", relative_error(s.X, s.x_star), s.config.tol)


class PaperAll11:
    """All eleven methods through the experiment harness at paper scale."""

    name = "paper-all11"
    trials = 8
    methods = (
        MethodSpec(method="TSP", sketch="gaussian", tau=10),
        MethodSpec(method="NTSP", sketch="slice", prob="uniform"),
        MethodSpec(method="ATSP-MD", sketch="slice"),
        MethodSpec(method="ATSP-PR", sketch="slice"),
        MethodSpec(method="ATSP-CS", sketch="slice"),
        MethodSpec(method="TSP-I", sketch="fourier-row", prob="fourier-row-norm"),
        MethodSpec(method="TSP-II", sketch="fourier-row", prob="fourier-row-norm"),
        MethodSpec(method="NTSP-II", sketch="fourier-row", prob="uniform"),
        MethodSpec(method="ATSP-MD-II", sketch="fourier-row"),
        MethodSpec(method="ATSP-PR-II", sketch="fourier-row"),
        MethodSpec(method="ATSP-CS-II", sketch="fourier-row"),
    )

    def prepare(self, seed, out_dir):
        return ExperimentConfig(
            problem=ProblemSpec(m=50, n=20, p=5, l=5, seed=seed),
            methods=list(self.methods),
            trials=self.trials,
            tol=1e-10,
            max_iters=300_000,
            record_every=1000,
            seed=seed,
            output_dir=os.path.join(out_dir, f"experiment-seed{seed}"),
        )

    def memory_inputs(self, config):
        return dataclasses.replace(
            config, trials=1, output_dir=config.output_dir + "-memory"
        )

    def shapes(self, config):
        spec = config.problem
        return {"m": spec.m, "n": spec.n, "p": spec.p, "l": spec.l,
                "trials": config.trials, "methods": len(config.methods)}

    def run(self, config, p):
        # the harness looks ``solve`` up in its own module namespace
        harness_solve = harness.solve
        harness.solve = p.observe(harness_solve)
        try:
            summary = p.call("harness.run_experiment", harness.run_experiment, config)
        finally:
            harness.solve = harness_solve
        p.checks.append(("experiment summary", self._summary_error(summary, config)))
        names = os.listdir(config.output_dir)
        p.bytes_written = sum(
            os.path.getsize(os.path.join(config.output_dir, name))
            for name in names
            if name.startswith(("trace_", "curve_"))
        )

    def _summary_error(self, summary, config):
        problems = []
        for entry in summary["methods"]:
            if entry["trials_run"] != config.trials or entry.get("converged") != config.trials:
                problems.append(
                    f"{entry['label']} ran {entry['trials_run']} and converged "
                    f"{entry.get('converged', 0)} of {config.trials} trials"
                )
        names = os.listdir(config.output_dir)
        traces = sum(name.startswith("trace_") for name in names)
        if traces != config.trials * len(config.methods):
            problems.append(f"{traces} trace files written")
        if "summary.json" not in names:
            problems.append("no summary.json written")
        return "; ".join(problems)

    def check(self, config, p):
        return p.failures(check_x_star)


class LargeSetup:
    """One large Gaussian system whose solve is mostly setup."""

    name = "large-setup"

    def prepare(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        A, x_star, B = harness.gen_gaussian(ProblemSpec(m=600, n=100, p=4, l=8), rng)
        config = SolverConfig(
            method="ATSP-MD",
            sketches=sketching.make_slice_sketches(600, 8),
            tol=1e-8,
            max_iters=50_000,
            record_every=100,
            seed=seed,
            check_sampling=True,
        )
        return {"A": A, "B": B, "x_star": x_star, "config": config}

    def memory_inputs(self, inputs):
        return inputs

    def shapes(self, inputs):
        m, n, l = inputs["A"].shape
        return {"m": m, "n": n, "p": inputs["B"].shape[1], "l": l,
                "q": inputs["config"].sketches.q}

    def run(self, inputs, p):
        p.solve(inputs["A"], inputs["B"], inputs["config"], x_star=inputs["x_star"])

    def check(self, inputs, p):
        return p.failures(check_x_star)


class PaperCertify:
    """Rate certificates for paper-scale systems, checked against an
    ensemble of max-loss runs recorded on every iteration.

    Each system gets its own ensemble of right-hand sides and its own rate
    report, so that the run's cost averages over several systems.  The
    right-hand sides are made in ``run`` by the package's ``tprod``, so that
    its cost is measured here; a wrong product shows as a solution that
    misses its ``x_star``.
    """

    name = "paper-certify"
    systems = 10
    runs_per_system = 3

    def prepare(self, seed, out_dir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2022]))
        sketches = sketching.make_slice_sketches(50, 5)
        systems = []
        for j in range(self.systems):
            A = rng.standard_normal((50, 20, 5))
            runs = []
            for r in range(self.runs_per_system):
                x_star = rng.standard_normal((20, 5, 5))
                config = SolverConfig(
                    method="ATSP-MD", sketches=sketches, tol=1e-10,
                    max_iters=100_000, record_every=1,
                    seed=seed * 1000 + j * self.runs_per_system + r,
                )
                runs.append((x_star, config))
            systems.append({"A": A, "runs": runs, "report_seed": [seed, j]})
        return {"sketches": sketches, "systems": systems}

    def memory_inputs(self, inputs):
        return {**inputs, "systems": inputs["systems"][:1]}

    def shapes(self, inputs):
        m, n, l = inputs["systems"][0]["A"].shape
        return {"m": m, "n": n, "p": 5, "l": l, "systems": self.systems,
                "runs_per_system": self.runs_per_system}

    def run(self, inputs, p):
        sketches = inputs["sketches"]
        for j, system in enumerate(inputs["systems"]):
            A = system["A"]
            records = []
            for x_star, config in system["runs"]:
                B = p.call("t_algebra.tprod", t_algebra.tprod, A, x_star)
                records.append(p.solve(A, B, config, x_star=x_star)[1])
            report = p.call(
                "analysis.compute_rate_report", analysis.compute_rate_report,
                A, None, sketches,
                rng=np.random.default_rng(system["report_seed"]),
            )
            what = f"system {j} max-distance certificate"
            if any(record is None for record in records):
                p.checks.append((what, "not checked: a solve diverged"))
                continue
            bound = p.call("analysis.verify_bounds", analysis.verify_bounds,
                           records, report, "max-distance")
            p.checks.append((what, "" if bound.passed else bound.detail))

    def check(self, inputs, p):
        return p.failures(check_x_star)


WORKLOADS = {w.name: w for w in (PaperAll11(), LargeSetup(), PaperCertify())}
