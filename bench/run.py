"""Benchmark of tubalsketch: end-to-end metrics and per-layer traced timings.

Run from the repository root, which holds the package sources in ``src``:

    python3 bench/run.py --workload paper-all11 --seed 1 --seconds 16 --trace 0

A run builds the workload's inputs from ``--seed``.  It makes one untimed
pass over one trial or system of them, which warms up and, with
``--trace 0``, gives ``peak_mem_mb`` from tracemalloc.  It then repeats
timed passes over all the inputs until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics: each solve's and each call's
median over the passes, summed.  ``--trace 1`` alternates traced and
untraced passes and reports the per-layer metrics, medians over the traced
passes, with the tracing overhead.  Every solve is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans, the environment and each pass's totals
go to ``.bench_out/`` at the root.

Metric definitions are in ``manifest.py``; ``python3 bench/manifest.py``
writes them to ``BENCHMARK.json``.  The workloads are in ``workloads.py``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

import manifest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# One process with single-threaded BLAS: the hot loops multiply tiny
# matrices, and on a shared machine one thread gives steadier timings.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_ENV = "TUBALSKETCH_WORKERS"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD's commit id, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, shapes):
    import numpy
    import scipy
    import tubalsketch

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "tubalsketch": tubalsketch.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        WORKERS_ENV: "unset (1 worker)",  # main() removes it
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": shapes,
    }


def solve_times(s):
    """(wall, setup, loop) seconds of one solve; a failed solve is all wall."""
    if s.record is None:
        return s.wall, 0.0, 0.0
    loop = float(s.record.seconds[-1])
    return s.wall, s.wall - loop, loop


def pass_totals(p):
    times = [solve_times(s) for s in p.solves]
    return {
        "wall_s": p.wall,
        "setup_s": sum(t[1] for t in times),
        "loop_s": sum(t[2] for t in times),
        "iterations": sum(int(s.record.iterations) for s in p.solves if s.record),
    }


def end_to_end(passes):
    """Each solve's and each call's median over the passes, summed.

    Passes repeat the same calls on the same inputs, so a burst of
    interference from other processes is dropped where it hit instead of
    moving the whole pass.
    """
    solves = list(zip(*[[solve_times(s) for s in p.solves] for p in passes]))
    remainders = list(zip(*[p.remainders for p in passes]))
    setup = sum(median([t[1] for t in runs]) for runs in solves)
    loop = sum(median([t[2] for t in runs]) for runs in solves)
    return {
        "wall_s": sum(median([t[0] for t in runs]) for runs in solves)
        + sum(median(r) for r in remainders),
        "setup_s": setup,
        "loop_s": loop,
        "iterations": pass_totals(passes[0])["iterations"],
    }


def layer_metrics(p, tracer):
    """Per-layer metrics of one traced pass (trace.overhead_s is added later)."""
    from tubalsketch import analysis
    from tracing import summarize

    calls, inclusive, own = summarize(tracer.spans)
    done = [s for s in p.solves if s.record is not None]
    totals = pass_totals(p)
    loop, iterations = totals["loop_s"], totals["iterations"]
    spatial_members = sum(
        s.config.sketches.q for s in p.solves
        if s.config.sketches is not None and not s.config.sketches.per_slice
    )
    flops, cached_loop = 0, 0.0
    for s in done:
        if s.config.sketches is None:
            continue
        try:
            per_iter = analysis.flops_per_iteration(
                s.config.method, s.config.sketches.tau, s.config.sketches.q,
                s.shape[1], s.shape[2], s.shape[3])
        except ValueError:  # no cost formula: the method keeps no cached factors
            continue
        flops += per_iter * int(s.record.iterations)
        cached_loop += float(s.record.seconds[-1])
    # the completeness check runs inside make_state; setup is the rest of it
    check_s = inclusive["sketching.complete_check"]
    out = {
        "sketching.complete_check.s": check_s,
        "sketching.member_hat.calls": calls["sketching.member_hat"],
        # member transforms from every caller (setup, check, analysis) per
        # member of the spatial sketch sets the solves used
        "sketching.member_hat.per_member":
            calls["sketching.member_hat"] / spatial_members if spatial_members else 0.0,
        "solvers.setup.s": inclusive["solvers.make_state"] - check_s,
        "solvers.setup_tables_mb": max(tracer.state_bytes, default=0) / 1e6,
        "solvers.loop.s": loop,
        "solvers.us_per_iter": 1e6 * loop / iterations if iterations else 0.0,
        "solvers.gflops": flops / cached_loop / 1e9 if cached_loop else 0.0,
    }
    for method in manifest.METHODS:
        mine = [s for s in done if s.config.method.upper() == method]
        out[f"solvers.{method}.solve_s"] = sum(s.wall for s in mine)
        out[f"solvers.{method}.iterations"] = sum(int(s.record.iterations) for s in mine)
    out["io.bytes_written"] = p.bytes_written
    # the rest follow the span names: "<span>.s" is the span's inclusive
    # time, "<span>.calls" its count, "<module>.self.s" the module's self time
    for name, _, _ in manifest.PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        layer, rest = name.split(".", 1)
        if rest == "self.s":
            out[name] = sum(v for n, v in own.items() if n.split(".", 1)[0] == layer)
        elif rest.endswith(".calls"):
            out[name] = calls[f"{layer}.{rest[:-6]}"]
        else:
            out[name] = inclusive[f"{layer}.{rest[:-2]}"]
    return out


def run_pass(workload, inputs, tracer=None):
    from workloads import Pass

    p = Pass(tracer)
    if tracer is not None:
        tracer.install()
    try:
        workload.run(inputs, p)
    finally:
        if tracer is not None:
            tracer.restore()
    p.failed = workload.check(inputs, p)
    return p


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tubalsketch" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, so that BLAS starts with these threads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop(WORKERS_ENV, None)
    sys.path.insert(0, str(SRC))
    import tubalsketch

    if Path(tubalsketch.__file__).resolve().parent != SRC / "tubalsketch":
        print(f"error: imported tubalsketch from {tubalsketch.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.prepare(args.seed, str(OUT_DIR))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # the untimed first pass covers one trial or system of the workload: it
    # takes the tracemalloc peak with --trace 0 and warms up either way
    passes, traced, plain = [], [], []
    if args.trace == 0:
        tracemalloc.start()
    untimed = run_pass(workload, workload.memory_inputs(inputs))
    if args.trace == 0:
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        if args.trace == 0:
            passes.append(run_pass(workload, inputs))
        else:
            tracer = Tracer()
            traced.append((run_pass(workload, inputs, tracer), tracer))
            plain.append(run_pass(workload, inputs))
            passes.extend([traced[-1][0], plain[-1]])
    timed_s = time.perf_counter() - start

    everything = [untimed, *passes]
    failures = [line for p in everything for line in p.failed]
    # seeded runs repeat exactly: the untimed pass repeats the first solves
    per_solve = [[s.record.iterations if s.record else None for s in p.solves]
                 for p in everything]
    if any(its[:len(per_solve[0])] != per_solve[0] or its != per_solve[1]
           for its in per_solve[1:]):
        failures.append("iteration counts differ between passes of the same inputs")
    attempted = 1 + sum(p.attempted for p in everything)  # 1: the check above

    if args.trace == 0:
        values = end_to_end(passes)
        values["peak_mem_mb"] = peak_bytes / 1e6
        units = {name: unit for name, unit, _, _ in manifest.END_TO_END}
    else:
        layers = [layer_metrics(p, tracer) for p, tracer in traced]
        values = {name: median([m[name] for m in layers]) for name in layers[0]}
        values["trace.overhead_s"] = (median([p.wall for p, _ in traced])
                                      - median([p.wall for p in plain]))
        units = {name: unit for name, unit, _ in manifest.PER_LAYER}
        write_spans(OUT_DIR / f"spans-{stem}.csv", [tracer for _, tracer in traced])

    env = environment(args, workload.shapes(inputs))
    report = {
        "environment": env,
        "timed_passes": len(passes),
        "timed_s": timed_s,
        "passes": [pass_totals(p) for p in everything],
        "fail_rate": len(failures) / attempted,
        "failures": failures,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("environment " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: {len(passes)} timed passes in {timed_s:.1f} s")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    print(f"  {'fail_rate':40s} {len(failures):>7d} / {attempted:<7d} "
          f"= {len(failures) / attempted:.4g}")
    for line in failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
