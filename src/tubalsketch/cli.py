"""Command-line front end: gen, solve, bench, rates, verify.

Typical round trip::

    tubalsketch gen --kind gaussian --m 50 --n 20 --p 5 --l 5 --seed 1 --out sys1
    tubalsketch solve --method ATSP-MD --sketch slice --in sys1_A.tns sys1_B.tns \
        --xstar sys1_X.tns --tol 1e-8 --trace run.csv --out xhat.tns
    tubalsketch rates --in sys1_A.tns --sketch slice --out rates.json
    tubalsketch verify --rates rates.json --bound max-distance --traces run.csv

``verify`` reads the weighted squared error each trace recorded, so its
traces must come from runs solved with ``--xstar``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis
from . import harness
from . import io as tio
from .sketching import resolve_probabilities
from .solvers import RunRecord, SolverConfig, solve


def _add_sketch_args(cmd):
    cmd.add_argument("--sketch", default="slice",
                     choices=["slice", "block", "gaussian", "fourier-row",
                              "fourier-gaussian"])
    cmd.add_argument("--tau", type=int, default=1, help="sketch size")
    cmd.add_argument("--q", type=int, default=0,
                     help="family size (0: derived from the kind)")
    cmd.add_argument("--block-size", type=int, default=0,
                     help="rows per block for block sketches")
    cmd.add_argument("--prob", default=None,
                     help="uniform | slice-norm | sketch-norm | fourier-row-norm")
    cmd.add_argument("--seed", type=int, default=0)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tubalsketch",
        description="sketch-and-project solvers for t-product tensor linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a consistent synthetic system")
    gen.add_argument("--kind", choices=["gaussian", "deblur"], default="gaussian")
    gen.add_argument("--m", type=int, default=50)
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--p", type=int, default=5)
    gen.add_argument("--l", type=int, default=5)
    gen.add_argument("--image-size", type=int, default=32)
    gen.add_argument("--num-images", type=int, default=3)
    gen.add_argument("--kernel-size", type=int, default=5)
    gen.add_argument("--kernel-sigma", type=float, default=2.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path prefix")

    slv = sub.add_parser("solve", help="run one solver on a stored system")
    slv.add_argument("--method", required=True)
    _add_sketch_args(slv)
    slv.add_argument("--theta", type=float, default=0.5)
    slv.add_argument("--tol", type=float, default=1e-10)
    slv.add_argument("--max-iters", type=int, default=100_000)
    slv.add_argument("--record-every", type=int, default=1)
    slv.add_argument("--in", dest="inputs", nargs=2, required=True,
                     metavar=("A.tns", "B.tns"))
    slv.add_argument("--xstar", default=None,
                     help="known solution; enables the relative-error stop rule")
    slv.add_argument("--trace", default=None, help="write the trace CSV here")
    slv.add_argument("--out", default=None, help="write the final iterate here")
    slv.add_argument("--save-sketches", default=None,
                     help="serialize the sketch set for exact replay")

    bench = sub.add_parser("bench", help="run a multi-method experiment")
    bench.add_argument("--config", required=True, help="JSON (or TOML) experiment file")
    bench.add_argument("--out", default=None, help="override the output directory")

    rates = sub.add_parser("rates", help="emit the rate certificates as JSON")
    rates.add_argument("--in", dest="a_path", required=True, metavar="A.tns")
    _add_sketch_args(rates)
    rates.add_argument("--samples", type=int, default=2000,
                       help="sampled directions for the worst-direction estimate")
    rates.add_argument("--out", default=None, help="write the JSON report here")

    verify = sub.add_parser(
        "verify", help="check traces against a method family's rate envelope"
    )
    verify.add_argument("--rates", required=True, help="JSON report from `rates`")
    verify.add_argument("--bound", required=True, choices=list(analysis.BOUNDS))
    verify.add_argument("--traces", nargs="+", required=True)
    verify.add_argument("--theta", type=float, default=0.5)
    verify.add_argument("--slack", type=float, default=0.10)
    verify.add_argument("--min-ensemble", type=int, default=30)
    return parser


def _cmd_gen(args):
    spec = harness.ProblemSpec(
        kind=args.kind, m=args.m, n=args.n, p=args.p, l=args.l,
        image_size=args.image_size, num_images=args.num_images,
        kernel_size=args.kernel_size, kernel_sigma=args.kernel_sigma,
        seed=args.seed,
    )
    A, x_star, B = harness.generate_problem(spec)
    tio.save_tensor(f"{args.out}_A.tns", A)
    tio.save_tensor(f"{args.out}_X.tns", x_star)
    tio.save_tensor(f"{args.out}_B.tns", B)
    print(f"wrote {args.out}_A.tns {args.out}_X.tns {args.out}_B.tns "
          f"(A: {A.shape}, X: {x_star.shape})")
    return 0


def _sketches_from_args(args, m, l):
    mspec = harness.MethodSpec(
        method=getattr(args, "method", "NTSP"), sketch=args.sketch,
        tau=args.tau, q=args.q, block_size=args.block_size,
    )
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
    return harness.build_sketches(mspec, m, l, rng)


def _cmd_solve(args):
    A = tio.load_tensor(args.inputs[0])
    B = tio.load_tensor(args.inputs[1])
    x_star = tio.load_tensor(args.xstar) if args.xstar else None
    sketches = _sketches_from_args(args, A.shape[0], A.shape[2])
    if args.save_sketches and sketches is None:
        raise ValueError("--save-sketches: TSP draws a fresh sketch every iteration")
    config = SolverConfig(
        method=args.method, sketches=sketches, probabilities=args.prob,
        theta=args.theta, tau=args.tau, max_iters=args.max_iters,
        tol=args.tol, seed=args.seed, record_every=args.record_every,
    )
    X, record = solve(A, B, config, x_star=x_star)
    print(f"{record.method}: {record.iterations} iterations, "
          f"final error {record.epsilon[-1]:.3e}, "
          f"converged={record.converged}")
    if args.trace:
        tio.write_trace(args.trace, record)
    if args.out:
        tio.save_tensor(args.out, X)
    if args.save_sketches:
        tio.save_sketches(args.save_sketches, sketches)
    return 0 if record.converged else 2


def _cmd_bench(args):
    config = harness.ExperimentConfig.from_dict(
        tio.load_experiment_dict(args.config)
    )
    if args.out:
        config.output_dir = args.out
    summary = harness.run_experiment(config)
    for entry in summary["methods"]:
        if "mean_iterations" in entry:
            print(f"{entry['label']:>16}: mean iters {entry['mean_iterations']:9.1f}  "
                  f"mean secs {entry['mean_seconds']:.3f}  "
                  f"converged {entry['converged']}/{entry['trials_run']}")
        else:
            print(f"{entry['label']:>16}: no completed trials {entry['diverged']}")
    print(f"summary written to {config.output_dir}/summary.json")
    return 0


def _cmd_rates(args):
    A = tio.load_tensor(args.a_path)
    sketches = _sketches_from_args(args, A.shape[0], A.shape[2])
    p = resolve_probabilities(args.prob, A, None, sketches)
    report = analysis.compute_rate_report(
        A, None, sketches, p=p, n_samples=args.samples,
        rng=np.random.default_rng(args.seed),
    )
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _records_from_traces(paths):
    records = []
    for path in paths:
        data = tio.read_trace(path)
        rec = RunRecord(method="trace")
        rec.t = data["t"]
        rec.epsilon = data["epsilon"]
        rec.q_error = data["q_error"]
        records.append(rec)
    return records


def _cmd_verify(args):
    with open(args.rates) as fh:
        report = analysis.RateReport.from_dict(json.load(fh))
    records = _records_from_traces(args.traces)
    check = analysis.verify_bounds(
        records, report, args.bound, theta=args.theta, slack=args.slack,
        min_ensemble=args.min_ensemble,
    )
    print(f"{'bound':>14}  {'rate':>12}  {'worst ratio':>12}  {'at t':>6}  verdict")
    print(f"{check.bound:>14}  {check.rate:12.6g}  {check.worst_ratio:12.6g}  "
          f"{check.worst_t:6d}  {'PASS' if check.passed else 'FAIL'}")
    print(check.detail)
    return 0 if check.passed else 1


def main(argv=None):
    """Run one command; a ``ValueError`` becomes a one-line usage error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "rates": _cmd_rates,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
