"""Problem generation and reproducible experiment orchestration.

Two generators are provided: dense Gaussian systems, and a deblurring
operator built from a small convolution kernel whose frontal slices are
the circulant matrices of the kernel columns (so applying the operator is
a 2-D circular convolution of each stored image).  Both return consistent
systems by construction: B is computed as A * X_star.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage
from scipy.linalg import circulant

from . import io as tio
from . import sketching
from .solvers import DivergenceError, SolverConfig, check_ranges, solve
from .t_algebra import tprod

__all__ = [
    "ProblemSpec",
    "MethodSpec",
    "ExperimentConfig",
    "gen_gaussian",
    "gen_deblur",
    "gaussian_kernel",
    "conv2d_circular",
    "relative_error",
    "generate_problem",
    "build_sketches",
    "run_experiment",
]

@dataclass
class ProblemSpec:
    kind: str = "gaussian"
    m: int = 50
    n: int = 20
    p: int = 5
    l: int = 5
    image_size: int = 32
    num_images: int = 3
    kernel_size: int = 5
    kernel_sigma: float = 2.0
    padded_size: int | None = None
    seed: int = 0


def gen_gaussian(spec, rng=None):
    """A and X_star i.i.d. standard normal, B = A * X_star."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.m, spec.n, spec.l))
    x_star = rng.standard_normal((spec.n, spec.p, spec.l))
    return A, x_star, tprod(A, x_star)


def gaussian_kernel(size, sigma):
    """Unit-sum truncated Gaussian kernel; sigma <= 0 gives the centered delta."""
    if size < 1:
        raise ValueError("kernel size must be >= 1")
    ker = np.zeros((size, size))
    if sigma <= 0:
        ker[size // 2, size // 2] = 1.0
        return ker
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    ker = np.outer(g, g)
    return ker / ker.sum()


def conv2d_circular(img, ker):
    """Direct (shift-and-add) 2-D circular convolution; the reference the
    deblurring operator is checked against."""
    out = np.zeros_like(img, dtype=np.float64)
    rows, cols = np.nonzero(ker)
    for a, b in zip(rows, cols):
        out += ker[a, b] * np.roll(np.roll(img, a, axis=0), b, axis=1)
    return out


def smooth_images(size, count, rng):
    """Seeded low-pass-filtered noise fields, scaled to [0, 1]."""
    images = []
    for _ in range(count):
        img = ndimage.gaussian_filter(
            rng.standard_normal((size, size)), sigma=size / 8.0, mode="wrap"
        )
        lo, hi = img.min(), img.max()
        images.append((img - lo) / (hi - lo) if hi > lo else np.zeros_like(img))
    return images


def gen_deblur(spec, rng=None):
    """Deblurring system: kernel-column circulant slices acting on images.

    Images of side ``image_size`` and the kernel are zero-padded to
    ``image_size + kernel_size - 1`` (or ``padded_size``), frontal slice k
    of A is the circulant matrix of column k of the padded kernel, and
    image j is stored as X[i, j, k] = image[k, i].
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    size = spec.image_size
    ksize = spec.kernel_size
    pad = spec.padded_size or (size + ksize - 1)
    if ksize > pad:
        raise ValueError(f"kernel size {ksize} exceeds padded image size {pad}")
    if size > pad:
        raise ValueError(f"image size {size} exceeds padded image size {pad}")
    ker = np.zeros((pad, pad))
    ker[:ksize, :ksize] = gaussian_kernel(ksize, spec.kernel_sigma)
    A = np.empty((pad, pad, pad))
    for k in range(pad):
        A[:, :, k] = circulant(ker[:, k])
    x_star = np.zeros((pad, spec.num_images, pad))
    for j, img in enumerate(smooth_images(size, spec.num_images, rng)):
        padded = np.zeros((pad, pad))
        padded[:size, :size] = img
        x_star[:, j, :] = padded.T  # X[i, j, k] = image[k, i]
    return A, x_star, tprod(A, x_star)


def generate_problem(spec, rng=None):
    if spec.kind == "gaussian":
        return gen_gaussian(spec, rng)
    if spec.kind == "deblur":
        return gen_deblur(spec, rng)
    raise ValueError(f"unknown problem kind {spec.kind!r}")


def relative_error(X, x_star):
    """||X - X_star||_F / ||X_star||_F."""
    scale = np.linalg.norm(x_star)
    if scale == 0:
        raise ValueError("relative error is undefined for a zero reference")
    return float(np.linalg.norm(np.asarray(X) - np.asarray(x_star)) / scale)


@dataclass
class MethodSpec:
    """One solver entry of an experiment: method plus its sketch recipe."""

    method: str
    label: str = ""
    sketch: str = "slice"  # slice | block | gaussian | fourier-row | fourier-gaussian
    tau: int = 1
    q: int = 0  # 0: defaults to m for gaussian kinds; block: the number of blocks
    block_size: int = 0  # block sketches: contiguous blocks of this size
    prob: object = None
    theta: float = 0.5

    def __post_init__(self):
        if not self.label:
            self.label = self.method.upper()


def build_sketches(mspec, m, l, rng):
    """The sketch set of ``mspec`` for a system with m rows and depth l, or
    None for TSP, which draws a fresh sketch every iteration.  A value the
    kind cannot honour raises ``ValueError``: q other than 0 or m for slice
    and fourier-row sets, tau other than 1 for slice, block and fourier-row
    sets, block_size for any kind but block, and q with block_size."""
    if mspec.method.upper() == "TSP":
        return None
    kind = mspec.sketch
    if kind not in sketching.SPATIAL_KINDS + sketching.FOURIER_KINDS:
        raise ValueError(f"unknown sketch kind {kind!r}")
    for name, bad, why in (
            ("q", kind in ("slice", "fourier-row") and mspec.q not in (0, m), f"is not 0 or m={m}"),
            ("tau", kind in ("slice", "block", "fourier-row") and mspec.tau != 1, "is not 1"),
            ("block_size", kind != "block" and mspec.block_size, "is for block sketches"),
            ("q", kind == "block" and mspec.q and mspec.block_size, "excludes block_size")):
        if bad:
            raise ValueError(f"{kind} sketches: {name}={getattr(mspec, name)!r} {why}")
    if kind == "slice":
        return sketching.make_slice_sketches(m, l)
    if kind == "block":  # contiguous blocks: block_size rows each (default 2), else q blocks
        if mspec.q:
            return sketching.make_block_sketches(m, l, np.array_split(np.arange(m), mspec.q))
        size = mspec.block_size or 2
        partition = [range(i, min(i + size, m)) for i in range(0, m, size)]
        return sketching.make_block_sketches(m, l, partition)
    if kind == "gaussian":
        return sketching.make_gaussian_sketches(m, mspec.tau, mspec.q or m, l, rng)
    if kind == "fourier-row":
        return sketching.make_fourier_sketches(m, 1, m, l, "row")
    return sketching.make_fourier_sketches(m, mspec.tau, mspec.q or m, l, "gaussian", rng)


@dataclass
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    methods: list = field(default_factory=list)
    trials: int = 10
    tol: float = 1e-10
    max_iters: int = 200_000
    record_every: int = 1
    seed: int = 0
    output_dir: str = "experiment_out"

    def __post_init__(self):
        """SolverConfig's range checks and trials >= 1; whole floats become ints."""
        check_ranges(self)
        for name in ("trials", "max_iters", "record_every", "seed"):
            setattr(self, name, int(getattr(self, name)))

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON dict; an unknown key raises ``ValueError``."""
        d = dict(d)
        try:
            problem = ProblemSpec(**d.pop("problem", {}))
            methods = [MethodSpec(**entry) for entry in d.pop("methods", [])]
            return cls(problem=problem, methods=methods, **d)
        except TypeError as exc:  # an unknown key
            raise ValueError(f"experiment config: {exc}") from exc


def _run_one(config, mspec, trial, A, x_star, B):
    seed = config.seed * 1_000_003 + trial
    sketch_rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(mspec.label.encode())])
    )
    solver_config = SolverConfig(
        method=mspec.method,
        sketches=build_sketches(mspec, A.shape[0], A.shape[2], sketch_rng),
        weight=None,
        probabilities=mspec.prob,
        theta=mspec.theta,
        tau=mspec.tau,
        max_iters=config.max_iters,
        tol=config.tol,
        seed=seed,
        record_every=config.record_every,
    )
    return solve(A, B, solver_config, x_star=x_star)


def _mean_curves(records):
    """Average error over trials on the common iteration grid; runs that
    stopped early are held at their final error."""
    T = max(int(r.t[-1]) for r in records)
    grid = np.arange(T + 1)
    eps = np.empty((len(records), T + 1))
    secs = np.empty((len(records), T + 1))
    for row, r in enumerate(records):
        eps[row] = np.interp(grid, r.t, r.epsilon)
        secs[row] = np.interp(grid, r.t, r.seconds)
    return grid, eps.mean(axis=0), secs.mean(axis=0)


def run_experiment(config):
    """Run every configured method on ``trials`` fresh problems.

    Writes one trace CSV per (method, trial), a diverged trial's partial run
    included, one mean-curve CSV per method and a JSON summary; returns the
    summary dict.  Problems are regenerated per trial from trial-specific
    seeds and shared by all methods of that trial; iteration timing excludes
    precomputation by construction of the solver loop.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    runs = [{} for _ in config.methods]  # per method: trial -> RunRecord, diverged or not
    diverged = [[] for _ in config.methods]
    for trial in range(config.trials):
        prng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 7, trial])
        )
        A, x_star, B = generate_problem(config.problem, prng)
        for mi, mspec in enumerate(config.methods):
            try:
                _, runs[mi][trial] = _run_one(config, mspec, trial, A, x_star, B)
            except DivergenceError as exc:
                diverged[mi].append(f"trial {trial}: {exc}")
                runs[mi][trial] = exc.record

    summary = {
        "problem": asdict(config.problem),
        "trials": config.trials,
        "tol": config.tol,
        "seed": config.seed,
        "methods": [],
    }
    for mspec, by_trial, diagnostics in zip(config.methods, runs, diverged):
        for trial, record in by_trial.items():
            tio.write_trace(
                os.path.join(
                    config.output_dir,
                    f"trace_{_slug(mspec.label)}_trial{trial}.csv",
                ),
                record,
            )
        records = [r for r in by_trial.values() if r.stop_reason != "diverged"]
        entry = {
            "label": mspec.label,
            "method": mspec.method.upper(),
            "trials_run": len(records),
            "diverged": diagnostics,
        }
        if records:
            iters = np.array([r.iterations for r in records], dtype=float)
            secs = np.array([r.seconds[-1] for r in records])
            entry.update(
                {
                    "converged": int(sum(r.converged for r in records)),
                    "mean_iterations": float(iters.mean()),
                    "std_iterations": float(iters.std()),
                    "mean_seconds": float(secs.mean()),
                    "std_seconds": float(secs.std()),
                    "mean_final_error": float(
                        np.mean([r.epsilon[-1] for r in records])
                    ),
                }
            )
            grid, mean_eps, mean_secs = _mean_curves(records)
            curve_path = os.path.join(
                config.output_dir, f"curve_{_slug(mspec.label)}.csv"
            )
            tio.write_curve(curve_path, grid, mean_eps, mean_secs)
            entry["curve_file"] = os.path.basename(curve_path)
        summary["methods"].append(entry)

    summary_path = os.path.join(config.output_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _slug(label):
    return "".join(c.lower() if c.isalnum() else "-" for c in label).strip("-")
