"""Sketch-and-project solvers for consistent tensor systems A * X = B.

Eleven methods are exposed through :func:`solve`:

==============  ==============================================================
name            behaviour
==============  ==============================================================
TSP             direct projection on a fresh spatial Gaussian sketch
NTSP            finite spatial set, fixed sampling probabilities (direct
                projection of every kept slice on the drawn member)
ATSP-MD         finite spatial set, largest sketched loss wins
ATSP-PR         finite spatial set, probabilities proportional to the losses
ATSP-CS         finite spatial set, loss-capped sampling with parameter theta
TSP-I           per-slice sketches, real Re/Im-stacked sketched system
                (direct projection of slices 0..l//2 on each slice's drawn
                member and the conjugated one of its mirror slice)
TSP-II          per-slice sketches, fixed probabilities (direct projection
                on each slice's drawn member)
NTSP-II         TSP-II under the paper's other name: the same state
ATSP-MD-II      per-slice max-loss selection, cached residuals
ATSP-PR-II      per-slice proportional selection, cached residuals
ATSP-CS-II      per-slice capped selection, cached residuals
==============  ==============================================================

Every method is the same sketch-and-project update; they differ only in
how the sketch is chosen.  Every solver state therefore offers the same
three calls, and :func:`solve` runs one loop body over them:

* ``losses()``: the current sketched losses, or None for TSP and TSP-I;
  the fixed rules NTSP, TSP-II and NTSP-II form them from the iterate;
* ``select(losses)``: the iteration's choice: a fresh Gaussian sketch
  (TSP), one member index (spatial sets) or one member index per kept
  Fourier slice (per-slice sets, -1 for an already-solved slice; per
  Fourier slice for TSP-I), or None when no sketched loss is positive, on
  which :func:`solve` stops ("zero_loss");
* ``step(choice)``: apply that choice to the iterate.

An iteration computes only what its rule reads.  Finite-set rules read a
block of 64 iterations of uniforms, one stream per set or per Fourier
slice, and draw by one inverse-CDF rule on unnormalised cumulative weights.
Per-slice rules other than TSP-I's draw for slices 0..l//2 only, and
slice l - k takes slice k's draw.  Adaptive rules (ATSP-*) read one row
per iteration and see a zero loss in values they compute anyway.  Fixed
rules turn a block into draws when it is refilled and gather the
projections of all 64 draws at once; ``select`` forms the drawn members'
sketched residuals, which ``step`` projects with, and tests the members'
losses, a slice at a time, only when those residuals are exactly zero.
Only the rules that read their losses log loss statistics.

Every step projects Y onto a set that holds Y*, so the squared error
D = ||Y - Y*||^2 falls by exactly the step's loss.  With x_star (and,
under a weight, ``record_every > 1``) :func:`solve` keeps D as a ledger
that the states' steps debit with the losses they form anyway, and takes
a fresh error (a copy into a buffer, a subtraction and two dot products;
under a weight, also the product that maps Y back to X) only where it
decides something: after the first step, every 64 iterations, once D says
the error may be under 1.1 tol, has fallen a decade since the last fresh
value, or may pass the divergence limit, and for the last row.  Between
fresh values a logged row reads its error from the ledger under the
identity weight; under a weight, whose error needs Q^{-1/2}, it takes a
fresh one.  Once the ledger's error is at rounding level (D under 1e-30
l ||X*||^2, where the step losses are rounding too) it gives no row: with
tol = 0 the decade test stops and logged rows are fresh; with tol > 0 the
ledger, which cannot tell a crossing of tol from noise there, is dropped
and every later error is fresh.  Because the fixed rules'
draws do not depend on the iterate, a run of their projections is a
forward Gauss-Seidel sweep on the drawn rows' Gram: while the ledger is
kept, their states project up to 32 rows of draws by one unit-triangular
solve per slice and cut the block where the ledger leaves its bounds.
The adaptive set states, which recurse their sketched residuals, also
offer ``audit()``, the worst deviation of the recursed residuals from
fresh ones, run every ``audit_every`` iterations.  Iterations run on the
Fourier slices; the tests check them against block-circulant steps.

Every method has a real iterate, so Fourier slice l-k is the conjugate of
slice k: the states keep slices 0..h-1 only, h = l//2 + 1, and weight
slice k by its multiplicity w_k (1 for slice 0 and, for even l, slice
l/2; 2 for the others) in every loss and norm.  For the per-slice methods
this holds because a per-slice family is mirrored (slice l-k is sketched
as slice k) and slice l-k draws what slice k draws; TSP-I, whose draws for
k and -k are independent, projects each kept slice on both of them.  A
weight Q is a change of variables:
every state runs the unweighted method on the whitened Ah = A Q^{-1/2} in
Y = Q^{1/2} X, and only ``x()`` and the x_star errors map Y back.  A state
keeps its iterate Xh (Y) as the first n rows of a block Z.  The adaptive
methods share one set state (:class:`_SetState`), whose sketched
residuals sit below Xh in Z and are stepped with it by one table U of
step maps over cross products, stored member-major: each member's rows
for every kept slice form one block.  A spatial set keeps Z member-major
too, so its losses are one square and one gemv and its step one zgemm on
every kept slice through a block-diagonal operand; a per-slice set keeps Z
slices first, forms its losses by one einsum and steps each slice by its
own zgemm.  TSP and the fixed rules share one direct step
(:class:`_DirectState`) on blocks of draws gathered from member tables:
TSP's block is its one fresh draw, and NTSP's one draw is gathered on
every kept slice.
"""

from __future__ import annotations

import struct
import time
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm, ztrsm

from . import sketching
from .sketching import _inverse_cdf
from .t_algebra import (
    WeightQ,
    _fourier_slices,
    batched_hpinv,
    batched_inv_factor,
    irfft_slices,
)

__all__ = [
    "METHODS",
    "SolverConfig",
    "RunRecord",
    "DivergenceError",
    "solve",
    "make_state",
    "select_index",
]


class DivergenceError(RuntimeError):
    """Raised when the tracked error grows far beyond its initial value;
    ``record`` is the partial RunRecord, its last row the diverged one."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


@dataclass
class SolverConfig:
    """Everything a solver run needs besides the system itself.

    ``probabilities`` may be an explicit vector, one of the rule names
    'uniform', 'slice-norm', 'sketch-norm', 'fourier-row-norm', or None
    (uniform).  It is the fixed distribution of the nonadaptive methods and
    the reference distribution of the capped rule.  ``tau`` is only read by
    the fresh-draw TSP method.  Building a state rejects a value that is not
    a number (a bool is not one), ``record_every < 1``, ``tau < 1``,
    ``audit_every < 0``, ``max_iters < 0``, ``seed < 0``, a count, tau or seed
    that is not whole, ``theta`` outside [0, 1], ``tol < 0`` or NaN, an unknown
    ``method``, a ``weight`` that is not a WeightQ and ``sketches`` that are
    not a SketchSet with a ``ValueError`` that names the field, and so a
    complex A, B or x_star.  ``WeightQ.from_tensor`` rejects a tensor with
    NaN or inf the same way.
    """

    method: str = "NTSP"
    sketches: sketching.SketchSet | None = None
    weight: WeightQ | None = None
    probabilities: object = None
    theta: float = 0.5
    tau: int = 1
    max_iters: int = 100_000
    tol: float = 1e-10
    seed: int = 0
    record_every: int = 1
    audit_every: int = 0
    keep_iterates: bool = False
    check_sampling: bool = True

    def canonical_method(self):
        name = self.method.upper() if isinstance(self.method, str) else None
        if name not in METHODS:
            raise ValueError(f"method={self.method!r} is unknown; choose from {METHODS}")
        return name


@dataclass
class RunRecord:
    """Per-run trace: one entry per recorded iteration plus run summary.

    Row fields are float64 arrays but ``t`` (int), copied once at the end of
    :func:`solve` from its packed row buffer; ``chosen`` holds ints, per-slice
    tuples or None (first row, TSP).  Rows that log no losses hold NaN stats.
    With x_star under the identity weight, a row between fresh errors holds
    ``epsilon`` and ``q_error`` from the ledger of step losses (see
    :func:`solve`); they agree with fresh values to rounding, and the first
    and last rows are always fresh."""

    method: str
    t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    epsilon: np.ndarray = field(default_factory=lambda: np.empty(0))
    q_error: np.ndarray = field(default_factory=lambda: np.empty(0))
    chosen: list = field(default_factory=list)
    loss_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    loss_sum: np.ndarray = field(default_factory=lambda: np.empty(0))
    seconds: np.ndarray = field(default_factory=lambda: np.empty(0))
    pr_variance_factor: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    setup_s: float = 0.0  # seconds spent in make_state
    converged: bool = False
    stop_reason: str = ""  # 'tol', 'zero_loss' (all sketched losses 0), 'max_iters', 'diverged'
    audit_max: float = 0.0
    max_imag_residue: float = 0.0
    iterates: list | None = None


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def select_index(losses, rule, rng=None, base_probs=None, theta=0.5):
    """Pick the sketch index for one iteration from the current losses.

    Rules: 'md' (argmax, lowest index wins ties), 'pr' (probability
    proportional to loss), 'cs' (proportional within the theta-capped set),
    'fixed' (draw from ``base_probs``).  All losses zero means there is
    nothing left to project on; callers treat that as convergence and do
    not select.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if rule == "fixed":
        return sketching.sample_index(base_probs, rng)
    if not np.any(losses > 0):
        raise ValueError("all sketched losses are zero; nothing to select")
    if rule == "md":
        return int(np.argmax(losses))
    if rule == "pr":
        return sketching.sample_index(losses / losses.sum(), rng)
    if rule == "cs":
        if base_probs is None:
            base_probs = sketching.prob_uniform(losses.size)
        capped = _capped_losses(losses, base_probs, theta)
        return sketching.sample_index(capped / capped.sum(), rng)
    raise ValueError(f"unknown selection rule {rule!r}")


def _capped_losses(losses, base_probs, theta):
    """The 'cs' rule's weights along the last axis: losses of at least
    theta * max + (1 - theta) * E_p[loss], the others zeroed.  The threshold
    is clamped at the max, so the max qualifies even when rounding lifts the
    threshold over it (equal losses)."""
    lmax = losses.max(axis=-1, keepdims=True)
    mean = np.add.reduce(base_probs * losses, axis=-1, keepdims=True)
    threshold = np.minimum(theta * lmax + (1.0 - theta) * mean, lmax)
    return np.where(losses >= threshold, losses, 0.0)


# field, least value, largest value, whole number (a float such as 1e5 is one);
# padded_size may also be None
_RANGES = (("record_every", 1, np.inf, True), ("audit_every", 0, np.inf, True),
           ("max_iters", 0, np.inf, True), ("seed", 0, np.inf, True),
           ("trials", 1, np.inf, True), ("theta", 0.0, 1.0, False), ("tol", 0.0, np.inf, False),
           ("kernel_sigma", -np.finfo(float).max, np.finfo(float).max, False),
           *((name, 1, np.inf, True) for name in ("tau", "m", "n", "p", "l", "image_size",
                                                  "num_images", "kernel_size", "padded_size")),
           *((name, 0, np.inf, True) for name in ("q", "block_size")))


def check_ranges(config):
    """Reject with a ``ValueError`` that names it each field of ``_RANGES``
    that a config or spec holds out of range or as a bool; whole floats
    become ints."""
    for name, least, most, whole in (row for row in _RANGES if hasattr(config, row[0])):
        value = getattr(config, name)
        if value is None and name == "padded_size":
            continue
        if not (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and least <= value <= most
                and (float(value).is_integer() or not whole)):
            raise ValueError(f"{name}={value!r} is out of range")
        if whole:
            setattr(config, name, int(value))


_UNIFORM_BLOCK = 64
_BLOCK_ROWS = 32  # rows a fixed rule's block projects at once: its Gram is at most this square
_LOSS_BLOCK_BYTES = 16 * 1024  # solve's logged-loss block: at most this and _UNIFORM_BLOCK rows


class _BaseState:
    """Shared bookkeeping: Fourier data, error tracking, iterate export.

    Subclasses implement ``select`` and ``step``, ``losses`` where they have
    sketched losses, and ``audit`` where they recurse them (see the module
    docstring).
    """

    adaptive = False  # select() reads the losses
    ledger = None  # ||Y - Y*||^2 over all l slices while solve() keeps its ledger

    def __init__(self, A, B, config, x_star):
        for name, value in (("A", A), ("B", B), ("x_star", x_star)):
            if np.iscomplexobj(value):  # float64 conversion would drop the imaginary part
                raise ValueError(f"{name} is complex")
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains NaN or inf")
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 3 or B.ndim != 3 or A.shape[0] != B.shape[0] or A.shape[2] != B.shape[2]:
            raise ValueError(f"incompatible system shapes {A.shape} and {B.shape}")
        self.method = config.canonical_method()
        self.config = config
        self.m, self.n, self.l = A.shape
        self.p = B.shape[1]
        Q = config.weight
        if Q is not None and not isinstance(Q, WeightQ):
            raise ValueError(f"weight={type(Q).__name__} is not a WeightQ")
        if Q is not None and (Q.n != self.n or Q.l != self.l):
            raise ValueError("weight dimensions do not match the system")
        if config.sketches is not None and not isinstance(config.sketches, sketching.SketchSet):
            raise ValueError(f"sketches={type(config.sketches).__name__} is not a SketchSet")
        self.Q = None if Q is None or Q.is_identity else Q  # None: no whitening product
        (self.Ah, self.w), (self.Bh, _) = (_fourier_slices(T, W)
                                           for T, W in ((A, self.Q), (B, None)))
        self.h = self.w.size
        self.mirrors = slice(1, self.l - self.h + 1)  # the kept slices counted twice
        self.Qis = None if self.Q is None else self.Q.inv_sqrt[:self.h]  # X = Q^{-1/2} Y
        self.Z = np.zeros((self.h, self.n, self.p), dtype=np.complex128)
        self.t = 0
        self.sqrt_l = np.sqrt(self.l)
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=np.float64)
        if self.x_star is not None and self.x_star.shape != (self.n, self.p, self.l):
            raise ValueError(f"x_star has shape {self.x_star.shape}, not {self.n, self.p, self.l}")
        if self.x_star is not None:
            self.Xsh = _fourier_slices(self.x_star)[0]  # see _errors
            if self.Q is not None:  # Y* = Q^{1/2} X*, for q_error
                self.Ysh = self.Q.sqrt[:self.h] @ self.Xsh
            self.x_star_norm = np.linalg.norm(self.x_star)
            if self.x_star_norm == 0:
                raise ValueError("x_star must be nonzero for relative errors")
        self.b_norm = np.linalg.norm(B)
        self.max_imag_residue = 0.0
        self.audit_max = 0.0

    Xh = property(lambda self: self.Z[:, :self.n])  # the iterate: Z's first n rows

    def _loop_buffers(self):
        """Made after setup's temporaries are freed.  _errors adds the dot
        products of two float views of the C-contiguous ``diff``: all slices,
        and again those with a mirror."""
        if self.x_star is not None:
            self.diff = np.empty_like(self.Xh, order="C")
            self.err_views = (self.diff.ravel().view(np.float64),
                              self.diff[self.mirrors].ravel().view(np.float64))

    # -- error tracking ----------------------------------------------------
    def _norm(self, T):
        """Frobenius norm over all l slices of a stack holding slices 0..h-1."""
        if self.h == self.l:
            return np.linalg.norm(T)
        v = T.reshape(self.h, -1).view(np.float64)
        return np.sqrt(self.w @ np.einsum("ki,ki->k", v, v))

    def epsilon(self):
        """Relative solution error when the solution is known, else the
        relative residual."""
        return self._errors()[0]

    def _errors(self):
        """(epsilon, ||X - X*||_F in the transform domain), the norm being
        None without x_star; the residual A X - B is the whitened Ah Y - B."""
        if self.x_star is not None:
            if self.Qis is None:  # a ufunc reading the strided Xh would copy it
                np.copyto(self.diff, self.Xh)
            else:  # X = Q^{-1/2} Y
                np.matmul(self.Qis, self.Xh, out=self.diff)
            self.diff -= self.Xsh
            a, b = self.err_views
            diff_norm = np.sqrt(a.dot(a) + b.dot(b))
            return float(diff_norm / self.sqrt_l / self.x_star_norm), diff_norm
        res = self.Ah @ self.Xh - self.Bh
        eps = float(self._norm(res) / self.sqrt_l / max(self.b_norm, 1e-300))
        return eps, None

    def q_error(self, diff_norm=None):
        """Weighted squared error ||X - X_star||_{F(Q)}^2 (needs x_star).

        Under a weight it is ||Y - Y*||_F^2 / l; else ``diff_norm``, the
        norm of :meth:`_errors` of the current iterate, is used if given.
        """
        if self.x_star is None:
            return float("nan")
        if self.Qis is not None:
            return float(self._norm(self.Xh - self.Ysh) ** 2 / self.l)
        if diff_norm is None:
            diff_norm = self._errors()[1]
        return float(diff_norm ** 2 / self.l)

    def x(self):
        return irfft_slices(self.Xh if self.Qis is None else self.Qis @ self.Xh, self.l)

    # -- defaults for the methods without sketched losses -------------------
    def losses(self):
        return None

    def trace_choice(self, choice):
        """A choice as the trace records it; fresh sketches are not recorded."""
        return None

    def variance_factor(self, losses):
        """The proportional rule's improvement factor of each row of logged
        losses (rows, q); NaN, which broadcasts, except for ATSP-PR, the one
        method where it is meaningful (a single family shared by all slices)."""
        return np.nan

    def loss_sum(self, losses):
        """The logged sum of each row of losses (rows, .) flattened."""
        return np.add.reduce(losses, axis=1)


class _FiniteSetState(_BaseState):
    """Sketch-set validation, sampling setup and sketched system of the
    finite-set methods.

    The fixed probabilities are validated once and kept with their
    cumulative sums.  Every rule draws from ``rngs``, one uniform stream for
    a spatial set or one per kept Fourier slice (per Fourier slice for
    TSP-I), read ``_UNIFORM_BLOCK`` iterations at a time (see :meth:`_row`),
    by :func:`_inverse_cdf`; ``expand`` maps a row of per-slice draws to
    the l slices (slice l - k takes slice k's).  The sketched whitened
    system N = S^H A Q^{-1/2} and S^H B are kept as ``N`` and ``SB``; the
    completeness check reads that N: the invertible Q^{-1/2} can move its
    verdict only at its cut margin.
    """

    mirror_draws = True  # per-slice: slice l - k draws what slice k draws

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        sketches = config.sketches
        if sketches is None or sketches.per_slice != self.per_slice_selection:
            kind = "per-slice" if self.per_slice_selection else "spatial"
            raise ValueError(f"{self.method} needs a {kind} sketch set")
        if sketches.m != self.m or sketches.l != self.l:
            raise ValueError("sketch set dimensions do not match the system")
        self.sketches = sketches
        self.q = sketches.q
        self.rule = _METHOD_TABLE[self.method][1]
        self.adaptive = self.rule != "fixed"
        if self.per_slice_selection:
            streams, k = self.h if self.mirror_draws else self.l, np.arange(self.l)
            self.rngs = [_rng(config.seed, 2, j) for j in range(streams)]
            self.expand = np.minimum(k, self.l - k) if self.mirror_draws else k
        else:
            self.rngs = [_rng(config.seed, 1)]
        probs = sketching.as_prob_rows(sketching.resolve_probabilities(
            config.probabilities, A, self.Q, sketches), self.l if self.per_slice_selection else 1,
            self.q)[:len(self.rngs)]  # a row per stream
        self.base_cdf = np.cumsum(probs, axis=1)
        self.base_probs = probs if self.per_slice_selection else probs[0]
        self.drawn = _UNIFORM_BLOCK  # rows of the current block used
        self.N, self.SB = self.sketches.sketch(self.Ah), self.sketches.sketch(self.Bh)
        if config.check_sampling and not sketching.is_complete_discrete_sampling(
                A, sketches, sketched=self.N):
            warnings.warn("sketch family is not complete discrete sampling for this system; the "
                          "iteration is still defined but the rate certificates may not hold",
                          stacklevel=3)

    @staticmethod
    def _gram(N):
        """N N^H slice by slice, each through its own N^H: no stack-sized N^H."""
        return np.stack([Nk @ np.conj(np.swapaxes(Nk, -1, -2), order="C") for Nk in N])

    def _uniforms(self):
        """The next (_UNIFORM_BLOCK, streams) block: column k holds the values
        of as many scalar ``rngs[k].random()`` calls."""
        return np.stack([r.random(_UNIFORM_BLOCK) for r in self.rngs], axis=1)

    def _row(self):
        """This iteration's row of ``block``, which one ``_uniforms()`` refills
        every ``_UNIFORM_BLOCK`` iterations: the uniforms of every stream, or
        for fixed rules the draws made from them then."""
        if self.drawn == _UNIFORM_BLOCK:
            self._refill()
        self.drawn += 1
        return self.block[self.drawn - 1]

    def _refill(self):
        u = self._uniforms()
        self.block = u if self.adaptive else np.stack(
            [_inverse_cdf(c, x) for c, x in zip(self.base_cdf, u.T)], axis=1)
        self.drawn = 0

    def trace_choice(self, choice):
        return tuple(choice[self.expand].tolist()) if self.per_slice_selection else int(choice)

    def _stream_choice(self, choice):
        """``choice`` as ``select`` returns it, an entry per stream; a per-slice
        choice as recorded, l entries, slice l - k's slice k's, gives its first h."""
        choice, streams = np.atleast_1d(choice), len(self.rngs)
        if self.per_slice_selection and choice.shape == (self.l,) and np.array_equal(
                choice[1:], choice[:0:-1]):
            choice = choice[:streams]
        if choice.shape != (streams,):
            raise ValueError(f"choice has shape {choice.shape}, not ({streams},) or mirrored")
        return choice


class _SetState(_FiniteSetState):
    """Recursed residuals of the adaptive finite-set methods.

    Per member i and slice k the setup stores, besides N and S^H B, a factor
    C with C C^H = pinv(N N^H), the step map N^H C, the cross products
    C_i^H N_i N_j^H C_j and the sketched residuals R_i = C_i^H (N_i X - S_i^H B),
    R_0 = -C^H S^H B as X_0 = 0, below Xh in Z.  One table U, (q, h tau,
    n + q tau), holds them member-major: rows k tau..(k+1) tau - 1 of U[j]
    are slice k's [step map; cross products with every member] of member
    j, transposed, so choosing j in slice k updates the iterate and every
    residual at once: Z[k] -= U[j, k].T @ R[k, j].  ``step_map`` and
    ``cross`` are slices-first views of U, (h, q, ., tau).  Ragged blocks'
    zero padding rows get zero factor columns.  Setup peaks at U, the
    transformed system and one slice's temporaries: N^H is formed one slice
    at a time and U is written one slice's rows at a time (tau = 1 cross
    products straight into U).  ``views``: R and Z's float view of it,
    whose squares are the losses.
    """

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        N = self.N
        self.C = batched_inv_factor(self._gram(N),
                                    slice_axis=None if self.per_slice_selection else 0)
        h, q, tau, n = N.shape
        CH = np.conj(np.swapaxes(self.C, -1, -2))
        self.U = np.empty((q, h * tau, n + q * tau), dtype=np.complex128)
        for k in range(h):  # one slice at a time: no table-sized temporary
            rows = self.U[:, k * tau:(k + 1) * tau]  # (q, tau, n + q tau), a view
            step_map, NH = np.swapaxes(rows[:, :, :n], 1, 2), np.conj(
                np.swapaxes(N[k], -1, -2), order="C")
            if tau == 1:  # one product an entry: written through the strided view
                np.matmul(NH, self.C[k], out=step_map)
            else:  # BLAS would sum a transposed write in another order
                step_map[...] = NH @ self.C[k]
            del NH
            # rows[j, c, n + i tau + a] = sum_b step_map[j, b, c] (C^H N)[i, a, b]
            ia = np.moveaxis(CH[k] @ N[k], 2, 0).reshape(n, q * tau)
            if tau == 1:
                np.matmul(rows[:, 0, :n], ia, out=rows[:, 0, n:])
            else:  # through a (q tau)^2 temporary of this slice
                rows[:, :, n:] = (rows[:, :, :n].reshape(q * tau, n) @ ia).reshape(q, tau, -1)
            del ia  # C^H N of this slice is not kept through the next
        per_slice, width = self.per_slice_selection, n + q * tau  # spatial: Z member-major
        self.Z = np.zeros((h, width, self.p) if per_slice else (width, h * self.p), np.complex128)
        self.R[...] = -(CH @ self.SB)  # X_0 = 0
        # per-slice (h, q, 2 tau p), spatial (q, 2 tau h p)
        residuals = self.Z[:, n:].reshape(h, q, -1) if per_slice else self.Z[n:].reshape(q, -1)
        self.views = (self.R, residuals.view(np.float64))

    # U's rows as (h, q, n + q tau, tau) slices-first blocks
    _blocks = property(lambda self: np.moveaxis(
        self.U.reshape(self.q, self.h, -1, self.U.shape[-1]), 0, 1).swapaxes(2, 3))
    step_map = property(lambda self: self._blocks[:, :, :self.n])  # (slices, q, n, tau)
    cross = property(lambda self: self._blocks[:, :, self.n:])  # (slices, q, q tau, tau)

    def audit(self):
        """Max Frobenius deviation between recursed and fresh residuals."""
        CH = np.conj(np.swapaxes(self.C, -1, -2))
        fresh = CH @ ((self.N @ self.Xh[:, None]) - self.SB)
        drift = (fresh - self.R).reshape(self.h, self.q, -1).view(np.float64)
        energy = np.einsum("kic,kic->ki", drift, drift)
        if not self.per_slice_selection:  # spatial: sum_k w_k ||.||^2
            energy = self.w @ energy
        worst = float(np.sqrt(np.max(energy)))
        self.audit_max = max(self.audit_max, worst)
        return worst

    def _weights(self, losses):
        """The pr and cs rules' draw weights along the last axis of ``losses``."""
        return losses if self.rule == "pr" else _capped_losses(
            losses, self.base_probs, self.config.theta)


class _SpatialSetState(_SetState):
    """Spatial sets: one family shared by all slices, one member for all.

    Z is member-major too, (n + q tau, h p): row i holds row i of every
    slice's block side by side, so member j's tau residual rows are one
    contiguous (tau, h p) block and the losses one square and one gemv.  A
    step is one zgemm on every slice: Z -= U[j].T @ blockdiag(R[k, j]), the
    block-diagonal operand ``Rbd`` being filled through its diagonal view.
    ``Xh`` and ``R`` are slices-first views of Z.
    """

    per_slice_selection = False
    Xh = property(lambda self: self.Z[:self.n].reshape(self.n, self.h, self.p).swapaxes(0, 1))
    R = property(lambda self: np.moveaxis(
        self.Z[self.n:].reshape(self.q, -1, self.h, self.p), 2, 0))  # (slices, q, tau, p)

    def _loop_buffers(self):
        """``sq``, the buffer the squares of R's float view go to, and the
        losses' weights ``wvec``: w_k / l over each of the tau rows' slices k."""
        super()._loop_buffers()
        h, p, tau = self.h, self.p, self.N.shape[2]
        self.sq = np.empty(self.views[1].shape)
        self.wvec = np.tile(np.repeat(self.w / self.l, 2 * p), tau)
        Rbd = np.zeros((h * p, h * tau), dtype=np.complex128, order="F")
        item = Rbd.itemsize  # R[k, j, a, c] goes to Rbd[k p + c, k tau + a]
        diagonal = np.lib.stride_tricks.as_strided(
            Rbd, (h, tau, p), ((p + tau * h * p) * item, h * p * item, item))
        # step's operands: U[j].T and Z.T are F-contiguous
        self.step_ops = Rbd, diagonal, self.views[0], self.U.swapaxes(1, 2), self.Z.T

    def losses(self):
        """The sketched losses (q,) of (1/l) sum_k w_k ||R_i[k]||_F^2: the
        squares of R's float view, then one gemv of their rows by ``wvec``."""
        np.square(self.views[1], out=self.sq)
        return np.dot(self.sq, self.wvec)

    def step(self, choice):
        """Z.T -= blockdiag(R[k, j].T) @ U[j] by one zgemm on F-contiguous views
        (Z.T and U[j].T are; numpy's matmul would run tau = 1 unblocked,
        through a Z-sized temporary), after member j's residual rows, rows
        of Z, are copied into the diagonal blocks of ``Rbd``: BLAS makes no
        promise for an input that overlaps its output.  While :func:`solve`
        keeps its ledger, the step's drop l times the chosen member's loss,
        which ``select`` kept, leaves it."""
        if self.ledger is not None:
            self.ledger -= self.l * self.loss
        Rbd, diagonal, R, UT, ZT = self.step_ops
        np.copyto(diagonal, R[:, choice])
        zgemm(-1.0, Rbd, UT[choice], 1.0, ZT, 0, 1, 1)  # trans_b, overwrite_c
        self.t += 1

    def select(self, losses):
        """Member index, or None when no loss is positive."""
        if self.rule == "md":
            i = losses.argmax()
            self.loss = losses[i]  # also step's ledger entry
            return None if self.loss <= 0.0 else i
        cum = self._weights(losses).cumsum()
        if cum[-1] <= 0.0:
            return None
        i = _inverse_cdf(cum, self._row()[0])
        self.loss = losses[i]
        return i

    def variance_factor(self, losses):  # 1 + q^2 Var(p), p each row over its total
        if self.rule != "pr":
            return np.nan
        total = np.add.reduce(losses, axis=1, keepdims=True)
        pt = np.divide(losses, total, out=np.full(losses.shape, np.nan), where=total > 0)
        return 1.0 + self.q * self.q * (np.mean(pt**2, axis=1) - np.mean(pt, axis=1) ** 2)


class _PerSliceSetState(_SetState):
    """Per-slice sets: each kept Fourier slice owns its family, losses and
    choice, which slice l - k shares.  Z stays slices first,
    (h, n + q tau, p), and a step is one zgemm per stepped slice that reads
    its member's rows of U by the transpose flag."""

    per_slice_selection = True
    R = property(lambda self: self.Z[:, self.n:].reshape(self.h, self.q, -1, self.p))

    def _loop_buffers(self):
        """``gather``: Z as one table of (p,) rows, the rows of it that hold
        member 0's residual in each slice (member j's are tau j further) and
        tau.  A take of those rows allocates 0.5 KB a step at 240x40x8,
        indexing R by (slices, choice) 3.8 KB whatever the size, for a
        0.9 us faster gather."""
        super()._loop_buffers()
        self.slices = np.arange(self.h)
        h, width, tau = self.h, self.Z.shape[1], self.N.shape[2]
        rows = (np.arange(h) * width + self.n)[:, None] + np.arange(tau)
        self.gather = self.Z.reshape(-1, self.p), rows, tau
        self.Zt = tuple(Zk.T for Zk in self.Z)  # the F-contiguous views step() writes through
        blocks = self.U.reshape(self.q, self.h, -1, self.U.shape[-1])
        # each slice's operand, indexed by j: (n + q tau, tau), F-contiguous
        self.Ut = tuple(blocks[:, k].swapaxes(1, 2) for k in range(self.h))

    def losses(self):
        """The sketched losses (h, q) of ||R_i[k]||_F^2 (the slices'
        subsystems are independent): one vecdot of R's float view, read in
        place (einsum's iterator would take 1.4 KB a call besides)."""
        v = self.views[1]
        return np.vecdot(v, v)

    def loss_sum(self, losses):
        """Slice k's losses counted w_k times: over all kept slices, and
        again over those with a mirror."""
        return np.add.reduce(losses, axis=1) + np.add.reduce(
            losses[:, self.q:self.q * self.mirrors.stop], axis=1)

    def step(self, choice):
        """Z[k] -= U[j, k].T @ R[k, j] for each slice k and its chosen member j
        (a -1 skips the slice, whose gathered block, member q - 1's, is zero
        and goes unused): one zgemm per slice that writes into Z, as
        Z[k].T -= R[k, j].T @ U[j, k].  The chosen R blocks, rows of Z, are
        copied first by one take: BLAS makes no promise for an input that
        overlaps its output.  While :func:`solve` keeps its ledger, the
        step's drop, the squared norm of the gathered blocks, slice k's
        counted w_k times, leaves it."""
        choice = np.asarray(choice)
        if choice.shape != (self.h,):
            choice = self._stream_choice(choice)
        Zrows, rows, tau = self.gather
        R = Zrows.take(rows + tau * (choice[:, None] % self.q), axis=0)
        if self.ledger is not None:  # again where mirrored
            m = self.mirrors
            self.ledger -= np.vdot(R, R).real + np.vdot(R[m], R[m]).real
        for z, r, U, j in zip(self.Zt, R.transpose(0, 2, 1), self.Ut, choice.tolist()):
            if j >= 0:  # -1: the slice is solved
                zgemm(-1.0, r, U[j], 1.0, z, 0, 1, 1)
        self.t += 1

    def select(self, losses):
        """Per-slice index choices (-1: slice solved), or None if all are."""
        if self.rule == "md":
            top = losses.argmax(axis=1)
            active = losses[self.slices, top] > 0
            return np.where(active, top, -1) if active.any() else None
        cum = np.cumsum(self._weights(losses), axis=1)
        active = cum[:, -1] > 0
        return np.where(active, _inverse_cdf(cum, self._row()), -1) if active.any() else None


class _DirectState(_FiniteSetState):
    """Direct projections with fixed probabilities (TSP-II and NTSP-II on
    per-slice sets, NTSP on spatial sets).

    Each kept slice is projected straight from the iterate onto the member
    its group draws: Y -= N^H G r, r = N Y - S^H B, G = pinv(N N^H).  A draw
    gathers, at each position j, table row ``table_rows[j]`` at the member
    stream ``table_slices[j]`` drew; a group is g/h consecutive positions of
    g rows in all.  Here a group is one slice, and the ``tables`` are N,
    S^H B and G of the kept slices, G factored at setup per slice, or for a
    spatial set, whose one stream draws for every kept slice, with one
    cutoff across a member's slices (the block-circulant pinv's).  With
    each block of ``_UNIFORM_BLOCK`` draws, ``select`` drops the old block
    and the operands it handed to ``step``, then gathers the tables of every
    draw, slices first: 64 h g (n + p) complex entries plus 64 h g^2 for G.

    While :func:`solve` keeps its ledger, ``select`` projects up to
    ``_BLOCK_ROWS`` // g draws at once, a forward Gauss-Seidel sweep on the
    drawn rows' Gram.  Draw d's residual is r_d = N_d Y_0 - S_d^H B -
    sum_{e<d} N_d N_e^H G_e r_e, so with M = N_J (G N_J)^H (G folded into N
    draw by draw) the block's residuals solve (I + L) r = N_J Y_0 - S_J^H B,
    L the part of M below its draws' diagonal blocks: one unit-triangular
    ztrsm per slice, on M with its entries below the diagonal within a draw
    zeroed by ``mask`` (ztrsm reads no others).  ``step`` applies
    Y -= N_J^H (G r) by one zgemm per slice.  Draw d's loss r_d^H G_d r_d is
    its drop in the ledger; the block is cut after the draw that takes the
    ledger out of its bounds, or before a draw whose residuals are exactly
    zero, which then starts the next block and goes through the zero test.
    A prefix of a block is exact: its residuals do not depend on later
    draws.  A block ends at the ``record_every`` multiples, at ``max_iters``
    and with its 64-draw block, and holds, one slice at a time, M and G N_J
    (at most 32 x 32 and 32 x n entries) besides its (h, 32, p) residuals.
    Otherwise (residual mode, a ledger dropped, direct calls, and the first
    step, whose fresh error checks the ledger) a block is one draw,
    projected on every slice at once by three small products, N^H formed
    from conj(N); so is any other choice passed to ``step``, such as each
    TSP draw.
    """

    per_slice_selection = True
    choice = gathered = operands = None  # the block's draws, their projections, step's

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        self.table_rows, self.table_slices, self.G = self._layout()
        g = self.table_rows.size // self.h * self.N.shape[-2]  # rows per group
        self.cap = max(1, _BLOCK_ROWS // g)  # draws per block
        d, i = divmod(np.arange(self.cap * g), g)  # each row's draw and row in its group
        # M's entries below the diagonal within a draw's group, which ztrsm reads
        self.mask = ((d[:, None] == d) & (i[:, None] > i)) if g > 1 else None
        self.Zt = tuple(Zk.T for Zk in self.Z)  # the F-contiguous views step() writes through

    tables = property(lambda self: (self.N, self.SB, self.G))

    def _layout(self):
        """``table_rows``, ``table_slices`` and G (see the class docstring)."""
        G = batched_hpinv(self._gram(self.N), slice_axis=None if self.per_slice_selection else 0)
        kept = np.arange(self.h)  # a spatial set's one stream draws for every kept slice
        return kept, kept if self.per_slice_selection else np.zeros(self.h, dtype=int), G

    def _projections(self, draws):
        """N, S^H B and G of the groups that each row of ``draws`` (b, streams)
        picks, each (h, b, g, .); where the tables hold no G, it is factored
        for the block in one batch."""
        picked = (self.table_rows.reshape(self.h, 1, -1),
                  np.moveaxis(draws[:, self.table_slices].reshape(len(draws), self.h, -1), 0, 1))
        N, SB, G = (T if T is None else T[picked].reshape(self.h, len(draws), -1, T.shape[-1])
                    for T in self.tables)
        return N, SB, batched_hpinv(N @ np.conj(N).swapaxes(-1, -2)) if G is None else G

    def select(self, losses):
        """The last of the block's draws, one per slice or one for all, or None
        when the first draw's sketched residuals are zero and no member's
        loss is positive."""
        if self.drawn == _UNIFORM_BLOCK:  # release the old block ahead of the next gather
            self.gathered = self.operands = None
            self._refill()
        if self.gathered is None:
            self.gathered = self._projections(self.block)
        a = self.drawn
        if self.ledger is None or self.t == 0:
            k = 1
        else:
            every = self.config.record_every
            k = min(self.cap, _UNIFORM_BLOCK - a, every - self.t % every,
                    self.config.max_iters - self.t)
        sweep = self._sweep(self.gathered, a, k)
        if k == 1:
            cut, ledger, zero = 1, None, not np.count_nonzero(sweep[1])
        else:
            cut, ledger, zero = self._cut(*sweep[1:], k)
        if zero and not self._any_loss():
            return None
        self.drawn = a + cut
        self.operands = sweep, cut, ledger
        row = self.block[self.drawn - 1]
        self.choice = row if self.per_slice_selection else row[0]
        return self.choice

    def _sweep(self, tables, a, k):
        """(N, r, G r) of draws a..a+k-1 of gathered ``tables``, slices first:
        for k = 1 each (h, g, .), else N and r (h, k g, .) and G r (h, k, g, p)."""
        if k == 1:
            N, SB, G = tables[0][:, a], tables[1][:, a], tables[2][:, a]
            r = N @ self.Z - SB  # Z holds the iterate Xh only
            return N, r, G @ r
        N, SB, G = (T[:, a:a + k] for T in tables)
        rows = k * N.shape[2]
        NJ = N.reshape(self.h, rows, -1)  # views: the block is gathered slices first
        r = NJ @ self.Z - SB.reshape(self.h, rows, -1)
        for s in range(self.h):  # G folded into N draw by draw, one slice at a time
            GN = (G[s] @ N[s]).reshape(rows, -1)
            Mt = zgemm(1.0, GN.T, NJ[s].T, trans_a=2)  # F-ordered M^T: M = N_J (G N_J)^H
            if self.mask is not None:
                Mt.T[self.mask[:rows, :rows]] = 0.0
            ztrsm(1.0, Mt, r[s].T, side=1, diag=1, overwrite_b=1)  # (I + L) r = rhs, in place
        return NJ, r, G @ r.reshape(N.shape[:3] + (-1,))

    def _cut(self, r, u, k):
        """(draws kept, the ledger after them, whether the first draw's residuals are zero)."""
        rf, uf = (x.reshape(self.h, k, 1, -1).view(np.float64) for x in (r, u))
        drops = (self.w @ (rf @ uf.swapaxes(-1, -2)).reshape(self.h, k)).tolist()  # Re r^H G r
        nonzero = r.reshape(self.h, k, -1).any(axis=(0, 2)).tolist()
        ledger, (lo, hi) = self.ledger, self.ledger_bounds
        for d in range(1, k + 1):
            ledger -= drops[d - 1]
            if d == k or not nonzero[d] or not lo <= ledger <= hi:  # NaN too
                return d, ledger, not nonzero[0]

    def step(self, idx):
        if idx is self.choice:
            (N, r, u), cut, ledger = self.operands
        else:
            sweep = self._sweep(self._projections(self._stream_choice(idx)[None]), 0, 1)
            (N, r, u), cut, ledger = sweep, 1, None
        if ledger is None:  # one draw on every slice
            self.Z -= np.conj(N).swapaxes(-1, -2) @ u
            if self.ledger is not None:  # sum_k w_k Re r_k^H G_k r_k: again where mirrored
                m = self.mirrors
                self.ledger -= np.vdot(r, u).real + np.vdot(r[m], u[m]).real
        else:
            rows = cut * u.shape[2]
            for z, NJ, uJ in zip(self.Zt, N, u):
                zgemm(-1.0, uJ[:cut].reshape(rows, -1).T, NJ[:rows].T, 1.0, z, 0, 2, 1)
            self.ledger = ledger
        self.t += cut

    def _energies(self):
        """Each kept slice's member energies Re r^H G r, r = N Y - S^H B, one
        slice at a time."""
        for k in range(self.h):
            r = self.N[k] @ self.Xh[k] - self.SB[k]  # (q, g, p)
            Gr = self.G[k] @ r  # Re sum conj(r) G r: the float views' dot product
            yield np.einsum("qi,qi->q", *(a.reshape(len(r), -1).view(np.float64) for a in (r, Gr)))

    def losses(self):
        """Every member's sketched loss r^H G r: (h, q) per kept slice, or (q,)
        summed over the kept slices by w_k / l for spatial sets."""
        losses = np.stack(list(self._energies()))
        return losses if self.per_slice_selection else self.w @ losses / self.l

    def _any_loss(self):
        """Whether some member's loss is positive, from the energies of one
        slice at a time up to the first slice that has a positive one."""
        return any((e > 0.0).any() for e in self._energies())


class _SpatialDirectState(_DirectState):
    """NTSP: a direct state on a spatial set."""

    per_slice_selection = False


class _FreshGaussianState(_DirectState):
    """TSP: a direct state with no set.  Its draw, a fresh (m, tau) Gaussian
    S, is the sketch's first frontal slice, so every Fourier slice of the
    sketch is S; it is never ``choice``, so ``step`` takes it as a block of one."""

    trace_choice = _BaseState.trace_choice
    losses = _BaseState.losses
    _stream_choice = staticmethod(np.atleast_1d)  # a sketch, taken as it is

    def __init__(self, A, B, config, x_star):
        _BaseState.__init__(self, A, B, config, x_star)
        if config.tau > self.m:
            raise ValueError(f"tau={config.tau!r} exceeds m={self.m}")
        self.tau, self.sketch_rng = config.tau, _rng(config.seed, 0)

    def select(self, losses):
        return self.sketch_rng.standard_normal((self.m, self.tau))

    def _projections(self, S):
        """N = S^T A Q^{-1/2}, S^T B and G of draws S (b, m, tau), each (h, b, tau, .),
        a G cutoff each."""
        St = S.swapaxes(-1, -2)
        N = St @ self.Ah[:, None]
        NH = np.conj(N.swapaxes(-1, -2))
        return N, St @ self.Bh[:, None], batched_hpinv(N @ NH, slice_axis=0)


class _StackedState(_DirectState):
    """Per-slice sketches folded back into a real sketched system (TSP-I).

    Stacking the real and imaginary parts of the inverse-transformed
    sketched system gives, in Fourier slice k, the rows of
    [S_k^H A_k; conj(S_{-k}^H A_{-k})] (S_k the member slice k drew) mixed
    by a fixed invertible 2tau x 2tau map.  A projection depends only on
    that row space, so slice k's group, for k = 0..l//2, is its own member
    and the conjugated one of slice -k, each drawn from its own stream.  The
    family being mirrored, that conjugated member is one of slice k's own
    table, so both halves of a group read the kept tables (views of the
    transform for fourier-row sets).  No G is cached: a
    block factors its Grams in one batch and holds 64 h 2tau (n + p)
    complex entries plus the pinvs, about 170 KB at 50x20x5 with tau = 1.
    The stacked system is real, so every iterate stays real and no
    transform runs in the loop; the imaginary-residue diagnostic reads the
    iterate after each step, a block of draws' at its end.  It logs no
    losses and keeps no zero-loss stop.
    """

    mirror_draws = False  # slices k and -k draw from streams of their own
    losses = _BaseState.losses

    def _any_loss(self):
        return True  # no zero-loss stop

    def _layout(self):
        half = np.arange(self.h)
        self.own = slice(0, self.h, self.h - 1) if self.l % 2 == 0 else slice(0, 1)  # k = -k
        pairs = np.stack([half, -half % self.l], axis=1).ravel()  # the group of k: k and -k
        return np.repeat(half, 2), pairs, None  # conj(T[-k]) is T[k]: a group reads T[k] twice

    def step(self, idx):
        super().step(idx)
        # ||imag(ifft(X))|| / ||ifft(X)||, by Parseval: only the slices that are their
        # own mirror can carry an imaginary part, in Y exactly when in X (Q^{-1/2} is real)
        if self.Xh[self.own].imag.any():
            X = self.Xh if self.Qis is None else self.Qis @ self.Xh
            imag = float(np.linalg.norm(X[self.own].imag) / max(self._norm(X), 1e-300))
            self.max_imag_residue = max(self.max_imag_residue, imag)


# name: (state class, selection rule); TSP has no rule, its choice is a
# fresh Gaussian sketch
_METHOD_TABLE = {
    "TSP": (_FreshGaussianState, None),
    "NTSP": (_SpatialDirectState, "fixed"),
    "ATSP-MD": (_SpatialSetState, "md"),
    "ATSP-PR": (_SpatialSetState, "pr"),
    "ATSP-CS": (_SpatialSetState, "cs"),
    "TSP-I": (_StackedState, "fixed"),
    "TSP-II": (_DirectState, "fixed"),
    "NTSP-II": (_DirectState, "fixed"),
    "ATSP-MD-II": (_PerSliceSetState, "md"),
    "ATSP-PR-II": (_PerSliceSetState, "pr"),
    "ATSP-CS-II": (_PerSliceSetState, "cs"),
}
METHODS = tuple(_METHOD_TABLE)
_ROW_FIELDS = ("t", "epsilon", "q_error", "seconds", "loss_max", "loss_sum", "pr_variance_factor")
_PACK_ROW = struct.Struct(f"{len(_ROW_FIELDS)}d").pack  # solve's rows: one float64 per field


def make_state(A, B, config, x_star=None):
    """Build the solver state for ``config`` without running it."""
    check_ranges(config)
    state = _METHOD_TABLE[config.canonical_method()][0](A, B, config, x_star)
    state._loop_buffers()
    return state


def solve(A, B, config, x_star=None):
    """Run the configured method from X = O and return (X, RunRecord).

    The stopping rule compares the relative solution error against
    ``config.tol`` when ``x_star`` is given, and the relative residual
    otherwise.  Iteration timing excludes all precomputation.  Rows are packed
    into one typed buffer; their loss statistics are reduced a block at a time.

    With ``x_star`` the loop reads the error from the ledger of step losses
    (see the module docstring) between fresh values, each of which
    re-anchors it; a fresh value off the ledger by more than rounding means
    x_star is not a solution, and every later error is fresh.  Under the
    identity weight logged rows read the ledger too, so a record-every-step
    run takes a fresh error only where one decides something; a weighted
    run keeps the ledger only for ``record_every > 1`` and logs fresh rows.
    Draws, stops and X do not depend on which rows read the ledger.
    """
    start = time.perf_counter()
    state = make_state(A, B, config, x_star)
    record = RunRecord(method=state.method, setup_s=time.perf_counter() - start)
    rows, block, held, keep = array("d"), None, 0, config.keep_iterates  # rows: _ROW_FIELDS each
    record.iterates = [] if keep else None

    def flush():  # block holds the losses of the last held rows; rows without come first or last
        nonlocal held
        if held:
            b = block[:held].reshape(held, -1)
            stats = np.frombuffer(rows).reshape(-1, len(_ROW_FIELDS))[-held:, -3:].T
            stats[0], stats[1] = np.maximum.reduce(b, axis=1), state.loss_sum(b)
            stats[2], held = state.variance_factor(b), 0

    def log_row(eps, q, secs, chosen=None, losses=None):
        """Append one row; ``losses`` are those ``chosen`` was selected next to."""
        nonlocal block, held
        rows.frombytes(_PACK_ROW(state.t, eps, q, secs, np.nan, np.nan, np.nan))
        record.chosen.append(None if chosen is None else state.trace_choice(chosen))
        if keep:
            record.iterates.append(state.x())
        if losses is not None:
            if block is None:
                block = np.empty((min(_UNIFORM_BLOCK, _LOSS_BLOCK_BYTES // losses.nbytes or 1),
                                  *losses.shape))
            block[held], held = losses, held + 1
            if held == len(block):
                flush()

    eps, diff_norm = state._errors()
    eps0 = max(eps, 1e-300)
    q = state.q_error(diff_norm)
    log_row(eps, q, 0.0)
    tol, limit, record_every, adaptive = config.tol, 1e3 * eps0, config.record_every, state.adaptive
    audit_every = config.audit_every if isinstance(state, _SetState) else 0
    losses_of, select, step, errors, q_error = (state.losses, state.select, state.step,
                                                state._errors, state.q_error)
    lo = hi = None
    if state.x_star is not None and (record_every > 1 or state.Qis is None):
        floor, hi, slack = _ledger_scales(state, tol, limit)
        state.ledger = anchor = state.l * q
        lo = _ledger_floor(floor, anchor, slack)
        state.ledger_bounds = lo, hi
    converged, stop, fresh_row = eps < tol, "", True
    start = time.perf_counter()

    while not converged and not stop and state.t < config.max_iters:
        losses = losses_of() if adaptive else None  # only rules that read them log them
        chosen = select(losses)
        if chosen is None:  # no sketched loss is positive
            converged, stop = True, "zero_loss"
            break
        step(chosen)
        t = state.t
        if audit_every and not t % audit_every:
            state.audit()
        D = state.ledger
        if D is not None and lo <= D <= hi and t % _UNIFORM_BLOCK and t > 1:
            if t % record_every:
                continue  # the ledger's error decides nothing here
            if state.Qis is None and lo >= 1e-30 * slack and t < config.max_iters:  # last: fresh
                # the row reads the ledger: D = ||X - X*||^2 over all l slices
                log_row(np.sqrt(D) / state.sqrt_l / state.x_star_norm, D / state.l,
                        time.perf_counter() - start, chosen, losses)
                fresh_row = False
                continue

        eps, diff_norm = errors()
        logged = t % record_every == 0 or eps < tol or not eps <= limit  # also NaN
        q = q_error(diff_norm) if logged or D is not None else np.nan
        if D is not None:  # dropped when off by more than rounding (x_star is
            # not a solution) and, under tol > 0, at rounding level (lo is None)
            lo = _ledger_floor(floor, state.l * q, slack)
            if lo is None or abs(state.l * q - D) > 1e-8 * (anchor + np.sqrt(anchor * slack)):
                state.ledger = None
            else:
                state.ledger = anchor = state.l * q
                state.ledger_bounds = lo, hi
        if not eps <= limit:
            stop = "diverged"
        if logged:
            log_row(eps, q, time.perf_counter() - start, chosen, losses)
            fresh_row = True
        converged = eps < tol

    flush()
    if rows[-len(_ROW_FIELDS)] != state.t:
        eps, diff_norm = errors()
        log_row(eps, q_error(diff_norm), time.perf_counter() - start)
    elif not fresh_row:  # a zero-loss stop just after a row that read the ledger
        eps, diff_norm = errors()
        rows[1 - len(_ROW_FIELDS)], rows[2 - len(_ROW_FIELDS)] = eps, q_error(diff_norm)
    columns = np.frombuffer(rows).reshape(-1, len(_ROW_FIELDS))
    for name, column in zip(_ROW_FIELDS, [columns[:, 0].astype(int), *columns[:, 1:].T.copy()]):
        setattr(record, name, column)  # t as ints, the others rows of one contiguous copy
    record.iterations, record.converged = state.t, bool(converged)
    record.stop_reason = stop or ("tol" if converged else "max_iters")
    record.audit_max, record.max_imag_residue = state.audit_max, state.max_imag_residue
    if stop == "diverged":
        raise DivergenceError(f"{state.method} diverged at iteration {state.t}: error "
                              f"{eps:.3e} vs initial {eps0:.3e}", record)
    return state.x(), record


def _ledger_floor(floor, anchor, slack):
    """The least D the ledger keeps, ``floor`` or a decade of error under its
    anchor (anchor / 100), whichever is larger.  Once that is below
    rounding, 1e-30 of ``slack``, where the step losses are rounding too:
    -inf for tol = 0 (no decade trigger and no row), else None, on which
    the ledger is dropped, since its D can no longer place tol's floor."""
    lo = max(floor, anchor / 100)
    return lo if lo >= 1e-30 * slack else None if floor else -np.inf


def _ledger_scales(state, tol, limit):
    """The ledger's D below which the error could be under 1.1 tol, the D above
    which it could pass ``limit``, and a bound on ||Y*||^2: the error is
    ||X - X*|| / (sqrt(l) ||X*||) with ||X - X*|| between the least and the
    largest singular value of Q^{-1/2} (over the kept slices) times sqrt(D)."""
    least = most = 1.0
    if state.Qis is not None:
        lam = np.linalg.eigvalsh(state.Q.hat[:state.h])
        least, most = lam.max() ** -0.5, lam.min() ** -0.5
    scale = state.l * state.x_star_norm ** 2
    return (1.1 * tol / least) ** 2 * scale, (limit / most) ** 2 * scale, scale / least ** 2
