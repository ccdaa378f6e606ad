"""Sketch-and-project solvers for consistent tensor systems A * X = B.

Eleven methods are exposed through :func:`solve`:

==============  ==============================================================
name            behaviour
==============  ==============================================================
TSP             fresh spatial Gaussian sketch drawn every iteration
NTSP            finite spatial set, fixed sampling probabilities
ATSP-MD         finite spatial set, largest sketched loss wins
ATSP-PR         finite spatial set, probabilities proportional to the losses
ATSP-CS         finite spatial set, loss-capped sampling with parameter theta
TSP-I           per-slice sketches, real Re/Im-stacked sketched system
                (direct projection of slices 0..l//2 on each slice's drawn
                member and the conjugated one of its mirror slice)
TSP-II          per-slice sketches, fixed probabilities, real part taken at
                the end (direct projection on each slice's drawn member)
NTSP-II         as TSP-II through the cached per-slice fast path
ATSP-MD-II      per-slice max-loss selection, cached fast path
ATSP-PR-II      per-slice proportional selection, cached fast path
ATSP-CS-II      per-slice capped selection, cached fast path
==============  ==============================================================

Every method is the same sketch-and-project update; they differ only in
how the sketch is chosen.  Every solver state therefore offers the same
three calls, and :func:`solve` runs one loop body over them:

* ``losses()``: the current sketched losses, or None for the methods that
  keep no sketched residuals (TSP, and TSP-I and TSP-II, which project
  straight from the iterate);
* ``select(losses)``: the iteration's choice: a fresh Gaussian sketch
  (TSP), one member index (spatial sets) or one member index per Fourier
  slice (per-slice sets, -1 for an already-solved slice), or None when no
  sketched loss is positive, on which :func:`solve` stops ("zero_loss");
* ``step(choice)``: apply that choice to the iterate.

An iteration computes only what its rule reads.  Finite-set rules read a
block of 64 iterations of uniforms, one stream per set or per Fourier
slice, and draw by one inverse-CDF rule on unnormalised cumulative weights.
Adaptive rules (ATSP-*) read one row per iteration and see a zero loss in
values they compute anyway.  Fixed rules turn a block into draws when it is
refilled; a set state (NTSP, NTSP-II) copies its residuals before each
draw, for its zero-loss test and the losses of logged rows, and TSP-I and
TSP-II gather the projections of all 64 draws at once.  With x_star, the
error is a copy into a buffer, a subtraction and two dot products.  States
that keep sketched residuals also offer ``audit()``, the worst deviation of
the recursed residuals from fresh ones, run every ``audit_every``
iterations.  Iterations run on the Fourier slices; the tests check them
against block-circulant steps.

TSP, NTSP, ATSP-MD/PR/CS and TSP-I have real iterates, so Fourier slice
l-k is the conjugate of slice k: their states keep slices 0..h-1 only,
h = l//2 + 1, and weight slice k by its multiplicity w_k (1 for slice 0
and, for even l, slice l/2; 2 for the others) in every loss and norm.
The -II methods keep all l slices.  A state keeps its iterate Xh as the
first n rows of a block Z, slices first.  The finite-set methods other
than TSP-I and TSP-II share one set state: their sketched residuals R sit
below Xh (R_0 = -C^H S^H B, as X_0 = 0), and block U[k, j] of one table U,
(slices, q, n + q tau, tau), stacks member j's step map over its cross
products C_i^H N_i Q^{-1} N_j^H C_j with every member i, so choosing j in
slice k updates both at once: Z[k] -= U[k, j] @ R[k, j], one zgemm that
writes into Z.  A spatial choice is one j for every slice.  Every set
method's losses square R's float view into a buffer and sum it by gemv,
per slice, or over the slices weighted by w_k / l for spatial sets.  TSP-I
and TSP-II keep per-member tables and the gathered projections of one
block of draws (see :class:`_DirectState`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm

from . import sketching
from .t_algebra import (
    WeightQ,
    batched_hpinv,
    batched_inv_factor,
    fft_slices,
    ifft_slices,
    irfft_slices,
    rfft_slices,
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
    a number, ``record_every < 1``, ``audit_every < 0``, ``max_iters < 0``,
    ``seed < 0``, a count or seed that is not whole, ``theta`` outside [0, 1]
    and ``tol < 0`` or NaN with a ``ValueError`` that names the field.
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
        name = self.method.upper()
        if name not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        return name


@dataclass
class RunRecord:
    """Per-run trace: one entry per recorded iteration plus run summary."""

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
    nothing left to project on; callers treat that as convergence before
    selecting.
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


# field, least value, largest value, whole number (a float such as 1e5 is one)
_RANGES = (("record_every", 1, np.inf, True), ("audit_every", 0, np.inf, True),
           ("max_iters", 0, np.inf, True), ("seed", 0, np.inf, True),
           ("trials", 1, np.inf, True), ("theta", 0.0, 1.0, False), ("tol", 0.0, np.inf, False))


def check_ranges(config):
    """Reject with a ``ValueError`` that names it each field of ``_RANGES``
    that ``config`` holds (a SolverConfig or ExperimentConfig) out of range."""
    for name, least, most, whole in _RANGES:
        value = getattr(config, name, least)  # a field the config lacks passes
        if not (isinstance(value, (int, float, np.integer, np.floating)) and least <= value <= most
                and (float(value).is_integer() or not whole)):
            raise ValueError(f"{name}={value!r} is out of range")


_UNIFORM_BLOCK = 64


def _inverse_cdf(cum, u):
    """The draw convention of every finite-set rule: min(#(cum <= u * total),
    q - 1) for each row of the unnormalised cumulative weights ``cum``
    (..., q), whose last column is the total, and the uniforms ``u``, which
    broadcast against that column.  A cumsum of nonnegative weights is
    sorted, so that count is #(cum[:-1] <= u * total): a binary search for
    one row."""
    targets = u * cum[..., -1]
    if cum.ndim == 1:
        return cum[:-1].searchsorted(targets, "right")
    return (cum[..., :-1] <= targets[..., None]).sum(axis=-1)


class _BaseState:
    """Shared bookkeeping: Fourier data, error tracking, iterate export.

    Subclasses implement ``select`` and ``step``, and ``losses`` and
    ``audit`` when they keep sketched residuals (see the module docstring).
    """

    half_spectrum = True  # keep slices 0..h-1 with multiplicities w
    adaptive = False  # select() reads the losses
    before = None  # fixed rules' residuals of the next draw (see _SetState.select)

    def __init__(self, A, B, config, x_star):
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        for name, value in (("A", A), ("B", B), ("x_star", x_star)):
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains NaN or inf")
        if A.ndim != 3 or B.ndim != 3 or A.shape[0] != B.shape[0] or A.shape[2] != B.shape[2]:
            raise ValueError(f"incompatible system shapes {A.shape} and {B.shape}")
        self.method = config.canonical_method()
        self.config = config
        self.m, self.n, self.l = A.shape
        self.p = B.shape[1]
        Q = config.weight or WeightQ.identity(self.n, self.l)
        if Q.n != self.n or Q.l != self.l:
            raise ValueError("weight dimensions do not match the system")
        self.Q = Q
        transform = rfft_slices if self.half_spectrum else fft_slices
        self.Ah, self.Bh = transform(A), transform(B)
        self.h = self.Ah.shape[0]
        self.w = np.ones(self.h)
        self.w[1:self.l - self.h + 1] = 2.0  # slices with a distinct mirror l - k
        self.Qinv = np.ascontiguousarray(Q.inv[:self.h])
        self.Z = np.zeros((self.h, self.n, self.p), dtype=np.complex128)
        self.t = 0
        self.sqrt_l = np.sqrt(self.l)
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=np.float64)
        if self.x_star is not None:
            self.Xsh = np.ascontiguousarray(transform(self.x_star))  # see _errors
            self.x_star_norm = np.linalg.norm(self.x_star)
            if self.x_star_norm == 0:
                raise ValueError("x_star must be nonzero for relative errors")
        self.b_norm = np.linalg.norm(B)
        self.q_is_identity = Q.is_identity
        self.max_imag_residue = 0.0
        self.audit_max = 0.0

    Xh = property(lambda self: self.Z[:, :self.n])  # the iterate: Z's first n rows

    def _loop_buffers(self):
        """Made after setup's temporaries are freed.  _errors adds the dot
        products of two views of the C-contiguous ``diff``: on the full
        spectrum its real and imaginary parts, read as np.linalg.norm reads
        an Xh - Xsh temporary, else all slices and again those with a mirror."""
        if self.x_star is not None:
            full = self.h == self.l
            self.diff = np.empty_like(self.Xh, order="C")
            flat = self.diff.ravel()  # a view: the buffer is dense
            self.err_views = (flat.real, flat.imag) if full else (
                flat.view(np.float64), self.diff[1:self.l - self.h + 1].ravel().view(np.float64))

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
        """(epsilon, ||Xh - Xsh||_F), the norm being None without x_star."""
        if self.x_star is not None:
            # a ufunc reading the strided Xh would copy it into a fresh buffer
            np.copyto(self.diff, self.Xh)
            self.diff -= self.Xsh
            a, b = self.err_views
            diff_norm = np.sqrt(a.dot(a) + b.dot(b))
            return float(diff_norm / self.sqrt_l / self.x_star_norm), diff_norm
        res = self.Ah @ self.Xh - self.Bh
        eps = float(self._norm(res) / self.sqrt_l / max(self.b_norm, 1e-300))
        return eps, None

    def q_error(self, diff_norm=None):
        """Weighted squared error ||X - X_star||_{F(Q)}^2 (needs x_star).

        ``diff_norm`` is ||Xh - Xsh||_F of the current iterate when the
        caller already has it; it is only used under the identity weight.
        """
        if self.x_star is None:
            return float("nan")
        if self.q_is_identity:
            if diff_norm is None:
                diff_norm = self._errors()[1]
            return float(diff_norm ** 2 / self.l)
        diff = self.Xh - self.Xsh
        return float(sum(self.w[k] * np.linalg.norm(self.Q.sqrt[k] @ diff[k]) ** 2
                         for k in range(self.h)) / self.l)

    def x(self):
        if self.half_spectrum:
            return irfft_slices(self.Xh, self.l)
        # per-slice sketching breaks conjugate symmetry; the real part is the answer
        return ifft_slices(self.Xh, force_real=True)

    # -- defaults for the methods without sketched residuals ---------------
    def losses(self, v=None):
        return None

    def audit(self):
        raise ValueError("this method keeps no cached residuals to audit")

    def trace_choice(self, choice):
        """A choice as the trace records it; fresh sketches are not recorded."""
        return None

    def variance_factor(self, losses):
        """The proportional rule's improvement factor for ``losses``; NaN
        except for ATSP-PR, the one method where it is meaningful (a single
        family shared by all slices)."""
        return np.nan


class _FiniteSetState(_BaseState):
    """Sketch-set validation and sampling setup of the finite-set methods.

    The fixed probabilities are validated once and kept with their
    cumulative sums.  Every rule draws from ``rngs``, one uniform stream for
    a spatial set or one per Fourier slice, read ``_UNIFORM_BLOCK``
    iterations at a time (see :meth:`_row`), by :func:`_inverse_cdf`.
    """

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
            self.rngs = [_rng(config.seed, 2, k) for k in range(self.l)]
            self.slices = np.arange(self.l)
        else:
            self.rngs = [_rng(config.seed, 1)]
        probs = sketching.as_prob_rows(sketching.resolve_probabilities(
            config.probabilities, A, self.Q, sketches), len(self.rngs), self.q)  # a row per stream
        self.base_cdf = np.cumsum(probs, axis=1)
        self.base_probs = probs if self.per_slice_selection else probs[0]
        self.drawn = _UNIFORM_BLOCK  # rows of the current block used

    def _member_tables(self, Ah, Bh, Qinv):
        """N = S^H A, Q^{-1} N^H and S^H B of every member, (slices, q, ...)."""
        sk, N = self.sketches, self.sketches.sketch(Ah)
        AQS = (np.conj(np.swapaxes(N, -1, -2), order="C") if self.q_is_identity  # Q^{-1} = I: N^H
               else sk.sketch_cols(Qinv @ np.conj(np.swapaxes(Ah, -1, -2))))
        return N, AQS, sk.sketch(Bh)

    def _uniforms(self):
        """The next (_UNIFORM_BLOCK, streams) block: column k holds the values
        of as many scalar ``rngs[k].random()`` calls."""
        return np.stack([r.random(_UNIFORM_BLOCK) for r in self.rngs], axis=1)

    def _row(self):
        """This iteration's row of ``block``, which one ``_uniforms()`` refills
        every ``_UNIFORM_BLOCK`` iterations: the uniforms of every stream, or
        for fixed rules the draws made from them then."""
        if self.drawn == _UNIFORM_BLOCK:
            u = self._uniforms()
            self.block = u if self.adaptive else np.stack(
                [_inverse_cdf(c, x) for c, x in zip(self.base_cdf, u.T)], axis=1)
            self.drawn = 0
        self.drawn += 1
        return self.block[self.drawn - 1]

    def select(self, losses):
        """The next fixed-rule draw (one per slice for per-slice sets)."""
        return self._row() if self.per_slice_selection else self._row()[0]

    def trace_choice(self, choice):
        return tuple(int(c) for c in choice) if self.per_slice_selection else int(choice)


class _SetState(_FiniteSetState):
    """Cached fast path of the finite-set methods.

    Per member i and slice k the setup stores the sketched system N = S^H A,
    a factor C with C C^H = pinv(N Q^{-1} N^H), the step map Q^{-1} N^H C,
    the cross products C_i^H N_i Q^{-1} N_j^H C_j, and the running sketched
    residuals R_i = C_i^H (N_i X - S_i^H B), R_0 = -C^H S^H B as X_0 = 0, as
    views of the block Z and of the table U = [step_map; cross] (see the
    module docstring).  Selection sets gather N and S^H B by rows; ragged
    blocks are padded with zero rows, which get zero factor columns.  The
    completeness check runs on N.  ``views``: R, its (slices, 2 q tau p)
    float view, which the losses read, and ``before`` flat.  Spatial and
    per-slice sets share the losses, the audit and the step.
    """

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        N, AQS, self.SB = (
            np.ascontiguousarray(T) for T in self._member_tables(self.Ah, self.Bh, self.Qinv))
        if config.check_sampling and not sketching.is_complete_discrete_sampling(
                A, self.sketches, sketched=N):
            warnings.warn("sketch family is not complete discrete sampling for this system; the "
                          "iteration is still defined but the rate certificates may not hold",
                          stacklevel=2)
        self.C = batched_inv_factor(N @ AQS, slice_axis=None if self.per_slice_selection else 0)
        h, q, tau, n = N.shape
        CH = np.conj(np.swapaxes(self.C, -1, -2))
        self.U = np.empty((h, q, n + q * tau, tau), dtype=np.complex128)
        cross = self.U[:, :, n:].reshape(h, q, q, tau, tau)  # [k, j, i, a, c], a view
        for k in range(h):  # one slice at a time: no table-sized temporary
            self.U[k, :, :n] = AQS[k] @ self.C[k]
            # cross[k, j, i, a, c] = sum_b (C^H N)[k, i, a, b] step_map[k, j, b, c]
            jc = np.swapaxes(self.U[k, :, :n], 1, 2).reshape(q * tau, n)
            ia = np.moveaxis(CH[k] @ N[k], 2, 0).reshape(n, q * tau)
            cross[k] = (jc @ ia).reshape(q, tau, q, tau).transpose(0, 2, 3, 1)
        self.N = N
        self.Z = np.zeros((h, n + q * tau, self.p), dtype=np.complex128)
        self.Zt = tuple(Zk.T for Zk in self.Z)  # the F-contiguous views step() writes through
        self.R[...] = -(CH @ self.SB)  # X_0 = 0
        R, v = self.R, self.R.reshape(h, -1).view(np.float64)
        self.before = None if self.adaptive else np.empty(v.shape)
        self.views = (R, v, None if self.adaptive else self.before.reshape(-1))

    R = property(lambda self: self.Z[:, self.n:].reshape(self.h, self.q, -1, self.p))
    step_map = property(lambda self: self.U[:, :, :self.n])  # (slices, q, n, tau)
    cross = property(lambda self: self.U[:, :, self.n:])  # (slices, q, q tau, tau)

    def _loop_buffers(self):
        super()._loop_buffers()
        self.sq = np.empty(self.views[1].shape)
        self.ones = np.ones(self.sq.shape[1] // self.q)
        # spatial sets sum the energies over the slices, by w_k / l for their losses
        self.w_loss = None if self.per_slice_selection else self.w / self.l
        self.wsq = None if self.per_slice_selection else np.empty(self.sq.shape[1])

    def _energy(self, v, w):
        """Squared Frobenius norms of the residuals ``v`` (like ``views[1]``):
        squares into ``sq``, then one gemv over each (slice, member) row if
        ``w`` is None, (l, q), else a gemv over the slices weighted by ``w``
        and one per member, (q,)."""
        np.square(v, out=self.sq)
        if w is None:
            return (self.sq.reshape(-1, self.ones.size) @ self.ones).reshape(self.h, self.q)
        np.dot(w, self.sq, out=self.wsq)
        return self.wsq.reshape(self.q, -1) @ self.ones

    def losses(self, v=None):
        """The sketched losses, of residuals ``v`` (like ``views[1]``) if given:
        (q,) of (1/l) sum_k w_k ||R_i[k]||_F^2 for spatial sets, (l, q) of
        ||R_i[k]||_F^2 for per-slice sets (their subsystems are independent)."""
        return self._energy(self.views[1] if v is None else v, self.w_loss)

    def audit(self):
        """Max Frobenius deviation between recursed and fresh residuals."""
        CH = np.conj(np.swapaxes(self.C, -1, -2))
        fresh = CH @ ((self.N @ self.Xh[:, None]) - self.SB)
        drift = (fresh - self.R).reshape(self.h, -1).view(np.float64)
        w = None if self.per_slice_selection else self.w  # spatial: sum_k w_k ||.||^2
        worst = float(np.sqrt(np.max(self._energy(drift, w))))
        self.audit_max = max(self.audit_max, worst)
        return worst

    def _weights(self, losses):
        """The pr and cs rules' draw weights along the last axis of ``losses``."""
        return losses if self.rule == "pr" else _capped_losses(
            losses, self.base_probs, self.config.theta)

    def select(self, losses):
        """Fixed rules: the draw after copying R to ``before``, None if every loss is 0."""
        np.copyto(self.before, self.views[1])
        zero = self.views[2].dot(self.views[2]) < 1e-300 and self.losses(self.before).max() <= 0.0
        return None if zero else super().select(losses)

    def step(self, choice):
        """Z[k] -= U[k, j] @ R[k, j] for each slice k and its chosen member j
        (a per-slice -1 skips the slice, whose gathered block, member q - 1,
        goes unused): one zgemm per slice that writes into
        Z, as Z[k].T -= R[k, j].T @ U[k, j].T on F-contiguous views (numpy's
        matmul runs tau = 1 unblocked, through a Z-sized temporary).  The
        chosen R blocks, rows of Z, are copied first: BLAS makes no promise
        for an input that overlaps its output."""
        if self.per_slice_selection:
            choice = np.asarray(choice)
            R = self.views[0][self.slices, choice].transpose(0, 2, 1)  # a gathered copy
            for z, r, U, j in zip(self.Zt, R, self.U, choice.tolist()):
                if j >= 0:  # -1: the slice is solved
                    zgemm(-1.0, r, U[j].T, 1.0, z, 0, 0, 1)
        else:
            R = self.views[0][:, choice].copy().transpose(0, 2, 1)
            for z, r, u in zip(self.Zt, R, self.U[:, choice].transpose(0, 2, 1)):
                zgemm(-1.0, r, u, 1.0, z, 0, 0, 1)  # trans_a = trans_b = 0, overwrite_c
        self.t += 1


class _SpatialSetState(_SetState):
    """Spatial sets: one family shared by all slices, one member for all."""

    per_slice_selection = False

    def select(self, losses):
        """Member index, or None when no loss is positive."""
        if self.rule == "fixed":
            return super().select(losses)
        if self.rule == "md":
            i = losses.argmax()
            return None if losses[i] <= 0.0 else i
        cum = self._weights(losses).cumsum()
        return None if cum[-1] <= 0.0 else _inverse_cdf(cum, self._row()[0])

    def variance_factor(self, losses):
        if self.rule != "pr":
            return np.nan
        total = losses.sum()
        if total <= 0:
            return np.nan
        pt = losses / total
        return float(1.0 + self.q * self.q * (np.mean(pt**2) - np.mean(pt) ** 2))


class _PerSliceSetState(_SetState):
    """Per-slice sets: each Fourier slice owns its family, losses and choice."""

    half_spectrum = False
    per_slice_selection = True

    def select(self, losses):
        """Per-slice index choices (-1: slice solved), or None if all are."""
        if self.rule == "fixed":
            return super().select(losses)
        if self.rule == "md":
            top = losses.argmax(axis=1)
            active = losses[self.slices, top] > 0
            return np.where(active, top, -1) if active.any() else None
        cum = np.cumsum(self._weights(losses), axis=1)
        active = cum[:, -1] > 0
        return np.where(active, _inverse_cdf(cum, self._row()), -1) if active.any() else None


class _FreshGaussianState(_BaseState):
    """Fresh spatial Gaussian sketch every iteration; no caching."""

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        if not float(config.tau).is_integer() or not 1 <= config.tau <= self.m:
            raise ValueError(f"tau={config.tau!r} is not a whole number in [1, m={self.m}]")
        self.tau = int(config.tau)
        self.sketch_rng = _rng(config.seed, 0)
        self.QiAH = np.conj(np.swapaxes(self.Ah, -1, -2), order="C")
        self.QiAH = self.QiAH if self.q_is_identity else self.Qinv @ self.QiAH

    def select(self, losses):
        """A fresh (m, tau) Gaussian matrix, the first frontal slice of the
        sketch (its other slices are zero)."""
        return self.sketch_rng.standard_normal((self.m, self.tau))

    def step(self, S0):
        # only the first frontal slice is nonzero, so every Fourier slice of
        # the sketch equals S0
        N = S0.T @ self.Ah  # (l, tau, n)
        AQS = self.QiAH @ S0.astype(np.complex128)  # (l, n, tau)
        G = batched_hpinv(N @ AQS, slice_axis=0)
        resid = (N @ self.Xh) - (S0.T @ self.Bh)
        self.Z -= AQS @ (G @ resid)
        self.t += 1


class _DirectState(_FiniteSetState):
    """Direct per-slice projections with fixed probabilities (TSP-II); the
    real part of the final inverse transform is the answer.

    Slice k is projected straight from the iterate onto the members its
    group draws: Z -= Q^{-1} N^H G (N X - S^H B), G = pinv(N Q^{-1} N^H).
    The ``tables`` are (g, q, ...): row j is read at the draw of slice
    ``table_slices[j]``, and a group is g/h consecutive rows.  Here a group
    is one slice, and the tables are the member tables N = S^H A, Q^{-1} N^H
    (as rows), S^H B and G, not copied, with G factored at setup.  With
    each block of ``_UNIFORM_BLOCK`` draws, ``select`` releases the old
    block and gathers the tables of every draw: 64 l tau (2n + p) complex
    entries plus 64 l tau^2 for G, about 235 KB at 50x20x5 with tau = 1,
    64/q times the tables.  A step is three small products; any other
    choice passed to ``step`` is gathered as a block of one.
    """

    half_spectrum = False
    per_slice_selection = True

    def __init__(self, A, B, config, x_star):
        super().__init__(A, B, config, x_star)
        self.table_slices, self.tables = self._tables(A, B)
        self.choice = self.gathered = None

    def _tables(self, A, B):
        N, AQS, SB = self._member_tables(self.Ah, self.Bh, self.Qinv)
        return self.slices, [N, np.swapaxes(AQS, -1, -2), SB, batched_hpinv(N @ AQS)]

    def _projections(self, draws):
        """N, Q^{-1} N^H, S^H B and G of the groups that each row of
        ``draws`` (b, l) picks, each (b, h, ...); G is gathered when the
        tables hold it, else factored for the whole block in one batch."""
        picked = (np.arange(len(self.table_slices)), draws[:, self.table_slices])
        N, NQt, SB, *G = (T[picked].reshape(len(draws), self.h, -1, T.shape[-1])
                          for T in self.tables)
        AQS = np.swapaxes(NQt, -1, -2)  # (b, h, n, tau per group)
        return N, AQS, SB, G[0] if G else batched_hpinv(N @ AQS)

    def select(self, losses):
        if self.drawn == _UNIFORM_BLOCK:
            self.gathered = None  # release the old block before building the next
        self.choice = super().select(losses)
        if self.gathered is None:
            self.gathered = self._projections(self.block)
        return self.choice

    def step(self, idx):
        if idx is self.choice:
            N, AQS, SB, G = (T[self.drawn - 1] for T in self.gathered)
        else:
            N, AQS, SB, G = (T[0] for T in self._projections(np.asarray(idx)[None]))
        self.Z -= AQS @ (G @ (N @ self.Xh - SB))
        self.t += 1


class _StackedState(_DirectState):
    """Per-slice sketches folded back into a real sketched system (TSP-I).

    Stacking the real and imaginary parts of the inverse-transformed
    sketched system gives, in Fourier slice k, the rows of
    [S_k^H A_k; conj(S_{-k}^H A_{-k})] (S_k the member slice k drew) mixed
    by a fixed invertible 2tau x 2tau map.  A projection depends only on
    that row space, so slice k's group, for k = 0..l//2, is its own member
    and the conjugated one of slice -k, whose tables are conjugated once
    at setup.  No G is cached: a block factors its Grams in one batch and
    holds 64 h 2tau (2n + p) complex entries plus the pinvs, about 290 KB
    at 50x20x5 with tau = 1.  The stacked system is real, so every iterate
    stays real and no transform runs in the loop.
    """

    half_spectrum = True

    def _tables(self, A, B):
        half = np.arange(self.h)
        self.own = slice(0, self.h, self.h - 1) if self.l % 2 == 0 else slice(0, 1)  # k = -k
        N, AQS, SB = self._member_tables(fft_slices(A), fft_slices(B), self.Q.inv)
        return np.stack([half, -half % self.l], axis=1).ravel(), [
            np.stack([T[half], np.conj(T[-half % self.l])], axis=1).reshape(-1, *T.shape[1:])
            for T in (N, np.swapaxes(AQS, -1, -2), SB)]

    def step(self, idx):
        super().step(idx)
        # ||imag(ifft(X))|| / ||ifft(X)||, by Parseval: only the slices
        # that are their own mirror can carry an imaginary part
        imag = self.Xh[self.own].imag
        if imag.any():  # exactly zero while slices 0 and l/2 stay real
            scale = max(self._norm(self.Xh), 1e-300)
            self.max_imag_residue = max(self.max_imag_residue, float(np.linalg.norm(imag) / scale))


# name: (state class, selection rule); TSP has no rule, its choice is a
# fresh Gaussian sketch
_METHOD_TABLE = {
    "TSP": (_FreshGaussianState, None),
    "NTSP": (_SpatialSetState, "fixed"),
    "ATSP-MD": (_SpatialSetState, "md"),
    "ATSP-PR": (_SpatialSetState, "pr"),
    "ATSP-CS": (_SpatialSetState, "cs"),
    "TSP-I": (_StackedState, "fixed"),
    "TSP-II": (_DirectState, "fixed"),
    "NTSP-II": (_PerSliceSetState, "fixed"),
    "ATSP-MD-II": (_PerSliceSetState, "md"),
    "ATSP-PR-II": (_PerSliceSetState, "pr"),
    "ATSP-CS-II": (_PerSliceSetState, "cs"),
}
METHODS = tuple(_METHOD_TABLE)
_ROW_FIELDS = ("t", "epsilon", "q_error", "loss_max", "loss_sum", "seconds", "pr_variance_factor")


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
    otherwise.  Iteration timing excludes all precomputation.
    """
    start = time.perf_counter()
    state = make_state(A, B, config, x_star)
    method = state.method
    record = RunRecord(method=method, setup_s=time.perf_counter() - start)

    columns = tuple([] for _ in _ROW_FIELDS)
    if config.keep_iterates:
        record.iterates = []

    eps, diff_norm = state._errors()
    eps0 = max(eps, 1e-300)

    def log_row(errors, elapsed, chosen=None, losses=None):
        """Append one trace row; ``losses`` are those ``chosen`` was
        selected next to, and the per-row bookkeeping is done only here."""
        values = (state.t, errors[0], state.q_error(errors[1]),
                  *([np.nan] * 2 if losses is None else [float(losses.max()), float(losses.sum())]),
                  elapsed, np.nan if losses is None else state.variance_factor(losses))
        for column, value in zip(columns, values):
            column.append(value)
        record.chosen.append(None if chosen is None else state.trace_choice(chosen))
        if config.keep_iterates:
            record.iterates.append(state.x())

    log_row((eps, diff_norm), 0.0)
    converged = eps < config.tol
    start = time.perf_counter()

    while not converged and not record.stop_reason and state.t < config.max_iters:
        # adaptive rules select from the losses; fixed rules compute them
        # for logged rows only, from the residuals their draw was made next to
        losses = state.losses() if state.adaptive else None
        chosen = state.select(losses)
        if chosen is None:  # no sketched loss is positive
            converged, record.stop_reason = True, "zero_loss"
            break
        state.step(chosen)
        if isinstance(state, _SetState) and config.audit_every and not state.t % config.audit_every:
            state.audit()

        eps, diff_norm = state._errors()
        if not eps <= 1e3 * eps0:  # also NaN
            record.stop_reason = "diverged"
        if record.stop_reason or state.t % config.record_every == 0 or eps < config.tol:
            log_row((eps, diff_norm), time.perf_counter() - start, chosen,
                    losses if state.adaptive else state.losses(state.before))
        converged = eps < config.tol

    if columns[0][-1] != state.t:
        log_row(state._errors(), time.perf_counter() - start)

    for name, column in zip(_ROW_FIELDS, columns):
        setattr(record, name, np.array(column, dtype=int if name == "t" else float))
    record.iterations = state.t
    record.converged = bool(converged)
    record.stop_reason = record.stop_reason or ("tol" if converged else "max_iters")
    record.audit_max = state.audit_max
    record.max_imag_residue = state.max_imag_residue
    if record.stop_reason == "diverged":
        raise DivergenceError(
            f"{method} diverged at iteration {state.t}: "
            f"error {eps:.3e} vs initial {eps0:.3e}", record)
    return state.x(), record
