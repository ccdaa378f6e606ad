"""Sketch families and sampling-probability rules for the solvers.

Two regimes exist:

* spatial sets: q tubal matrices S_i of shape (m, tau_i, l) whose only
  nonzero frontal slice is the first one.  Their depth transform has
  identical Fourier slices, so every Fourier subsystem gets sketched the
  same way.
* per-slice sets: l families of q ordinary (m, tau) matrices, one family
  per Fourier slice, which is what the stacked and -II solver variants
  consume.  Slice l - k's family is slice k's (the family is mirrored), so
  a real system stays real: its sketched slice l - k is the conjugate of
  sketched slice k.

All constructors are deterministic given a seeded ``numpy`` Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk

from .t_algebra import _fourier_slices, fft_slices

__all__ = [
    "SketchSet",
    "make_slice_sketches",
    "make_block_sketches",
    "make_gaussian_sketches",
    "make_fourier_sketches",
    "prob_uniform",
    "prob_slice_norm",
    "prob_sketch_norm",
    "prob_fourier_row_norm",
    "resolve_probabilities",
    "as_prob_rows",
    "sample_index",
    "is_complete_discrete_sampling",
]

SPATIAL_KINDS = ("slice", "block", "gaussian")
FOURIER_KINDS = ("fourier-row", "fourier-gaussian")
GAUSSIAN_KINDS = ("gaussian", "fourier-gaussian")


@dataclass(frozen=True)
class SketchSet:
    """A finite family of sketches plus the metadata the solvers need.

    Selection kinds ('slice', 'block', 'fourier-row') store ``rows``: a
    (q, tau) integer array whose row i lists the rows of A that member i
    selects, so S_i^H A is the gather A[rows[i]].  Ragged blocks are padded
    with the sentinel m, which selects a zero row.  A fourier-row set uses
    the same rows in every Fourier slice.  Gaussian kinds store ``mats``:
    the (q, m, tau) first frontal slices of spatial members, or the
    (l, q, m, tau) per-slice matrices, whose slice l - k must equal slice
    k (a ``ValueError`` naming ``mats`` otherwise).

    ``members`` is the dense view of either: a list of (m, tau_i, l) arrays
    for spatial kinds, or a list of l per-slice families, each a list of
    (m, tau) arrays, for the Fourier kinds.
    """

    kind: str
    m: int
    l: int
    q: int
    rows: np.ndarray | None = field(default=None, repr=False)
    mats: np.ndarray | None = field(default=None, repr=False)
    _in_order: bool = field(default=False, init=False, repr=False, compare=False)  # see sketch

    def __post_init__(self):
        """Reject malformed fields; each check is one pass over ``rows`` or ``mats``."""
        if self.kind not in SPATIAL_KINDS + FOURIER_KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        for name in ("m", "l", "q"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name}={value!r} must be a positive integer")
        gaussian = self.kind in GAUSSIAN_KINDS
        if (self.mats is None) == gaussian or (self.rows is None) != gaussian:
            raise ValueError(f"{self.kind} sketch sets store {'mats' if gaussian else 'rows'} only")
        if gaussian:
            mats = np.asarray(self.mats, dtype=np.float64)
            shape = (self.l, self.q, self.m)[1 - self.per_slice:]
            if mats.shape[:-1] != shape or not mats.size:
                raise ValueError(f"mats has shape {mats.shape}, not {shape + ('tau',)}")
            if not np.all(np.isfinite(mats)):
                raise ValueError("mats contains NaN or inf")
            if self.per_slice and not np.array_equal(mats[1:], mats[:0:-1]):
                raise ValueError("mats of Fourier slice l - k must equal those of slice k")
            object.__setattr__(self, "mats", mats)
            return
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be integers, got dtype {rows.dtype}")
        if rows.ndim != 2 or rows.shape[0] != self.q or not rows.size:
            raise ValueError(f"rows has shape {rows.shape}, not (q={self.q}, tau)")
        if rows.min() < 0 or rows.max() > self.m:
            raise ValueError(f"rows must lie in [0, m={self.m}], got [{rows.min()}, {rows.max()}]")
        empty = np.flatnonzero(np.all(rows == self.m, axis=1))
        if empty.size:
            raise ValueError(f"member {empty[0]} selects no row below m={self.m}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_in_order", np.array_equal(rows.ravel(), np.arange(self.m)))

    @property
    def per_slice(self):
        return self.kind in FOURIER_KINDS

    @property
    def taus(self):
        """Per-member sketch sizes (ragged tau is allowed for block sets)."""
        if self.rows is not None:
            return tuple(int(t) for t in np.sum(self.rows < self.m, axis=1))
        return (self.mats.shape[-1],) * self.q

    @property
    def tau(self):
        taus = set(self.taus)
        if len(taus) != 1:
            raise ValueError("sketch set has ragged tau; use .taus")
        return taus.pop()

    @property
    def members(self):
        """The dense view, built on each access (see the class docstring)."""
        if not self.per_slice:
            return [self.member(i) for i in range(self.q)]
        if self.rows is None:
            return [list(family) for family in self.mats]
        return [[np.eye(self.m)[:, r] for r in self.rows]] * self.l

    def member(self, i):
        """Dense spatial member i: an (m, tau_i, l) tensor whose only nonzero
        frontal slice is the first."""
        if self.per_slice:
            raise ValueError("per-slice sets have no single spatial member")
        if self.rows is None:
            first = self.mats[i]
        else:
            r = self.rows[i][self.rows[i] < self.m]
            first = np.zeros((self.m, r.size))
            first[r, np.arange(r.size)] = 1.0
        S = np.zeros(first.shape + (self.l,))
        S[:, :, 0] = first
        return S

    def member_hat(self, i):
        """Depth transform of spatial member i, slices-first (l, m, tau)."""
        return fft_slices(self.member(i))

    def sketch(self, Xh):
        """S^H X per Fourier slice of the slices-first stack Xh (slices 0..k-1 of
        (l, m, b)), as (k, q, tau, b).  Selection sets gather rows, C-contiguous, which for
        finite Xh equals the one-hot product exactly; rows 0..m-1 in order
        (slice, fourier-row, contiguous equal blocks) reshape Xh, a view if C-contiguous."""
        if self.rows is None:
            return np.conj(np.swapaxes(self._dense(len(Xh)), -1, -2)) @ Xh[:, None]
        if self._in_order:
            return np.ascontiguousarray(Xh).reshape(Xh.shape[0], self.q, -1, Xh.shape[-1])
        return np.take(self._padded(Xh, 1), self.rows, axis=1)  # C-contiguous, unlike Xh[:, rows]

    def sketch_cols(self, Yh):
        """Y S per Fourier slice of Yh (slices 0..k-1 of (l, a, m)), as (k, q, a, tau)."""
        if self.rows is None:
            return Yh[:, None] @ self._dense(len(Yh))
        return np.moveaxis(self._padded(Yh, 2)[..., self.rows], 2, 1)

    def _dense(self, slices):
        """The mats of Fourier slices 0..slices-1 as complex (slices or 1, q, m, tau)."""
        return (self.mats[:slices] if self.per_slice else self.mats[None]).astype(np.complex128)

    def _padded(self, X, axis):
        if np.any(self.rows == self.m):  # ragged: the sentinel row m reads zeros
            X = np.concatenate([X, np.zeros_like(np.take(X, [0], axis))], axis)
        return X


def make_slice_sketches(m, l):
    """One sketch per horizontal slice: S_i is lateral slice i of the identity."""
    return SketchSet("slice", m, l, m, rows=np.arange(m)[:, None])


def make_block_sketches(m, l, partition):
    """Column-selection sketches for a disjoint cover of the row indices by
    nonempty blocks; shorter blocks are padded with the sentinel m."""
    blocks = [list(block) for block in partition]
    flat = sorted(i for block in blocks for i in block)
    if not all(blocks):
        raise ValueError("empty block in partition")
    if len(set(flat)) < len(flat):
        raise ValueError("overlapping blocks in partition")
    if flat != list(range(m)):
        raise ValueError("partition must cover every row index exactly once")
    tau = max(map(len, blocks))
    rows = np.array([block + [m] * (tau - len(block)) for block in blocks])
    return SketchSet("block", m, l, len(blocks), rows=rows)


def make_gaussian_sketches(m, tau, q, l, rng):
    """q sketches whose first frontal slice is i.i.d. N(0, 1), others zero."""
    if not 1 <= tau <= m:
        raise ValueError(f"tau={tau} is not in 1..m={m}")
    mats = np.array([rng.standard_normal((m, tau)) for _ in range(q)])
    return SketchSet("gaussian", m, l, q, mats=mats)


def make_fourier_sketches(m, tau, q, l, kind, rng=None):
    """Per-slice families of q plain (m, tau) matrices, slice l - k's
    family being slice k's.

    ``kind='row'`` gives the coordinate columns e_1..e_m (tau must be 1 and
    q must be m); ``kind='gaussian'`` gives real Gaussian matrices, those of
    slices 0..l//2 drawn from the first l//2 + 1 of ``rng.spawn(l)``'s
    independent streams, one per slice, and mirrored into slices l//2+1..l-1.
    """
    if not 1 <= tau <= m:
        raise ValueError(f"tau={tau} is not in 1..m={m}")
    if kind == "row":
        if tau != 1 or q != m:
            raise ValueError("row sketches require tau=1 and q=m")
        return SketchSet("fourier-row", m, l, q, rows=np.arange(m)[:, None])
    if kind == "gaussian":
        if rng is None:
            raise ValueError("gaussian per-slice sketches need an rng")
        mats = np.array([[child.standard_normal((m, tau)) for _ in range(q)]
                         for child in rng.spawn(l)[:l // 2 + 1]])
        mats = np.concatenate([mats, mats[1:(l + 1) // 2][::-1]])
        return SketchSet("fourier-gaussian", m, l, q, mats=mats)
    raise ValueError(f"unknown per-slice sketch kind {kind!r}")


def as_prob_rows(p, rows, q):
    """Probabilities ``p``, one (q,) simplex point for every row or (rows, q)
    of them, checked and returned as a (rows, q) array.  ``rows`` > 1 are
    Fourier slices, whose row rows - k must be row k's within 1e-12."""
    try:
        p = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"probabilities {p!r} are not numbers") from exc
    if p.shape not in ((q,), (rows, q)):
        raise ValueError(f"probabilities have shape {p.shape}, not ({q},) or ({rows}, {q})")
    p = np.array(np.broadcast_to(p, (rows, q)))
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"probabilities of row {bad[0]} sum to {float(sums[bad[0]])!r}, not 1")
    bad = np.flatnonzero(np.abs(p[1:] - p[:0:-1]).max(axis=1) > 1e-12)
    if bad.size:
        raise ValueError(f"probabilities of row {rows - 1 - bad[0]} are not those of row "
                         f"{bad[0] + 1}: Fourier slice l - k draws what slice k draws")
    return p


def _normalize(weights, what):
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum(axis=-1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError(f"all {what} weights are zero")
    return w / total


def prob_uniform(q):
    return np.full(q, 1.0 / q)


def prob_slice_norm(A):
    """p_i proportional to the squared norm of horizontal slice i of A."""
    A = np.asarray(A, dtype=np.float64)
    return _normalize(np.sum(A * A, axis=(1, 2)), "horizontal-slice")


def prob_sketch_norm(A, Q, sketches):
    """p_i proportional to ||Q^{-1/2} * A^T * S_i||_F^2 (spatial sets; Q may be None)."""
    if sketches.per_slice:
        raise ValueError("prob_sketch_norm applies to spatial sketch sets")
    AQ, w = _fourier_slices(A, Q=Q)
    return _normalize(w @ np.sum(np.abs(sketches.sketch(AQ)) ** 2, axis=(2, 3)), "sketch-norm")


def prob_fourier_row_norm(A, Q=None):
    """Per-slice row probabilities: p[k, i] prop. to ||Q_k^{-1/2} A_k^H e_i||^2.

    With Q omitted this is the squared row norm of each Fourier slice of A.
    Returns an (l, m) array of per-slice simplex points, those of slice
    l - k copied from slice k's, whose conjugate it is.
    """
    AQ = _fourier_slices(A, Q)[0]
    p = _normalize(np.sum(np.abs(AQ) ** 2, axis=2), "fourier-row")
    return np.concatenate([p, p[1:np.shape(A)[2] - len(p) + 1][::-1]])


def resolve_probabilities(spec, A, Q, sketches):
    """Probabilities of a rule name (None is 'uniform'; the others are the
    ``prob_*`` rules above, ``Q`` a WeightQ or None) or of an explicit vector."""
    if spec is None or (isinstance(spec, str) and spec == "uniform"):
        return prob_uniform(sketches.q)
    if isinstance(spec, str):
        if spec == "slice-norm":
            if sketches.kind != "slice":
                raise ValueError("slice-norm probabilities require slice sketches")
            return prob_slice_norm(A)
        if spec == "sketch-norm":
            return prob_sketch_norm(A, Q, sketches)
        if spec == "fourier-row-norm":
            if not sketches.per_slice:
                raise ValueError("fourier-row-norm requires a per-slice sketch set")
            return prob_fourier_row_norm(A, Q)
        raise ValueError(f"unknown probability rule {spec!r}")
    return np.asarray(spec, dtype=np.float64)


def sample_index(p, rng):
    """Inverse-CDF draw from a probability vector by the solvers' convention."""
    return int(_inverse_cdf(np.cumsum(as_prob_rows(p, 1, np.size(p))[0]), rng.random()))


def _inverse_cdf(cum, u):
    """The draw of every finite-set rule: #(cum[:-1] <= u * total) for each row
    of the unnormalised cumulative weights ``cum`` (..., q), total its last
    column, and uniforms ``u`` that broadcast against that column; on a
    sorted cum, min(#(cum <= u * total), q - 1).  One row: a binary search."""
    targets = u * cum[..., -1]
    if cum.ndim == 1:
        return cum[:-1].searchsorted(targets, "right")
    return (cum[..., :-1] <= targets[..., None]).sum(axis=-1)


def is_complete_discrete_sampling(A, sketches, sketched=None):
    """Check, per Fourier slice, full row rank of every sketched system and
    full column reach of the stacked family S (q tau x n).

    S reaches every column when n singular values exceed cut = 1e-10 *
    max(q tau, n) times the largest, so scaling A changes no verdict.  The
    eigenvalues of the Grams S^H S decide first: a slice passes when
    lambda_min > margin * lambda_max, margin = max(1e-6, 100 cut^2, 100 q tau
    n eps).  The Gram's rounding is below margin/100 * lambda_max, so a pass
    means sigma_min/sigma_max of about 10 cut or more, which the SVD, run
    only on the undecided slices, passes too.  Members need full row rank at
    the tolerance 1e-10 * max(tau, n) * sqrt(lambda_max).  Every set is
    checked on slices 0..l//2: slice l-k of a real A is the conjugate of
    slice k, and so is its sketched slice, a per-slice family being
    mirrored.  The rate certificates assume this property; the solvers only
    warn when it fails, as the pseudoinverse still defines a valid
    iteration.  ``sketched``: those slices sketched, if held.
    """
    SA = sketched if sketched is not None else sketches.sketch(_fourier_slices(A)[0])
    l, q, tau, n = SA.shape
    if q * tau < n:  # the stacked family cannot reach every column
        return False
    S = SA.reshape(l, q * tau, n)
    # one slice's Gram at a time: zherk on the F-ordered S_k^T gives conj(S_k^H S_k),
    # whose eigenvalues are S_k^H S_k's, with no conjugated copy of the stack
    lam = np.array([np.linalg.eigvalsh(zherk(1.0, Sk.T, lower=1)) for Sk in S])
    cut = 1e-10 * max(q * tau, n)
    margin = max(1e-6, 100 * cut**2, 100 * q * tau * n * np.finfo(np.float64).eps)
    undecided = lam[:, 0] <= margin * lam[:, -1]
    if undecided.any():
        sv = np.linalg.svd(S[undecided], compute_uv=False)
        if np.any(np.sum(sv > cut * sv[:, :1], axis=1) < n):
            return False
    tol = 1e-10 * max(tau, n) * np.sqrt(lam[:, -1:])
    if tau == 1:  # 1 x n: rank 1 iff norm > tol, each row's squares summed on its float view
        v = np.ascontiguousarray(S).view(np.float64)
        return bool(np.all(np.sqrt(np.einsum("kij,kij->ki", v, v)) > tol))
    return bool(np.all(np.linalg.matrix_rank(SA, tol=tol) >= np.array(sketches.taus)))

