"""Convergence-rate certificates, bound verification and cost formulas.

The solvers contract the weighted squared error by, in expectation, a
method-dependent spectral constant of the expected sketched projector.
Under the t-product that projector is block-diagonal in the Fourier
domain, so its spectrum is the union of the per-slice spectra.  Every
constant here is computed from per-slice factors K with
Z_hat_i[k] = K_i[k]^H K_i[k], taken from the sketched system once per
member and slice; recorded runs are then checked against the resulting
geometric envelopes.  The sampled worst-direction estimate scores real
directions on the Fourier slices 0..l//2 only, drawn and scored one
block of samples at a time, so its memory is the factors plus one block
whatever the number of samples.  ``projector_tensor`` and
``expected_projector`` assemble the same projectors through
block-circulant oracle products and serve as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sketching
from .t_algebra import (
    WeightQ,
    _fourier_slices,
    batched_inv_factor,
    bcirc,
    tpinv,
    tprod_oracle,
    ttranspose,
)

__all__ = [
    "RateReport",
    "BoundCheck",
    "projector_tensor",
    "expected_projector",
    "per_slice_rates",
    "closed_form_rate_bounds",
    "estimate_delta_inf",
    "compute_rate_report",
    "verify_bounds",
    "flops_per_iteration",
]

# explicit nl x nl assemblies are oracles, not production paths; keep them small
MAX_ASSEMBLY_DIM = 400
# bytes of the complex products of one sample block of estimate_delta_inf
_SAMPLE_BLOCK_BYTES = 256 * 1024

BOUNDS = ("nonadaptive", "max-distance", "proportional", "capped")


def _as_weight(Q, n, l):
    if Q is None:
        return WeightQ.identity(n, l)
    if not isinstance(Q, WeightQ):
        return WeightQ.from_tensor(Q)
    return Q


def projector_tensor(A, Q, S):
    """The sketched projector Z for one sketch, assembled with oracle products.

    Z = Q^{-1/2} * A^T * S * pinv(S^T * A * Q^{-1} * A^T * S) * S^T * A * Q^{-1/2}
    is T-symmetric and idempotent; its block-circulant matrix is the
    orthogonal projector whose expectation drives every rate below.
    """
    A = np.asarray(A, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    Q = _as_weight(Q, A.shape[1], A.shape[2])
    At = ttranspose(A)
    Q_inv_half = Q.inv_sqrt_tensor()
    AtS = tprod_oracle(At, S)
    QAtS = tprod_oracle(Q_inv_half, tprod_oracle(Q_inv_half, AtS))  # Q^{-1} A^T S
    M = tprod_oracle(ttranspose(S), tprod_oracle(A, QAtS))
    G = tprod_oracle(S, tprod_oracle(tpinv(M), ttranspose(S)))
    W = tprod_oracle(At, tprod_oracle(G, A))
    return tprod_oracle(Q_inv_half, tprod_oracle(W, Q_inv_half))


def expected_projector(A, Q, sketches, p):
    """Explicit E_{i~p}[bcirc(Z_i)] and its smallest eigenvalue.

    The smallest eigenvalue is the squared rate constant of fixed-probability
    sampling, and the floor of the whole rate chain.  This is the
    block-circulant reference for :func:`per_slice_rates`.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n, l = A.shape
    if n * l > MAX_ASSEMBLY_DIM:
        raise ValueError(
            f"explicit projector assembly capped at nl <= {MAX_ASSEMBLY_DIM}, got {n * l}"
        )
    if sketches.per_slice:
        raise ValueError("expected_projector applies to spatial sketch sets")
    p = sketching.as_prob_rows(p, 1, sketches.q)[0]
    E = np.zeros((n * l, n * l))
    for i in range(sketches.q):
        E += p[i] * bcirc(projector_tensor(A, Q, sketches.member(i)))
    E = 0.5 * (E + E.T)
    return E, float(np.linalg.eigvalsh(E)[0])


def _slice_factors(A, Q, sketches):
    """Per-slice factors of every member's sketched projector.

    Returns AQ = A_k Q_k^{-1/2}, (h, m, n), NQ = S_i^H AQ and K = C^H NQ,
    both (h, q, tau, n), where C C^H = pinv(NQ NQ^H), so that slice k of
    member i's projector is K[k, i]^H K[k, i], and the multiplicities w of
    the h slices.  Every set keeps slices 0..l//2, whose mirrors hold the
    same spectra (a per-slice family is mirrored).  For spatial sets the
    pinv cutoff is relative to the member's largest slice, as in ``tpinv``
    and the solvers, so a slice that vanishes up to rounding gets a zero
    projector; per-slice sets cut each slice on its own scale.
    :func:`compute_rate_report` builds them once for the bodies below.
    """
    A = np.asarray(A, dtype=np.float64)
    AQ, w = _fourier_slices(A, _as_weight(Q, A.shape[1], A.shape[2]))
    NQ = sketches.sketch(AQ)
    C = batched_inv_factor(NQ @ np.conj(np.swapaxes(NQ, -1, -2)),
                           slice_axis=None if sketches.per_slice else 0)
    return AQ, NQ, np.conj(np.swapaxes(C, -1, -2)) @ NQ, w


def _expected_slice_lambdas(factors, p):
    """lambda_min of E_k = K_k^H diag(p_k) K_k for every kept slice k, where p
    is one simplex point or one per Fourier slice, shape (l, q)."""
    K, w = factors[2:]
    h, q, _, n = K.shape
    p = sketching.as_prob_rows(p, int(w.sum()), q)[:h]
    Kp = (K * np.sqrt(p)[..., None, None]).reshape(h, -1, n)
    return np.linalg.eigvalsh(np.conj(np.swapaxes(Kp, -1, -2)) @ Kp)[:, 0]


def per_slice_rates(A, Q, sketches, p):
    """lambda_min(E[Z_hat_k]) for every Fourier slice k, and their minimum.

    Works for spatial sets (every slice sees the same family; the minimum
    is then the smallest eigenvalue of the expected projector) and for
    per-slice sets (p may then be per-slice, shape (l, q)).
    """
    return _rates(_slice_factors(A, Q, sketches), p)


def _rates(factors, p):
    """:func:`per_slice_rates` of the factors: slice l - k repeats the lambda
    of its mirror k, which the factors hold."""
    lams, w = _expected_slice_lambdas(factors, p), factors[3]
    lams = np.concatenate([lams, lams[1:int(w.sum()) - w.size + 1][::-1]])  # none if h = l
    return lams, float(lams.min())


def closed_form_rate_bounds(A, Q, sketches):
    """Closed-form lower bounds on the fixed-sampling rate constant.

    Keys 'norm_weighted' (probabilities proportional to
    ||Q^{-1/2} * A^T * S_i||_F^2) and 'uniform' are certified lower bounds:
    per slice k they multiply lambda_min of the n x n Gram of the stacked
    sketched family, sum_i N_i^H N_i with N_i = S_i^H A_k Q_k^{-1/2}, by the
    exact smallest entry of the probability-scaled member-Gram inverse.
    For the norm-weighted rule the customary shortcut replaces that entry
    with one over the global family norm; that is only correct when the
    member Gram maxima do not vary across slices, and for depth > 1 it can
    exceed the exact constant, so the shortcut value is reported separately
    as 'norm_weighted_display'.  All bounds assume the
    complete-discrete-sampling property.
    """
    return _closed_form_bounds(_slice_factors(A, Q, sketches), sketches.per_slice)


def _closed_form_bounds(factors, per_slice):
    """:func:`closed_form_rate_bounds` of the factors, all minima over slices."""
    _, NQ, _, w = factors
    l, q, tau, _ = NQ.shape
    stacked = NQ.reshape(l, q * tau, -1)  # ragged padding rows are zero
    gram = np.conj(np.swapaxes(stacked, -1, -2)) @ stacked
    num = np.clip(np.linalg.eigvalsh(gram)[:, 0], 0.0, None)
    member_norm_sq = np.sum(np.abs(NQ) ** 2, axis=(2, 3))  # ||Q_k^{-1/2} A_k^H S_{k_i}||_F^2
    member_lmax = np.linalg.eigvalsh(NQ @ np.conj(np.swapaxes(NQ, -1, -2)))[..., -1]
    if per_slice:
        weights = member_norm_sq  # independent subsystems: per-slice norms
    else:  # the mean over all slices, mirrors counted by w
        weights = np.broadcast_to(w @ member_norm_sq / w.sum(), (l, q))
    # a zero Fourier slice (num = 0, zero member norms) gives 0/0: its bounds are 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = weights / weights.sum(axis=1, keepdims=True)
        dmin = np.where(member_lmax > 0, p / member_lmax, np.inf).min(axis=1)
        uniform = float(np.min(np.nan_to_num(num / (q * member_norm_sq.max(axis=1)))))
        display = float(np.min(np.nan_to_num(num / weights.sum(axis=1))))
    dmin[~np.isfinite(dmin)] = 0.0
    norm_weighted = float(np.min(num * dmin))
    return {
        "norm_weighted": norm_weighted,
        "uniform": uniform,
        "norm_weighted_display": display,
    }


def estimate_delta_inf(A, Q, sketches, p=None, n_samples=10_000, rng=None):
    """Sampled estimate of the worst-direction max projected energy.

    The exact quantity (a min over the range space of a max over the
    family) has no cheap closed form; we evaluate the max on sampled unit
    directions of the range space and keep the smallest value seen.  That
    can only overestimate the true minimum, while the fixed-sampling
    constant from the expected projector is an exact lower bound; both are
    returned as ``(estimate, lower_bound)``.  Spatial sets only.  The range,
    Range(bcirc(Q)^{-1/2} bcirc(A)^T), is slice k's row space of
    A_k Q_k^{-1/2} in the Fourier domain; real Gaussian directions projected
    onto it slice by slice stay real and, normalized, uniform on its sphere.
    Real data make slice l - k the conjugate of slice k, so only slices
    0..l//2 are scored, the others counted through their mirror.  Sample s
    is the s-th (l, n) draw of one sample-major stream, drawn and scored in
    blocks whose products share one buffer: memory is the factors plus one
    block of a fixed byte size whatever ``n_samples`` is, and no direction
    depends on the block size.  A system with no sampled direction in its
    range raises ``ValueError``.
    """
    if sketches.per_slice:
        raise ValueError("estimate_delta_inf applies to spatial sketch sets")
    _check_samples(n_samples)
    if p is None:
        p = sketching.prob_uniform(sketches.q)
    factors = _slice_factors(A, Q, sketches)
    lower = float(_expected_slice_lambdas(factors, p).min())  # ahead of the draw: one peak at a time
    return _max_energy_estimate(factors, n_samples, rng), lower


def _check_samples(n_samples):
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ValueError(f"n_samples must be at least 1 and an integer, got {n_samples!r}")


def _max_energy_estimate(factors, n_samples, rng):
    """The estimate of :func:`estimate_delta_inf` from a spatial set's factors."""
    if rng is None:
        rng = np.random.default_rng(0)
    AQ, _, K, w = factors  # slices 0..h-1 of l: their mirrors are conjugates
    h, m, n = AQ.shape
    l = int(w.sum())
    # the bcirc matrix's singular values are those of all slices together,
    # so its rank cutoff applies to the whole stack at once
    s, vh = np.linalg.svd(AQ, full_matrices=False)[1:]
    vh = vh * (s > max(m, n) * l * np.finfo(float).eps * s.max())[..., None]
    # slice k of the projected direction is P_k g_k, P_k = vh_k^H vh_k; then
    # v^T bcirc(Z_i) v = (1/l) sum_k w_k ||K_i[k] P_k g_k||^2 and ||v||^2 =
    # (1/l) sum_k w_k ||P_k g_k||^2 over k < h, w_k = 2 where l - k != k; one
    # product with M = [K P; P] gives both for a block of c samples
    P = np.conj(np.swapaxes(vh, -1, -2)) @ vh
    M = np.concatenate((K.reshape(h, -1, n) @ P, P), axis=1)
    r = M.shape[1]
    c = max(64, _SAMPLE_BLOCK_BYTES // (16 * h * r))
    block = np.empty(h * r * min(c, n_samples), dtype=np.complex128)  # each block's product: a prefix
    estimate = np.inf
    for j in range(0, n_samples, c):  # one sample-major stream, drawn a block at a time
        b = min(c, n_samples - j)
        G = np.fft.rfft(rng.standard_normal((b, l, n)).transpose(1, 2, 0).copy(), axis=0)
        X = np.matmul(M, G, out=block[:h * r * b].reshape(h, r, b)).view(np.float64)
        e = w @ np.square(X, out=X).reshape(h, -1)  # each entry's re^2 then im^2: add the pairs
        e = (e[0::2] + e[1::2]).reshape(r, b)
        energies, norms_sq = e[:-n].reshape(K.shape[1], -1, b).sum(axis=1), e[-n:].sum(0)
        live = norms_sq > 1e-24 * l
        if live.all():
            estimate = min(estimate, np.min(np.max(energies, axis=0) / norms_sq))
        elif live.any():
            estimate = min(estimate, np.min(np.max(energies[:, live], axis=0) / norms_sq[live]))
    if estimate == np.inf:
        raise ValueError("no sampled direction has a nonzero range component")
    return float(estimate)


@dataclass
class RateReport:
    """Spectral rate constants of one (system, weight, sketch set, p) setup."""

    delta_p_sq: float
    delta_inf_sq_lower: float
    delta_inf_sq_estimate: float
    per_slice_min_rate: float
    per_slice_lambdas: tuple
    q: int
    closed_form_bounds: dict = field(default_factory=dict)

    def rate(self, bound, theta=0.5):
        """Certified per-step contraction factor of one method family.

        'capped' substitutes the certified lower bound for the max-distance
        constant, which only loosens (never invalidates) the envelope.
        """
        if bound == "nonadaptive":
            return 1.0 - self.delta_p_sq
        if bound == "max-distance":
            return 1.0 - self.delta_p_sq  # delta_inf^2 >= delta_p^2
        if bound == "proportional":
            return 1.0 - (1.0 + 1.0 / self.q) * self.delta_p_sq
        if bound == "capped":
            return 1.0 - theta * self.delta_inf_sq_lower - (1.0 - theta) * self.delta_p_sq
        raise ValueError(f"unknown bound {bound!r}; choose from {BOUNDS}")

    def envelope(self, bound, t, theta=0.5):
        return self.rate(bound, theta) ** np.asarray(t, dtype=np.float64)

    def to_dict(self):
        return {
            "delta_p_sq": self.delta_p_sq,
            "delta_inf_sq_lower": self.delta_inf_sq_lower,
            "delta_inf_sq_estimate": self.delta_inf_sq_estimate,
            "per_slice_min_rate": self.per_slice_min_rate,
            "per_slice_lambdas": list(self.per_slice_lambdas),
            "q": self.q,
            "closed_form_bounds": dict(self.closed_form_bounds),
            # the geometric envelopes are (rate)^t with these constants
            "bound_rates": {bound: self.rate(bound) for bound in BOUNDS},
        }

    @classmethod
    def from_dict(cls, d):
        """The report of a JSON dict; a missing key raises ``ValueError``."""
        try:
            scalars = {k: d[k] for k in ("delta_p_sq", "delta_inf_sq_lower",
                                         "delta_inf_sq_estimate", "per_slice_min_rate", "q")}
            lambdas = tuple(d["per_slice_lambdas"])
        except KeyError as exc:
            raise ValueError(f"rate report lacks the key {exc}") from exc
        return cls(**scalars, per_slice_lambdas=lambdas,
                   closed_form_bounds=dict(d.get("closed_form_bounds", {})))


def compute_rate_report(A, Q, sketches, p=None, n_samples=2000, rng=None):
    """Assemble every rate constant for one configuration, from one build
    of the per-slice factors and one of the fixed-sampling constant."""
    _check_samples(n_samples)
    if p is None:
        p = sketching.prob_uniform(sketches.q)
    factors = _slice_factors(A, Q, sketches)
    lams, delta_p = _rates(factors, p)
    # per-slice families have no single spatial expected projector; the
    # per-slice minimum plays the role of the fixed-sampling constant
    delta_inf_est = (float("nan") if sketches.per_slice
                     else _max_energy_estimate(factors, n_samples, rng))
    return RateReport(
        delta_p_sq=delta_p,
        delta_inf_sq_lower=delta_p,
        delta_inf_sq_estimate=delta_inf_est,
        per_slice_min_rate=delta_p,
        per_slice_lambdas=tuple(float(x) for x in lams),
        q=sketches.q,
        closed_form_bounds=_closed_form_bounds(factors, sketches.per_slice),
    )


@dataclass
class BoundCheck:
    bound: str
    passed: bool
    worst_ratio: float
    worst_t: int
    rate: float
    detail: str = ""


def _padded_q_errors(records):
    """(runs, T+1) matrix of weighted squared errors, runs padded with their
    final value (iterating further could only have decreased the error, so
    padding is conservative for upper-bound checks)."""
    for r in records:
        steps = np.diff(r.t)
        if steps.size and not np.all(steps == 1):
            raise ValueError("bound verification needs record_every=1 traces")
        if np.any(np.isnan(r.q_error)):
            raise ValueError("bound verification needs runs with x_star known")
    T = max(r.t[-1] for r in records)
    out = np.empty((len(records), T + 1))
    for row, r in enumerate(records):
        out[row, : r.t[-1] + 1] = r.q_error
        out[row, r.t[-1] + 1:] = r.q_error[-1]
    return out


def verify_bounds(records, rates, bound, theta=0.5, slack=0.10, min_ensemble=30):
    """Check recorded runs against a method family's geometric envelope.

    Expectation bounds ('nonadaptive', 'proportional', 'capped') compare the
    ensemble mean weighted squared error with (rate)^t times its start value
    and tolerate ``slack`` of Monte-Carlo noise; they require at least
    ``min_ensemble`` runs.  'max-distance' is a per-run, per-step bound and
    is checked deterministically on every step with a meaningful error.
    """
    if bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; choose from {BOUNDS}")
    rate = rates.rate(bound, theta)

    if bound == "max-distance":
        worst, worst_t = -np.inf, -1
        limit = rate + 1e-9
        for r in records:  # the first maximum wins: records in order, then t
            qe = r.q_error
            if np.any(np.isnan(qe)):
                raise ValueError("bound verification needs runs with x_star known")
            ratios = np.full(qe.size - 1, -np.inf)
            np.divide(qe[1:], qe[:-1], out=ratios,
                      where=qe[:-1] > 1e-20 * max(qe[0], 1e-300))  # steps above the floor
            if ratios.size and ratios.max() > worst:
                t = int(np.argmax(ratios))
                worst, worst_t = float(ratios[t]), int(r.t[t])
        passed = worst <= limit
        return BoundCheck(
            bound, bool(passed), float(worst), worst_t, rate,
            f"max per-step decrease ratio {worst:.6g} vs certified {rate:.6g}",
        )

    if len(records) < min_ensemble:
        raise ValueError(
            f"{bound} bound is an expectation statement; need >= {min_ensemble} runs"
        )
    qe = _padded_q_errors(records)
    mean = qe.mean(axis=0)
    t = np.arange(mean.size)
    if bound == "proportional":
        # the proportional-rule envelope starts one step in
        envelope = mean[1] * rate ** np.clip(t - 1, 0, None)
        envelope[0] = mean[0]
    else:
        envelope = mean[0] * rate**t
    allowed = envelope * (1.0 + slack)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(allowed > 0, mean / allowed, np.where(mean > 0, np.inf, 0.0))
    worst_t = int(np.argmax(ratios))
    worst = float(ratios[worst_t])
    return BoundCheck(
        bound, bool(worst <= 1.0), worst, worst_t, rate,
        f"worst mean/envelope ratio {worst:.6g} at t={worst_t}",
    )


def flops_per_iteration(method, tau, q, n, p, l):
    """Closed-form per-iteration flop counts of the paper's cost table.

    The adaptive cells count the recursed-residual step the set states run.
    The NTSP and NTSP-II cells are the paper's, not the code's path: the
    fixed rules run on the direct state, which forms the drawn members'
    residuals from the iterate.  The two cells that are only known up to a
    constant (the nonadaptive real-part variant, and the max-distance
    real-part variant at tau=1) return their leading product.
    """
    for name, v in (("tau", tau), ("q", q), ("n", n), ("p", p), ("l", l)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    method = method.upper()
    if method == "NTSP":
        return 2 * tau * p * l * min(n, tau * q) + 2 * tau * n * p * l
    if method == "NTSP-II":
        return tau * p * l * n  # order of magnitude
    if method == "ATSP-MD-II" and tau == 1:
        return max(q, n) * p * l  # order of magnitude
    # the adaptive rules: per-member loss updates plus the rule's own work c,
    # then one step; spatial losses pay one more flop per member when l > 1
    c = {"ATSP-MD": 0, "ATSP-PR": 1, "ATSP-CS": 5}.get(method.removesuffix("-II"))
    if c is None:
        raise ValueError(f"no cost formula for method {method!r}")
    step = 2 * tau * n * p * l
    if method.endswith("-II"):
        return (2 * tau**2 * p + 2 * tau * p + c) * q * l + step
    c -= method == "ATSP-MD" and tau == 1
    return (2 * tau**2 * p * l + 2 * tau * p * l + c + (l > 1)) * q + step

