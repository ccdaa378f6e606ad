"""Shared oracles for the test suite.

Everything here goes through the block-circulant matrices, direct
summation or dense sketch members, never through the package's Fourier
fast paths or row gathers, so agreement between the two routes is
meaningful.  The one exception is :func:`reference_solve`, which replays
the solver loop on the states' own calls so that the record rows can be
checked apart from the iteration.
"""

import numpy as np

from tubalsketch.solvers import make_state
from tubalsketch.t_algebra import (
    PINV_RELCUT,
    WeightQ,
    batched_hpinv,
    batched_inv_factor,
    bcirc,
    fold,
    identity,
    tprod_oracle,
    ttranspose,
    unfold,
)


def rand_tubal(rng, m, n, l):
    return rng.standard_normal((m, n, l))


def naive_dft3(X):
    """O(l^2) direct DFT summation along the depth axis."""
    m, n, l = X.shape
    out = np.zeros((m, n, l), dtype=np.complex128)
    for k in range(l):
        for j in range(l):
            out[:, :, k] += X[:, :, j] * np.exp(-2j * np.pi * j * k / l)
    return out


def naive_idft3(F):
    """O(l^2) direct inverse DFT along the depth axis (complex result)."""
    m, n, l = F.shape
    out = np.zeros((m, n, l), dtype=np.complex128)
    for k in range(l):
        for j in range(l):
            out[:, :, k] += F[:, :, j] * np.exp(2j * np.pi * j * k / l)
    return out / l


def bcirc_block_column(M, m, n, l):
    """First block column of an (m*l, n*l) block-circulant matrix as a tensor."""
    X = np.empty((m, n, l))
    for k in range(l):
        X[:, :, k] = M[k * m:(k + 1) * m, :n]
    return X


def row_action_step_oracle(A, B, X, i):
    """Closed-form single-horizontal-slice step computed with the
    block-circulant oracle products (the identity-weight specialization)."""
    Ai = np.ascontiguousarray(A[i:i + 1])
    Bi = np.ascontiguousarray(B[i:i + 1])
    l = A.shape[2]
    gram = bcirc(tprod_oracle(Ai, ttranspose(Ai)))
    pinv_gram = bcirc_block_column(np.linalg.pinv(gram, rcond=l * PINV_RELCUT), 1, 1, l)
    resid = tprod_oracle(Ai, X) - Bi
    return X - tprod_oracle(ttranspose(Ai), tprod_oracle(pinv_gram, resid))


def sp_step_direct(A, B, X, S, Q=None, relcut=PINV_RELCUT):
    """One sketch-and-project step evaluated on the block-circulant matrices.

    This is the slow spatial-domain route (no depth transform anywhere); it
    is the independent cross-check for the Fourier fast paths.
    """
    A = np.asarray(A, dtype=np.float64)
    l = A.shape[2]
    Ab = bcirc(A)
    Sb = bcirc(np.asarray(S, dtype=np.float64))
    Xu = unfold(X)
    Bu = unfold(B)
    if Q is None:
        Qb_inv = np.eye(Ab.shape[1])
    else:
        Qbase = Q.base if isinstance(Q, WeightQ) else Q
        Qb_inv = np.linalg.inv(bcirc(Qbase))
    N = Sb.T @ Ab
    M = N @ Qb_inv @ N.T
    G = np.linalg.pinv(M, rcond=M.shape[0] * relcut)
    step = Qb_inv @ N.T @ (G @ ((N @ Xu) - Sb.T @ Bu))
    return fold(Xu - step, l)


def stacked_step_oracle(Ah, Bh, Qinv, members, Xh, idx):
    """One TSP-I step on the Re/Im-stacked sketched system.

    Slice k is sketched by its drawn dense member ``members[k][idx[k]]``; the
    sketched slices are inverse-transformed, their real and imaginary parts
    stacked into a real system of doubled sketch size, which is transformed
    back and projected onto slice by slice.  Arrays are slices-first
    (l, ., .); returns the new Xh.
    """
    S = [np.asarray(members[k][i], dtype=np.complex128) for k, i in enumerate(idx)]
    Acheck = np.stack([S_k.conj().T @ Ah[k] for k, S_k in enumerate(S)])
    Bcheck = np.stack([S_k.conj().T @ Bh[k] for k, S_k in enumerate(S)])
    Atil = np.fft.ifft(Acheck, axis=0)
    Btil = np.fft.ifft(Bcheck, axis=0)
    As = np.concatenate([Atil.real, Atil.imag], axis=1)  # real (l, 2tau, n)
    Bs = np.concatenate([Btil.real, Btil.imag], axis=1)
    Ash = np.fft.fft(As.astype(np.complex128), axis=0)
    Bsh = np.fft.fft(Bs.astype(np.complex128), axis=0)
    QiAH = Qinv @ np.conj(np.swapaxes(Ash, -1, -2))  # (l, n, 2tau)
    G = batched_hpinv(Ash @ QiAH)
    return Xh - QiAH @ (G @ ((Ash @ Xh) - Bsh))


def direct_step_oracle(tables, Xh, idx):
    """One TSP-II step from per-member tables (l, q, ...) ``tables["N"]``,
    ``["NH"]``, ``["SB"]`` and ``["G"]``: gather member idx[k] of every
    slice k and project Xh (l, n, p) onto it, Xh - NH G (N Xh - SB)."""
    member = (np.arange(len(idx)), idx)
    N, NH, SB, G = (tables[name][member] for name in ("N", "NH", "SB", "G"))
    return Xh - NH @ (G @ ((N @ Xh) - SB))


def _full_spectrum(A, B, X, Q):
    Ah, Bh, Xh = (naive_dft3(np.asarray(T, dtype=np.float64)) for T in (A, B, X))
    l = Ah.shape[2]
    if Q is None:
        Qinv = [np.eye(Ah.shape[1])] * l
    else:
        Qh = naive_dft3(Q.base if isinstance(Q, WeightQ) else Q)
        Qinv = [np.linalg.inv(Qh[:, :, k]) for k in range(l)]
    return Ah, Bh, Xh, Qinv


def _slice_system(Ah, Bh, Xh, Qinv, Sk, k):
    """(Q^{-1} N^H, pinv(N Q^{-1} N^H), N X - S^H B) of Fourier slice k,
    sketched by its (m, tau) member Sk."""
    SH = Sk.conj().T
    N = SH @ Ah[:, :, k]
    QiNH = Qinv[k] @ N.conj().T
    return QiNH, np.linalg.pinv(N @ QiNH), N @ Xh[:, :, k] - SH @ Bh[:, :, k]


def full_spectrum_step(A, B, X, S, Q=None):
    """One sketch-and-project step on the spatial tensors, projected on
    every one of the l Fourier slices separately (no conjugate symmetry
    used), with the depth transform by direct summation."""
    Ah, Bh, Xh, Qinv = _full_spectrum(A, B, X, Q)
    Sh = naive_dft3(np.asarray(S, dtype=np.float64))
    for k in range(Ah.shape[2]):
        QiNH, G, r = _slice_system(Ah, Bh, Xh, Qinv, Sh[:, :, k], k)
        Xh[:, :, k] -= QiNH @ (G @ r)
    out = naive_idft3(Xh)
    assert np.linalg.norm(out.imag) <= 1e-12 * max(np.linalg.norm(out.real), 1.0)
    return out.real


def full_spectrum_losses(A, B, X, members, Q=None):
    """Sketched loss of every spatial member at X: (1/l) sum over all l
    Fourier slices of tr(r^H pinv(N Q^{-1} N^H) r), r = N X - S^H B."""
    Ah, Bh, Xh, Qinv = _full_spectrum(A, B, X, Q)
    l = Ah.shape[2]
    losses = np.zeros(len(members))
    for i, S in enumerate(members):
        Sh = naive_dft3(np.asarray(S, dtype=np.float64))
        for k in range(l):
            _, G, r = _slice_system(Ah, Bh, Xh, Qinv, Sh[:, :, k], k)
            losses[i] += np.trace(r.conj().T @ G @ r).real / l
    return losses


def per_slice_iterates(A, B, sketches, chosen, Q=None):
    """The iterates of per-slice sketch-and-project from X_0 = 0: step t
    projects every Fourier slice k on member ``chosen[t][k]`` of its family
    (-1 leaves the slice), in the Q-norm, each slice on its own.  Each
    iterate is returned as its complex (n, p, l) inverse transform, all by
    direct summation: it is real only when slice l - k's choices are slice
    k's."""
    Ah, Bh, Xh, Qinv = _full_spectrum(A, B, np.zeros((A.shape[1], B.shape[1], A.shape[2])), Q)
    iterates = [naive_idft3(Xh)]
    for idx in chosen:
        for k, j in enumerate(idx):
            if j >= 0:
                QiNH, G, r = _slice_system(Ah, Bh, Xh, Qinv, sketches.members[k][j], k)
                Xh[:, :, k] -= QiNH @ (G @ r)
        iterates.append(naive_idft3(Xh))
    return iterates


def dense_per_slice_record(A, B, config, x_star):
    """A record-every-step run of a per-slice method (TSP-I, TSP-II, NTSP-II,
    ATSP-MD/PR/CS-II) from X_0 = 0 on dense members, every one of the l
    Fourier slices projected on its own in the X-space Q-norm, transforms
    by direct summation.  Slices 0..l//2 draw from the solver's streams
    SeedSequence([seed, 2, k]), one uniform per stream and iteration (none
    for the max rule), by the inverse-CDF rule; slice l - k takes slice k's
    draw.  TSP-I draws every slice from a stream of its own and steps by
    :func:`stacked_step_oracle`.  Probabilities are uniform or
    'fourier-row-norm'.  Returns the fields of ``data/seeded_records.json``:
    iterations, the rows' epsilon, q_error, chosen (None first), loss_max,
    loss_sum and pr_variance_factor over all l slices' losses (NaN where the
    rule reads none), and the final X flattened."""
    method, sketches = config.method, config.sketches
    l, q, n, p = A.shape[2], sketches.q, A.shape[1], B.shape[1]
    rule = {"ATSP-MD-II": "md", "ATSP-PR-II": "pr", "ATSP-CS-II": "cs"}.get(method, "fixed")
    Ah, Bh, Xh, Qinv = _full_spectrum(A, B, np.zeros((n, p, l)), config.weight)
    Qh = None if config.weight is None else naive_dft3(config.weight.base)
    if config.probabilities == "fourier-row-norm":  # ||Q_k^{-1/2} A_k^H e_i||^2 per slice
        w = np.array([np.diag(Ah[:, :, k] @ Qinv[k] @ Ah[:, :, k].conj().T).real
                      for k in range(l)])
        probs = w / w.sum(axis=1, keepdims=True)
    else:
        assert config.probabilities is None
        probs = np.full((l, q), 1.0 / q)
    streams = [np.random.default_rng([config.seed, 2, k])
               for k in range(l if method == "TSP-I" else l // 2 + 1)]
    systems = []  # per slice and member: Q^{-1} N^H, pinv(N Q^{-1} N^H), N and S^H B
    for k in range(l):
        systems.append([])
        for S in sketches.members[k]:
            N = S.conj().T @ Ah[:, :, k]
            QiNH = Qinv[k] @ N.conj().T
            systems[k].append((QiNH, np.linalg.pinv(N @ QiNH), N, S.conj().T @ Bh[:, :, k]))

    def errors():  # X and its errors; ||Q^{1/2} * D||_F^2 = (1/l) sum_k tr(D_k^H Q_k D_k)
        X = naive_idft3(Xh)
        assert np.linalg.norm(X.imag) <= 1e-12 * max(np.linalg.norm(X.real), 1.0)
        D = X.real - x_star
        Dh = naive_dft3(D)
        qe = np.linalg.norm(D) ** 2 if Qh is None else sum(
            np.trace(Dh[:, :, k].conj().T @ Qh[:, :, k] @ Dh[:, :, k]).real for k in range(l)) / l
        return X.real, np.linalg.norm(D) / np.linalg.norm(x_star), qe

    X, eps, qe = errors()
    rows = [(eps, qe, None, np.nan, np.nan)]
    while eps >= config.tol and len(rows) <= config.max_iters:
        losses = np.array([[np.trace(r.conj().T @ G @ r).real for _, G, N, SB in systems[k]
                            for r in [N @ Xh[:, :, k] - SB]] for k in range(l)])
        idx = []
        for k, stream in enumerate(streams):
            if rule == "md":
                idx.append(int(np.argmax(losses[k])) if losses[k].max() > 0 else -1)
                continue
            weights = probs[k] if rule == "fixed" else losses[k]
            if rule == "cs":
                top = losses[k].max()
                cut = min(config.theta * top + (1 - config.theta) * (probs[k] @ losses[k]), top)
                weights = np.where(losses[k] >= cut, losses[k], 0.0)
            cum, u = np.cumsum(weights), stream.random()
            idx.append(-1 if cum[-1] <= 0 else int(np.sum(cum[:-1] <= u * cum[-1])))
        if method == "TSP-I":
            Yh = stacked_step_oracle(*(np.moveaxis(T, 2, 0) for T in (Ah, Bh)), np.stack(Qinv),
                                     sketches.members, np.moveaxis(Xh, 2, 0), idx)
            Xh = np.ascontiguousarray(np.moveaxis(Yh, 0, 2))
        else:
            idx = [idx[min(k, l - k)] for k in range(l)]
            for k, j in enumerate(idx):
                if j >= 0:
                    QiNH, G, N, SB = systems[k][j]
                    Xh[:, :, k] -= QiNH @ (G @ (N @ Xh[:, :, k] - SB))
        X, eps, qe = errors()
        stats = (np.nan, np.nan) if rule == "fixed" else (losses.max(), losses.sum())
        rows.append((eps, qe, tuple(idx), *stats))
    return {"iterations": len(rows) - 1, "epsilon": [r[0] for r in rows],
            "chosen": [r[2] for r in rows], "x": X.ravel().tolist(),
            "q_error": [r[1] for r in rows], "loss_max": [r[3] for r in rows],
            "loss_sum": [r[4] for r in rows], "pr_variance_factor": [np.nan] * len(rows)}


def tpinv_via_bcirc(X):
    """Moore-Penrose inverse through the block-circulant route."""
    m, n, l = X.shape
    P = np.linalg.pinv(bcirc(X))
    return bcirc_block_column(P, n, m, l)


def spd_weight_tensor(rng, n, l, shift=0.5):
    """A generic T-SPD tensor: a Gram tensor plus a multiple of the identity."""
    F = rand_tubal(rng, n, n, l)
    return tprod_oracle(ttranspose(F), F) + shift * identity(n, l)


def conv2d_circular(img, ker):
    """Direct (shift-and-add) 2-D circular convolution; the reference the
    deblurring operator is checked against."""
    out = np.zeros_like(img, dtype=np.float64)
    rows, cols = np.nonzero(ker)
    for a, b in zip(rows, cols):
        out += ker[a, b] * np.roll(np.roll(img, a, axis=0), b, axis=1)
    return out


def circ_conv_tubes(x, y):
    """Circular convolution of two length-l tubes by direct summation."""
    l = x.size
    out = np.zeros(l)
    for k in range(l):
        for j in range(l):
            out[k] += x[j] * y[(k - j) % l]
    return out


def dense_set_tables(A, B, sketches, Q=None):
    """Cached-path tables from dense members: every member's depth transform
    multiplied out in full, as the setup did before sketches became row
    indices, on the system whitened by a WeightQ ``Q``, A_k Q_k^{-1/2}, as
    the states keep it.  Returns N, NH (N^H), SB, C, cross and step_map on
    all l slices in the state's layout, (l, q, ...), with cross[k, j] the
    (q tau, tau) column j of the cross products of slice k."""
    Ah = np.fft.fft(np.moveaxis(np.asarray(A, dtype=np.complex128), 2, 0), axis=0)
    Bh = np.fft.fft(np.moveaxis(np.asarray(B, dtype=np.complex128), 2, 0), axis=0)
    if Q is not None and not Q.is_identity:
        Ah = Ah @ Q.inv_sqrt
    AH = np.conj(np.swapaxes(Ah, -1, -2))
    if sketches.per_slice:
        S = np.stack([np.stack(sketches.members[k]) for k in range(sketches.l)])
        S = S.astype(np.complex128)  # (l, q, m, tau)
        N = np.conj(np.swapaxes(S, -1, -2)) @ Ah[:, None]
        NH = AH[:, None] @ S
        SB = np.conj(np.swapaxes(S, -1, -2)) @ Bh[:, None]
        C = batched_inv_factor(N @ NH)
        spec = "kiab,kjbc->kijac"
    else:
        Sh = np.stack([sketches.member_hat(i) for i in range(sketches.q)])
        N = np.conj(np.swapaxes(Sh, -1, -2)) @ Ah  # (q, l, tau, n)
        NH = AH[None] @ Sh
        SB = np.conj(np.swapaxes(Sh, -1, -2)) @ Bh
        C = batched_inv_factor(N @ NH, slice_axis=1)
        spec = "ikab,jkbc->ijkac"
    step_map = NH @ C
    CH = np.conj(np.swapaxes(C, -1, -2))
    cross = np.einsum(spec, CH @ N, step_map, optimize=True)
    # to (l, q_j, q_i, tau, tau), then to (l, q, q tau, tau)
    cross = np.moveaxis(cross, (0, 1, 2), (2, 1, 0) if spec[0] == "i" else (0, 2, 1))
    tables = {"N": N, "NH": NH, "SB": SB, "C": C, "step_map": step_map}
    if not sketches.per_slice:
        tables = {name: np.swapaxes(T, 0, 1) for name, T in tables.items()}
    q, tau = cross.shape[1], cross.shape[-1]
    return {**tables, "cross": cross.reshape(sketches.l, q, q * tau, tau)}


def slice_family(sketches, k):
    """Family of slice k: per-slice members, or the (constant) Fourier
    slice of each spatial member."""
    if sketches.per_slice:
        return sketches.members[k]
    return [sketches.member_hat(i)[k] for i in range(sketches.q)]


def rank_loop_complete(A, sketches, relcut=1e-10):
    """Complete-discrete-sampling verdict from one rank call per member and
    slice on dense members, with the absolute tolerance relcut * max(shape)."""
    Ah = np.moveaxis(np.fft.fft(np.asarray(A, dtype=np.complex128), axis=2), 2, 0)
    n = Ah.shape[2]
    for k in range(sketches.l):
        stacked = []
        for S in slice_family(sketches, k):
            SA = S.conj().T @ Ah[k]
            if np.linalg.matrix_rank(SA, tol=relcut * max(SA.shape)) < S.shape[1]:
                return False
            stacked.append(SA)
        stacked = np.vstack(stacked)
        if np.linalg.matrix_rank(stacked, tol=relcut * max(stacked.shape)) < n:
            return False
    return True


def _weight_and_slices(A, Q):
    A = np.asarray(A, dtype=np.float64)
    m, n, l = A.shape
    if Q is None:
        Q = WeightQ.identity(n, l)
    elif not isinstance(Q, WeightQ):
        Q = WeightQ.from_tensor(Q)
    return Q, np.moveaxis(np.fft.fft(A.astype(np.complex128), axis=2), 2, 0)


def slice_rates_loop(A, Q, sketches, p):
    """lambda_min of sum_i p_i Z_hat_i[k] per slice k, one dense projector per
    member and slice, each slice's pinv cut on its own scale (the reference
    for per-slice sets)."""
    Q, Ah = _weight_and_slices(A, Q)
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), (sketches.l, sketches.q))
    lams = np.empty(sketches.l)
    for k in range(sketches.l):
        E = 0
        for i, S_k in enumerate(slice_family(sketches, k)):
            NQ = S_k.conj().T @ Ah[k] @ Q.inv_sqrt[k]
            M = NQ @ NQ.conj().T
            G = np.linalg.pinv(M, rcond=M.shape[0] * PINV_RELCUT)
            E = E + p[k, i] * (NQ.conj().T @ G @ NQ)
        lams[k] = np.linalg.eigvalsh(0.5 * (E + E.conj().T))[0]
    return lams


def closed_form_bounds_loop(A, Q, sketches):
    """closed_form_rate_bounds with one stacked Gram per slice and one member
    Gram per member and slice, built from the dense members."""
    Q, Ah = _weight_and_slices(A, Q)
    l, q = sketches.l, sketches.q
    num = np.empty(l)
    member_norm_sq = np.empty((l, q))
    member_lmax = np.empty((l, q))
    for k in range(l):
        family = slice_family(sketches, k)
        stacked = np.hstack([np.asarray(S, dtype=np.complex128) for S in family])
        QAS = Q.inv_sqrt[k] @ Ah[k].conj().T @ stacked
        G = QAS @ QAS.conj().T
        num[k] = max(float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[0].real), 0.0)
        for i, S_k in enumerate(family):
            K = Q.inv_sqrt[k] @ Ah[k].conj().T @ np.asarray(S_k, np.complex128)
            member_norm_sq[k, i] = np.linalg.norm(K) ** 2
            gram = K.conj().T @ K
            member_lmax[k, i] = float(
                np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1].real
            )
    if sketches.per_slice:
        weights = member_norm_sq
    else:
        weights = np.broadcast_to(
            np.mean(member_norm_sq, axis=0, keepdims=True), (l, q)
        )
    p = weights / weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dmin = np.where(member_lmax > 0, p / member_lmax, np.inf).min(axis=1)
    dmin[~np.isfinite(dmin)] = 0.0
    return {
        "norm_weighted": float(np.min(num * dmin)),
        "uniform": float(np.min(num / (q * member_norm_sq.max(axis=1)))),
        "norm_weighted_display": float(np.min(num / weights.sum(axis=1))),
    }


def reference_solve(A, B, config, x_star=None, iterates=None):
    """The solver loop of :func:`tubalsketch.solvers.solve` on ``make_state``'s
    public calls, one row at a time into Python lists: each logged row takes
    ``float(losses.max())``, ``float(losses.sum())`` (per-slice losses of
    the kept slices, slice k counted w_k times: the losses of the slices
    with a mirror are added once more) and, for ATSP-PR, the variance factor
    1 + q^2 Var(losses / total) of those losses on its own; only the rules
    that read their losses log them.  A per-slice choice of the kept slices
    is recorded for all l, slice l - k taking slice k's.
    Returns (X, rows, stop_reason), a row being (t, epsilon, q_error,
    loss_max, loss_sum, pr_variance_factor, chosen).  No audit runs.  Each
    row's iterate ``x()`` is appended to the list ``iterates`` if one is
    given."""
    assert not config.audit_every
    state = make_state(A, B, config, x_star)
    rows = []

    def variance_factor(losses):
        total = losses.sum()
        if state.method != "ATSP-PR" or total <= 0:
            return np.nan
        pt = losses / total
        return float(1.0 + state.q * state.q * (np.mean(pt**2) - np.mean(pt) ** 2))

    def log(eps, diff_norm, chosen=None, losses=None):
        stats = (np.nan,) * 3 if losses is None else (
            float(losses.max()), float(losses.sum() + losses[1:state.l - state.h + 1].sum()
                                       if losses.ndim == 2 else losses.sum()),
            variance_factor(losses))
        if chosen is not None and state.method != "TSP":  # a fresh sketch is not recorded
            c, l = [int(j) for j in np.atleast_1d(chosen)], state.l
            chosen = (int(chosen) if not np.ndim(chosen) else tuple(c) if len(c) == l
                      else tuple(c[min(k, l - k)] for k in range(l)))
        else:
            chosen = None
        rows.append((state.t, eps, state.q_error(diff_norm), *stats, chosen))
        if iterates is not None:
            iterates.append(state.x())

    eps, diff_norm = state._errors()
    eps0 = max(eps, 1e-300)
    log(eps, diff_norm)
    converged, stop = eps < config.tol, ""
    while not converged and not stop and state.t < config.max_iters:
        losses = state.losses() if state.adaptive else None
        chosen = state.select(losses)
        if chosen is None:
            converged, stop = True, "zero_loss"
            break
        state.step(chosen)
        eps, diff_norm = state._errors()
        if not eps <= 1e3 * eps0:
            stop = "diverged"
        if stop or state.t % config.record_every == 0 or eps < config.tol:
            log(eps, diff_norm, chosen, losses)
        converged = eps < config.tol
    if rows[-1][0] != state.t:
        log(*state._errors())
    return state.x(), rows, stop or ("tol" if converged else "max_iters")
