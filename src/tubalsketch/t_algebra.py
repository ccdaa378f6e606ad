"""Tubal (third-order tensor) linear algebra under the t-product.

A real tensor of shape ``(m, n, l)`` is treated as an m x n matrix whose
entries are tubes of length ``l``.  Frontal slice k is ``X[:, :, k]``.

Transform convention used throughout the package: the depth transform
``dft3`` is the *unnormalized* DFT along the third axis (``numpy.fft.fft``)
and the inverse carries the 1/l factor.  Under this scaling

    ||X||_F^2 == (1/l) * sum_k ||dft3(X)[:, :, k]||_F^2,

so every Fourier-domain norm formula in the package carries an explicit
1/l.  ``bcirc`` is block-diagonalized by the unitary depth DFT, which is
what makes the per-slice implementations below equivalent to the
block-circulant ones.  They work on the slices-first stack (l, m, n) of
``fft_slices``, which ``ifft_slices`` maps back; ``rfft_slices`` and
``irfft_slices`` do the same with slices 0..l//2 of a real tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "bcirc",
    "identity",
    "dft3",
    "fft_slices",
    "ifft_slices",
    "rfft_slices",
    "irfft_slices",
    "tprod",
    "tprod_oracle",
    "ttranspose",
    "tpinv",
    "batched_inv_factor",
    "batched_hpinv",
    "is_t_spd",
    "t_sqrt",
    "fnorm",
    "WeightQ",
    "weighted_fnorm",
]

# Imaginary residue larger than this (relative to the real part) after an
# inverse transform of data that should be real indicates an algebra bug
# upstream; raise instead of silently truncating.
IMAG_TOL = 1e-9

# Singular values below max(m, n) * sigma_max * PINV_RELCUT are treated as
# zero by every pseudoinverse in the package.
PINV_RELCUT = 1e-12


def _as_tubal(X, name="tensor"):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"{name} must be a third-order tensor, got ndim={X.ndim}")
    return X


def unfold(X):
    """Stack the frontal slices of ``X`` vertically into an (m*l, n) matrix."""
    X = _as_tubal(X)
    m, n, l = X.shape
    return np.moveaxis(X, 2, 0).reshape(m * l, n)


def fold(M, depth):
    """Inverse of :func:`unfold`; ``depth`` is the number of frontal slices."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] % depth != 0:
        raise ValueError(f"cannot fold shape {M.shape} into {depth} frontal slices")
    m = M.shape[0] // depth
    return np.moveaxis(M.reshape(depth, m, M.shape[1]), 0, 2)


def bcirc(X):
    """Block-circulant matrix of ``X``: block (r, c) is frontal slice (r-c) mod l."""
    X = _as_tubal(X)
    m, n, l = X.shape
    out = np.empty((m * l, n * l))
    for r in range(l):
        for c in range(l):
            out[r * m:(r + 1) * m, c * n:(c + 1) * n] = X[:, :, (r - c) % l]
    return out


def identity(n, l):
    """Identity tubal matrix: slice 0 is I_n, the other slices are zero."""
    X = np.zeros((n, n, l))
    X[:, :, 0] = np.eye(n)
    return X


def dft3(X):
    """Unnormalized DFT along the depth axis; returns complex (m, n, l)."""
    return np.fft.fft(np.asarray(X, dtype=np.complex128), axis=2)


def fft_slices(X):
    """Depth DFT of an (a, b, l) tensor as a slices-first stack (l, a, b).

    This is the layout every per-slice computation of the package works in:
    ``fft_slices(X)[k]`` is Fourier slice k, equal to ``dft3(X)[:, :, k]``.
    """
    return np.fft.fft(np.moveaxis(np.asarray(X, dtype=np.complex128), 2, 0), axis=0)


def ifft_slices(F, force_real=False):
    """Inverse of :func:`fft_slices`: slices-first (l, a, b) to real (a, b, l).

    Raises ``ValueError`` if the imaginary residue exceeds ``IMAG_TOL``
    relative to the real part; ``force_real`` skips that check and keeps
    the real part, for iterates whose conjugate symmetry is not maintained.
    """
    Y = np.fft.ifft(F, axis=0)
    if not force_real:
        imag, real = np.linalg.norm(Y.imag), np.linalg.norm(Y.real)
        if imag > IMAG_TOL * real + 1e-300:
            raise ValueError(
                f"inverse transform is not real: |imag|={imag:.3e}, |real|={real:.3e}"
            )
    return np.ascontiguousarray(np.moveaxis(Y.real, 0, 2))


def rfft_slices(X):
    """Slices 0..l//2 of :func:`fft_slices` as a C-contiguous stack, cut
    from the full transform, so equal to its slices bit for bit."""
    F = fft_slices(X)
    return np.ascontiguousarray(F[:F.shape[0] // 2 + 1])


def irfft_slices(F, l):
    """Inverse of :func:`rfft_slices`: slices 0..l//2 to the real (a, b, l).

    The other slices are the conjugate mirrors, so the slices that are
    their own mirror, 0 and l/2, must be real; unlike ``numpy.fft.irfft``,
    this raises ``ValueError`` as :func:`ifft_slices` does when they are not.
    """
    return ifft_slices(np.concatenate([F, np.conj(F[1:l - len(F) + 1][::-1])]))


def tprod(X, Y):
    """t-product of X (m, n, l) and Y (n, p, l) via per-slice Fourier products."""
    X, Y = _as_tubal(X, "X"), _as_tubal(Y, "Y")
    if X.shape[1] != Y.shape[0] or X.shape[2] != Y.shape[2]:
        raise ValueError(f"t-product shape mismatch: {X.shape} * {Y.shape}")
    return ifft_slices(fft_slices(X) @ fft_slices(Y))


def tprod_oracle(X, Y):
    """t-product computed literally as fold(bcirc(X) @ unfold(Y)).

    Slower than :func:`tprod` but independent of the transform path; used
    as the reference for every Fourier-domain operation.
    """
    X, Y = _as_tubal(X, "X"), _as_tubal(Y, "Y")
    if X.shape[1] != Y.shape[0] or X.shape[2] != Y.shape[2]:
        raise ValueError(f"t-product shape mismatch: {X.shape} * {Y.shape}")
    return fold(bcirc(X) @ unfold(Y), X.shape[2])


def ttranspose(X):
    """Tubal transpose: transpose every slice and reverse slices 2..l."""
    X = _as_tubal(X)
    m, n, l = X.shape
    out = np.empty((n, m, l))
    out[:, :, 0] = X[:, :, 0].T
    for k in range(1, l):
        out[:, :, k] = X[:, :, l - k].T
    return out


def tpinv(X):
    """Moore-Penrose inverse: per-frontal-slice pinv in the Fourier domain.

    The rank cutoff is relative to the largest singular value across all
    slices (the block-circulant matrix's scale), so a slice that vanishes up
    to rounding is treated as zero instead of having its noise inverted.
    """
    X = _as_tubal(X)
    m, n, l = X.shape
    F = fft_slices(X)
    u, s, vh = np.linalg.svd(F, full_matrices=False)
    cut = max(m, n) * PINV_RELCUT * (s.max() if s.size else 0.0)
    sinv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    out = np.conj(np.swapaxes(vh, -1, -2)) @ (
        sinv[..., None] * np.conj(np.swapaxes(u, -1, -2))
    )
    return ifft_slices(out)


def batched_inv_factor(M, slice_axis=None):
    """Factor C with C C^H = pinv(M) for a stack of Hermitian PSD matrices.

    Rank-deficient (including all-zero) matrices yield zero columns, which
    downstream become zero residual rows and skipped update components.
    ``slice_axis`` names the stack axis that holds the Fourier slices of one
    and the same sketched system; the rank cutoff is then relative to that
    system's largest eigenvalue, so slices that vanish up to transform
    rounding are dropped instead of inverted.
    """
    M = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    lam, U = np.linalg.eigh(M)
    # np.maximum, not np.clip: the same values with less overhead per call,
    # which TSP pays every iteration
    lmax = np.maximum(lam[..., -1:], 0.0)
    if slice_axis is not None:
        lmax = lmax.max(axis=slice_axis, keepdims=True)
    cut = lmax * (M.shape[-1] * PINV_RELCUT)
    inv = np.where(lam > cut, 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)
    return U * inv[..., None, :]


def batched_hpinv(M, slice_axis=None):
    """pinv of a stack of Hermitian PSD matrices, as C C^H of
    :func:`batched_inv_factor`."""
    C = batched_inv_factor(M, slice_axis)
    return C @ np.conj(np.swapaxes(C, -1, -2))


def is_t_spd(X, tol=1e-10):
    """True iff every Fourier slice is Hermitian (to tol) with lambda_min > tol."""
    X = _as_tubal(X)
    if X.shape[0] != X.shape[1]:
        raise ValueError(f"square frontal slices required, got shape {X.shape}")
    F = fft_slices(X)
    FH = np.conj(np.swapaxes(F, -1, -2))
    scale = np.maximum(1.0, np.linalg.norm(F, axis=(1, 2)))
    if np.any(np.linalg.norm(F - FH, axis=(1, 2)) > tol * scale):
        return False
    return bool(np.all(np.linalg.eigvalsh(0.5 * (F + FH))[:, 0] > tol))


def t_sqrt(X):
    """Square root R of a T-SPD tensor, tprod(R, R) == X."""
    return WeightQ.from_tensor(X).sqrt_tensor()


def fnorm(X):
    return float(np.linalg.norm(X))


@dataclass(frozen=True)
class WeightQ:
    """T-SPD weight with cached per-slice functions of its Fourier slices.

    The caches hold, for every frontal slice k of the depth transform,
    Q_k^{-1}, Q_k^{-1/2} and Q_k^{1/2} in slices-first layout (l, n, n);
    they are what the solvers and norms consume, so the factorization
    happens once per weight rather than once per iteration.
    """

    base: np.ndarray          # (n, n, l) real
    hat: np.ndarray           # (l, n, n) complex
    inv: np.ndarray           # (l, n, n) per-slice inverse
    inv_sqrt: np.ndarray      # (l, n, n) Hermitian sqrt of the inverse
    sqrt: np.ndarray          # (l, n, n) Hermitian sqrt

    @property
    def n(self):
        return self.base.shape[0]

    @property
    def l(self):
        return self.base.shape[2]

    @property
    def is_identity(self):
        return bool(np.array_equal(self.base, identity(self.n, self.l)))

    @classmethod
    def from_tensor(cls, Q):
        Q = _as_tubal(Q, "Q")
        if not is_t_spd(Q):
            raise ValueError("input must be T-symmetric T-positive definite")
        hat = fft_slices(Q)
        # per-slice powers from one eigendecomposition; is_t_spd has checked
        # that every eigenvalue exceeds 1e-10
        lam, U = np.linalg.eigh(0.5 * (hat + np.conj(np.swapaxes(hat, -1, -2))))
        UH = np.conj(np.swapaxes(U, -1, -2))
        inv, inv_sqrt, sqrt = ((U * lam[:, None, :] ** p) @ UH for p in (-1.0, -0.5, 0.5))
        return cls(Q, hat, inv, inv_sqrt, sqrt)

    @classmethod
    def identity(cls, n, l):
        eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (l, n, n)).copy()
        return cls(identity(n, l), eye, eye.copy(), eye.copy(), eye.copy())

    def inv_sqrt_tensor(self):
        """Q^{-1/2} as a real tensor (n, n, l)."""
        return ifft_slices(self.inv_sqrt)

    def sqrt_tensor(self):
        """Q^{1/2} as a real tensor (n, n, l)."""
        return ifft_slices(self.sqrt)


def weighted_fnorm(M, Q):
    """Weighted Frobenius norm ||Q^{1/2} * M||_F, evaluated per Fourier slice."""
    M = _as_tubal(M, "M")
    if not isinstance(Q, WeightQ):
        Q = WeightQ.from_tensor(Q)
    if M.shape[0] != Q.n or M.shape[2] != Q.l:
        raise ValueError(f"weight of size ({Q.n}, {Q.l}) cannot norm shape {M.shape}")
    return float(np.linalg.norm(Q.sqrt @ fft_slices(M)) / np.sqrt(Q.l))
