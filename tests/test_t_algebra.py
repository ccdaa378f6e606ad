import numpy as np
import pytest
from scipy.linalg import sqrtm

from conftest import (
    circ_conv_tubes,
    naive_dft3,
    rand_tubal,
    spd_weight_tensor,
    tpinv_via_bcirc,
)
from tubalsketch.t_algebra import (
    WeightQ,
    _fourier_slices,
    bcirc,
    dft3,
    fft_slices,
    fnorm,
    fold,
    identity,
    ifft_slices,
    irfft_slices,
    is_t_spd,
    rfft_slices,
    t_sqrt,
    tpinv,
    tprod,
    tprod_oracle,
    ttranspose,
    unfold,
    weighted_fnorm,
)


class TestFoldUnfoldBcirc:
    def test_unfold_smallest_case(self):
        X = np.array([[[1.5, -2.0]]])  # 1 x 1 x 2, tube (a, b)
        np.testing.assert_array_equal(unfold(X), [[1.5], [-2.0]])

    def test_fold_inverts_unfold_exactly(self):
        rng = np.random.default_rng(0)
        X = rand_tubal(rng, 4, 3, 5)
        assert np.array_equal(fold(unfold(X), 5), X)

    def test_fold_rejects_bad_row_count(self):
        with pytest.raises(ValueError):
            fold(np.zeros((7, 2)), 3)

    def test_bcirc_of_identity(self):
        np.testing.assert_array_equal(bcirc(identity(3, 4)), np.eye(12))

    def test_bcirc_matches_index_formula(self):
        rng = np.random.default_rng(1)
        X = rand_tubal(rng, 2, 2, 3)
        C = bcirc(X)
        for r in range(3):
            for c in range(3):
                np.testing.assert_array_equal(
                    C[2 * r:2 * r + 2, 2 * c:2 * c + 2], X[:, :, (r - c) % 3]
                )

    def test_bcirc_is_multiplicative(self):
        rng = np.random.default_rng(2)
        X, Y = rand_tubal(rng, 3, 2, 4), rand_tubal(rng, 2, 5, 4)
        np.testing.assert_allclose(
            bcirc(tprod_oracle(X, Y)), bcirc(X) @ bcirc(Y), atol=1e-12
        )


class TestDepthTransform:
    def test_single_slice_is_identity(self):
        rng = np.random.default_rng(3)
        X = rand_tubal(rng, 3, 2, 1)
        np.testing.assert_allclose(dft3(X), X, atol=0)

    def test_constant_tube(self):
        c = 0.7
        X = np.full((1, 1, 6), c)
        F = dft3(X)
        np.testing.assert_allclose(F[0, 0, 0], 6 * c, atol=1e-13)
        np.testing.assert_allclose(F[0, 0, 1:], 0, atol=1e-13)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        X = rand_tubal(rng, 3, 2, 4)
        np.testing.assert_allclose(dft3(X), naive_dft3(X), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for m, n, l in [(1, 1, 1), (2, 3, 4), (5, 2, 7)]:
            X = rand_tubal(rng, m, n, l)
            np.testing.assert_allclose(ifft_slices(np.moveaxis(dft3(X), 2, 0)), X,
                                       rtol=1e-12, atol=1e-12)

    def test_conjugate_symmetry_of_real_input(self):
        rng = np.random.default_rng(6)
        X = rand_tubal(rng, 2, 3, 6)
        F = dft3(X)
        for k in range(1, 6):
            np.testing.assert_allclose(F[:, :, k], F[:, :, (6 - k) % 6].conj(),
                                       atol=1e-12)

    def test_ifft_slices_rejects_broken_symmetry(self):
        F = np.zeros((4, 1, 1), dtype=np.complex128)
        F[1, 0, 0] = 1.0  # no conjugate partner, inverse is complex
        with pytest.raises(ValueError, match="not real"):
            ifft_slices(F)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_half_spectrum_pair(self, l):
        X = rand_tubal(np.random.default_rng(8), 3, 2, l)
        F = rfft_slices(X)
        assert F.shape == (l // 2 + 1, 3, 2) and F.flags.c_contiguous
        np.testing.assert_array_equal(F, fft_slices(X)[:l // 2 + 1])
        np.testing.assert_allclose(irfft_slices(F, l), X, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_kept_slices_multiplicities_and_whitening(self, l):
        rng = np.random.default_rng(10 + l)
        X = rand_tubal(rng, 3, 4, l)
        F, w = _fourier_slices(X)
        h = l // 2 + 1
        assert F.shape == (h, 3, 4) and F.flags.c_contiguous and w.sum() == l
        np.testing.assert_array_equal(F, fft_slices(X)[:h])
        # sum_k w_k ||F_k||^2 over the kept slices is the full-spectrum norm
        assert np.isclose(w @ np.linalg.norm(F, axis=(1, 2)) ** 2, l * fnorm(X) ** 2)
        # the identity weight and no weight are the same stack, bit for bit
        assert np.array_equal(_fourier_slices(X, WeightQ.identity(4, l))[0], F)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, l))
        np.testing.assert_array_equal(_fourier_slices(X, Q)[0], F @ Q.inv_sqrt[:h])

    @pytest.mark.parametrize("l, k", [(1, 0), (4, 0), (4, 2), (5, 0)])
    def test_irfft_slices_rejects_imaginary_self_mirrored_slice(self, l, k):
        # slices 0 and l/2 are their own mirror: an imaginary part there is
        # broken symmetry, which irfft alone would drop silently
        F = rfft_slices(rand_tubal(np.random.default_rng(9), 3, 2, l))
        F[k, 1, 0] += 1e-6j
        with pytest.raises(ValueError, match="not real"):
            irfft_slices(F, l)

    def test_norm_carries_explicit_depth_factor(self):
        rng = np.random.default_rng(7)
        X = rand_tubal(rng, 3, 2, 5)
        F = dft3(X)
        np.testing.assert_allclose(
            fnorm(X) ** 2, np.linalg.norm(F) ** 2 / 5, rtol=1e-12
        )


class TestTprod:
    def test_identity_law(self):
        rng = np.random.default_rng(8)
        X = rand_tubal(rng, 4, 3, 5)
        np.testing.assert_allclose(tprod(identity(4, 5), X), X, atol=1e-12)
        np.testing.assert_allclose(tprod_oracle(identity(4, 5), X), X, atol=1e-12)

    def test_single_slice_is_matrix_product(self):
        rng = np.random.default_rng(9)
        X, Y = rand_tubal(rng, 3, 2, 1), rand_tubal(rng, 2, 4, 1)
        np.testing.assert_allclose(
            tprod(X, Y)[:, :, 0], X[:, :, 0] @ Y[:, :, 0], atol=1e-12
        )

    def test_fourier_route_matches_bcirc_route(self):
        rng = np.random.default_rng(10)
        X, Y = rand_tubal(rng, 3, 2, 5), rand_tubal(rng, 2, 4, 5)
        Z1, Z2 = tprod(X, Y), tprod_oracle(X, Y)
        assert np.linalg.norm(Z1 - Z2) <= 1e-10 * np.linalg.norm(Z2)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(11)
        Y = rand_tubal(rng, 2, 3, 4)
        np.testing.assert_array_equal(tprod_oracle(np.zeros((3, 2, 4)), Y), 0)

    def test_tube_product_is_circular_convolution(self):
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        Z = tprod_oracle(x.reshape(1, 1, 6), y.reshape(1, 1, 6))
        np.testing.assert_allclose(Z[0, 0], circ_conv_tubes(x, y), atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            tprod(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            tprod_oracle(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))

    def test_random_dims_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m, n, p = rng.integers(1, 7, size=3)
            l = int(rng.integers(1, 9))
            X, Y = rand_tubal(rng, m, n, l), rand_tubal(rng, n, p, l)
            Z1, Z2 = tprod(X, Y), tprod_oracle(X, Y)
            scale = max(np.linalg.norm(Z2), 1e-300)
            assert np.linalg.norm(Z1 - Z2) <= 1e-10 * scale


class TestTranspose:
    def test_single_slice(self):
        rng = np.random.default_rng(14)
        X = rand_tubal(rng, 3, 2, 1)
        np.testing.assert_array_equal(ttranspose(X)[:, :, 0], X[:, :, 0].T)

    def test_identity_is_symmetric(self):
        np.testing.assert_array_equal(ttranspose(identity(4, 3)), identity(4, 3))

    def test_involution(self):
        rng = np.random.default_rng(15)
        X = rand_tubal(rng, 3, 4, 5)
        np.testing.assert_array_equal(ttranspose(ttranspose(X)), X)

    def test_matches_bcirc_transpose(self):
        rng = np.random.default_rng(16)
        X = rand_tubal(rng, 2, 3, 4)
        np.testing.assert_array_equal(bcirc(ttranspose(X)), bcirc(X).T)

    def test_reverses_products(self):
        rng = np.random.default_rng(17)
        X, Y = rand_tubal(rng, 3, 2, 4), rand_tubal(rng, 2, 5, 4)
        np.testing.assert_allclose(
            ttranspose(tprod(X, Y)),
            tprod(ttranspose(Y), ttranspose(X)),
            atol=1e-12,
        )


def mp_axiom_residuals(X, Y):
    """Frobenius-relative residuals of the four pseudoinverse axioms."""
    XY = tprod_oracle(X, Y)
    YX = tprod_oracle(Y, X)
    nx, ny = max(np.linalg.norm(X), 1e-300), max(np.linalg.norm(Y), 1e-300)
    return (
        np.linalg.norm(tprod_oracle(XY, X) - X) / nx,
        np.linalg.norm(tprod_oracle(YX, Y) - Y) / ny,
        np.linalg.norm(ttranspose(XY) - XY) / max(np.linalg.norm(XY), 1e-300),
        np.linalg.norm(ttranspose(YX) - YX) / max(np.linalg.norm(YX), 1e-300),
    )


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(tpinv(identity(3, 4)), identity(3, 4), atol=1e-12)

    def test_inverse_of_well_conditioned(self):
        rng = np.random.default_rng(18)
        X = spd_weight_tensor(rng, 4, 3)
        np.testing.assert_allclose(
            tprod(X, tpinv(X)), identity(4, 3), atol=1e-8
        )

    def test_axioms_on_rectangular(self):
        rng = np.random.default_rng(19)
        X = rand_tubal(rng, 5, 3, 4)
        assert max(mp_axiom_residuals(X, tpinv(X))) < 1e-8

    def test_axioms_with_zero_fourier_slice(self):
        rng = np.random.default_rng(20)
        X = rand_tubal(rng, 4, 3, 4)
        F = fft_slices(X)
        F[2] = 0  # self-conjugate slice: the tensor stays real
        X = ifft_slices(F)
        assert max(mp_axiom_residuals(X, tpinv(X))) < 1e-8

    def test_matches_bcirc_route(self):
        rng = np.random.default_rng(21)
        X = rand_tubal(rng, 4, 3, 5)
        np.testing.assert_allclose(tpinv(X), tpinv_via_bcirc(X), atol=1e-10)


class TestSpdAndSqrt:
    def test_identity_is_spd(self):
        assert is_t_spd(identity(3, 5))

    def test_gram_plus_shift_is_spd(self):
        rng = np.random.default_rng(22)
        A = rand_tubal(rng, 4, 4, 3)
        X = tprod_oracle(ttranspose(A), A) + 1e-6 * identity(4, 3)
        assert is_t_spd(X, tol=1e-9)

    def test_negative_definite_slice(self):
        X = np.zeros((3, 3, 2))
        X[:, :, 0] = -np.eye(3)
        assert not is_t_spd(X)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            is_t_spd(np.zeros((2, 3, 2)))

    def test_rejects_non_finite_input(self):
        # eigvalsh would stop with "Eigenvalues did not converge"
        for bad in (np.nan, np.inf):
            X = np.array(identity(3, 2))
            X[1, 2, 1] = bad
            with pytest.raises(ValueError, match="contains NaN or inf"):
                is_t_spd(X)
            with pytest.raises(ValueError, match="contains NaN or inf"):
                WeightQ.from_tensor(X)

    def test_sqrt_of_identity(self):
        np.testing.assert_allclose(t_sqrt(identity(4, 3)), identity(4, 3), atol=1e-12)

    def test_sqrt_of_diagonal_tube(self):
        X = np.zeros((2, 2, 3))
        X[:, :, 0] = np.diag([4.0, 9.0])
        np.testing.assert_allclose(
            t_sqrt(X)[:, :, 0], np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(23)
        X = spd_weight_tensor(rng, 3, 4)
        R = t_sqrt(X)
        assert np.linalg.norm(tprod(R, R) - X) < 1e-8 * np.linalg.norm(X)

    def test_sqrt_rejects_indefinite(self):
        X = np.zeros((2, 2, 2))
        X[:, :, 0] = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            t_sqrt(X)


class TestWeightedNorm:
    def test_identity_weight_is_frobenius(self):
        rng = np.random.default_rng(24)
        M = rand_tubal(rng, 3, 2, 4)
        Q = WeightQ.identity(3, 4)
        np.testing.assert_allclose(weighted_fnorm(M, Q), fnorm(M), rtol=1e-12)

    def test_zero_input(self):
        Q = WeightQ.identity(3, 4)
        assert weighted_fnorm(np.zeros((3, 2, 4)), Q) == 0.0

    def test_matches_bcirc_square_root_oracle(self):
        rng = np.random.default_rng(25)
        Qt = spd_weight_tensor(rng, 3, 4)
        M = rand_tubal(rng, 3, 2, 4)
        got = weighted_fnorm(M, WeightQ.from_tensor(Qt))
        ref = np.linalg.norm(np.real(sqrtm(bcirc(Qt))) @ unfold(M))
        assert abs(got - ref) <= 1e-10 * ref

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_fnorm(np.zeros((4, 2, 3)), WeightQ.identity(3, 3))

    def test_positive_definiteness(self):
        rng = np.random.default_rng(26)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 3, 4))
        M = rand_tubal(rng, 3, 2, 4)
        assert weighted_fnorm(M, Q) > 0
        assert weighted_fnorm(np.zeros_like(M), Q) <= 1e-12


class TestWeightCaches:
    def test_cached_inverse_and_square_roots(self):
        rng = np.random.default_rng(27)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, 3))
        eye = np.eye(4)
        for k in range(3):
            np.testing.assert_allclose(Q.inv_sqrt[k] @ Q.inv_sqrt[k] @ Q.hat[k], eye, atol=1e-10)
            np.testing.assert_allclose(Q.sqrt[k] @ Q.sqrt[k], Q.hat[k], atol=1e-10)

    def test_identity_holds_one_read_only_eye(self):
        n, l = 6, 5
        Q = WeightQ.identity(n, l)
        owners = {}
        for F in (Q.hat, Q.inv_sqrt, Q.sqrt):
            assert F.shape == (l, n, n) and not F.flags.writeable
            np.testing.assert_array_equal(F, np.broadcast_to(np.eye(n), (l, n, n)))
            while F.base is not None:
                F = F.base
            owners[id(F)] = F.nbytes
        # one n x n complex eye under all three, beside the real identity tensor
        assert sum(owners.values()) == 16 * n * n
        np.testing.assert_array_equal(Q.base, identity(n, l))
        assert Q.is_identity
        with pytest.raises(ValueError, match="read-only"):
            Q.inv_sqrt[0, 0, 0] = 2.0

    def test_rejects_indefinite_weight(self):
        X = np.zeros((2, 2, 2))
        X[:, :, 0] = np.diag([1.0, -2.0])
        with pytest.raises(ValueError):
            WeightQ.from_tensor(X)

    def test_sqrt_tensor_round_trip(self):
        rng = np.random.default_rng(28)
        Qt = spd_weight_tensor(rng, 3, 5)
        Q = WeightQ.from_tensor(Qt)
        half = Q.sqrt_tensor()
        np.testing.assert_allclose(tprod(half, half), Qt, atol=1e-9)
        np.testing.assert_allclose(
            tprod(Q.inv_sqrt_tensor(), half), identity(3, 5), atol=1e-9
        )
