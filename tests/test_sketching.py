import numpy as np
import pytest

from conftest import rand_tubal, rank_loop_complete, spd_weight_tensor
from tubalsketch.sketching import (
    SketchSet,
    as_prob_rows,
    is_complete_discrete_sampling,
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
    prob_fourier_row_norm,
    prob_sketch_norm,
    prob_slice_norm,
    prob_uniform,
    sample_index,
)
from tubalsketch.sketching import _inverse_cdf
from tubalsketch.solvers import SolverConfig, make_state
from tubalsketch.t_algebra import (
    WeightQ,
    dft3,
    fft_slices,
    rfft_slices,
    tprod_oracle,
    ttranspose,
    unfold,
)


class TestSliceSketches:
    def test_members_are_identity_lateral_slices(self):
        s = make_slice_sketches(3, 2)
        assert s.q == 3 and s.tau == 1
        expect = np.zeros((3, 1, 2))
        expect[1, 0, 0] = 1.0
        np.testing.assert_array_equal(s.members[1], expect)

    def test_unfold_is_padded_basis_column(self):
        s = make_slice_sketches(4, 3)
        col = unfold(s.members[2])
        expect = np.zeros((12, 1))
        expect[2, 0] = 1.0
        np.testing.assert_array_equal(col, expect)

    def test_transposed_sketch_extracts_horizontal_slice(self):
        rng = np.random.default_rng(0)
        A = rand_tubal(rng, 4, 3, 5)
        s = make_slice_sketches(4, 5)
        for i in (0, 3):
            got = tprod_oracle(ttranspose(s.members[i]), A)
            np.testing.assert_allclose(got, A[i:i + 1], atol=1e-12)

    def test_fourier_slices_are_all_equal(self):
        # first-frontal-slice-only sketches look identical in every subsystem
        s = make_slice_sketches(5, 4)
        for i in range(s.q):
            F = dft3(s.members[i])
            for k in range(1, 4):
                np.testing.assert_allclose(F[:, :, k], F[:, :, 0], atol=1e-12)


class TestBlockSketches:
    def test_ragged_partition(self):
        s = make_block_sketches(3, 2, [[0, 1], [2]])
        assert s.q == 2 and s.taus == (2, 1)
        np.testing.assert_array_equal(
            s.members[0][:, :, 0], np.eye(3)[:, :2]
        )
        assert not s.members[0][:, :, 1].any()

    def test_single_full_block(self):
        s = make_block_sketches(4, 2, [range(4)])
        assert s.q == 1 and s.tau == 4
        np.testing.assert_array_equal(s.members[0][:, :, 0], np.eye(4))

    def test_transposed_block_stacks_slices(self):
        rng = np.random.default_rng(1)
        A = rand_tubal(rng, 5, 3, 4)
        s = make_block_sketches(5, 4, [[1, 3], [0, 2, 4]])
        got = tprod_oracle(ttranspose(s.members[0]), A)
        np.testing.assert_allclose(got, A[[1, 3]], atol=1e-12)

    def test_invalid_partitions(self):
        with pytest.raises(ValueError, match="overlap"):
            make_block_sketches(3, 2, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="empty"):
            make_block_sketches(3, 2, [[0, 1, 2], []])
        with pytest.raises(ValueError, match="cover"):
            make_block_sketches(3, 2, [[0, 1]])


class TestGaussianSketches:
    def test_seed_reproducibility(self):
        a = make_gaussian_sketches(5, 2, 3, 4, np.random.default_rng(7))
        b = make_gaussian_sketches(5, 2, 3, 4, np.random.default_rng(7))
        for Sa, Sb in zip(a.members, b.members):
            assert np.array_equal(Sa, Sb)

    def test_only_first_slice_nonzero(self):
        s = make_gaussian_sketches(5, 2, 3, 4, np.random.default_rng(8))
        for S in s.members:
            assert S[:, :, 1:].max() == 0.0
            F = dft3(S)
            for k in range(1, 4):
                np.testing.assert_allclose(F[:, :, k], F[:, :, 0], atol=1e-12)

    def test_entry_statistics(self):
        rng = np.random.default_rng(9)
        s = make_gaussian_sketches(100, 10, 100, 1, rng)
        entries = np.concatenate([S[:, :, 0].ravel() for S in s.members])
        assert entries.size == 100_000
        assert abs(entries.mean()) < 0.02

    def test_tau_bound(self):
        with pytest.raises(ValueError):
            make_gaussian_sketches(3, 4, 2, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("build", [
        lambda: make_gaussian_sketches(6, 0, 6, 2, np.random.default_rng(0)),
        lambda: make_fourier_sketches(6, 0, 6, 2, "gaussian", np.random.default_rng(0)),
    ])
    def test_no_columns_named_as_tau(self, build):
        with pytest.raises(ValueError, match=r"^tau=0 is not in 1\.\.m=6$"):
            build()


class TestRowGather:
    @pytest.mark.parametrize("build, in_order", [
        (lambda: make_slice_sketches(6, 3), True),
        (lambda: make_fourier_sketches(6, 1, 6, 3, "row"), True),
        (lambda: make_block_sketches(6, 3, [[0, 1], [2, 3], [4, 5]]), True),
        (lambda: make_block_sketches(6, 3, [[0, 1, 2, 3], [4, 5]]), False),  # ragged
        (lambda: make_block_sketches(6, 3, [[2, 3], [0, 1], [4, 5]]), False),  # permuted
    ])
    def test_rows_in_order_are_a_view_of_the_stack(self, build, in_order):
        s = build()
        Xh = fft_slices(rand_tubal(np.random.default_rng(12), 6, 4, 3))  # not C-contiguous
        for X in (np.ascontiguousarray(Xh), Xh):
            want = np.take(np.concatenate([X, np.zeros_like(X[:, :1])], axis=1), s.rows, axis=1)
            got = s.sketch(X)
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous
            assert np.shares_memory(got, X) == (in_order and X.flags.c_contiguous)


class TestFourierSketches:
    def test_row_kind_lists_coordinate_vectors(self):
        s = make_fourier_sketches(3, 1, 3, 2, "row")
        assert s.per_slice and s.q == 3
        for k in range(2):
            for i in range(3):
                np.testing.assert_array_equal(s.members[k][i], np.eye(3)[:, i:i + 1])

    def test_row_kind_resolves_rows_of_fourier_slices(self):
        rng = np.random.default_rng(10)
        A = rand_tubal(rng, 4, 3, 3)
        s = make_fourier_sketches(4, 1, 4, 3, "row")
        Ah = dft3(A)
        for k in range(3):
            for i in range(4):
                got = s.members[k][i].conj().T @ Ah[:, :, k]
                np.testing.assert_allclose(got, Ah[i:i + 1, :, k], atol=1e-12)

    def test_row_families_resolve_identity(self):
        s = make_fourier_sketches(4, 1, 4, 2, "row")
        for k in range(2):
            acc = sum(S @ S.T for S in s.members[k])
            np.testing.assert_array_equal(acc, np.eye(4))

    def test_row_kind_validates_shape(self):
        with pytest.raises(ValueError):
            make_fourier_sketches(3, 2, 3, 2, "row")
        with pytest.raises(ValueError):
            make_fourier_sketches(3, 1, 2, 2, "row")

    def test_gaussian_families_independent_across_slices(self):
        s = make_fourier_sketches(4, 2, 3, 3, "gaussian", np.random.default_rng(11))
        assert not np.array_equal(s.members[0][0], s.members[1][0])
        # same master seed reproduces everything
        t = make_fourier_sketches(4, 2, 3, 3, "gaussian", np.random.default_rng(11))
        for k in range(3):
            for i in range(3):
                assert np.array_equal(s.members[k][i], t.members[k][i])


class TestProbabilities:
    def test_uniform(self):
        np.testing.assert_allclose(prob_uniform(4), [0.25] * 4)

    def test_slice_norm_squared_ratio(self):
        A = np.zeros((2, 2, 2))
        A[0, 0, 0] = 1.0  # slice norms 1 and 2
        A[1, 0, 0] = 2.0
        np.testing.assert_allclose(prob_slice_norm(A), [0.2, 0.8], atol=1e-14)

    def test_sketch_norm_reduces_to_slice_norm(self):
        rng = np.random.default_rng(12)
        A = rand_tubal(rng, 4, 3, 3)
        s = make_slice_sketches(4, 3)
        Q = WeightQ.identity(3, 3)
        np.testing.assert_allclose(
            prob_sketch_norm(A, Q, s), prob_slice_norm(A), atol=1e-12
        )

    def test_sketch_norm_with_nontrivial_weight_is_simplex(self):
        rng = np.random.default_rng(13)
        A = rand_tubal(rng, 4, 3, 3)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 3, 3))
        p = prob_sketch_norm(A, Q, make_slice_sketches(4, 3))
        as_prob_rows(p, 1, 4)

    def test_fourier_row_norm(self):
        rng = np.random.default_rng(14)
        A = rand_tubal(rng, 4, 3, 3)
        p = prob_fourier_row_norm(A)
        Ah = dft3(A)
        for k in range(3):
            rows = np.sum(np.abs(Ah[:, :, k]) ** 2, axis=1)
            np.testing.assert_allclose(p[k], rows / rows.sum(), atol=1e-12)

    @pytest.mark.parametrize("l", [1, 4, 5])
    def test_weight_rules_accept_no_weight_as_the_identity(self, l):
        rng = np.random.default_rng(20 + l)
        A = rand_tubal(rng, 5, 3, l)
        ident = WeightQ.identity(3, l)
        s = make_block_sketches(5, l, [[0, 3], [1], [2, 4]])
        np.testing.assert_array_equal(prob_sketch_norm(A, None, s), prob_sketch_norm(A, ident, s))
        np.testing.assert_array_equal(prob_fourier_row_norm(A), prob_fourier_row_norm(A, ident))

    @pytest.mark.parametrize("l", [1, 2, 5, 6, 9, 10, 12])
    def test_weight_rules_match_a_full_spectrum_loop(self, l):
        # sum over all l slices of |S_i^H A_k Q_k^{-1/2}|^2, and per slice k
        # the rows of A_k Q_k^{-1/2}, from dense members and fft_slices.  The
        # fourier-row rows are mirrored exactly; the loop's, from the full
        # spectrum, only to rounding (3.5e-16 at l = 6, 9, 10, 12), and they
        # are accepted too
        rng = np.random.default_rng(30 + l)
        A = rand_tubal(rng, 5, 3, l)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 3, l))
        AQ = fft_slices(A) @ Q.inv_sqrt
        s = make_gaussian_sketches(5, 2, 4, l, rng)
        norms = [sum(np.linalg.norm(s.member_hat(i)[k].conj().T @ AQ[k]) ** 2 for k in range(l))
                 for i in range(s.q)]
        np.testing.assert_allclose(prob_sketch_norm(A, Q, s), norms / np.sum(norms), rtol=1e-13)
        rows = np.sum(np.abs(AQ) ** 2, axis=2)
        p = prob_fourier_row_norm(A, Q)
        np.testing.assert_allclose(p, rows / rows.sum(1, keepdims=True), rtol=1e-13)
        assert np.array_equal(p[1:], p[:0:-1])
        as_prob_rows(rows / rows.sum(1, keepdims=True), l, 5)
        make_state(A, np.zeros((5, 2, l)), SolverConfig(
            method="NTSP-II", sketches=make_fourier_sketches(5, 1, 5, l, "row"),
            probabilities="fourier-row-norm", weight=Q, check_sampling=False))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            prob_slice_norm(np.zeros((3, 2, 2)))

    def test_zero_fourier_slice_rejected(self):
        # a slice with no row weight has no distribution to draw from
        A = np.ones((3, 2, 2))  # slice 1 of the depth transform is zero
        with pytest.raises(ValueError, match="all fourier-row weights are zero"):
            prob_fourier_row_norm(A)

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            as_prob_rows([0.5, 0.6], 1, 2)
        with pytest.raises(ValueError):
            as_prob_rows([1.5, -0.5], 1, 2)
        as_prob_rows([0.3, 0.7], 1, 2)

    @pytest.mark.parametrize("bad", ["bogus", ["a", "b"], {"p": 1.0}])
    def test_non_numbers_named_as_probabilities(self, bad):
        with pytest.raises(ValueError, match=r"^probabilities .* are not numbers$"):
            as_prob_rows(bad, 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a NaN passes both the sign test and the sum test
        with pytest.raises(ValueError, match="finite"):
            as_prob_rows([bad, 1.0], 1, 2)


class TestSampling:
    def test_point_mass(self):
        rng = np.random.default_rng(15)
        assert all(sample_index([1.0, 0.0, 0.0], rng) == 0 for _ in range(50))

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(16)
        draws = np.array([sample_index([0.5, 0.5], rng) for _ in range(100_000)])
        freq = np.bincount(draws, minlength=2) / draws.size
        assert np.all(np.abs(freq - 0.5) < 0.01)

    def test_zero_probability_never_drawn(self):
        rng = np.random.default_rng(17)
        draws = [sample_index([0.5, 0.0, 0.5], rng) for _ in range(5000)]
        assert 1 not in draws

    def test_draws_equal_the_capped_search(self):
        # sample_index and the solvers' rows draw #(cum[:-1] <= u total); the
        # earlier rule was min(#(cum <= u total), q - 1), the same on a sorted cum
        def capped(cum, u):
            return min(int(cum.searchsorted(u * cum[-1], "right")), cum.size - 1)

        rng = np.random.default_rng(34)
        for p in ([0.2, 0.3, 0.5], [0.3, 0.7, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0]):
            a, b = np.random.default_rng(35), np.random.default_rng(35)
            cum = np.cumsum(p)
            assert ([sample_index(p, a) for _ in range(2000)]
                    == [capped(cum, b.random()) for _ in range(2000)])
        # unnormalised weights with zero tails; a subnormal total makes the
        # largest uniform below 1 round u * total up to the total itself
        top = np.nextafter(1.0, 0.0)
        for weights in (rng.random(6), [1.0, 2.0, 0.0, 0.0], [0.0, 3 * 5e-324, 0.0],
                        [4 * 5e-324, 0.0, 3 * 5e-324]):
            cum = np.cumsum(weights)
            us = np.concatenate([rng.random(500), [0.0, top]])
            got = [int(_inverse_cdf(cum, u)) for u in us]
            assert got == [capped(cum, u) for u in us]
            rows = _inverse_cdf(np.tile(cum, (us.size, 1)), us)  # the per-slice form
            assert rows.tolist() == got
        assert top * cum[-1] == cum[-1]  # the cap decides this last draw
        assert int(_inverse_cdf(cum, top)) == cum.size - 1

    def test_stream_determinism(self):
        a = [sample_index([0.2, 0.3, 0.5], np.random.default_rng(18)) for _ in range(1)]
        b = [sample_index([0.2, 0.3, 0.5], np.random.default_rng(18)) for _ in range(1)]
        assert a == b


class TestCompleteDiscreteSampling:
    def test_generic_slice_sketches_pass(self):
        rng = np.random.default_rng(19)
        A = rand_tubal(rng, 4, 3, 2)
        assert is_complete_discrete_sampling(A, make_slice_sketches(4, 2))

    def test_family_missing_reach_fails(self):
        rng = np.random.default_rng(20)
        A = rand_tubal(rng, 4, 3, 2)
        s = make_block_sketches(4, 2, [[0, 1], [2, 3]])
        partial = type(s)(kind="block", m=4, l=2, q=1, rows=s.rows[:1])
        assert not is_complete_discrete_sampling(A, partial)

    def test_zero_sketched_row_fails(self):
        A = np.zeros((3, 2, 2))
        A[1:] = np.random.default_rng(21).standard_normal((2, 2, 2))
        assert not is_complete_discrete_sampling(A, make_slice_sketches(3, 2))

    def test_verdict_is_scale_invariant(self):
        # a well-conditioned system stays complete however it is scaled,
        # and an exactly zero row fails at every scale
        rng = np.random.default_rng(22)
        A = rand_tubal(rng, 8, 4, 3)
        Z = A.copy()
        Z[5] = 0.0
        for s in (make_slice_sketches(8, 3),
                  make_block_sketches(8, 3, [[0, 1], [2, 3, 4], [5, 6, 7]])):
            for c in (1e-12, 1.0, 1e12):
                assert is_complete_discrete_sampling(c * A, s), c
                assert not is_complete_discrete_sampling(c * Z, s), c

    @pytest.mark.parametrize("l", [3, 4])
    def test_verdicts_match_rank_loop_oracle(self, l):
        # odd and even l: spatial sets are checked on slices 0..l//2 only
        rng = np.random.default_rng(23)
        A = rand_tubal(rng, 6, 3, l)
        # every Fourier slice of rank 2 < n = 3
        low_rank = tprod_oracle(rand_tubal(rng, 6, 2, l), rand_tubal(rng, 2, 3, l))
        zero_row = A.copy()
        zero_row[2] = 0.0
        wide = rand_tubal(rng, 6, 8, l)  # more unknowns than rows
        # only Fourier slice l//2 (and its mirror) of rank 2: real for even l
        U = rng.standard_normal((6, 2)) + 1j * (l % 2) * rng.standard_normal((6, 2))
        M = U @ rng.standard_normal((2, 3))
        F = np.fft.fft(A, axis=2)
        F[:, :, l // 2], F[:, :, -(l // 2)] = M, np.conj(M)
        one_slice = np.fft.ifft(F, axis=2).real
        sets = [
            make_slice_sketches(6, l),
            make_block_sketches(6, l, [[0, 5], [1, 2, 3], [4]]),
            make_gaussian_sketches(6, 2, 4, l, np.random.default_rng(24)),
            make_fourier_sketches(6, 1, 6, l, "row"),
            make_fourier_sketches(6, 2, 3, l, "gaussian", np.random.default_rng(25)),
            make_fourier_sketches(6, 2, 2, l, "gaussian", np.random.default_rng(26)),
        ]
        verdicts = []
        for system in (A, low_rank, zero_row, wide, one_slice):
            for s in sets:
                got = is_complete_discrete_sampling(system, s)
                assert got == rank_loop_complete(system, s), (s.kind, got)
                verdicts.append(got)
        assert any(verdicts) and not all(verdicts)

    @staticmethod
    def _one_slice_conditioned(l, ratio):
        """A 6x3xl system whose Fourier slice l//2 (and its mirror) has
        singular values 1, 0.5 and ``ratio``, built as in the oracle test."""
        rng = np.random.default_rng(27)
        A = rand_tubal(rng, 6, 3, l)
        cplx = 1j * (l % 2)  # slice l/2 of a real tensor is real for even l
        U, _ = np.linalg.qr(rng.standard_normal((6, 3)) + cplx * rng.standard_normal((6, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        M = (U * [1.0, 0.5, ratio]) @ V.T
        F = np.fft.fft(A, axis=2)
        F[:, :, l // 2], F[:, :, -(l // 2)] = M, np.conj(M)
        return np.fft.ifft(F, axis=2).real

    @staticmethod
    def _count_factorizations(monkeypatch):
        """Record the stacks passed to np.linalg.svd and np.linalg.eigvalsh
        (the check factors one slice's Gram a call)."""
        calls = {"svd": [], "eigvalsh": []}
        for name, stacks in calls.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=real, _s=stacks, **kw:
                                _s.append(np.array(a)) or _f(a, *args, **kw))
        return calls

    @pytest.mark.parametrize("l", [3, 4])
    def test_ill_conditioned_slice_verdicts_and_svd_fallback(self, l, monkeypatch):
        # the Gram certifies the slices with sigma_min/sigma_max well above
        # the cut, and only the others go to the SVD, whose verdict stands
        sets = [
            make_slice_sketches(6, l),
            make_block_sketches(6, l, [[0, 5], [1, 2, 3], [4]]),
            make_gaussian_sketches(6, 2, 4, l, np.random.default_rng(24)),
            make_fourier_sketches(6, 1, 6, l, "row"),
            make_fourier_sketches(6, 2, 3, l, "gaussian", np.random.default_rng(25)),
        ]
        calls = self._count_factorizations(monkeypatch)
        verdicts = []
        for ratio in (1e-1, 1e-4, 1e-7, 1e-9, 0.0):
            A = self._one_slice_conditioned(l, ratio)
            for s in sets:
                S = s.sketch(rfft_slices(A))  # slice l - k's verdict is slice k's
                S = S.reshape(S.shape[0], -1, 3)
                sv = np.linalg.svd(S, compute_uv=False)
                undecided = sv[:, -1] / sv[:, 0] < 1e-3  # lambda ratio below margin = 1e-6
                calls["svd"].clear()
                got = is_complete_discrete_sampling(A, s)
                assert got == rank_loop_complete(A, s), (s.kind, ratio, got)
                verdicts.append(got)
                assert undecided.any() == (ratio < 1e-3), (s.kind, ratio)
                if undecided.any():
                    assert len(calls["svd"]) == 1, (s.kind, ratio)
                    np.testing.assert_array_equal(calls["svd"][0], S[undecided])
                else:
                    assert not calls["svd"], (s.kind, ratio)
        assert verdicts.count(False) == len(sets)  # the exactly singular slice fails

    @pytest.mark.parametrize("l", range(1, 9))
    def test_mirrored_sets_checked_on_half_the_slices(self, l, monkeypatch):
        # a per-slice family sketches slice l - k as slice k, so the check
        # factors slices 0..l//2 only and gives the verdict of the dense loop
        # over all l slices
        rng = np.random.default_rng(32 + l)
        A = rand_tubal(rng, 6, 3, l)
        zero_row = A.copy()
        zero_row[2] = 0.0
        k = l - 1 if l > 2 else l // 2  # slice 1's mirror; real where k = l - k
        U = rng.standard_normal((6, 2)) + 1j * ((2 * k) % l > 0) * rng.standard_normal((6, 2))
        M = U @ rng.standard_normal((2, 3))
        F = np.fft.fft(A, axis=2)
        F[:, :, k], F[:, :, -k] = M, np.conj(M)
        deficient = np.fft.ifft(F, axis=2).real  # Fourier slices k and l - k of rank 2 < n
        wide = rand_tubal(rng, 6, 8, l)  # q tau = 6 < n = 8 for fourier-row sets

        def gaussian(tau, q, seed):  # mats[l - k] == mats[k]
            return make_fourier_sketches(6, tau, q, l, "gaussian", np.random.default_rng(seed))

        sets = [make_fourier_sketches(6, 1, 6, l, "row"), gaussian(2, 3, 35),
                gaussian(2, 1, 36)]  # q tau = 2 < n = 3
        calls = self._count_factorizations(monkeypatch)
        verdicts = []
        for system in (A, zero_row, deficient, wide):
            for s in sets:
                calls["eigvalsh"].clear()
                got = is_complete_discrete_sampling(system, s)
                # one Gram per slice factored; none when q tau < n decides first
                factored = l // 2 + 1 if s.q * s.tau >= system.shape[1] else 0
                assert len(calls["eigvalsh"]) == factored, s.kind
                assert got == rank_loop_complete(system, s), s.kind
                verdicts.append(got)
        assert verdicts.count(True) == 3  # A with both complete families, zero_row with one
        assert not any(verdicts[2::3])  # q tau < n fails on every system

    @pytest.mark.parametrize("shape", [(60, 10, 4), (600, 100, 8)])
    def test_well_conditioned_slice_set_runs_no_svd(self, shape, monkeypatch):
        A = rand_tubal(np.random.default_rng(28), *shape)
        calls = self._count_factorizations(monkeypatch)
        assert is_complete_discrete_sampling(A, make_slice_sketches(shape[0], shape[2]))
        assert not calls["svd"] and len(calls["eigvalsh"]) == shape[2] // 2 + 1  # one per slice

    def test_too_few_sketched_rows_fail_with_no_factorization(self, monkeypatch):
        # q tau = 2 < n = 3: the stacked family cannot reach every column
        A = rand_tubal(np.random.default_rng(29), 6, 3, 4)
        calls = self._count_factorizations(monkeypatch)
        for s in (make_gaussian_sketches(6, 1, 2, 4, np.random.default_rng(30)),
                  make_fourier_sketches(6, 2, 1, 4, "gaussian", np.random.default_rng(31))):
            assert not is_complete_discrete_sampling(A, s)
            assert not rank_loop_complete(A, s)
        assert calls == {"svd": [], "eigvalsh": []}
