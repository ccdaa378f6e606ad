import numpy as np
import pytest

from conftest import rand_tubal, rank_loop_complete, spd_weight_tensor
from tubalsketch.sketching import (
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

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            prob_slice_norm(np.zeros((3, 2, 2)))

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            as_prob_rows([0.5, 0.6], 1, 2)
        with pytest.raises(ValueError):
            as_prob_rows([1.5, -0.5], 1, 2)
        as_prob_rows([0.3, 0.7], 1, 2)

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
        """Record the stacks passed to np.linalg.svd and np.linalg.eigvalsh."""
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
                S = s.sketch((fft_slices if s.per_slice else rfft_slices)(A))
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

    @pytest.mark.parametrize("shape", [(60, 10, 4), (600, 100, 8)])
    def test_well_conditioned_slice_set_runs_no_svd(self, shape, monkeypatch):
        A = rand_tubal(np.random.default_rng(28), *shape)
        calls = self._count_factorizations(monkeypatch)
        assert is_complete_discrete_sampling(A, make_slice_sketches(shape[0], shape[2]))
        assert not calls["svd"] and len(calls["eigvalsh"]) == 1

    def test_too_few_sketched_rows_fail_with_no_factorization(self, monkeypatch):
        # q tau = 2 < n = 3: the stacked family cannot reach every column
        A = rand_tubal(np.random.default_rng(29), 6, 3, 4)
        calls = self._count_factorizations(monkeypatch)
        for s in (make_gaussian_sketches(6, 1, 2, 4, np.random.default_rng(30)),
                  make_fourier_sketches(6, 2, 1, 4, "gaussian", np.random.default_rng(31))):
            assert not is_complete_discrete_sampling(A, s)
            assert not rank_loop_complete(A, s)
        assert calls == {"svd": [], "eigvalsh": []}
