import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_set_tables,
    direct_step_oracle,
    rand_tubal,
    reference_solve,
    row_action_step_oracle,
    sp_step_direct,
    spd_weight_tensor,
    stacked_step_oracle,
)
from tubalsketch import sketching, solvers
from tubalsketch.analysis import per_slice_rates, projector_tensor
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
    prob_uniform,
)
from tubalsketch.solvers import (
    _UNIFORM_BLOCK,
    DivergenceError,
    SolverConfig,
    make_state,
    select_index,
    solve,
)
from tubalsketch.t_algebra import (
    WeightQ,
    fft_slices,
    fnorm,
    identity,
    ifft_slices,
    irfft_slices,
    tprod,
    tprod_oracle,
    ttranspose,
    weighted_fnorm,
)


ADAPTIVE_METHODS = ("ATSP-MD", "ATSP-PR", "ATSP-CS", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")
# every finite-set method but TSP-I: each adaptive rule owns its zero-loss
# test, the fixed rules share the direct state's
ZERO_LOSS_METHODS = ("NTSP", "NTSP-II", "TSP-II", *ADAPTIVE_METHODS)


def small_problem(seed=3, m=10, n=5, p=3, l=4):
    return gen_gaussian(ProblemSpec(m=m, n=n, p=p, l=l, seed=seed))


class TestSelectIndex:
    def test_max_rule_is_argmax(self):
        assert select_index([1.0, 3.0, 2.0], "md") == 1

    def test_max_rule_breaks_ties_low(self):
        assert select_index([2.0, 5.0, 5.0], "md") == 1

    def test_proportional_frequencies(self):
        rng = np.random.default_rng(0)
        draws = np.array(
            [select_index([1.0, 3.0], "pr", rng) for _ in range(40_000)]
        )
        freq = np.bincount(draws, minlength=2) / draws.size
        np.testing.assert_allclose(freq, [0.25, 0.75], atol=0.01)

    def test_capped_with_full_cap_is_argmax(self):
        rng = np.random.default_rng(1)
        # threshold at theta=1 is the max itself: only index 1 qualifies
        for _ in range(25):
            assert select_index([1.0, 3.0, 2.0], "cs", rng,
                                prob_uniform(3), theta=1.0) == 1

    def test_capped_threshold_set(self):
        rng = np.random.default_rng(2)
        # theta=0.5, uniform reference: threshold = 0.5*3 + 0.5*2 = 2.5
        draws = {select_index([1.0, 3.0, 2.0], "cs", rng, prob_uniform(3), 0.5)
                 for _ in range(200)}
        assert draws == {1}

    def test_capped_rule_on_equal_losses_draws_from_the_tied_set(self):
        # theta * max + (1 - theta) * E_p[loss] rounds above the common loss
        # here; clamped at the max, the threshold keeps every index eligible
        rng = np.random.default_rng(5)
        draws = {select_index(np.full(5, 0.1), "cs", rng, prob_uniform(5), theta=0.1)
                 for _ in range(200)}
        assert draws == set(range(5))
        A, Xs, B = small_problem(5)
        spatial = make_state(A, B, SolverConfig(
            method="ATSP-CS", sketches=make_slice_sketches(10, 4), theta=0.1, seed=6))
        assert {int(spatial.select(np.full(10, 0.1))) for _ in range(300)} == set(range(10))
        per_slice = make_state(A, B, SolverConfig(
            method="ATSP-CS-II", sketches=make_fourier_sketches(10, 1, 10, 4, "row"),
            theta=0.1, seed=6))
        draws = np.array([per_slice.select(np.full((3, 10), 0.1)) for _ in range(300)])
        for k in range(3):  # the kept slices 0..l//2
            assert set(draws[:, k]) == set(range(10)), k

    def test_fixed_rule_uses_reference_distribution(self):
        rng = np.random.default_rng(3)
        draws = {select_index([9.0, 0.0], "fixed", rng, [0.0, 1.0]) for _ in range(50)}
        assert draws == {1}

    def test_all_zero_losses_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            select_index([0.0, 0.0], "md")

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            select_index([1.0], "best")

    @pytest.mark.parametrize("method", ADAPTIVE_METHODS)
    def test_adaptive_select_returns_none_on_zero_losses(self, method):
        # the rule itself reports that nothing is left to project on; one
        # positive loss is chosen, and a per-slice rule marks only its
        # all-zero kept slices solved
        A, Xs, B = small_problem(5)
        per_slice = method.endswith("-II")
        s = make_fourier_sketches(10, 1, 10, 4, "row") if per_slice else make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method=method, sketches=s, seed=6))
        shape = st.losses().shape
        assert st.select(np.zeros(shape)) is None
        losses = np.zeros(shape)
        losses[..., 3] = 0.5
        if per_slice:
            losses[2] = 0.0
            np.testing.assert_array_equal(st.select(losses), [3, 3, -1])
        else:
            assert st.select(losses) == 3

    def test_spatial_capped_solve_skips_sample_index(self, monkeypatch):
        calls = []
        sample_index = sketching.sample_index
        monkeypatch.setattr(sketching, "sample_index",
                            lambda *a: calls.append(a) or sample_index(*a))
        select_index([1.0, 3.0, 2.0], "cs", np.random.default_rng(4), prob_uniform(3))
        assert len(calls) == 1  # the public rule still validates and counts
        A, Xs, B = small_problem(5)
        cfg = SolverConfig(method="ATSP-CS", sketches=make_slice_sketches(10, 4),
                           seed=6, max_iters=200)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 200
        assert len(calls) == 1


class TestSliceDraws:
    @pytest.mark.parametrize("method", ["ATSP-PR", "ATSP-PR-II"])
    def test_uniform_blocks_match_scalar_streams(self, method):
        # every block's rows are the values of one scalar random() per
        # stream and iteration: SeedSequence([seed, 1]) for a spatial set,
        # [seed, 2, k] for kept slice k of a per-slice set
        A, Xs, B = small_problem(72)
        per_slice = method.endswith("-II")
        s = make_fourier_sketches(10, 1, 10, 4, "row") if per_slice else make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method=method, sketches=s, seed=73), x_star=Xs)
        keys = [(73, 2, k) for k in range(3)] if per_slice else [(73, 1)]
        ref = [np.random.default_rng(key) for key in keys]
        assert len(st.rngs) == len(keys)
        for _ in range(3):
            block = st._uniforms()
            assert block.shape == (_UNIFORM_BLOCK, len(keys))
            want = [[r.random() for r in ref] for _ in range(_UNIFORM_BLOCK)]
            assert block.tolist() == want

    @pytest.mark.parametrize("method", ["ATSP-PR-II", "ATSP-CS-II"])
    def test_solved_slices_never_step_and_draws_match_lazy_streams(self, method):
        # x_star and B are a + (-1)^j b along depth, so Fourier slices 1 and
        # 3 are zero and solved from t = 0.  They record -1 and their kept
        # Z[1] stays zero.  Every kept slice's stream is read each iteration,
        # yet the draws equal a reference that reads slice k's scalar stream
        # only when slice k draws, and slice 4 - k records slice k's draw
        rng = np.random.default_rng(74)
        l, m, n, p = 4, 10, 5, 3
        A = rng.standard_normal((m, n, l))
        sign = (-1.0) ** np.arange(l)
        X0, X2 = rng.standard_normal((2, n, p))
        Xs = X0[..., None] + X2[..., None] * sign
        a, b = A.sum(axis=2) @ X0, (A * sign).sum(axis=2) @ X2
        B = a[..., None] + b[..., None] * sign
        assert not fft_slices(B)[[1, 3]].any()
        iters = 2 * _UNIFORM_BLOCK + 5
        cfg = SolverConfig(method=method, sketches=make_fourier_sketches(m, 1, m, l, "row"),
                           seed=75, tol=0.0, max_iters=iters)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == iters
        st = make_state(A, B, cfg, x_star=Xs)
        streams = [np.random.default_rng([75, 2, k]) for k in range(st.h)]
        for choice in rec.chosen[1:]:
            losses = st.losses()
            weights = losses if method == "ATSP-PR-II" else solvers._capped_losses(
                losses, st.base_probs, cfg.theta)
            want = []
            for k, cum in enumerate(np.cumsum(weights, axis=1)):
                want.append(-1 if cum[-1] <= 0 else
                            min(int(np.sum(cum <= streams[k].random() * cum[-1])), m - 1))
            assert choice == (*want, want[1])
            assert choice[1] == choice[3] == -1 and min(choice[0], choice[2]) >= 0
            st.step(np.array(want))
            assert not st.Z[1].any()
        np.testing.assert_array_equal(st.x(), X)

    @pytest.mark.parametrize("method", ["NTSP", "TSP-I", "TSP-II", "NTSP-II"])
    def test_block_draws_match_scalar_streams(self, method):
        # fixed-rule draws come in blocks; the run stops in the middle of one
        A, Xs, B = small_problem(80)
        per_slice = method != "NTSP"
        s = make_fourier_sketches(10, 1, 10, 4, "row") if per_slice else make_slice_sketches(10, 4)
        probs = np.random.default_rng(81).random(10)
        probs /= probs.sum()
        iters = 5 * _UNIFORM_BLOCK // 2
        cfg = SolverConfig(method=method, sketches=s, probabilities=probs, seed=82,
                           tol=0.0, max_iters=iters)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == iters
        cdf = np.cumsum(probs)
        # slice k's scalar stream is SeedSequence([seed, 2, k]), the spatial
        # one SeedSequence([seed, 1]); both draw by one inverse-CDF rule.
        # TSP-I draws every slice; the others draw slices 0..2, and slice 3
        # records slice 1's draw
        streams = 4 if method == "TSP-I" else 3 if per_slice else 1
        rngs = [np.random.default_rng([82, 2, k] if per_slice else [82, 1])
                for k in range(streams)]
        want = [tuple(min(int(np.sum(cdf <= r.random() * cdf[-1])), 9) for r in rngs)
                for _ in range(iters)]
        if streams == 3:
            want = [(*w, w[1]) for w in want]
        assert rec.chosen[1:] == (want if per_slice else [w[0] for w in want])


class TestProjectionStep:
    def test_full_sketch_solves_in_one_step(self):
        rng = np.random.default_rng(4)
        A = spd_weight_tensor(rng, 5, 3)  # invertible
        Xs = rand_tubal(rng, 5, 2, 3)
        B = tprod(A, Xs)
        s = make_block_sketches(5, 3, [range(5)])
        cfg = SolverConfig(method="NTSP", sketches=s, tol=1e-9, seed=0)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 1 and rec.converged
        np.testing.assert_allclose(X, Xs, atol=1e-8)

    def test_exact_decrease_identity(self):
        rng = np.random.default_rng(5)
        A, Xs, B = small_problem(5)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 5, 4))
        s = make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method="ATSP-PR", sketches=s,
                                           weight=Q, seed=6), x_star=Xs)
        scale = st.q_error()
        for _ in range(30):
            losses = st.losses()
            i = st.select(losses)
            before = st.q_error()
            st.step(i)
            after = st.q_error()
            assert abs(before - after - losses[i]) < 1e-8 * scale

    def test_post_step_annihilation(self):
        A, Xs, B = small_problem(7)
        s = make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method="ATSP-MD", sketches=s, seed=1),
                        x_star=Xs)
        for _ in range(25):
            i = st.select(st.losses())
            st.step(i)
            assert st.losses()[i] < 1e-10

    def test_fast_path_matches_direct_block_step(self):
        rng = np.random.default_rng(8)
        A, Xs, B = small_problem(8)
        Qt = spd_weight_tensor(rng, 5, 4)
        s = make_block_sketches(10, 4, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]])
        st = make_state(A, B, SolverConfig(method="NTSP", sketches=s,
                                           weight=WeightQ.from_tensor(Qt), seed=2),
                        x_star=Xs)
        X_ref = np.zeros_like(Xs)
        rng_idx = np.random.default_rng(9)
        for _ in range(12):
            i = int(rng_idx.integers(0, 3))
            st.step(i)
            X_ref = sp_step_direct(A, B, X_ref, s.members[i], Qt)
            assert fnorm(st.x() - X_ref) < 1e-9 * max(fnorm(X_ref), 1.0)

    def test_sketched_loss_matches_oracle_definition(self):
        # loss_i equals the weighted residual energy through the sketched
        # projector, computed here entirely with oracle products
        rng = np.random.default_rng(10)
        A, Xs, B = small_problem(10, m=6, n=4, p=2, l=3)
        Qt = spd_weight_tensor(rng, 4, 3)
        Q = WeightQ.from_tensor(Qt)
        s = make_slice_sketches(6, 3)
        st = make_state(A, B, SolverConfig(method="ATSP-MD", sketches=s,
                                           weight=Q, seed=3), x_star=Xs)
        for _ in range(3):
            st.step(st.select(st.losses()))
        X = st.x()
        for i in range(0, 6, 2):
            Z = projector_tensor(A, Q, s.members[i])
            gam = tprod_oracle(Q.sqrt_tensor(), X - Xs)
            # project the weighted error, then take the plain norm
            expect = fnorm(tprod_oracle(Z, gam)) ** 2
            assert abs(st.losses()[i] - expect) < 1e-8 * max(expect, 1.0)


class TestSpatialBlockStep:
    """The set step Z[k] -= U[j, k].T @ R[k, j] writes into Z itself: one
    zgemm on every slice for spatial sets, one per stepped slice for
    per-slice sets."""

    @staticmethod
    def _state(kind, weighted, l, seed=95):
        A, Xs, B = small_problem(seed, m=12, n=5, p=3, l=l)
        rng = np.random.default_rng(seed)
        s = {
            "slice": lambda: make_slice_sketches(12, l),
            # tau = 3: the shorter blocks get padding rows
            "ragged-block": lambda: make_block_sketches(
                12, l, [[0, 1, 2], [3], [4, 5, 6], [7, 8], [9, 10, 11]]),
            "gaussian": lambda: make_gaussian_sketches(12, 3, 5, l, rng),
            "fourier-row": lambda: make_fourier_sketches(12, 1, 12, l, "row"),
            "fourier-gaussian": lambda: make_fourier_sketches(12, 3, 5, l, "gaussian", rng),
        }[kind]()
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 5, l)) if weighted else None
        cfg = SolverConfig(method="ATSP-MD-II" if s.per_slice else "ATSP-MD", sketches=s,
                           weight=Q, seed=seed)
        return make_state(A, B, cfg, x_star=Xs)

    @pytest.mark.parametrize("l", [4, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["slice", "ragged-block", "gaussian", "fourier-row",
                                      "fourier-gaussian"])
    def test_step_matches_matmul_oracle_in_place(self, kind, weighted, l):
        st = self._state(kind, weighted, l)
        for t in range(4):  # the first step starts from X = O, the others do not
            choice = st.select(st.losses())
            if st.per_slice_selection and t == 2:
                choice = choice.copy()
                choice[1] = -1  # slice 1 is solved: its step is skipped
            picks = np.broadcast_to(choice, st.h)  # a spatial choice holds for every slice
            kept = np.flatnonzero(picks >= 0)
            js = picks[kept]
            Z, R0 = st.Z, st.R.copy()
            # the iterate over the residuals, slices first, read through the views
            stacked = lambda: np.concatenate([st.Xh, st.R.reshape(st.h, -1, st.p)], axis=1)
            Z0 = stacked()
            want, raw = Z0.copy(), Z.copy()
            blocks = np.concatenate([st.step_map, st.cross], axis=2)  # (h, q, n + q tau, tau)
            want[kept] -= blocks[kept, js] @ R0[kept, js]
            st.step(choice)
            # a copy of a non-F-contiguous output would leave Z unchanged
            assert st.Z is Z and not np.array_equal(Z, raw)
            assert np.linalg.norm(stacked() - want) <= 1e-13 * np.linalg.norm(want)
            # the chosen blocks are annihilated as far as their Grams allow; a
            # per-slice Gaussian member leaves ~1e-13 in the oracle's step too
            slack = (np.linalg.norm(want[:, st.n:].reshape(R0.shape)[kept, js])
                     if st.per_slice_selection else 0.0)
            assert np.linalg.norm(st.R[kept, js]) <= 1e-13 * np.linalg.norm(R0[kept, js]) + slack
            skipped = np.flatnonzero(picks < 0)
            assert len(skipped) == (st.per_slice_selection and t == 2)
            assert np.array_equal(stacked()[skipped], Z0[skipped])

    @pytest.mark.parametrize("l", [4, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["slice", "ragged-block", "gaussian-tau2"])
    def test_spatial_step_matches_dense_member_tables(self, kind, weighted, l):
        # the one zgemm on every slice against step maps and cross products
        # multiplied out from dense members: on each kept slice k,
        # Y_k -= step_map[k, j] R[k, j] and R[k] -= cross[k, j] R[k, j]
        rng = np.random.default_rng(97)
        A, Xs, B = small_problem(96, m=12, n=5, p=3, l=l)
        s = {
            "slice": lambda: make_slice_sketches(12, l),
            "ragged-block": lambda: make_block_sketches(
                12, l, [[0, 1, 2], [3], [4, 5, 6], [7, 8], [9, 10, 11]]),
            "gaussian-tau2": lambda: make_gaussian_sketches(12, 2, 6, l, rng),
        }[kind]()
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 5, l)) if weighted else None
        st = make_state(A, B, SolverConfig(method="ATSP-MD", sketches=s, weight=Q, seed=98),
                        x_star=Xs)
        # a ragged block's members, padded with zero columns, as dense mats
        padded = s if s.rows is None else sketching.SketchSet(
            "gaussian", 12, l, s.q, mats=np.moveaxis(np.eye(13)[:12, s.rows], 0, 1))
        dense, h = dense_set_tables(A, B, padded, Q), st.h
        for _ in range(4):
            j = st.select(st.losses())
            Y0, R0 = st.Xh.copy(), st.R.copy()
            want_Y = Y0 - dense["step_map"][:h, j] @ R0[:, j]
            want_R = R0.reshape(h, -1, st.p) - dense["cross"][:h, j] @ R0[:, j]
            st.step(j)
            for got, want in ((st.Xh, want_Y), (st.R.reshape(h, -1, st.p), want_R)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (kind, j)

    def test_step_allocates_no_block_sized_temporary(self):
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=96))
        for method, s in (("ATSP-MD", make_slice_sketches(240, 8)),
                          ("ATSP-MD-II", make_fourier_sketches(240, 1, 240, 8, "row"))):
            st = make_state(A, B, SolverConfig(method=method, sketches=s), x_star=Xs)
            st.step(st.select(st.losses()))
            i = st.select(st.losses())
            tracemalloc.start()
            try:
                st.step(i)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.05 * st.Z.nbytes, method


class TestTrkSpecialization:
    def test_matches_closed_form_update(self):
        A, Xs, B = small_problem(11, m=8, n=4, p=2, l=3)
        s = make_slice_sketches(8, 3)
        cfg = SolverConfig(method="NTSP", sketches=s, seed=4, max_iters=100, tol=0.0)
        X, rec = solve(A, B, cfg, x_star=Xs)
        iterates = []  # each row's iterate, from the reference loop of the same draws
        _, rows, _ = reference_solve(A, B, cfg, Xs, iterates)
        assert rec.chosen == [row[-1] for row in rows]
        np.testing.assert_array_equal(X, iterates[-1])
        X_ref = np.zeros_like(Xs)
        for t in range(1, len(rec.chosen)):
            X_ref = row_action_step_oracle(A, B, X_ref, rec.chosen[t])
            assert fnorm(iterates[t] - X_ref) < 1e-10 * max(fnorm(X_ref), 1.0)

    def test_fresh_draw_and_fourier_paths_agree(self):
        # the fresh-draw method stepping through the Fourier domain must
        # follow the all-spatial block-circulant evaluation sketch for sketch
        A, Xs, B = small_problem(12, m=7, n=4, p=2, l=3)
        st = make_state(A, B, SolverConfig(method="TSP", tau=2, seed=5),
                        x_star=Xs)
        X_ref = np.zeros_like(Xs)
        for _ in range(20):
            S0 = st.select(st.losses())
            st.step(S0)
            S = np.zeros((7, 2, 3))
            S[:, :, 0] = S0
            X_ref = sp_step_direct(A, B, X_ref, S)
            assert fnorm(st.x() - X_ref) < 1e-9 * max(fnorm(X_ref), 1.0)

    def test_fresh_draw_cutoff_spans_the_slices(self):
        # Fourier slices 1 and 3 of A are 1e-13 of the others: rounding-level
        # for the block-circulant pinv, which drops them, so G's cutoff must
        # span a draw's slices (a per-slice cutoff inverts them and deviates),
        # for TSP's fresh draws and for the G that NTSP factors at setup
        A0 = np.random.default_rng(0).standard_normal((6, 3))
        A = A0[:, :, None] * np.fft.ifft([1, 1e-13, 1, 1e-13]).real
        Xs = np.random.default_rng(1).standard_normal((3, 2, 4))
        B = tprod(A, Xs)
        blocks = make_block_sketches(6, 4, [[0, 1], [2, 3], [4, 5]])
        for cfg in (SolverConfig(method="TSP", tau=2, seed=5),
                    SolverConfig(method="NTSP", sketches=blocks, seed=5)):
            st = make_state(A, B, cfg, x_star=Xs)
            X_ref = np.zeros_like(Xs)
            for _ in range(20):
                choice = st.select(None)
                st.step(choice)
                if cfg.method == "TSP":
                    S = np.zeros((6, 2, 4))
                    S[:, :, 0] = choice
                else:
                    S = blocks.member(choice)
                X_ref = sp_step_direct(A, B, X_ref, S)
                assert fnorm(st.x() - X_ref) < 1e-10 * max(fnorm(X_ref), 1.0), cfg.method


class TestRunBehaviour:
    def test_seed_determinism(self):
        A, Xs, B = small_problem(13)
        s = make_slice_sketches(10, 4)
        cfg = SolverConfig(method="ATSP-CS", sketches=s, seed=21, tol=1e-8)
        X1, r1 = solve(A, B, cfg, x_star=Xs)
        X2, r2 = solve(A, B, cfg, x_star=Xs)
        assert np.array_equal(X1, X2)
        assert r1.chosen == r2.chosen
        np.testing.assert_array_equal(r1.epsilon, r2.epsilon)

    def test_weighted_error_is_monotone(self):
        rng = np.random.default_rng(14)
        A, Xs, B = small_problem(14)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 5, 4))
        s = make_gaussian_sketches(10, 2, 6, 4, rng)
        for method in ("NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS"):
            cfg = SolverConfig(method=method, sketches=s, weight=Q, seed=15,
                               max_iters=300, tol=1e-12)
            X, rec = solve(A, B, cfg, x_star=Xs)
            qe = rec.q_error
            assert np.all(qe[1:] <= qe[:-1] * (1 + 1e-9) + 1e-15)
        # the per-slice methods project each subsystem independently, so the
        # same monotonicity holds for their (complex-iterate) weighted error
        f = make_fourier_sketches(10, 1, 10, 4, "row")
        for method in ("NTSP-II", "ATSP-MD-II", "TSP-II"):
            cfg = SolverConfig(method=method, sketches=f, seed=15,
                               max_iters=300, tol=1e-12)
            X, rec = solve(A, B, cfg, x_star=Xs)
            qe = rec.q_error
            assert np.all(qe[1:] <= qe[:-1] * (1 + 1e-9) + 1e-15)

    def test_max_rule_beats_expected_fixed_decrease(self):
        A, Xs, B = small_problem(15)
        s = make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method="ATSP-MD", sketches=s, seed=7),
                        x_star=Xs)
        for _ in range(10):
            losses = st.losses()
            # the greedy decrease dominates both the fixed-sampling and the
            # proportional-sampling expected decreases for the same losses
            assert losses.max() >= prob_uniform(10) @ losses - 1e-15
            assert losses.max() >= (losses**2).sum() / losses.sum() - 1e-15
            st.step(int(np.argmax(losses)))

    def test_greedy_choices_match_oracle_replay(self):
        # recompute every member's loss from scratch with oracle products at
        # each step and check the recorded argmax choices (skipping steps
        # whose top losses tie within rounding, where either pick is fine)
        A, Xs, B = small_problem(35, m=6, n=4, p=2, l=3)
        s = make_block_sketches(6, 3, [[0, 1], [2, 3], [4, 5]])
        cfg = SolverConfig(method="ATSP-MD", sketches=s, seed=23, tol=0.0, max_iters=15)
        X, rec = solve(A, B, cfg, x_star=Xs)
        iterates = []  # each row's iterate, from the reference loop of the same draws
        _, rows, _ = reference_solve(A, B, cfg, Xs, iterates)
        assert rec.chosen == [row[-1] for row in rows]
        np.testing.assert_array_equal(X, iterates[-1])
        projs = [
            projector_tensor(A, WeightQ.identity(4, 3), s.members[i])
            for i in range(3)
        ]
        compared = 0
        for t in range(1, len(rec.chosen)):
            X_prev = iterates[t - 1]
            losses = np.array(
                [fnorm(tprod_oracle(Z, X_prev - Xs)) ** 2 for Z in projs]
            )
            top = np.sort(losses)[-2:]
            if top[1] - top[0] <= 1e-9 * max(top[1], 1e-300):
                continue
            assert rec.chosen[t] == int(np.argmax(losses))
            compared += 1
        assert compared >= 10

    def test_proportional_variance_factor_logged_with_floor(self):
        # after the first step the chosen member's loss vanishes, which
        # pins the logged improvement factor at or above 1 + 1/q
        A, Xs, B = small_problem(36, m=8, n=4, p=2, l=3)
        s = make_slice_sketches(8, 3)
        cfg = SolverConfig(method="ATSP-PR", sketches=s, seed=24, tol=0.0,
                           max_iters=30)
        X, rec = solve(A, B, cfg, x_star=Xs)
        factors = rec.pr_variance_factor[2:]  # logged from the second step on
        factors = factors[np.isfinite(factors)]
        assert factors.size > 0
        assert np.all(factors >= 1.0 + 1.0 / 8 - 1e-12)

    def test_divergence_guard_trips(self):
        A, Xs, B = small_problem(16)
        s = make_slice_sketches(10, 4)
        decoy = Xs * 1e-9  # iterates head to Xs, far away relative to decoy
        cfg = SolverConfig(method="NTSP", sketches=s, seed=8, max_iters=5000,
                           tol=1e-14, record_every=1000)
        with pytest.raises(DivergenceError) as info:
            solve(A, B, cfg, x_star=decoy)
        rec = info.value.record  # the partial run, its last row the diverged one
        assert rec.stop_reason == "diverged" and not rec.converged
        assert rec.t[0] == 0 and rec.t[-1] == rec.iterations < 1000
        assert rec.epsilon[-1] > 1e3 * rec.epsilon[0]
        assert f"iteration {rec.iterations}:" in str(info.value)

    def test_all_methods_converge_on_small_instance(self):
        A, Xs, B = small_problem(17, m=12, n=6, p=3, l=4)
        spatial = make_slice_sketches(12, 4)
        per_slice = make_fourier_sketches(12, 1, 12, 4, "row")
        for method in ("TSP", "NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS"):
            cfg = SolverConfig(method=method, sketches=spatial, tau=4, seed=9,
                               tol=1e-9, max_iters=60_000, record_every=100)
            X, rec = solve(A, B, cfg, x_star=Xs)
            assert rec.converged, method
        for method in ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II",
                       "ATSP-PR-II", "ATSP-CS-II"):
            cfg = SolverConfig(method=method, sketches=per_slice, seed=9,
                               tol=1e-9, max_iters=60_000, record_every=100)
            X, rec = solve(A, B, cfg, x_star=Xs)
            assert rec.converged, method

    def test_zero_sketched_row_yields_zero_factor_and_skipped_update(self):
        # a zero horizontal slice gives an all-zero sketched Gram; its
        # pinv G collapses to zero, the member's loss stays zero, and
        # selecting it moves nothing
        rng = np.random.default_rng(39)
        A = rng.standard_normal((7, 3, 2))
        A[4] = 0.0
        Xs = rng.standard_normal((3, 2, 2))
        B = tprod(A, Xs)
        s = make_slice_sketches(7, 2)
        cfg = SolverConfig(method="NTSP", sketches=s, seed=27, tol=1e-9,
                           max_iters=40_000, record_every=100,
                           check_sampling=False)
        st = make_state(A, B, cfg, x_star=Xs)
        assert np.all(st.G[:, 4] == 0)
        before = st.q_error()
        st.step(4)
        assert st.q_error() == before
        assert st.losses()[4] == 0.0
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.converged and np.isfinite(rec.epsilon).all()

    def test_incomplete_family_warns_but_still_runs(self):
        # fewer sketched directions than unknowns: the certificates no
        # longer apply, the iteration is still well defined
        A, Xs, B = small_problem(37, m=3, n=5, p=2, l=2)
        s = make_slice_sketches(3, 2)
        cfg = SolverConfig(method="NTSP", sketches=s, seed=25, tol=1e-6,
                           max_iters=50)
        with pytest.warns(UserWarning, match="complete discrete sampling"):
            X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 50

    @pytest.mark.parametrize("method", ["TSP-I", "TSP-II", "NTSP-II"])
    def test_direct_states_check_completeness_too(self, method):
        # the check runs once for every finite-set state, so the per-slice
        # fixed rules warn on an incomplete family as the set methods do
        A, Xs, B = small_problem(37, m=3, n=5, p=2, l=2)
        cfg = SolverConfig(method=method, sketches=make_fourier_sketches(3, 1, 3, 2, "row"),
                           seed=25, tol=1e-6, max_iters=50)
        with pytest.warns(UserWarning, match="complete discrete sampling"):
            X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 50

    def test_completeness_check_reads_the_state_stack(self, monkeypatch):
        # the check runs on the sketched stack N the state holds, and gives
        # the verdict of the public call, which transforms A itself
        import warnings as warnings_module

        seen = []
        check = sketching.is_complete_discrete_sampling
        monkeypatch.setattr(sketching, "is_complete_discrete_sampling",
                            lambda A, s, **kw: seen.append(kw["sketched"]) or check(A, s, **kw))
        for m, method, s in ((3, "NTSP", make_slice_sketches(3, 3)),
                             (8, "ATSP-MD", make_block_sketches(8, 3, [[0, 1, 2], [3, 4], [5, 6, 7]])),
                             (8, "NTSP-II", make_fourier_sketches(8, 1, 8, 3, "row"))):
            A, Xs, B = small_problem(39, m=m, n=4, p=2, l=3)
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("ignore")
                st = make_state(A, B, SolverConfig(method=method, sketches=s))
            assert seen[-1] is st.N
            assert check(A, s, sketched=st.N) == check(A, s) == (m == 8), method

    def test_complete_family_does_not_warn(self):
        import warnings as warnings_module

        A, Xs, B = small_problem(38, m=8, n=4, p=2, l=2)
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(8, 2),
                           seed=26, tol=1e-6, max_iters=200)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            solve(A, B, cfg, x_star=Xs)

    def test_config_validation(self):
        A, Xs, B = small_problem(18, m=6, n=3, p=2, l=2)
        spatial = make_slice_sketches(6, 2)
        per_slice = make_fourier_sketches(6, 1, 6, 2, "row")
        with pytest.raises(ValueError):
            make_state(A, B, SolverConfig(method="NTSP-II", sketches=spatial))
        with pytest.raises(ValueError):
            make_state(A, B, SolverConfig(method="NTSP", sketches=per_slice))
        with pytest.raises(ValueError):
            make_state(A, B, SolverConfig(method="TSP-I", sketches=spatial))
        with pytest.raises(ValueError):
            SolverConfig(method="TSP-III").canonical_method()

    def test_non_finite_input_rejected_up_front(self):
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        s = make_slice_sketches(6, 2)
        for method in ("ATSP-MD", "TSP"):
            cfg = SolverConfig(method=method, sketches=s, seed=1, max_iters=10)
            for name, bad in (("A", np.nan), ("B", np.inf), ("x_star", -np.inf)):
                args = {"A": A.copy(), "B": B.copy(), "x_star": Xs.copy()}
                args[name][1, 0, 1] = bad
                with pytest.raises(ValueError, match=f"^{name} contains NaN or inf"):
                    solve(args["A"], args["B"], cfg, x_star=args["x_star"])
            # float64 conversion would drop an imaginary part, and the solver
            # would answer another system
            for name in ("A", "B", "x_star"):
                args = {"A": A, "B": B, "x_star": Xs}
                args[name] = args[name] + 1j
                with pytest.raises(ValueError, match=f"^{name} is complex$"):
                    solve(args["A"], args["B"], cfg, x_star=args["x_star"])

    @pytest.mark.parametrize("field, value", [
        ("record_every", 0),
        ("audit_every", -1),
        ("theta", -0.1),
        ("theta", 1.5),
        ("theta", float("nan")),
        ("max_iters", -1),
        ("max_iters", 2.5),
        ("record_every", 2.5),
        ("audit_every", 0.5),
        ("tol", -1e-8),
        ("tol", float("nan")),
        ("seed", 2.5),
        ("seed", -1),
        ("max_iters", "2"),
        ("theta", "0.5"),
        ("tol", None),
        ("tau", 0),
        ("tau", "2"),
        ("method", 5),
        ("method", "TSP-III"),
        ("weight", np.eye(3)),
        ("sketches", "slice"),
    ])
    def test_bad_config_value_rejected_up_front(self, field, value):
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        cfg = SolverConfig(**{"method": "NTSP", "sketches": make_slice_sketches(6, 2),
                              field: value})
        with pytest.raises(ValueError, match=f"^{field}="):
            solve(A, B, cfg, x_star=Xs)

    def test_whole_float_counts_accepted(self):
        # counts read from a JSON or TOML file may arrive as floats such as 1e5
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(6, 2), tol=0.0,
                           max_iters=12.0, record_every=4.0, audit_every=6.0)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 12 and list(rec.t) == [0, 4, 8, 12]

    @pytest.mark.parametrize("method", ["ATSP-MD", "NTSP-II", "TSP"])
    def test_mis_shaped_x_star_rejected_up_front(self, method):
        # a (3, 1, 2) x_star would broadcast against the (3, 2, 2) iterate
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        per_slice = method.endswith("-II")
        s = make_fourier_sketches(6, 1, 6, 2, "row") if per_slice else make_slice_sketches(6, 2)
        cfg = SolverConfig(method=method, sketches=s, seed=1, tau=2)
        for bad in (Xs[:, :1], Xs[None], Xs[..., :1]):
            with pytest.raises(ValueError) as exc:
                solve(A, B, cfg, x_star=bad)
            assert str(exc.value) == f"x_star has shape {bad.shape}, not (3, 2, 2)"

    def test_fractional_tau_rejected(self):
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        with pytest.raises(ValueError, match="^tau=2.5 "):
            solve(A, B, SolverConfig(method="TSP", tau=2.5), x_star=Xs)

    def test_whole_float_tau_runs_as_the_integer(self):
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        runs = [solve(A, B, SolverConfig(method="TSP", tau=tau, seed=3, max_iters=40,
                                         tol=0.0), x_star=Xs) for tau in (2, 2.0)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1].epsilon, runs[1][1].epsilon)

    @pytest.mark.parametrize("method", ["NTSP", "ATSP-CS", "NTSP-II"])
    def test_nan_probabilities_rejected_up_front(self, method):
        # a NaN passes both the sign test and the sum test of the simplex
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        probs = np.full(6, 1 / 6)
        probs[2] = np.nan
        if method.endswith("-II"):  # one bad row of a per-slice array
            probs = np.vstack([np.full(6, 1 / 6), probs])
            s = make_fourier_sketches(6, 1, 6, 2, "row")
        else:
            s = make_slice_sketches(6, 2)
        cfg = SolverConfig(method=method, sketches=s, probabilities=probs)
        with pytest.raises(ValueError, match="finite"):
            solve(A, B, cfg, x_star=Xs)

    @pytest.mark.parametrize("place, bad", [
        (place, bad) for place in ("spatial solve", "per-slice solve", "TSP-I solve",
                                   "per_slice_rates")
        for bad in ("shape", "nan", "sum", "mirror")
        if (place, bad) != ("spatial solve", "mirror")])
    def test_one_probability_check(self, place, bad):
        # a wrong shape, a NaN row, a row off the simplex and, per slice, a
        # row l - k that is not row k get one message wherever probabilities
        # enter: (q,) everywhere, (l, q) per slice, for TSP-I too, whose
        # slices k and l - k draw from streams of their own
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=3)
        rows = 1 if place == "spatial solve" else 3
        probs = np.full((rows, 6), 1 / 6)
        probs[-1, 2] = np.nan if bad == "nan" else 0.0
        if bad == "mirror":
            probs[-1, 3] = 2 / 6  # a simplex point, not row 1's
        probs = np.full(7, 1 / 7) if bad == "shape" else probs[0] if rows == 1 else probs
        message = {"shape": rf"^probabilities have shape \(7,\), not \(6,\) or \({rows}, 6\)$",
                   "nan": "^probabilities must be finite$",
                   "sum": rf"^probabilities of row {rows - 1} sum to 0\.8\d*, not 1$",
                   "mirror": r"^probabilities of row 2 are not those of row 1: "}[bad]
        s = make_slice_sketches(6, 3) if rows == 1 else make_fourier_sketches(6, 1, 6, 3, "row")
        method = {"spatial solve": "NTSP", "TSP-I solve": "TSP-I"}.get(place, "NTSP-II")
        with pytest.raises(ValueError, match=message):
            if place == "per_slice_rates":
                per_slice_rates(A, None, s, probs)
            else:
                solve(A, B, SolverConfig(method=method, sketches=s, probabilities=probs),
                      x_star=Xs)

    def test_stop_reason_tol(self):
        A, Xs, B = small_problem(19, m=8, n=4, p=2, l=3)
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(8, 3),
                           seed=10, tol=1e-8)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.converged and rec.stop_reason == "tol"

    def test_stop_reason_max_iters(self):
        A, Xs, B = small_problem(19, m=8, n=4, p=2, l=3)
        cfg = SolverConfig(method="TSP", tau=2, seed=10, tol=1e-14, max_iters=5)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert not rec.converged and rec.stop_reason == "max_iters"

    @pytest.mark.parametrize("method", ZERO_LOSS_METHODS)
    def test_stop_reason_zero_loss(self, method):
        # B = O: every sketched residual is exactly zero from the start, and
        # tol=0 keeps the zero residual from stopping the run first
        A, Xs, B = small_problem(19, m=8, n=4, p=2, l=3)
        s = (make_fourier_sketches(8, 1, 8, 3, "row") if method.endswith("-II")
             else make_slice_sketches(8, 3))
        cfg = SolverConfig(method=method, sketches=s, seed=10, tol=0.0)
        X, rec = solve(A, np.zeros_like(B), cfg)
        assert rec.converged and rec.iterations == 0
        assert rec.stop_reason == "zero_loss"

    @pytest.mark.parametrize("method", ZERO_LOSS_METHODS)
    def test_zero_loss_stop_mid_run_on_the_same_iteration(self, method):
        # A = I: drawing member i zeroes R_i exactly and leaves the others,
        # so the losses reach zero once every member has been drawn; the
        # fixed rules, which compute no losses, must stop on that iteration
        m, l = 6, 3
        A = identity(m, l)
        Xs = rand_tubal(np.random.default_rng(26), m, 2, l)
        B = tprod(A, Xs)
        s = (make_fourier_sketches(m, 1, m, l, "row") if method.endswith("-II")
             else make_slice_sketches(m, l))
        cfg = SolverConfig(method=method, sketches=s, seed=27, tol=0.0, max_iters=500)
        X, rec = solve(A, B, cfg, x_star=Xs)
        st = make_state(A, B, cfg, x_star=Xs)
        while (losses := st.losses()).max() > 0.0:
            st.step(st.select(losses))
        assert rec.stop_reason == "zero_loss"
        assert rec.iterations == st.t >= m
        np.testing.assert_array_equal(X, st.x())

    @pytest.mark.parametrize("method", ["NTSP", "NTSP-II", "TSP-II"])
    def test_fixed_rules_log_no_losses(self, method, monkeypatch):
        # a fixed rule does not read its losses: every row holds NaN loss
        # statistics, at any record cadence, and select tests them only
        # where the drawn members' residuals are exactly zero (here where a
        # draw repeats the last one), so their losses read exactly 0, and
        # the test's verdict is that of every loss.  At record_every=25 draws
        # are projected in blocks, whose rounding is not the sequential
        # steps' (nor is which residual rounds to exactly 0): errors and X
        # agree to 1e-13
        A, Xs, B = small_problem(28, m=8, n=4, p=2, l=3)
        s = (make_fourier_sketches(8, 1, 8, 3, "row") if method.endswith("-II")
             else make_slice_sketches(8, 3))
        cfg = SolverConfig(method=method, sketches=s, seed=29, tol=1e-10, max_iters=20_000)
        cls = solvers._METHOD_TABLE[method][0]
        drawn_losses, any_loss = [], cls._any_loss

        def spy(st):
            every = st.losses()
            verdict = any_loss(st)
            assert verdict == (every.max() > 0.0)
            return verdict

        def spy_sequential(st):
            every = st.losses()
            row = st.block[st.drawn]  # the draw being made
            drawn_losses.append(every[row[0]] if every.ndim == 1 else every[st.slices, row])
            return spy(st)

        monkeypatch.setattr(cls, "_any_loss", spy_sequential)
        X1, every = solve(A, B, cfg, x_star=Xs)
        monkeypatch.setattr(cls, "_any_loss", spy)
        X25, sparse = solve(A, B, dataclasses.replace(cfg, record_every=25), x_star=Xs)
        assert sparse.stop_reason == every.stop_reason == "tol"
        assert sparse.iterations == every.iterations
        assert len(every.t) == every.iterations + 1 and len(sparse.t) > 3
        for rec in (every, sparse):
            for f in ("loss_max", "loss_sum", "pr_variance_factor"):
                assert np.isnan(getattr(rec, f)).all(), f
        rows = np.searchsorted(every.t, sparse.t)
        np.testing.assert_array_equal(sparse.t, every.t[rows])
        assert np.all(np.abs(sparse.epsilon - every.epsilon[rows]) <= 1e-13 * every.epsilon[0])
        assert sparse.chosen == [every.chosen[r] for r in rows]
        assert all(np.all(drawn == 0.0) for drawn in drawn_losses)
        assert np.linalg.norm(X25 - X1) <= 1e-13 * np.linalg.norm(X1)

    def test_zero_test_stops_at_the_first_positive_slice(self, monkeypatch):
        # NTSP's draw at t = 93 (the 94th) repeats the last member, so its
        # residuals are exactly zero; another member's loss is positive on
        # the first slice already, and the test computes no other slice's
        # energies.  The stop iteration is the one every loss gives
        A, Xs, B = small_problem(28, m=8, n=4, p=2, l=3)
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(8, 3), seed=29, tol=1e-10,
                           max_iters=20_000)
        cls = solvers._SpatialDirectState
        energies, any_loss, tested = cls._energies, cls._any_loss, []

        def counted(st):
            for e in energies(st):
                tested[-1][1] += 1
                yield e

        def spy(st):
            tested.append([st.t, 0])
            return any_loss(st)

        monkeypatch.setattr(cls, "_energies", counted)
        monkeypatch.setattr(cls, "_any_loss", spy)
        _, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.stop_reason == "tol" and rec.iterations == 390
        assert tested == [[93, 1]] and make_state(A, B, cfg).h == 2

    def test_trace_cadence(self):
        A, Xs, B = small_problem(19, m=8, n=4, p=2, l=3)
        s = make_slice_sketches(8, 3)
        cfg = SolverConfig(method="NTSP", sketches=s, seed=10, tol=1e-8,
                           record_every=25)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.t[0] == 0 and rec.t[-1] == rec.iterations
        assert all(t % 25 == 0 for t in rec.t[1:-1])


class TestResidualAudit:
    def test_zero_at_start(self):
        A, Xs, B = small_problem(20)
        st = make_state(A, B, SolverConfig(method="ATSP-MD",
                                           sketches=make_slice_sketches(10, 4),
                                           seed=11), x_star=Xs)
        assert st.audit() < 1e-14

    def test_small_after_many_steps(self):
        A, Xs, B = small_problem(21)
        for method, sketches in (
            ("ATSP-PR", make_slice_sketches(10, 4)),
            ("ATSP-PR-II", make_fourier_sketches(10, 1, 10, 4, "row")),
        ):
            st = make_state(A, B, SolverConfig(method=method, sketches=sketches,
                                               seed=12), x_star=Xs)
            for _ in range(100):
                st.step(st.select(st.losses()))
            assert st.audit() < 1e-8

    def test_detects_injected_corruption(self):
        A, Xs, B = small_problem(22)
        st = make_state(A, B, SolverConfig(method="ATSP-MD",
                                           sketches=make_slice_sketches(10, 4),
                                           seed=13), x_star=Xs)
        for _ in range(5):
            st.step(st.select(st.losses()))
        bump = 0.37
        st.R[1, 2, 0, 0] += bump
        assert st.audit() > bump / 2

    @pytest.mark.parametrize("method", ["ATSP-MD", "ATSP-PR", "ATSP-MD-II"])
    def test_solve_audit_cadence(self, method, monkeypatch):
        # the adaptive set states recurse their residuals and are audited on
        # the cadence; fixed rules project from the iterate and keep none
        A, Xs, B = small_problem(23)
        s = (make_fourier_sketches(10, 1, 10, 4, "row") if method.endswith("-II")
             else make_slice_sketches(10, 4))
        cfg = SolverConfig(method=method, sketches=s, seed=14, tol=1e-10,
                           audit_every=50, record_every=50)
        audited = []
        audit = solvers._SetState.audit
        monkeypatch.setattr(solvers._SetState, "audit", lambda st: audited.append(st.t) or audit(st))
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations >= 100
        assert audited == list(range(50, rec.iterations + 1, 50))
        assert rec.audit_max < 1e-8


def loss_oracle(st, R):
    """The sketched losses by einsum: ||R[k, i]||_F^2 per slice for
    per-slice sets, (1/l) sum_k w_k ||R[k, i]||_F^2 over the kept slices
    for spatial sets."""
    energy = np.einsum("kitp,kitp->ki", R.conj(), R).real
    return energy if st.per_slice_selection else st.w @ energy / st.l


class TestSpatialLosses:
    """One loss kernel for every adaptive set method: R's float view squared
    into a buffer and summed by gemv.  The fixed rules' direct states form
    their losses from the iterate, r^H G r with r = N Y - S^H B."""

    @pytest.mark.parametrize("l", [4, 5])
    @pytest.mark.parametrize("kind", ["slice", "ragged-block", "gaussian-tau3", "fourier-row",
                                      "fourier-gaussian-tau3"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_losses_and_audit_match_einsum_oracle(self, l, kind, weighted):
        rng = np.random.default_rng(31 + l)
        m, n = 10, 4
        A, Xs, B = small_problem(32, m=m, n=n, p=2, l=l)
        s = {
            "slice": lambda: make_slice_sketches(m, l),
            "ragged-block": lambda: make_block_sketches(m, l, [[0, 4, 7], [1, 2], [3, 5, 8, 9], [6]]),
            "gaussian-tau3": lambda: make_gaussian_sketches(m, 3, 5, l, rng),
            "fourier-row": lambda: make_fourier_sketches(m, 1, m, l, "row"),
            "fourier-gaussian-tau3": lambda: make_fourier_sketches(m, 3, 5, l, "gaussian", rng),
        }[kind]()
        weight = WeightQ.from_tensor(spd_weight_tensor(rng, n, l)) if weighted else None
        fixed, adaptive = (
            make_state(A, B, SolverConfig(method=method + "-II" * s.per_slice, sketches=s,
                                          weight=weight, seed=3), Xs)
            for method in ("NTSP", "ATSP-PR"))
        # the set state's C, N and S^H B on every slice give the fixed state's
        # fresh residuals C^H (N Y - S^H B) too: both factor the same system.
        # One exception: NTSP-II's r^H G r, through the explicit pinv G, is
        # 7e-14 off at t = 2 in member 4 of slice 2 of the l = 4 Gaussian set
        # (its Gram's condition is 449; the C-factored oracle is within 2e-15
        # of a long-double value).  That slice's draws and bits are as before
        # the family was mirrored, when slice 3's independent losses, up to
        # 12, set the step's scale; with slice 3 mirroring slice 1 the scale
        # there is 5.06, so that one comparison keeps its start-of-run scale
        CH = np.conj(np.swapaxes(adaptive.C, -1, -2))
        start_scale = (kind, l, weighted) == ("fourier-gaussian-tau3", 4, False)
        start = None  # the fixed state's largest loss at t = 0
        for _ in range(6):
            for st, R in ((fixed, CH @ (adaptive.N @ fixed.Xh[:, None] - adaptive.SB)),
                          (adaptive, adaptive.R)):
                expect = loss_oracle(st, R)
                if st is fixed and start is None:
                    start = expect.max()
                scale = start if start_scale and st is fixed else expect.max()
                assert np.max(np.abs(st.losses() - expect)) <= 1e-14 * scale
                st.step(st.select(st.losses() if st.adaptive else None))
        st = adaptive
        st.R[...] += 1e-3 * (rng.standard_normal(st.R.shape) + 1j * rng.standard_normal(st.R.shape))
        fresh = CH @ ((st.N @ st.Xh[:, None]) - st.SB)
        scale = 1 if st.per_slice_selection else st.l  # spatial: sum_k w_k, no 1/l
        expect = np.sqrt(scale * loss_oracle(st, fresh - st.R).max())
        assert abs(st.audit() - expect) <= 1e-14 * expect

    def test_losses_allocate_only_their_result(self):
        # the loss kernel writes into buffers made at setup; an einsum over
        # the residuals would also allocate an (h, q) temporary, 9.6 KB here.
        # numpy >= 2.3 copies a strided ufunc operand whose rows are shorter
        # than half its ufunc buffer into that buffer (up to np.getbufsize()
        # elements, 64 KB by default, whatever the problem size), so the
        # buffer is shrunk below twice the residual rows for the measurement
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=88))
        for method, s in (("ATSP-MD", make_slice_sketches(240, 8)),
                          ("ATSP-MD-II", make_fourier_sketches(240, 1, 240, 8, "row"))):
            st = make_state(A, B, SolverConfig(method=method, sketches=s), x_star=Xs)
            bufsize = np.getbufsize()
            np.setbufsize(1024)
            try:
                st.losses()
                tracemalloc.start()
                losses = st.losses()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                np.setbufsize(bufsize)
            assert losses.shape == ((st.h, st.q) if st.per_slice_selection else (st.q,))
            assert peak <= losses.nbytes + 1024, method

    def test_spatial_losses_read_contiguous_residual_rows(self):
        # member i's residual rows are one contiguous block of the member-major
        # Z, so squaring them copies nothing into numpy's ufunc buffer at its
        # default size (slices-first rows, shorter than that buffer, cost
        # about 58 KB a call here)
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=88))
        st = make_state(A, B, SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(240, 8)),
                        x_star=Xs)
        st.losses()
        tracemalloc.start()
        try:
            losses = st.losses()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= losses.nbytes + 1024

    def test_per_slice_losses_read_the_residual_rows_in_place(self):
        # the per-slice losses are one vecdot of the (h, q, 2 tau p) float
        # view of the slices-first residual rows, which copies nothing at
        # numpy's default ufunc buffer size: a square of that strided view
        # copied it into the buffer, 58 KB a call here for a 15 KB result
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=88))
        st = make_state(A, B, SolverConfig(method="ATSP-MD-II", sketches=make_fourier_sketches(
            240, 1, 240, 8, "row")), x_star=Xs)
        st.losses()
        tracemalloc.start()
        try:
            losses = st.losses()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert losses.shape == (st.h, st.q) == (5, 240)
        assert peak <= losses.nbytes + 1024


class TestErrorBuffer:
    @pytest.mark.parametrize("method", ["ATSP-MD", "ATSP-MD-II"])
    def test_errors_allocate_no_array(self, method):
        # the iterate, a strided view of Z, is copied into the error buffer
        # and the C-contiguous Xsh subtracted in place; a ufunc reading both
        # would copy the strided operand into a fresh buffer (6-17 KB here)
        A, Xs, B = gen_gaussian(ProblemSpec(m=50, n=20, p=5, l=5, seed=90))
        s = (make_fourier_sketches(50, 1, 50, 5, "row") if method.endswith("-II")
             else make_slice_sketches(50, 5))
        st = make_state(A, B, SolverConfig(method=method, sketches=s), x_star=Xs)
        st.step(st.select(st.losses()))
        want = st._errors()
        tracemalloc.start()
        try:
            got = st._errors()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 1024


class TestSetLayout:
    @pytest.mark.parametrize("method", ["ATSP-MD", "ATSP-MD-II"])
    def test_tables_are_views_of_one_block_and_one_table(self, method):
        A, Xs, B = small_problem(84)
        s = (make_fourier_sketches(10, 2, 6, 4, "gaussian", np.random.default_rng(85))
             if method.endswith("-II") else make_block_sketches(10, 4, [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9]]))
        st = make_state(A, B, SolverConfig(method=method, sketches=s, seed=86), x_star=Xs)
        h, n, p, q, tau = st.h, 5, 3, s.q, max(s.taus)
        # U is member-major for both set kinds, Z for spatial sets only
        z = (h, n + q * tau, p) if st.per_slice_selection else (n + q * tau, h * p)
        assert st.Z.shape == z and st.Z.flags.c_contiguous
        assert st.U.shape == (q, h * tau, n + q * tau) and st.U.flags.c_contiguous
        assert st.Xh.shape == (h, n, p) and st.R.shape == (h, q, tau, p)
        assert st.step_map.shape == (h, q, n, tau) and st.cross.shape == (h, q, q * tau, tau)
        for view, block in ((st.Xh, st.Z), (st.R, st.Z), (st.step_map, st.U), (st.cross, st.U)):
            assert np.shares_memory(view, block)
        # every array the state holds is its own table, so sizing it counts each once
        held = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[:i])
        X0 = st.Xh.copy()
        st.step(st.select(st.losses()))
        assert not np.array_equal(st.Xh, X0)
        assert st.audit() < 1e-12

    def test_setup_transient_below_half_of_cross(self):
        # the cross table is filled one slice at a time, so setup never
        # holds a second table-sized array
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=87))
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(240, 8))
        tracemalloc.start()
        try:
            st = make_state(A, B, cfg, x_star=Xs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 0.5 * st.cross.nbytes

    def test_setup_peak_is_the_table_the_data_and_one_slice(self):
        # identity weight, slice set: N is a view of Ah, no (l, n, n) weight
        # table and no whole N^H are built, and the cross products go
        # straight into U, so setup peaks at U, Ah and a few (q, n) slices
        A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=87))
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(240, 8))
        tracemalloc.start()
        try:
            st = make_state(A, B, cfg, x_star=Xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= st.U.nbytes + st.Ah.nbytes + 4 * 240 * 40 * 16
        assert np.shares_memory(st.N, st.Ah)

    @pytest.mark.parametrize("method", ["NTSP-II", "ATSP-MD-II", "TSP-II"])
    def test_per_slice_row_tables_are_views_of_the_transform(self, method):
        # the kept slices of the transform are C-contiguous, so the fourier-row
        # gather of rows 0..m-1 in order is a reshape of Ah, not a copy
        A, Xs, B = small_problem(88)
        st = make_state(A, B, SolverConfig(method=method,
                                           sketches=make_fourier_sketches(10, 1, 10, 4, "row")))
        N = st.tables[0] if method == "TSP-II" else st.N
        assert st.Ah.shape[0] == 3 and st.Ah.flags.c_contiguous
        assert np.shares_memory(N, st.Ah)

    @pytest.mark.parametrize("method", ["NTSP", "ATSP-MD", "ATSP-MD-II"])
    def test_identity_weight_object_runs_as_no_weight(self, method):
        A, Xs, B = small_problem(89)
        s = make_fourier_sketches(10, 1, 10, 4, "row") if method.endswith("-II") else \
            make_block_sketches(10, 4, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])
        runs = [solve(A, B, SolverConfig(method=method, sketches=s, weight=w, seed=90, tol=1e-10,
                                         max_iters=300, record_every=1), x_star=Xs)
                for w in (None, WeightQ.identity(5, 4))]
        (X0, r0), (X1, r1) = runs
        assert np.array_equal(X0, X1) and r0.chosen == r1.chosen and r0.stop_reason == r1.stop_reason
        for f in ("t", "epsilon", "q_error", "loss_max", "loss_sum", "pr_variance_factor"):
            assert np.array_equal(getattr(r0, f), getattr(r1, f), equal_nan=True), f

    def test_record_keeps_setup_seconds(self, monkeypatch):
        make_state = solvers.make_state

        def slow_make_state(*args):
            time.sleep(0.05)
            return make_state(*args)

        monkeypatch.setattr(solvers, "make_state", slow_make_state)
        A, Xs, B = small_problem(88)
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(10, 4), max_iters=5)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.setup_s >= 0.05 > rec.seconds[-1]  # setup is not loop time


class TestPerSliceVariants:
    @pytest.mark.parametrize("l", [4, 5])
    def test_stacked_imag_residue_reported(self, l):
        # the diagnostic is skipped while slices 0 and l/2 are real; an
        # imaginary part put into one of them must still be reported
        A, Xs, B = small_problem(64, m=7, n=4, p=2, l=l)
        f = make_fourier_sketches(7, 1, 7, l, "row")
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f, seed=65), x_star=Xs)
        st.step(st.select(None))
        assert st.max_imag_residue == 0.0
        st.Xh[l // 2 if l % 2 == 0 else 0] += 0.25j
        st.step(st.select(None))
        own = [0, l // 2] if l % 2 == 0 else [0]
        want = np.linalg.norm(st.Xh[own].imag) / st._norm(st.Xh)
        assert want > 0
        assert st.max_imag_residue == pytest.approx(want, rel=1e-12)

    def test_stacked_iterates_stay_real(self):
        A, Xs, B = small_problem(24)
        f = make_fourier_sketches(10, 1, 10, 4, "row")
        cfg = SolverConfig(method="TSP-I", sketches=f, seed=15, tol=1e-8,
                           max_iters=20_000, record_every=100)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.converged
        assert rec.max_imag_residue < 1e-9

    def test_stacked_step_with_shared_real_draw_matches_spatial(self):
        # when every slice draws the same coordinate vector, stacking a zero
        # imaginary block is a no-op and the step equals the spatial one
        A, Xs, B = small_problem(25, m=8, n=4, p=2, l=4)
        f = make_fourier_sketches(8, 1, 8, 4, "row")
        spatial = make_slice_sketches(8, 4)
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f, seed=16),
                        x_star=Xs)
        ref = make_state(A, B, SolverConfig(method="NTSP", sketches=spatial,
                                            seed=16), x_star=Xs)
        for i in (2, 0, 5, 3):
            st.step(np.full(4, i))
            ref.step(i)
            assert fnorm(st.x() - ref.x()) < 1e-8 * max(fnorm(ref.x()), 1.0)

    def test_real_part_run_with_shared_draws_matches_spatial(self):
        A, Xs, B = small_problem(26, m=8, n=4, p=2, l=4)
        f = make_fourier_sketches(8, 1, 8, 4, "row")
        spatial = make_slice_sketches(8, 4)
        st = make_state(A, B, SolverConfig(method="TSP-II", sketches=f, seed=17),
                        x_star=Xs)
        ref = make_state(A, B, SolverConfig(method="NTSP", sketches=spatial,
                                            seed=17), x_star=Xs)
        rng = np.random.default_rng(18)
        for _ in range(40):
            i = int(rng.integers(0, 8))
            st.step(np.full(4, i))
            ref.step(i)
        assert fnorm(st.x() - ref.x()) < 1e-8 * max(fnorm(ref.x()), 1.0)

    @pytest.mark.parametrize("kind", ["row", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_tsp_ii_and_ntsp_ii_are_one_method(self, kind, weighted):
        # the paper's two names for one fixed-rule method run on one state:
        # the same draws, records and X, bit for bit
        assert solvers._METHOD_TABLE["TSP-II"] == solvers._METHOD_TABLE["NTSP-II"]
        rng = np.random.default_rng(70)
        A, Xs, B = small_problem(70, m=9, n=4, p=2, l=5)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, 5)) if weighted else None
        f = (make_fourier_sketches(9, 1, 9, 5, "row") if kind == "row"
             else make_fourier_sketches(9, 2, 4, 5, "gaussian", rng))
        (X1, r1), (X2, r2) = (
            solve(A, B, SolverConfig(method=method, sketches=f, weight=Q, seed=71, tol=1e-10,
                                     max_iters=5000, record_every=3), x_star=Xs)
            for method in ("TSP-II", "NTSP-II"))
        assert r1.stop_reason == r2.stop_reason == "tol" and r1.iterations > _UNIFORM_BLOCK
        assert np.array_equal(X1, X2) and r1.chosen == r2.chosen
        for name in ("t", "epsilon", "q_error", "loss_max", "loss_sum", "pr_variance_factor"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name), equal_nan=True), name

    def test_direct_solve_holds_one_gathered_block(self):
        # select drops the old block, and the operands it handed to step, before
        # gathering the next: over three 64-draw blocks (688 KB each here) the
        # solve peaks within one block of make_state's peak, where holding a
        # second block, or the operands' part of it, would add that too
        A, Xs, B = small_problem(72, m=240, n=40, p=3, l=8)
        cfg = SolverConfig(method="TSP-II", sketches=make_fourier_sketches(240, 1, 240, 8, "row"),
                           seed=73, tol=0.0, max_iters=3 * _UNIFORM_BLOCK, record_every=10**9)
        peaks = []
        for run in (make_state, solve):
            tracemalloc.start()
            try:
                st = run(A, B, cfg, x_star=Xs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert st[1].iterations == 3 * _UNIFORM_BLOCK
        st = make_state(A, B, cfg, x_star=Xs)
        st.select(None)
        block = sum(T.nbytes for T in st.gathered)
        assert peaks[1] <= peaks[0] + block, (peaks, block)

    def test_cached_and_direct_per_slice_paths_agree(self):
        A, Xs, B = small_problem(27, m=9, n=5, p=2, l=3)
        f = make_fourier_sketches(9, 1, 9, 3, "row")
        cfg = dict(sketches=f, seed=19, tol=1e-8, max_iters=30_000,
                   record_every=50)
        X1, r1 = solve(A, B, SolverConfig(method="TSP-II", **cfg), x_star=Xs)
        X2, r2 = solve(A, B, SolverConfig(method="NTSP-II", **cfg), x_star=Xs)
        assert r1.iterations == r2.iterations
        assert fnorm(X1 - X2) < 1e-8 * max(fnorm(X2), 1.0)

    def test_single_slice_reduces_to_spatial_adaptive(self):
        A, Xs, B = small_problem(28, m=8, n=4, p=2, l=1)
        f = make_fourier_sketches(8, 1, 8, 1, "row")
        spatial = make_slice_sketches(8, 1)
        got, r1 = solve(A, B, SolverConfig(method="ATSP-PR-II", sketches=f,
                                           seed=20, tol=1e-9), x_star=Xs)
        ref, r2 = solve(A, B, SolverConfig(method="ATSP-PR", sketches=spatial,
                                           seed=20, tol=1e-9), x_star=Xs)
        # same seed gives different draw streams (per-slice vs global), so
        # compare the contraction behaviour rather than the trajectory
        assert r1.converged and r2.converged
        np.testing.assert_allclose(got, Xs, atol=1e-7)
        np.testing.assert_allclose(ref, Xs, atol=1e-7)

    def test_stacked_step_matches_naive_transform_oracle(self):
        # rebuild one stacked step entirely from direct DFT summations and
        # the block-circulant projection, with a nontrivial weight
        from conftest import naive_dft3, naive_idft3

        rng = np.random.default_rng(40)
        A, Xs, B = small_problem(40, m=7, n=4, p=2, l=3)
        Qt = spd_weight_tensor(rng, 4, 3)
        f = make_fourier_sketches(7, 2, 4, 3, "gaussian", rng)
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f,
                                           weight=WeightQ.from_tensor(Qt),
                                           seed=41), x_star=Xs)
        Ah, Bh = naive_dft3(A), naive_dft3(B)
        eye_sketch = np.zeros((4, 4, 3))
        eye_sketch[:, :, 0] = np.eye(4)  # full sketch of the stacked system
        X_ref = np.zeros_like(Xs)
        for _ in range(8):
            idx = st.select(st.losses())
            st.step(idx)
            Acheck = np.stack(
                [f.members[k][idx[k]].conj().T @ Ah[:, :, k] for k in range(3)],
                axis=2,
            )
            Bcheck = np.stack(
                [f.members[k][idx[k]].conj().T @ Bh[:, :, k] for k in range(3)],
                axis=2,
            )
            Atil, Btil = naive_idft3(Acheck), naive_idft3(Bcheck)
            As = np.concatenate([Atil.real, Atil.imag], axis=0)
            Bs = np.concatenate([Btil.real, Btil.imag], axis=0)
            X_ref = sp_step_direct(As, Bs, X_ref, eye_sketch, Qt)
            assert fnorm(st.x() - X_ref) < 1e-9 * max(fnorm(X_ref), 1.0)

    @pytest.mark.parametrize("l", [1, 2, 4, 5])
    @pytest.mark.parametrize("kind", ["row", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_mirrored_table_step_matches_stacked_oracle(self, l, kind, weighted):
        # odd and even l, with the self-mirrored slices 0 and l/2
        rng = np.random.default_rng(60 + l)
        A, Xs, B = small_problem(60 + l, m=7, n=4, p=2, l=l)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, l)) if weighted else None
        f = (make_fourier_sketches(7, 1, 7, l, "row") if kind == "row"
             else make_fourier_sketches(7, 2, 4, l, "gaussian", rng))
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f, weight=Q,
                                           seed=61), x_star=Xs)
        Ah, Bh = (np.fft.fft(np.moveaxis(T.astype(np.complex128), 2, 0), axis=0)
                  for T in (A, B))
        members = f.members
        Qinv = np.eye(4) if Q is None else np.linalg.inv(Q.hat)
        Xh = np.zeros((l, 4, 2), dtype=np.complex128)
        for _ in range(300):
            idx = st.select(st.losses())
            st.step(idx)
            Xh = stacked_step_oracle(Ah, Bh, Qinv, members, Xh, idx)
            half = Xh[:l // 2 + 1]  # the state keeps slices 0..l//2, of Y = Q^{1/2} X
            got = st.Xh if Q is None else Q.inv_sqrt[:l // 2 + 1] @ st.Xh
            assert np.linalg.norm(got - half) <= 1e-12 * np.linalg.norm(half)
        assert st.max_imag_residue <= 1e-12

    @pytest.mark.parametrize("l", [4, 5])
    @pytest.mark.parametrize("kind", ["row", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_block_factored_run_matches_per_choice_replay(self, monkeypatch, l, kind, weighted):
        # select gathers the projections of all 64 draws of a block: TSP-I
        # factors their pair Grams in one batched_hpinv call, TSP-II gathers
        # the factors it made at setup.  A copy of a choice is not the one
        # select returned, so the replay gathers (and factors) every choice
        # alone; TSP-II's run also equals the direct oracle to the bit
        rng = np.random.default_rng(80 + l)
        A, Xs, B = small_problem(80 + l, m=7, n=4, p=2, l=l)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, l)) if weighted else None
        f = (make_fourier_sketches(7, 1, 7, l, "row") if kind == "row"
             else make_fourier_sketches(7, 2, 4, l, "gaussian", rng))
        t = 2 * _UNIFORM_BLOCK + 10  # crosses two block boundaries
        blocks = -(-t // _UNIFORM_BLOCK)
        calls = []
        factor = solvers.batched_hpinv
        monkeypatch.setattr(solvers, "batched_hpinv", lambda M, slice_axis=None:
                            calls.append(M.shape) or factor(M, slice_axis))
        for method in ("TSP-I", "TSP-II"):
            cfg = SolverConfig(method=method, sketches=f, weight=Q, seed=81, tol=0.0,
                               max_iters=t)
            iterates = []  # each row's iterate, from the reference loop of the same draws
            _, rows, _ = reference_solve(A, B, cfg, Xs, iterates)
            calls.clear()
            X_last, rec = solve(A, B, cfg, x_star=Xs)
            assert rec.chosen == [row[-1] for row in rows]
            np.testing.assert_array_equal(X_last, iterates[-1])
            assert rec.iterations == t
            if method == "TSP-I":  # a block is gathered slices first
                assert len(calls) == blocks
                assert calls[0][1] == _UNIFORM_BLOCK
            else:  # once, at setup, on every member's Gram of the kept slices
                assert calls == [(l // 2 + 1, f.q, f.tau, f.tau)]

            replay = make_state(A, B, cfg, x_star=Xs)
            for choice, X in zip(rec.chosen[1:], iterates[1:]):
                replay.step(np.array(choice))
                assert fnorm(replay.x() - X) <= 1e-12 * max(fnorm(X), 1.0)
            assert len(calls) == (blocks + t if method == "TSP-I" else 2)

        # rec is TSP-II's run; replay it through the oracle on dense-member
        # tables of the whitened system, whose iterate is Y = Q^{1/2} X: its
        # kept slices to the bit, and all l slices, slice l - k stepped on
        # slice k's draw, to rounding
        tables = dense_set_tables(A, B, f, Q)
        C = tables["C"]
        tables["G"] = C @ np.conj(np.swapaxes(C, -1, -2))
        Yh = np.zeros((l, 4, 2), dtype=np.complex128)
        for choice, X in zip(rec.chosen[1:], iterates[1:]):
            Yh = direct_step_oracle(tables, Yh, np.array(choice))
            Xh = Yh if Q is None else Q.inv_sqrt @ Yh
            assert np.array_equal(irfft_slices(Xh[:l // 2 + 1], l), X)
            assert fnorm(ifft_slices(Xh) - X) <= 1e-12 * max(fnorm(X), 1.0)

    @pytest.mark.parametrize("method", ["TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II"])
    def test_recorded_choices_replay_and_other_shapes_are_rejected(self, method):
        # a record's choice holds l entries, slice l - k's equal to slice k's:
        # step takes it as the h entries select returns, and names any other
        # choice instead of broadcasting it or keeping part of it
        A, Xs, B = small_problem(90, m=7, n=4, p=2, l=4)
        cfg = SolverConfig(method=method, sketches=make_fourier_sketches(7, 1, 7, 4, "row"),
                           seed=91, tol=0.0, max_iters=12)
        X_last, rec = solve(A, B, cfg, x_star=Xs)
        iterates = []  # each row's iterate, from the reference loop of the same draws
        _, rows, _ = reference_solve(A, B, cfg, Xs, iterates)
        assert rec.chosen == [row[-1] for row in rows]
        np.testing.assert_array_equal(X_last, iterates[-1])
        replay = make_state(A, B, cfg, x_star=Xs)
        for choice, X in zip(rec.chosen[1:], iterates[1:]):
            assert len(choice) == 4 and choice[3] == choice[1]
            replay.step(np.array(choice))
            assert fnorm(replay.x() - X) <= 1e-12 * max(fnorm(X), 1.0)
        for bad in ([0, 1], [0, 1, 2, 0], [[0, 1, 2]]):
            with pytest.raises(ValueError, match="choice"):
                replay.step(np.array(bad))
        assert replay.t == len(rec.chosen) - 1

    def test_stacked_loop_runs_no_transform(self, monkeypatch):
        A, Xs, B = small_problem(62, m=8, n=4, p=2, l=5)
        f = make_fourier_sketches(8, 1, 8, 5, "row")
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f, seed=63),
                        x_star=Xs)

        def forbidden(*args, **kwargs):
            raise AssertionError("depth transform inside the TSP-I loop")

        monkeypatch.setattr(np.fft, "fft", forbidden)
        monkeypatch.setattr(np.fft, "ifft", forbidden)
        for _ in range(20):
            st.step(st.select(st.losses()))
            st._errors()
        assert st.t == 20

    def test_stacked_single_slice_is_plain_projection(self):
        # with one frontal slice the imaginary block vanishes and the
        # stacked step is the ordinary sketched projection
        rng = np.random.default_rng(42)
        A, Xs, B = small_problem(42, m=7, n=4, p=2, l=1)
        f = make_fourier_sketches(7, 2, 3, 1, "gaussian", rng)
        st = make_state(A, B, SolverConfig(method="TSP-I", sketches=f, seed=43),
                        x_star=Xs)
        X_ref = np.zeros_like(Xs)
        for i in (1, 0, 2, 1):
            st.step(np.array([i]))
            S = f.members[0][i][:, :, None]
            X_ref = sp_step_direct(A, B, X_ref, S)
            assert fnorm(st.x() - X_ref) < 1e-10 * max(fnorm(X_ref), 1.0)

    def test_per_slice_methods_accept_weights(self):
        rng = np.random.default_rng(44)
        A, Xs, B = small_problem(44, m=9, n=4, p=2, l=3)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, 3))
        f = make_fourier_sketches(9, 1, 9, 3, "row")
        for method in ("ATSP-MD-II", "TSP-I"):
            cfg = SolverConfig(method=method, sketches=f, weight=Q, seed=45,
                               tol=1e-8, max_iters=40_000, record_every=50)
            X, rec = solve(A, B, cfg, x_star=Xs)
            assert rec.converged, method
            qe = rec.q_error
            assert np.all(qe[1:] <= qe[:-1] * (1 + 1e-9) + 1e-15), method

    def test_per_slice_proportional_decays_each_subsystem(self):
        # every slice update is an orthogonal projection inside its own
        # subsystem, so each slice's transform-domain error never grows,
        # and a handful of seeds all push the full error below 1e-4
        A, Xs, B = small_problem(46, m=12, n=6, p=2, l=4)
        f = make_fourier_sketches(12, 1, 12, 4, "row")
        for seed in range(10):
            st = make_state(A, B, SolverConfig(method="ATSP-PR-II", sketches=f,
                                               seed=seed), x_star=Xs)
            slice_err = np.linalg.norm(st.Xh - st.Xsh, axis=(1, 2))
            for _ in range(2500):
                losses = st.losses()
                idx = st.select(losses)
                if np.all(idx < 0):
                    break
                st.step(idx)
                now = np.linalg.norm(st.Xh - st.Xsh, axis=(1, 2))
                assert np.all(now <= slice_err * (1 + 1e-9) + 1e-15)
                slice_err = now
                if st.epsilon() < 1e-4:
                    break
            assert st.epsilon() < 1e-4, seed

    def test_per_slice_adaptive_losses_localize(self):
        # solving one subsystem zeroes its slice losses and leaves it alone
        A, Xs, B = small_problem(29, m=8, n=4, p=2, l=3)
        f = make_fourier_sketches(8, 1, 8, 3, "row")
        st = make_state(A, B, SolverConfig(method="ATSP-MD-II", sketches=f,
                                           seed=21), x_star=Xs)
        for _ in range(400):
            idx = st.select(st.losses())
            if np.all(idx < 0):
                break
            st.step(idx)
        assert np.all(st.losses().max(axis=1) <= 1e-16)


class TestLedgerBlocks:
    """Fixed-rule draws projected in blocks by one triangular solve per slice,
    cut where the ledger of step losses leaves its bounds."""

    FIXED = ("NTSP", "TSP-I", "TSP-II", "NTSP-II")

    @staticmethod
    def config(method, m, l, **kw):
        s = (make_slice_sketches(m, l) if method == "NTSP"
             else make_fourier_sketches(m, 1, m, l, "row"))
        return SolverConfig(method=method, sketches=s, seed=41, **kw)

    @pytest.mark.parametrize("method", FIXED)
    def test_blocks_cut_at_the_thresholds_equal_the_sequential_replay(self, method, monkeypatch):
        # at a cadence too long to log a row, blocks end at 32 rows, at the
        # 64-draw block boundaries and where the ledger's error falls a
        # decade since the last fresh value or under 1.1 tol: both cuts
        # happen mid-block here, and the run equals a sequential replay
        # that takes a fresh error every iteration
        A, Xs, B = small_problem(40, m=12, n=4, p=2, l=4)
        cfg = self.config(method, 12, 4, tol=1e-10, max_iters=5_000, record_every=10**6)
        cuts, cut = [], solvers._DirectState._cut

        def spy(st, *args):
            out = cut(st, *args)
            cuts.append((args[-1], out[0], out[1], st.ledger.lo))
            return out

        monkeypatch.setattr(solvers._DirectState, "_cut", spy)
        X, rec = solve(A, B, cfg, x_star=Xs)
        floor = (1.1 * cfg.tol) ** 2 * 4 * np.linalg.norm(Xs) ** 2  # D at 1.1 tol
        mid = [(D, lo) for k, kept, D, lo in cuts if kept < k and D < lo]
        assert any(D < floor for D, lo in mid) and any(floor <= D for D, lo in mid)
        assert max(k for k, *_ in cuts) * (2 if method == "TSP-I" else 1) == 32
        X_ref, rows, stop = reference_solve(A, B, cfg, Xs)
        assert rec.stop_reason == stop == "tol" and rec.iterations == rows[-1][0]
        assert [rows[0][0], rows[-1][0]] == list(rec.t) and rec.chosen[-1] == rows[-1][-1]
        for got, want in ((rec.epsilon, [rows[0][1], rows[-1][1]]),
                          (rec.q_error, [rows[0][2], rows[-1][2]])):
            assert np.all(np.abs(got - want) <= 1e-13 * want[0])
        assert np.linalg.norm(X - X_ref) <= 1e-13 * np.linalg.norm(X_ref)

    def test_fixed_rule_solves_peak_under_tsp_i_with_small_grams(self, monkeypatch):
        # the paper-scale solves of the fixed rules: none peaks above TSP-I's
        # (tracemalloc, after a first solve), and every block's triangular
        # system is at most 32 x 32
        A, Xs, B = small_problem(42, m=50, n=20, p=5, l=5)
        grams, trsm = [], solvers.ztrsm
        spy = (lambda alpha, a, *args, **kw: grams.append(a.shape) or trsm(alpha, a, *args, **kw))
        peaks = {}
        for method in ("TSP", *self.FIXED):
            prob = None if method == "TSP" else (
                "uniform" if method.startswith("N") else "fourier-row-norm")
            cfg = self.config(method, 50, 5, probabilities=prob, tol=1e-10, max_iters=50_000,
                              record_every=1000)
            if method == "TSP":
                cfg = dataclasses.replace(cfg, sketches=None, tau=10)
            monkeypatch.setattr(solvers, "ztrsm", spy)  # on the first solve only
            solve(A, B, cfg, x_star=Xs)
            monkeypatch.setattr(solvers, "ztrsm", trsm)
            tracemalloc.start()
            try:
                _, rec = solve(A, B, cfg, x_star=Xs)
                peaks[method] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.converged
        assert max(peaks.values()) == peaks["TSP-I"], peaks
        assert grams and max(max(shape) for shape in grams) <= 32


class TestWeightedRuns:
    def test_general_weight_converges_and_contracts_weighted_error(self):
        rng = np.random.default_rng(30)
        A, Xs, B = small_problem(30, m=9, n=4, p=2, l=3)
        Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, 3))
        s = make_slice_sketches(9, 3)
        cfg = SolverConfig(method="ATSP-MD", sketches=s, weight=Q, seed=22,
                           tol=1e-9, max_iters=40_000, record_every=50)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.converged
        qe = rec.q_error
        assert np.all(qe[1:] <= qe[:-1] * (1 + 1e-9) + 1e-15)
        assert abs(qe[0] - weighted_fnorm(-Xs, Q) ** 2) < 1e-8 * qe[0]


class TestProjectorLaw:
    def test_sketched_projectors_are_orthogonal_projectors(self):
        rng = np.random.default_rng(31)
        A = rand_tubal(rng, 6, 4, 3)
        Qt = spd_weight_tensor(rng, 4, 3)
        for S in (make_slice_sketches(6, 3).members[2],
                  make_gaussian_sketches(6, 2, 1, 3, rng).members[0]):
            Z = projector_tensor(A, Qt, S)
            assert fnorm(tprod_oracle(Z, Z) - Z) < 1e-8 * max(fnorm(Z), 1.0)
            assert fnorm(ttranspose(Z) - Z) < 1e-8 * max(fnorm(Z), 1.0)
