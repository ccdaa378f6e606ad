import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_set_tables,
    direct_step_oracle,
    rand_tubal,
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
    tprod,
    tprod_oracle,
    ttranspose,
    weighted_fnorm,
)


ADAPTIVE_METHODS = ("ATSP-MD", "ATSP-PR", "ATSP-CS", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")
# every set method: each adaptive rule owns its zero-loss test, the fixed
# rules share theirs
ZERO_LOSS_METHODS = ("NTSP", "NTSP-II", *ADAPTIVE_METHODS)


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
        draws = np.array([per_slice.select(np.full((4, 10), 0.1)) for _ in range(300)])
        for k in range(4):
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
        # all-zero slices solved
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
            np.testing.assert_array_equal(st.select(losses), [3, 3, -1, 3])
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
        # [seed, 2, k] for slice k of a per-slice set
        A, Xs, B = small_problem(72)
        per_slice = method.endswith("-II")
        s = make_fourier_sketches(10, 1, 10, 4, "row") if per_slice else make_slice_sketches(10, 4)
        st = make_state(A, B, SolverConfig(method=method, sketches=s, seed=73), x_star=Xs)
        keys = [(73, 2, k) for k in range(4)] if per_slice else [(73, 1)]
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
        # 3 are zero and solved from t = 0.  They record -1 and their Z[k]
        # stays zero.  Every slice's stream is read each iteration, yet the
        # draws equal a reference that reads slice k's scalar stream only
        # when slice k draws
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
        streams = [np.random.default_rng([75, 2, k]) for k in range(l)]
        for choice in rec.chosen[1:]:
            losses = st.losses()
            weights = losses if method == "ATSP-PR-II" else solvers._capped_losses(
                losses, st.base_probs, cfg.theta)
            want = []
            for k, cum in enumerate(np.cumsum(weights, axis=1)):
                want.append(-1 if cum[-1] <= 0 else
                            min(int(np.sum(cum <= streams[k].random() * cum[-1])), m - 1))
            assert choice == tuple(want)
            assert choice[1] == choice[3] == -1 and min(choice[0], choice[2]) >= 0
            st.step(np.array(choice))
            assert not st.Z[[1, 3]].any()
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
        # one SeedSequence([seed, 1]); both draw by one inverse-CDF rule
        rngs = [np.random.default_rng([82, 2, k] if per_slice else [82, 1])
                for k in range(4 if per_slice else 1)]
        want = [tuple(min(int(np.sum(cdf <= r.random() * cdf[-1])), 9) for r in rngs)
                for _ in range(iters)]
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
    """The set step Z[k] -= U[k, j] @ R[k, j] runs as one zgemm per kept
    slice that writes into Z itself, for spatial and per-slice sets."""

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
            Z, Z0, R0 = st.Z, st.Z.copy(), st.R.copy()
            want = Z0.copy()
            want[kept] -= st.U[kept, js] @ R0[kept, js]
            st.step(choice)
            # a copy of a non-F-contiguous output would leave Z unchanged
            assert st.Z is Z and not np.array_equal(Z, Z0)
            assert np.linalg.norm(Z - want) <= 1e-13 * np.linalg.norm(want)
            # the chosen blocks are annihilated as far as their Grams allow; a
            # per-slice Gaussian member leaves ~1e-13 in the oracle's step too
            slack = (np.linalg.norm(want[:, st.n:].reshape(R0.shape)[kept, js])
                     if st.per_slice_selection else 0.0)
            assert np.linalg.norm(st.R[kept, js]) <= 1e-13 * np.linalg.norm(R0[kept, js]) + slack
            skipped = np.flatnonzero(picks < 0)
            assert len(skipped) == (st.per_slice_selection and t == 2)
            assert np.array_equal(Z[skipped], Z0[skipped])

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
        cfg = SolverConfig(method="NTSP", sketches=s, seed=4, max_iters=100,
                           tol=0.0, keep_iterates=True)
        X, rec = solve(A, B, cfg, x_star=Xs)
        X_ref = np.zeros_like(Xs)
        for t in range(1, len(rec.chosen)):
            X_ref = row_action_step_oracle(A, B, X_ref, rec.chosen[t])
            assert fnorm(rec.iterates[t] - X_ref) < 1e-10 * max(fnorm(X_ref), 1.0)

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
        cfg = SolverConfig(method="ATSP-MD", sketches=s, seed=23, tol=0.0,
                           max_iters=15, keep_iterates=True)
        X, rec = solve(A, B, cfg, x_star=Xs)
        projs = [
            projector_tensor(A, WeightQ.identity(4, 3), s.members[i])
            for i in range(3)
        ]
        compared = 0
        for t in range(1, len(rec.chosen)):
            X_prev = rec.iterates[t - 1]
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
        # a zero horizontal slice gives an all-zero sketched Gram; the
        # factor collapses to zero, the member's loss stays zero, and
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
        assert np.all(st.C[:, 4] == 0)
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
    ])
    def test_bad_config_value_rejected_up_front(self, field, value):
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(6, 2),
                           **{field: value})
        with pytest.raises(ValueError, match=f"^{field}="):
            solve(A, B, cfg, x_star=Xs)

    def test_whole_float_counts_accepted(self):
        # counts read from a JSON or TOML file may arrive as floats such as 1e5
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(6, 2), tol=0.0,
                           max_iters=12.0, record_every=4.0, audit_every=6.0)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.iterations == 12 and list(rec.t) == [0, 4, 8, 12]

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

    @pytest.mark.parametrize("place", ["spatial solve", "per-slice solve", "per_slice_rates"])
    @pytest.mark.parametrize("bad", ["shape", "nan", "sum"])
    def test_one_probability_check(self, place, bad):
        # a wrong shape, a NaN row and a row off the simplex get one message
        # wherever probabilities enter: (q,) everywhere, (l, q) per slice
        A, Xs, B = small_problem(17, m=6, n=3, p=2, l=2)
        rows = 1 if place == "spatial solve" else 2
        probs = np.full((rows, 6), 1 / 6)
        probs[-1, 2] = np.nan if bad == "nan" else 0.0
        probs = np.full(7, 1 / 7) if bad == "shape" else probs[0] if rows == 1 else probs
        message = {"shape": rf"^probabilities have shape \(7,\), not \(6,\) or \({rows}, 6\)$",
                   "nan": "^probabilities must be finite$",
                   "sum": rf"^probabilities of row {rows - 1} sum to 0\.8\d*, not 1$"}[bad]
        s = make_slice_sketches(6, 2) if rows == 1 else make_fourier_sketches(6, 1, 6, 2, "row")
        with pytest.raises(ValueError, match=message):
            if place == "per_slice_rates":
                per_slice_rates(A, None, s, probs)
            else:
                solve(A, B, SolverConfig(method="NTSP" if rows == 1 else "NTSP-II",
                                         sketches=s, probabilities=probs), x_star=Xs)

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

    @pytest.mark.parametrize("method", ["NTSP", "NTSP-II"])
    def test_fixed_rule_losses_only_on_logged_rows(self, method, monkeypatch):
        # fixed rules compute their losses for logged rows only, from the
        # residuals their draw was made next to: every row must hold the
        # values of a run that logs each iteration, the final tol row too
        A, Xs, B = small_problem(28, m=8, n=4, p=2, l=3)
        s = (make_fourier_sketches(8, 1, 8, 3, "row") if method.endswith("-II")
             else make_slice_sketches(8, 3))
        cfg = SolverConfig(method=method, sketches=s, seed=29, tol=1e-10, max_iters=20_000)
        X1, every = solve(A, B, cfg, x_star=Xs)
        cls = solvers._METHOD_TABLE[method][0]
        calls = []
        losses = cls.losses
        monkeypatch.setattr(cls, "losses", lambda st, v=None: calls.append(st.t) or losses(st, v))
        X25, sparse = solve(A, B, dataclasses.replace(cfg, record_every=25), x_star=Xs)
        assert sparse.stop_reason == every.stop_reason == "tol"
        assert sparse.iterations == every.iterations and sparse.t[-1] % 25 != 0
        assert all(t % 25 == 0 for t in sparse.t[1:-1]) and len(sparse.t) > 3
        rows = np.searchsorted(every.t, sparse.t)
        for f in ("epsilon", "loss_max", "loss_sum"):
            np.testing.assert_array_equal(getattr(sparse, f), getattr(every, f)[rows], err_msg=f)
        assert sparse.chosen == [every.chosen[r] for r in rows]
        assert calls == list(sparse.t[1:])  # one call per logged row after t = 0
        np.testing.assert_array_equal(X25, X1)

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
        st = make_state(A, B, SolverConfig(method="NTSP",
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
        st = make_state(A, B, SolverConfig(method="NTSP",
                                           sketches=make_slice_sketches(10, 4),
                                           seed=13), x_star=Xs)
        for _ in range(5):
            st.step(st.select(st.losses()))
        bump = 0.37
        st.R[1, 2, 0, 0] += bump
        assert st.audit() > bump / 2

    @pytest.mark.parametrize("method", ["ATSP-MD", "NTSP", "NTSP-II"])
    def test_solve_audit_cadence(self, method, monkeypatch):
        # fixed rules hold no loss vector in the loop; they are audited too
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
    """One loss kernel for every set method: R's float view squared into a
    buffer and summed by gemv."""

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
        for _ in range(6):
            for st in (fixed, adaptive):
                expect = loss_oracle(st, st.R)
                assert np.max(np.abs(st.losses() - expect)) <= 1e-14 * expect.max()
                i = st.select(st.losses())
                if st is fixed:  # select copied the residuals its draw was made next to
                    got = st.losses(st.before)
                    assert np.max(np.abs(got - expect)) <= 1e-14 * expect.max()
                st.step(i)
        for st in (fixed, adaptive):
            st.R[...] += 1e-3 * (rng.standard_normal(st.R.shape) + 1j * rng.standard_normal(st.R.shape))
            CH = np.conj(np.swapaxes(st.C, -1, -2))
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
            assert losses.shape == ((st.l, st.q) if st.per_slice_selection else (st.q,))
            assert peak <= losses.nbytes + 1024, method


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
        assert st.Z.shape == (h, n + q * tau, p) and st.Z.flags.c_contiguous
        assert st.U.shape == (h, q, n + q * tau, tau) and st.U.flags.c_contiguous
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
        Xh = np.zeros((l, 4, 2), dtype=np.complex128)
        for _ in range(300):
            idx = st.select(st.losses())
            st.step(idx)
            Xh = stacked_step_oracle(Ah, Bh, st.Q.inv, members, Xh, idx)
            half = Xh[:l // 2 + 1]  # the state keeps slices 0..l//2
            assert np.linalg.norm(st.Xh - half) <= 1e-12 * np.linalg.norm(half)
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
        monkeypatch.setattr(solvers, "batched_hpinv", lambda M: calls.append(M.shape) or factor(M))
        for method in ("TSP-I", "TSP-II"):
            cfg = SolverConfig(method=method, sketches=f, weight=Q, seed=81, tol=0.0,
                               max_iters=t, keep_iterates=True)
            calls.clear()
            _, rec = solve(A, B, cfg, x_star=Xs)
            assert rec.iterations == t
            if method == "TSP-I":
                assert len(calls) == blocks
                assert calls[0][0] == _UNIFORM_BLOCK
            else:  # once, at setup, on every member's Gram
                assert calls == [(l, f.q, f.tau, f.tau)]

            replay = make_state(A, B, cfg, x_star=Xs)
            for choice, X in zip(rec.chosen[1:], rec.iterates[1:]):
                replay.step(np.array(choice))
                assert fnorm(replay.x() - X) <= 1e-12 * max(fnorm(X), 1.0)
            assert len(calls) == (blocks + t if method == "TSP-I" else 2)

        # rec is TSP-II's run; replay it through the oracle on dense-member tables
        tables = dense_set_tables(A, B, f, Q or WeightQ.identity(4, l))
        C = tables["C"]
        tables["G"] = C @ np.conj(np.swapaxes(C, -1, -2))
        Xh = np.zeros((l, 4, 2), dtype=np.complex128)
        for choice, X in zip(rec.chosen[1:], rec.iterates[1:]):
            Xh = direct_step_oracle(tables, Xh, np.array(choice))
            assert np.array_equal(ifft_slices(Xh, force_real=True), X)

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
