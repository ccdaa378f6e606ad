import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    closed_form_bounds_loop,
    rand_tubal,
    slice_rates_loop,
    spd_weight_tensor,
)
from tubalsketch import analysis
from tubalsketch.analysis import (
    BOUNDS,
    RateReport,
    compute_rate_report,
    closed_form_rate_bounds,
    estimate_delta_inf,
    expected_projector,
    flops_per_iteration,
    per_slice_rates,
    projector_tensor,
    verify_bounds,
)
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
    prob_sketch_norm,
    prob_uniform,
)
from tubalsketch.solvers import RunRecord, SolverConfig, solve
from tubalsketch.t_algebra import WeightQ, bcirc, dft3, identity, tprod


class TestExpectedProjector:
    def test_identity_system_closed_form(self):
        A = identity(4, 3)
        s = make_slice_sketches(4, 3)
        E, lam = expected_projector(A, None, s, prob_uniform(4))
        np.testing.assert_allclose(E, np.eye(12) / 4, atol=1e-10)
        assert abs(lam - 0.25) < 1e-10

    def test_full_sketch_gives_identity(self):
        rng = np.random.default_rng(0)
        A = rand_tubal(rng, 5, 3, 2)
        s = make_block_sketches(5, 2, [range(5)])
        E, lam = expected_projector(A, None, s, prob_uniform(1))
        np.testing.assert_allclose(E, np.eye(6), atol=1e-8)
        assert abs(lam - 1.0) < 1e-8

    def test_trace_bound_on_smallest_eigenvalue(self):
        rng = np.random.default_rng(1)
        A = rand_tubal(rng, 6, 4, 2)
        s = make_slice_sketches(6, 2)
        p = prob_uniform(6)
        E, lam = expected_projector(A, None, s, p)
        ranks = [
            np.linalg.matrix_rank(bcirc(s.members[i]).T @ bcirc(A))
            for i in range(6)
        ]
        assert lam <= np.dot(p, ranks) / (4 * 2) + 1e-12

    def test_rejects_bad_probabilities(self):
        A = identity(3, 2)
        s = make_slice_sketches(3, 2)
        with pytest.raises(ValueError):
            expected_projector(A, None, s, [0.5, 0.5])

    def test_size_cap(self):
        A = np.zeros((2, 30, 30))
        with pytest.raises(ValueError, match="capped"):
            expected_projector(A, None, make_slice_sketches(2, 30), prob_uniform(2))


class TestPerSliceRates:
    def test_matches_block_assembly_for_spatial_sets(self):
        rng = np.random.default_rng(2)
        A = rand_tubal(rng, 6, 3, 4)
        Qt = spd_weight_tensor(rng, 3, 4)
        s = make_slice_sketches(6, 4)
        p = prob_uniform(6)
        _, lam_full = expected_projector(A, Qt, s, p)
        lams, lam_min = per_slice_rates(A, Qt, s, p)
        assert abs(lam_min - lam_full) < 1e-10

    def test_unitary_slices_with_row_sketches(self):
        A = identity(5, 3)  # every Fourier slice is the identity
        f = make_fourier_sketches(5, 1, 5, 3, "row")
        lams, lam_min = per_slice_rates(A, None, f, prob_uniform(5))
        np.testing.assert_allclose(lams, 0.2, atol=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["slice", "ragged-block", "gaussian", "fourier-row",
                                      "fourier-gaussian"])
    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_every_slice_matches_a_dense_loop(self, l, kind, weighted):
        # all l lambdas, not only their minimum: slice l - k repeats its
        # mirror k, a per-slice set's slice l - k having slice k's family
        # and probabilities, while the loop builds every slice on its own
        rng = np.random.default_rng(50 + l)
        A = rand_tubal(rng, 6, 4, l)
        Qt = spd_weight_tensor(rng, 4, l) if weighted else None
        s = {"slice": lambda: make_slice_sketches(6, l),
             "ragged-block": lambda: make_block_sketches(6, l, [[0, 2, 4], [1], [3, 5]]),
             "gaussian": lambda: make_gaussian_sketches(6, 2, 4, l, rng),
             "fourier-row": lambda: make_fourier_sketches(6, 1, 6, l, "row"),
             "fourier-gaussian": lambda: make_fourier_sketches(6, 2, 4, l, "gaussian", rng),
             }[kind]()
        p = rng.dirichlet(np.ones(s.q), size=l if s.per_slice else None)
        if s.per_slice:
            p[l // 2 + 1:] = p[1:(l + 1) // 2][::-1]
        lams, lam_min = per_slice_rates(A, Qt, s, p)
        assert lams.shape == (l,) and lam_min == lams.min()
        np.testing.assert_allclose(lams, slice_rates_loop(A, Qt, s, p), rtol=0, atol=1e-10)

    def test_single_slice_reduces_to_expected_projector(self):
        rng = np.random.default_rng(3)
        A = rand_tubal(rng, 5, 3, 1)
        s = make_slice_sketches(5, 1)
        p = prob_uniform(5)
        _, lam_full = expected_projector(A, None, s, p)
        _, lam_min = per_slice_rates(A, None, s, p)
        assert abs(lam_min - lam_full) < 1e-10


class TestCorollaryRates:
    def test_display_value_matches_published_closed_form(self):
        # row sketches, identity weight: smallest eigenvalue of each Fourier
        # slice's n x n Gram over the total squared norm (nonzero on this
        # tall system, where the m x m outer Gram is singular)
        rng = np.random.default_rng(4)
        A = rand_tubal(rng, 5, 3, 4)
        s = make_slice_sketches(5, 4)
        rates = closed_form_rate_bounds(A, None, s)
        Ah = dft3(A)
        per_k = [
            np.linalg.eigvalsh(Ah[:, :, k].conj().T @ Ah[:, :, k])[0].real
            for k in range(4)
        ]
        expect = min(per_k) / np.linalg.norm(A) ** 2
        assert expect > 0
        assert abs(rates["norm_weighted_display"] - expect) < 1e-12

    def test_identity_system_value(self):
        A = identity(4, 3)
        rates = closed_form_rate_bounds(A, None, make_slice_sketches(4, 3))
        assert abs(rates["norm_weighted"] - 0.25) < 1e-12
        assert abs(rates["norm_weighted_display"] - 0.25) < 1e-12
        assert abs(rates["uniform"] - 0.25) < 1e-12

    def test_certified_bounds_never_exceed_exact_constants(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(2, m + 1))
            l = int(rng.integers(1, 4))
            A = rand_tubal(rng, m, n, l)
            Qt = spd_weight_tensor(rng, n, l)
            s = make_slice_sketches(m, l)
            rates = closed_form_rate_bounds(A, Qt, s)
            _, exact_norm = expected_projector(
                A, Qt, s, prob_sketch_norm(A, WeightQ.from_tensor(Qt), s)
            )
            _, exact_unif = expected_projector(A, Qt, s, prob_uniform(m))
            assert rates["norm_weighted"] <= exact_norm + 1e-10
            assert rates["uniform"] <= exact_unif + 1e-10

    def test_tall_system_bounds_are_positive_and_certified(self):
        # 50x20x5 with slice sketches: every Fourier slice is tall, so the
        # stacked family's m x m Gram is singular while the n x n one is not
        A, _, _ = gen_gaussian(ProblemSpec(m=50, n=20, p=1, l=5, seed=3))
        s = make_slice_sketches(50, 5)
        _, exact_norm = expected_projector(
            A, None, s, prob_sketch_norm(A, WeightQ.identity(20, 5), s))
        _, exact_unif = expected_projector(A, None, s, prob_uniform(50))
        rates = closed_form_rate_bounds(A, None, s)
        for key, exact in (("norm_weighted", exact_norm), ("uniform", exact_unif),
                           ("norm_weighted_display", exact_norm)):
            assert 0 < rates[key] <= exact, key
        for key, want in closed_form_bounds_loop(A, None, s).items():
            assert abs(rates[key] - want) < 1e-12, key

    def test_display_shortcut_can_overshoot_for_depth_above_one(self):
        # the global-norm shortcut averages member Gram maxima across
        # slices, which is exactly where it stops being a lower bound
        rng = np.random.default_rng(5)
        overshoots = []
        for trial in range(20):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(2, m + 1))
            l = int(rng.integers(2, 4))
            A = rand_tubal(rng, m, n, l)
            Qt = spd_weight_tensor(rng, n, l)
            s = make_slice_sketches(m, l)
            rates = closed_form_rate_bounds(A, Qt, s)
            _, exact_norm = expected_projector(
                A, Qt, s, prob_sketch_norm(A, WeightQ.from_tensor(Qt), s)
            )
            overshoots.append(rates["norm_weighted_display"] > exact_norm + 1e-12)
            assert rates["norm_weighted"] <= exact_norm + 1e-10
        assert any(overshoots)

    def test_per_slice_family_bounds(self):
        rng = np.random.default_rng(6)
        A = rand_tubal(rng, 4, 4, 3)  # square: the stacked Gram is definite
        f = make_fourier_sketches(4, 1, 4, 3, "row")
        rates = closed_form_rate_bounds(A, None, f)
        lams, lam_min = per_slice_rates(A, None, f, prob_uniform(4))
        assert 0 < rates["uniform"] <= lam_min + 1e-10
        assert 0 < rates["norm_weighted"] <= lam_min + 1e-10
        # tall slices: the n x n stacked Gram is still definite
        A_tall = rand_tubal(rng, 5, 3, 2)
        f_tall = make_fourier_sketches(5, 1, 5, 2, "row")
        tall = closed_form_rate_bounds(A_tall, None, f_tall)
        _, lam_tall = per_slice_rates(A_tall, None, f_tall, prob_uniform(5))
        assert 0 < tall["uniform"] <= lam_tall + 1e-10

    @pytest.mark.parametrize("kind", ["slice", "fourier-row"])
    def test_zero_fourier_slice_gives_zero_bounds(self, kind):
        # equal frontal slices: Fourier slices 1..3 are zero, so every
        # closed-form bound is 0 there, with no 0/0 (a RuntimeWarning fails)
        S = np.random.default_rng(61).standard_normal((6, 3))
        A = np.repeat(S[:, :, None], 4, axis=2)
        s = (make_slice_sketches(6, 4) if kind == "slice"
             else make_fourier_sketches(6, 1, 6, 4, "row"))
        rep = compute_rate_report(A, None, s, n_samples=50)
        assert rep.closed_form_bounds == {"norm_weighted": 0.0, "uniform": 0.0,
                                          "norm_weighted_display": 0.0}


class TestWorstDirectionEstimate:
    def test_full_sketch_is_one(self):
        rng = np.random.default_rng(7)
        A = rand_tubal(rng, 4, 3, 2)
        s = make_block_sketches(4, 2, [range(4)])
        est, lower = estimate_delta_inf(A, None, s, n_samples=200,
                                        rng=np.random.default_rng(1))
        assert abs(est - 1.0) < 1e-10
        assert abs(lower - 1.0) < 1e-8

    def test_chain_ordering(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(2, m + 1))
            l = int(rng.integers(1, 4))
            A = rand_tubal(rng, m, n, l)
            Qt = spd_weight_tensor(rng, n, l)
            s = make_slice_sketches(m, l)
            est, lower = estimate_delta_inf(
                A, Qt, s, n_samples=300, rng=np.random.default_rng(trial)
            )
            assert 0 < lower <= est <= 1 + 1e-12

    def test_rejects_no_samples(self):
        A = rand_tubal(np.random.default_rng(9), 5, 3, 2)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_delta_inf(A, None, make_slice_sketches(5, 2), n_samples=0)

    @pytest.mark.parametrize("report", [False, True])
    @pytest.mark.parametrize("bad", [2.5, "5", 2.0])
    def test_rejects_non_integer_samples(self, bad, report):
        A = rand_tubal(np.random.default_rng(9), 6, 3, 2)
        with pytest.raises(ValueError, match=rf"^n_samples .* got {bad!r}$"):
            (compute_rate_report if report else estimate_delta_inf)(
                A, None, make_slice_sketches(6, 2), n_samples=bad)

    @pytest.mark.parametrize("bad", [2.5, "5", 2.0, 0])
    def test_report_checks_samples_on_per_slice_sets(self, bad):
        # a per-slice set has no estimate to draw, but the count is checked the same way
        A = rand_tubal(np.random.default_rng(9), 6, 3, 2)
        with pytest.raises(ValueError, match=rf"^n_samples .* got {bad!r}$"):
            compute_rate_report(A, None, make_fourier_sketches(6, 1, 6, 2, "row"), n_samples=bad)

    def test_report_computes_the_fixed_sampling_constant_once(self, monkeypatch):
        A = rand_tubal(np.random.default_rng(10), 8, 3, 4)
        s = make_slice_sketches(8, 4)
        calls, lambdas = [], analysis._expected_slice_lambdas
        monkeypatch.setattr(analysis, "_expected_slice_lambdas",
                            lambda K, p: calls.append(p) or lambdas(K, p))
        rep = compute_rate_report(A, None, s, n_samples=70)
        assert len(calls) == 1
        est, lower = estimate_delta_inf(A, None, s, n_samples=70)
        assert (rep.delta_inf_sq_estimate, rep.delta_inf_sq_lower) == (est, lower)

    def test_rejects_probabilities_that_are_not_numbers(self):
        A = rand_tubal(np.random.default_rng(9), 6, 3, 2)
        with pytest.raises(ValueError, match="^probabilities 'bogus' are not numbers$"):
            compute_rate_report(A, None, make_slice_sketches(6, 2), p="bogus")

    def test_zero_system_has_no_range_direction(self):
        # every projected direction is zero: there is nothing to take a minimum over
        with pytest.raises(ValueError, match="no sampled direction has a nonzero range"):
            estimate_delta_inf(np.zeros((6, 3, 2)), None, make_slice_sketches(6, 2))

    def test_report_beyond_the_assembly_cap(self):
        # nl = 480 > MAX_ASSEMBLY_DIM: every constant comes from the slices
        A = np.random.default_rng(10).standard_normal((100, 30, 16))
        s = make_slice_sketches(100, 16)
        rep = compute_rate_report(A, None, s, rng=np.random.default_rng(1))
        _, lam = per_slice_rates(A, None, s, prob_uniform(100))
        assert rep.delta_p_sq == lam
        assert 0 < rep.delta_p_sq <= rep.delta_inf_sq_estimate <= 1


class TestRateReport:
    def test_report_roundtrip_and_envelopes(self):
        rng = np.random.default_rng(9)
        A = rand_tubal(rng, 5, 3, 2)
        s = make_slice_sketches(5, 2)
        rep = compute_rate_report(A, None, s, n_samples=200,
                                  rng=np.random.default_rng(2))
        payload = rep.to_dict()
        assert set(payload["bound_rates"]) == set(BOUNDS)
        assert payload["bound_rates"]["nonadaptive"] == rep.rate("nonadaptive")
        clone = RateReport.from_dict(payload)
        assert clone.delta_p_sq == rep.delta_p_sq
        # capped rate interpolates between the fixed and max-distance rates
        assert abs(rep.rate("capped", theta=1.0) - rep.rate("max-distance")) < 1e-15
        assert abs(rep.rate("capped", theta=0.0) - rep.rate("nonadaptive")) < 1e-15
        assert rep.rate("proportional") <= rep.rate("nonadaptive")
        env = rep.envelope("nonadaptive", np.arange(4))
        np.testing.assert_allclose(env, rep.rate("nonadaptive") ** np.arange(4))

    @pytest.mark.parametrize("per_slice", [False, True])
    def test_report_from_one_factor_build_equals_separate_calls(self, monkeypatch, per_slice):
        from tubalsketch import analysis

        rng = np.random.default_rng(30)
        A = rand_tubal(rng, 7, 4, 3)
        Qt = spd_weight_tensor(rng, 4, 3)
        s = (make_fourier_sketches(7, 1, 7, 3, "row") if per_slice
             else make_gaussian_sketches(7, 2, 5, 3, rng))
        p = prob_uniform(s.q)
        lams, delta_p = per_slice_rates(A, Qt, s, p)
        est = (float("nan") if per_slice else
               estimate_delta_inf(A, Qt, s, p=p, n_samples=80, rng=np.random.default_rng(3))[0])
        bounds = closed_form_rate_bounds(A, Qt, s)

        builds = []
        build = analysis._slice_factors
        monkeypatch.setattr(analysis, "_slice_factors",
                            lambda *args: builds.append(1) or build(*args))
        rep = compute_rate_report(A, Qt, s, p=p, n_samples=80, rng=np.random.default_rng(3))
        assert len(builds) == 1
        assert rep.per_slice_lambdas == tuple(float(x) for x in lams)
        assert rep.delta_p_sq == delta_p
        assert rep.closed_form_bounds == bounds
        np.testing.assert_array_equal(rep.delta_inf_sq_estimate, est)  # NaN equals NaN

    def test_unknown_bound(self):
        rep = RateReport(0.1, 0.1, 0.2, 0.1, (0.1,), 3)
        with pytest.raises(ValueError):
            rep.rate("fastest")


def _identity_instance(n=6, l=2, p=2, seed=10):
    A = identity(n, l)
    rng = np.random.default_rng(seed)
    Xs = rng.standard_normal((n, p, l))
    return A, Xs, tprod(A, Xs)


class TestVerifyBounds:
    def test_fixed_sampling_envelope_holds(self):
        A, Xs, B = _identity_instance()
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=100,
                                  rng=np.random.default_rng(3))
        records = []
        for seed in range(40):
            cfg = SolverConfig(method="NTSP", sketches=s, seed=seed, tol=0.0,
                               max_iters=60)
            _, rec = solve(A, B, cfg, x_star=Xs)
            records.append(rec)
        check = verify_bounds(records, rep, "nonadaptive")
        assert check.passed, check.detail

    def test_max_rule_per_run_bound(self):
        A, Xs, B = _identity_instance(seed=11)
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=100,
                                  rng=np.random.default_rng(4))
        cfg = SolverConfig(method="ATSP-MD", sketches=s, seed=5, tol=0.0,
                           max_iters=50)
        _, rec = solve(A, B, cfg, x_star=Xs)
        check = verify_bounds([rec], rep, "max-distance")
        assert check.passed, check.detail

    def test_proportional_envelope_holds(self):
        A, Xs, B = _identity_instance(seed=12)
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=100,
                                  rng=np.random.default_rng(5))
        records = []
        for seed in range(40):
            cfg = SolverConfig(method="ATSP-PR", sketches=s, seed=seed, tol=0.0,
                               max_iters=60)
            _, rec = solve(A, B, cfg, x_star=Xs)
            records.append(rec)
        check = verify_bounds(records, rep, "proportional")
        assert check.passed, check.detail

    def test_capped_envelope_holds(self):
        A, Xs, B = _identity_instance(seed=15)
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=100,
                                  rng=np.random.default_rng(8))
        records = []
        for seed in range(40):
            cfg = SolverConfig(method="ATSP-CS", sketches=s, seed=seed,
                               theta=0.5, tol=0.0, max_iters=60)
            _, rec = solve(A, B, cfg, x_star=Xs)
            records.append(rec)
        check = verify_bounds(records, rep, "capped", theta=0.5)
        assert check.passed, check.detail
        # the certified capped rate interpolates the two endpoint constants
        assert rep.rate("max-distance") <= check.rate + 1e-12
        assert check.rate <= rep.rate("nonadaptive") + 1e-12

    def test_insufficient_ensemble_rejected(self):
        A, Xs, B = _identity_instance(seed=13)
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=50,
                                  rng=np.random.default_rng(6))
        cfg = SolverConfig(method="NTSP", sketches=s, seed=1, tol=0.0, max_iters=5)
        _, rec = solve(A, B, cfg, x_star=Xs)
        with pytest.raises(ValueError, match="expectation"):
            verify_bounds([rec], rep, "nonadaptive")

    def test_requires_solution_aware_runs(self):
        A, Xs, B = _identity_instance(seed=14)
        s = make_slice_sketches(6, 2)
        rep = compute_rate_report(A, None, s, n_samples=50,
                                  rng=np.random.default_rng(7))
        cfg = SolverConfig(method="ATSP-MD", sketches=s, seed=1, tol=1e-6,
                           max_iters=30)
        _, rec = solve(A, B, cfg)  # residual mode: no q_error
        with pytest.raises(ValueError, match="x_star"):
            verify_bounds([rec], rep, "max-distance")

    def test_max_distance_tie_goes_to_the_first_record(self):
        rates = SimpleNamespace(rate=lambda bound, theta=0.5: 0.8)
        # both records reach the ratio 0.75, the first at t=3, the second at t=0
        first = RunRecord("ATSP-MD", t=np.array([0, 3, 6]),
                          q_error=np.array([1.0, 0.5, 0.375]))
        second = RunRecord("ATSP-MD", t=np.array([0, 5, 10]),
                           q_error=np.array([1.0, 0.75, 0.0625]))
        check = verify_bounds([first, second], rates, "max-distance")
        assert (check.passed, check.worst_ratio, check.worst_t) == (True, 0.75, 3)
        check = verify_bounds([second, first], rates, "max-distance")
        assert (check.worst_ratio, check.worst_t) == (0.75, 0)

    def test_max_distance_skips_steps_from_the_floor(self):
        # errors at or below 1e-20 of the start carry no rate information:
        # the 1e-25 -> 1e-24 rise and the 0/0 steps are not checked
        rates = SimpleNamespace(rate=lambda bound, theta=0.5: 0.6)
        rec = RunRecord("ATSP-MD", t=np.arange(6),
                        q_error=np.array([1.0, 0.5, 1e-25, 1e-24, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = verify_bounds([rec], rates, "max-distance")
        assert (check.passed, check.worst_ratio, check.worst_t) == (True, 0.5, 0)

    def test_bound_names(self):
        assert set(BOUNDS) == {"nonadaptive", "max-distance", "proportional",
                               "capped"}


class TestFlopFormulas:
    def test_published_cells(self):
        tau, q, n, p, l = 3, 7, 11, 5, 6
        assert flops_per_iteration("NTSP", tau, q, n, p, l) == \
            2 * tau * p * l * min(n, tau * q) + 2 * tau * n * p * l
        assert flops_per_iteration("ATSP-PR", 1, q, n, p, l) == \
            (4 * p * l + 2) * q + 2 * n * p * l
        assert flops_per_iteration("ATSP-CS-II", 1, q, n, p, l) == \
            (4 * p + 5) * q * l + 2 * n * p * l

    # recorded with the per-method branches this formula replaced: every cell
    # at q=7, n=11, p=5, in the order (tau, l) = (1, 1), (1, 6), (3, 1), (3, 6)
    PINNED = {
        "NTSP": (180, 1080, 660, 3960),
        "ATSP-MD": (243, 1500, 1170, 7027),
        "ATSP-PR": (257, 1514, 1177, 7034),
        "ATSP-CS": (285, 1542, 1205, 7062),
        "NTSP-II": (55, 330, 165, 990),
        "ATSP-MD-II": (55, 330, 1170, 7020),
        "ATSP-PR-II": (257, 1542, 1177, 7062),
        "ATSP-CS-II": (285, 1710, 1205, 7230),
    }

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_pinned_counts(self, method):
        got = tuple(flops_per_iteration(method, tau, 7, 11, 5, l)
                    for tau in (1, 3) for l in (1, 6))
        assert got == self.PINNED[method]

    def test_monotone_in_every_argument(self):
        rng = np.random.default_rng(15)
        methods = ["NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS",
                   "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II"]
        for _ in range(60):
            tau, q, n, p, l = (int(v) for v in rng.integers(1, 9, size=5))
            for method in methods:
                base = flops_per_iteration(method, tau, q, n, p, l)
                for bump in (
                    (tau + 1, q, n, p, l),
                    (tau, q + 1, n, p, l),
                    (tau, q, n + 1, p, l),
                    (tau, q, n, p + 1, l),
                    (tau, q, n, p, l + 1),
                ):
                    assert flops_per_iteration(method, *bump) >= base, (method, bump)

    def test_validation(self):
        with pytest.raises(ValueError):
            flops_per_iteration("NTSP", 0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            flops_per_iteration("SOLVE-ALL", 1, 1, 1, 1, 1)


class TestWeightedSpectralNorm:
    def test_projector_has_unit_weighted_norm(self):
        rng = np.random.default_rng(17)
        A = rand_tubal(rng, 4, 3, 2)
        Z = projector_tensor(A, None, make_slice_sketches(4, 2).members[0])
        assert abs(np.linalg.norm(bcirc(Z), ord=2) - 1.0) < 1e-8


# square 5x5x3 slices: the stacked Gram is definite, so the closed-form
# bounds are nonzero for every set whose family has at most n columns
SPATIAL_SETS = {
    "slice": lambda: make_slice_sketches(5, 3),
    "ragged-block": lambda: make_block_sketches(5, 3, [[0, 2, 4], [1], [3]]),
    "gaussian": lambda: make_gaussian_sketches(5, 2, 4, 3, np.random.default_rng(21)),
}
ALL_SETS = {**SPATIAL_SETS, "fourier-row": lambda: make_fourier_sketches(5, 1, 5, 3, "row")}


def _system(weighted):
    rng = np.random.default_rng(20)
    A = rand_tubal(rng, 5, 5, 3)
    return A, spd_weight_tensor(rng, 5, 3) if weighted else None


def _range_basis(A, Q):
    """Orthonormal basis of Range(bcirc(Q)^{-1/2} bcirc(A)^T), assembled."""
    K = bcirc(Q.inv_sqrt_tensor()) @ bcirc(A).T
    u, s, _ = np.linalg.svd(K, full_matrices=False)
    keep = s > max(K.shape) * np.finfo(float).eps * s[0]
    return u[:, keep]


def _max_energy_reference(A, Qt, sketches, V):
    """min over the unit columns v of V of max_i v^T bcirc(Z_i) v, with every
    Z_i assembled by oracle products."""
    P = [bcirc(projector_tensor(A, Qt, sketches.member(i))) for i in range(sketches.q)]
    return float(np.min(np.max([np.sum(V * (Pi @ V), axis=0) for Pi in P], axis=0)))


def _check_max_energy(A, Qt, s, seed=24, n_samples=60):
    """The estimate against the oracle on the estimator's own Gaussian draws,
    projected onto the range by the assembled basis; returns the basis rank."""
    _, n, l = A.shape
    Q = WeightQ.identity(n, l) if Qt is None else WeightQ.from_tensor(Qt)
    basis = _range_basis(A, Q)
    G = np.moveaxis(np.random.default_rng(seed).standard_normal((n_samples, l, n)), 0, -1)
    V = basis @ (basis.T @ G.reshape(l * n, n_samples))
    V /= np.linalg.norm(V, axis=0)
    est, _ = estimate_delta_inf(A, Qt, s, n_samples=n_samples,
                                rng=np.random.default_rng(seed))
    assert est == pytest.approx(_max_energy_reference(A, Qt, s, V), rel=1e-12)
    return basis.shape[1]


def _max_energy_pairwise(factors, n_samples, rng):
    """``analysis._max_energy_estimate`` with each block's energies reduced
    over (re, im) pairs by a reshaped sum and live directions picked by a
    boolean index whether or not all are live: the reduction it replaced."""
    AQ, _, K, w = factors
    h, m, n = AQ.shape
    l = int(w.sum())
    s, vh = np.linalg.svd(AQ, full_matrices=False)[1:]
    vh = vh * (s > max(m, n) * l * np.finfo(float).eps * s.max())[..., None]
    P = np.conj(np.swapaxes(vh, -1, -2)) @ vh
    M = np.concatenate((K.reshape(h, -1, n) @ P, P), axis=1)
    r = M.shape[1]
    c = max(64, analysis._SAMPLE_BLOCK_BYTES // (16 * h * r))
    estimate = np.inf
    for j in range(0, n_samples, c):
        b = min(c, n_samples - j)
        G = np.fft.rfft(rng.standard_normal((b, l, n)).transpose(1, 2, 0).copy(), axis=0)
        X = (M @ G).view(np.float64)
        e = (w @ np.square(X).reshape(h, -1)).reshape(r, -1, 2).sum(axis=2)
        energies, norms_sq = e[:-n].reshape(K.shape[1], -1, b).sum(axis=1), e[-n:].sum(0)
        live = norms_sq > 1e-24 * l
        if live.any():
            estimate = min(estimate, np.min(np.max(energies[:, live], axis=0) / norms_sq[live]))
    return float(estimate)


class TestFourierReportOracles:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", list(ALL_SETS))
    def test_fixed_sampling_constant(self, name, weighted):
        A, Qt = _system(weighted)
        s = ALL_SETS[name]()
        p = np.random.default_rng(22).dirichlet(np.ones(s.q))
        rep = compute_rate_report(A, Qt, s, p=p, n_samples=50,
                                  rng=np.random.default_rng(23))
        if s.per_slice:
            lam = slice_rates_loop(A, Qt, s, p).min()
        else:
            _, lam = expected_projector(A, Qt, s, p)
        assert abs(rep.delta_p_sq - lam) < 1e-10
        assert abs(rep.per_slice_min_rate - lam) < 1e-10
        assert lam > 1e-7  # complete family: a nonsingular expected projector

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", list(SPATIAL_SETS))
    def test_max_energy_matches_bcirc_projectors(self, name, weighted):
        A, Qt = _system(weighted)
        assert _check_max_energy(A, Qt, SPATIAL_SETS[name]()) == 15

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["slice", "gaussian"])
    def test_max_energy_on_a_rank_deficient_system(self, kind, weighted):
        # 3x5x3: every slice has rank 3 < n, so the projection is not the identity
        rng = np.random.default_rng(26)
        A = rand_tubal(rng, 3, 5, 3)
        Qt = spd_weight_tensor(rng, 5, 3) if weighted else None
        s = (make_slice_sketches(3, 3) if kind == "slice"
             else make_gaussian_sketches(3, 2, 4, 3, np.random.default_rng(27)))
        assert _check_max_energy(A, Qt, s) == 9

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", list(SPATIAL_SETS))
    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_max_energy_across_sample_blocks(self, monkeypatch, l, name, weighted):
        # a one-byte budget holds no sample, so every block has the floor's 64;
        # the sample counts put the last block at 1, c - 1, c, 1 and 7 samples
        monkeypatch.setattr(analysis, "_SAMPLE_BLOCK_BYTES", 1)
        c = 64
        rng = np.random.default_rng(40 + l)
        A = rand_tubal(rng, 5, 5, l)
        Qt = spd_weight_tensor(rng, 5, l) if weighted else None
        s = {"slice": lambda: make_slice_sketches(5, l),
             "ragged-block": lambda: make_block_sketches(5, l, [[0, 2, 4], [1], [3]]),
             "gaussian": lambda: make_gaussian_sketches(5, 2, 4, l, np.random.default_rng(21)),
             }[name]()
        for n_samples in (1, c - 1, c, c + 1, 3 * c + 7):
            assert _check_max_energy(A, Qt, s, n_samples=n_samples) == 5 * l

    @pytest.mark.parametrize("kind", ["slice", "gaussian"])
    @pytest.mark.parametrize("l", range(1, 9))
    def test_max_energy_equals_the_pairwise_reduction(self, l, kind):
        # each sample's re^2 and im^2 are added as two strided halves, and an
        # all-live block is scored without a boolean-index copy: bit for bit
        # the estimate of the reduction over (re, im) pairs kept below
        rng = np.random.default_rng(50 + l)
        A = rand_tubal(rng, 6, 4, l)
        s = (make_slice_sketches(6, l) if kind == "slice"
             else make_gaussian_sketches(6, 2, 5, l, np.random.default_rng(51)))
        factors = analysis._slice_factors(A, None, s)
        for n_samples in (1, 65, 300):
            got = analysis._max_energy_estimate(factors, n_samples, np.random.default_rng(l))
            want = _max_energy_pairwise(factors, n_samples, np.random.default_rng(l))
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_max_energy_memory_is_the_draw_and_one_block(self):
        # tracemalloc counts what the estimate allocates: one sample block,
        # its draw and transform (each smaller than its product buffer) and
        # the product itself, besides the factors; nothing of all S samples
        # (the whole draw, 8 l n S = 9.6 MB here, would fail this)
        A = rand_tubal(np.random.default_rng(41), 40, 10, 6)
        s = make_slice_sketches(40, 6)
        factors = analysis._slice_factors(A, None, s)
        n_samples = 20_000
        tracemalloc.start()
        try:
            analysis._max_energy_estimate(factors, n_samples, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor_bytes = sum(f.nbytes for f in factors)
        assert peak <= factor_bytes + 2 * analysis._SAMPLE_BLOCK_BYTES

    def test_max_energy_holds_one_sample_block(self, monkeypatch):
        # three full blocks of c = 1024 samples (h = 4, qtau + n = 50): each
        # block's product reuses one buffer and each block's draw is made as
        # it is scored, so the loop never holds two blocks or all the samples
        A = rand_tubal(np.random.default_rng(41), 40, 10, 6)
        s = make_slice_sketches(40, 6)
        factors = analysis._slice_factors(A, None, s)
        budget = 16 * 4 * 50 * 1024
        monkeypatch.setattr(analysis, "_SAMPLE_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            analysis._max_energy_estimate(factors, 3 * 1024, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(f.nbytes for f in factors) + 2 * budget

    def test_max_energy_peak_does_not_grow_with_samples(self):
        # each block's directions are drawn as it is scored, so 100 times
        # the samples only means more blocks of the same size
        A = rand_tubal(np.random.default_rng(41), 40, 10, 6)
        factors = analysis._slice_factors(A, None, make_slice_sketches(40, 6))
        peaks = []
        for n_samples in (2_000, 200_000):
            tracemalloc.start()
            try:
                analysis._max_energy_estimate(factors, n_samples, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 199])
    def test_max_energy_directions_do_not_depend_on_block_size(self, monkeypatch, n_samples):
        # one sample-major stream: 64-sample blocks and one block read the
        # same directions
        A = rand_tubal(np.random.default_rng(42), 12, 5, 6)
        factors = analysis._slice_factors(
            A, None, make_gaussian_sketches(12, 2, 4, 6, np.random.default_rng(43)))
        got = []
        for budget in (1, 2**30):
            monkeypatch.setattr(analysis, "_SAMPLE_BLOCK_BYTES", budget)
            got.append(analysis._max_energy_estimate(factors, n_samples,
                                                     np.random.default_rng(44)))
        assert got[0] == pytest.approx(got[1], rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", list(ALL_SETS))
    def test_closed_form_bounds_match_member_loop(self, name, weighted):
        A, Qt = _system(weighted)
        s = ALL_SETS[name]()
        got = closed_form_rate_bounds(A, Qt, s)
        want = closed_form_bounds_loop(A, Qt, s)
        assert set(got) == set(want)
        for key in want:
            assert abs(got[key] - want[key]) < 1e-12, key
        if name != "gaussian":  # 8 stacked columns > n: singular stacked Gram
            assert want["uniform"] > 0

    def test_max_energy_cuts_rounding_level_slices_like_bcirc(self):
        # slices 1 and 3 are 1e-15 of the others: below the bcirc matrix's
        # rank cutoff, so they hold no range directions
        A0 = np.random.default_rng(0).standard_normal((6, 3))
        A = A0[:, :, None] * np.fft.ifft([1, 1e-15, 1, 1e-15]).real
        assert _check_max_energy(A, None, make_slice_sketches(6, 4)) == 6

    def test_vanishing_fourier_slices_follow_the_oracle_cutoff(self):
        # slices 1 and 3 are 1e-13 of the others: rounding-level, so the
        # spatial pinv treats them as zero and the expected projector is
        # singular; the per-slice constants must say the same
        A0 = np.random.default_rng(0).standard_normal((6, 3))
        A = A0[:, :, None] * np.fft.ifft([1, 1e-13, 1, 1e-13]).real
        s = make_slice_sketches(6, 4)
        _, lam = expected_projector(A, None, s, prob_uniform(6))
        lams, lam_min = per_slice_rates(A, None, s, prob_uniform(6))
        assert abs(lam_min - lam) < 1e-10
        rep = compute_rate_report(A, None, s, n_samples=50,
                                  rng=np.random.default_rng(1))
        assert abs(rep.per_slice_min_rate - lam) < 1e-10
        assert abs(rep.delta_p_sq - lam) < 1e-10
