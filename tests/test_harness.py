import json
import os

import jsonschema
import numpy as np
import pytest

from conftest import conv2d_circular
from tubalsketch.harness import (
    ExperimentConfig,
    MethodSpec,
    ProblemSpec,
    build_sketches,
    gaussian_kernel,
    gen_deblur,
    gen_gaussian,
    generate_problem,
    relative_error,
    run_experiment,
)
from tubalsketch.io import read_trace
from tubalsketch.solvers import SolverConfig, solve
from tubalsketch.sketching import make_slice_sketches
from tubalsketch.t_algebra import fnorm, tprod


class TestGaussianProblems:
    def test_seeded_regeneration_is_bitwise_identical(self):
        spec = ProblemSpec(m=7, n=4, p=2, l=3, seed=5)
        A1, X1, B1 = gen_gaussian(spec)
        A2, X2, B2 = gen_gaussian(spec)
        assert np.array_equal(A1, A2)
        assert np.array_equal(X1, X2)
        assert np.array_equal(B1, B2)

    def test_generated_system_is_consistent(self):
        A, Xs, B = gen_gaussian(ProblemSpec(m=9, n=5, p=3, l=4, seed=6))
        assert fnorm(tprod(A, Xs) - B) <= 1e-12 * fnorm(B)

    def test_uniform_row_sampling_solves_default_scale(self):
        spec = ProblemSpec(m=50, n=20, p=5, l=5, seed=7)
        A, Xs, B = gen_gaussian(spec)
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(50, 5),
                           tol=1e-10, seed=1, max_iters=100_000,
                           record_every=500)
        X, rec = solve(A, B, cfg, x_star=Xs)
        assert rec.converged and rec.iterations < 100_000


class TestDeblurProblems:
    def test_delta_kernel_is_a_pure_shift(self):
        spec = ProblemSpec(kind="deblur", image_size=8, num_images=1,
                           kernel_size=3, kernel_sigma=0.0, seed=8)
        A, Xs, B = gen_deblur(spec)
        img = Xs[:, 0, :].T
        out = B[:, 0, :].T
        # the delta sits at the kernel center, so the output is the input
        # circularly shifted by the center offset in both axes
        np.testing.assert_allclose(out, np.roll(np.roll(img, 1, 0), 1, 1),
                                   atol=1e-12)

    def test_operator_application_is_circular_convolution(self):
        spec = ProblemSpec(kind="deblur", image_size=10, num_images=3,
                           kernel_size=5, kernel_sigma=2.0, seed=9)
        A, Xs, B = gen_deblur(spec)
        pad = A.shape[0]
        ker = np.zeros((pad, pad))
        ker[:5, :5] = gaussian_kernel(5, 2.0)
        for j in range(3):
            img = Xs[:, j, :].T
            ref = conv2d_circular(img, ker.T)
            got = B[:, j, :].T
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_kernel_is_normalized(self):
        k = gaussian_kernel(5, 2.0)
        assert abs(k.sum() - 1.0) < 1e-12
        assert k.shape == (5, 5) and np.all(k >= 0)

    def test_kernel_larger_than_padding_rejected(self):
        spec = ProblemSpec(kind="deblur", image_size=8, kernel_size=5,
                           padded_size=4, seed=0)
        with pytest.raises(ValueError, match="kernel"):
            gen_deblur(spec)

    def test_consistency(self):
        spec = ProblemSpec(kind="deblur", image_size=9, num_images=2,
                           kernel_size=3, kernel_sigma=1.0, seed=10)
        A, Xs, B = gen_deblur(spec)
        assert fnorm(tprod(A, Xs) - B) <= 1e-12 * fnorm(B)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_problem(ProblemSpec(kind="video"))


class TestRelativeError:
    def test_exact_solution(self):
        X = np.ones((2, 2, 2))
        assert relative_error(X, X) == 0.0

    def test_zero_iterate(self):
        X = np.random.default_rng(11).standard_normal((3, 2, 2))
        assert abs(relative_error(np.zeros_like(X), X) - 1.0) < 1e-15

    def test_scaling(self):
        X = np.random.default_rng(12).standard_normal((3, 2, 2))
        assert abs(relative_error(2 * X, X) - 1.0) < 1e-15

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


def tiny_experiment(tmp_path, **overrides):
    base = dict(
        problem=ProblemSpec(m=8, n=4, p=2, l=3, seed=3),
        methods=[
            MethodSpec(method="NTSP", label="fixed-a"),
            MethodSpec(method="NTSP", label="fixed-b"),
            MethodSpec(method="ATSP-MD", label="greedy"),
        ],
        trials=2,
        tol=1e-8,
        max_iters=20_000,
        record_every=1,
        seed=4,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_identical_entries_give_identical_traces(self, tmp_path):
        config = tiny_experiment(tmp_path)
        run_experiment(config)
        for trial in range(2):
            a = read_trace(os.path.join(config.output_dir,
                                        f"trace_fixed-a_trial{trial}.csv"))
            b = read_trace(os.path.join(config.output_dir,
                                        f"trace_fixed-b_trial{trial}.csv"))
            np.testing.assert_array_equal(a["epsilon"], b["epsilon"])
            assert a["chosen_index"] == b["chosen_index"]

    def test_summary_validates_against_schema(self, tmp_path):
        config = tiny_experiment(tmp_path)
        summary = run_experiment(config)
        import importlib.resources as resources

        schema = json.loads(
            resources.files("tubalsketch")
            .joinpath("schemas/experiment_summary.schema.json")
            .read_text()
        )
        jsonschema.validate(summary, schema)
        on_disk = json.load(open(os.path.join(config.output_dir, "summary.json")))
        jsonschema.validate(on_disk, schema)

    def test_summary_statistics_and_curves(self, tmp_path):
        config = tiny_experiment(tmp_path)
        summary = run_experiment(config)
        for entry in summary["methods"]:
            assert entry["trials_run"] == 2
            assert entry["converged"] == 2
            assert entry["mean_iterations"] > 0
            curve = os.path.join(config.output_dir, entry["curve_file"])
            assert os.path.exists(curve)

    def test_diverged_trial_keeps_its_trace(self, tmp_path, monkeypatch):
        # a decoy solution 1e-9 times the true one: the iterates head for
        # the true solution, so the error against the decoy blows up
        from tubalsketch import harness

        def decoy_problem(spec, rng=None):
            A, x_star, B = generate_problem(spec, rng)
            return A, x_star * 1e-9, B

        monkeypatch.setattr(harness, "generate_problem", decoy_problem)
        config = tiny_experiment(tmp_path, methods=[MethodSpec(method="NTSP")], trials=1,
                                 tol=1e-14, record_every=1000)
        summary = run_experiment(config)
        entry = summary["methods"][0]
        assert entry["trials_run"] == 0 and len(entry["diverged"]) == 1
        trace = read_trace(os.path.join(config.output_dir, "trace_ntsp_trial0.csv"))
        assert trace["t"][0] == 0 and 0 < trace["t"][-1] < 1000
        assert f"iteration {trace['t'][-1]}:" in entry["diverged"][0]
        assert trace["epsilon"][-1] > 1e3 * trace["epsilon"][0]
        assert trace["stop_reason"] == [""] * (trace["t"].size - 1) + ["diverged"]

    def test_config_from_dict(self):
        config = ExperimentConfig.from_dict(
            {
                "problem": {"kind": "gaussian", "m": 6, "n": 3, "p": 2, "l": 2},
                "methods": [{"method": "NTSP"}, {"method": "ATSP-CS",
                                                 "theta": 0.7}],
                "trials": 3,
                "tol": 1e-6,
            }
        )
        assert config.problem.m == 6
        assert config.methods[1].theta == 0.7
        assert config.trials == 3

    @pytest.mark.parametrize("field, value", [
        ("trials", 0), ("trials", "2"), ("trials", 2.5), ("max_iters", -1),
        ("record_every", 0), ("seed", -1), ("tol", float("nan")), ("tol", None),
    ])
    def test_config_values_checked_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}="):
            ExperimentConfig(methods=[MethodSpec(method="NTSP")], **{field: value})

    @pytest.mark.parametrize("spec, field, value", [
        (ProblemSpec, "m", 0), (ProblemSpec, "m", "6"), (ProblemSpec, "m", 2.5),
        (ProblemSpec, "n", -1), (ProblemSpec, "p", float("nan")), (ProblemSpec, "l", 0),
        (ProblemSpec, "seed", -1), (MethodSpec, "tau", "2"), (MethodSpec, "tau", 0),
        (MethodSpec, "q", -1), (MethodSpec, "q", 2.5), (MethodSpec, "block_size", None),
        (MethodSpec, "theta", 1.5), (MethodSpec, "method", 5), (MethodSpec, "method", "FOO"),
    ])
    def test_spec_values_checked_when_built(self, spec, field, value):
        args = {"method": "NTSP"} if spec is MethodSpec else {}
        with pytest.raises(ValueError, match=f"^{field}="):
            spec(**{**args, field: value})

    def test_whole_float_spec_values_become_ints(self):
        # values read from a JSON or TOML file may arrive as floats such as 6.0
        problem = ProblemSpec(m=6.0, n=3.0, p=2.0, l=2.0, seed=4.0)
        method = MethodSpec(method="NTSP", sketch="gaussian", tau=2.0, q=3.0)
        for value in (problem.m, problem.n, problem.p, problem.l, problem.seed, method.tau,
                      method.q, method.block_size):
            assert type(value) is int
        assert problem == ProblemSpec(m=6, n=3, p=2, l=2, seed=4)


class TestBuildSketches:
    def test_kinds(self):
        rng = np.random.default_rng(13)
        assert build_sketches(MethodSpec(method="NTSP", sketch="slice"),
                              6, 3, rng).q == 6
        assert build_sketches(MethodSpec(method="NTSP", sketch="block",
                                         block_size=2), 6, 3, rng).q == 3
        # q without block_size: exactly q contiguous blocks
        for q, taus in ((3, (4, 3, 3)), (4, (3, 3, 2, 2))):
            b = build_sketches(MethodSpec(method="NTSP", sketch="block", q=q), 10, 3, rng)
            assert b.q == q and b.taus == taus
            np.testing.assert_array_equal(b.rows[0, :taus[0]], np.arange(taus[0]))
        assert build_sketches(MethodSpec(method="NTSP", sketch="gaussian",
                                         tau=2, q=4), 6, 3, rng).q == 4
        f = build_sketches(MethodSpec(method="NTSP-II", sketch="fourier-row"),
                           6, 3, rng)
        assert f.per_slice and f.q == 6
        g = build_sketches(
            MethodSpec(method="NTSP-II", sketch="fourier-gaussian", tau=2, q=3),
            6, 3, rng)
        assert g.per_slice and g.q == 3
        with pytest.raises(ValueError):
            build_sketches(MethodSpec(method="NTSP", sketch="sparse"), 6, 3, rng)

    @pytest.mark.parametrize("spec, message", [
        (dict(sketch="slice", q=3), "slice sketches: q=3 is not 0 or m=6"),
        (dict(sketch="fourier-row", q=3, tau=2), "fourier-row sketches: q=3 is not 0 or m=6"),
        (dict(sketch="slice", tau=2), "slice sketches: tau=2 is not 1"),
        (dict(sketch="block", tau=2), "block sketches: tau=2 is not 1"),
        (dict(sketch="fourier-row", tau=2), "fourier-row sketches: tau=2 is not 1"),
        (dict(sketch="slice", block_size=2), "slice sketches: block_size=2 is for block"),
        (dict(sketch="gaussian", block_size=2), "gaussian sketches: block_size=2 is for block"),
        (dict(sketch="fourier-gaussian", block_size=2),
         "fourier-gaussian sketches: block_size=2 is for block"),
        (dict(sketch="block", q=3, block_size=2), "block sketches: q=3 excludes block_size"),
        (dict(sketch="sparse", block_size=2), "unknown sketch kind 'sparse'"),
    ])
    def test_value_the_kind_cannot_honour_is_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            build_sketches(MethodSpec(method="NTSP", **spec), 6, 3, np.random.default_rng(0))

    def test_values_the_kind_honours_are_kept(self):
        rng = np.random.default_rng(14)
        for spec, q in ((dict(sketch="slice", q=6), 6), (dict(sketch="fourier-row", q=6), 6),
                        (dict(sketch="block", q=3), 3), (dict(sketch="block", block_size=3), 2),
                        (dict(sketch="gaussian", q=3, tau=2), 3)):
            assert build_sketches(MethodSpec(method="NTSP", **spec), 6, 3, rng).q == q, spec

    def test_tsp_builds_no_set(self):
        # TSP draws a fresh sketch every iteration, so the set fields are not read
        for spec in (dict(tau=10), dict(sketch="slice", q=3), dict(block_size=2)):
            assert build_sketches(MethodSpec(method="tsp", **spec), 6, 3, None) is None
