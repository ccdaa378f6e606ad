import json

import numpy as np
import pytest

from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.io import (
    load_experiment_dict,
    load_sketches,
    load_slices_csv,
    load_tensor,
    read_trace,
    save_sketches,
    save_tensor,
    write_trace,
)
from tubalsketch.sketching import (
    SketchSet,
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
)
from tubalsketch.solvers import SolverConfig, solve
from tubalsketch.sketching import make_slice_sketches


class TestTensorFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3, 5))
        path = tmp_path / "x.tns"
        save_tensor(path, X)
        assert np.array_equal(load_tensor(path), X)

    def test_header_is_self_describing(self, tmp_path):
        X = np.arange(12.0).reshape(2, 3, 2)
        path = tmp_path / "x.tns"
        save_tensor(path, X)
        lines = path.read_text().splitlines()
        assert lines[0] == "tns 1"
        assert lines[1] == "2 3 2"
        assert len(lines) == 2 + 12

    def test_depth_index_varies_fastest(self, tmp_path):
        X = np.arange(8.0).reshape(2, 2, 2)
        path = tmp_path / "x.tns"
        save_tensor(path, X)
        entries = [float(v) for v in path.read_text().splitlines()[2:]]
        assert entries[:2] == [X[0, 0, 0], X[0, 0, 1]]

    def test_rejects_wrong_files(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("nope 1\n2 2 2\n")
        with pytest.raises(ValueError, match="not a .tns"):
            load_tensor(path)
        path.write_text("tns 1\n2 2 2\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="expected 8 entries"):
            load_tensor(path)
        with pytest.raises(ValueError):
            save_tensor(tmp_path / "y.tns", np.zeros((2, 2)))


class TestSliceCsv:
    def test_stacked_slices(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 4, 2))
        path = tmp_path / "x.csv"
        rows = np.vstack([X[:, :, k] for k in range(2)])
        np.savetxt(path, rows, delimiter=",")
        got = load_slices_csv(path, 2)
        np.testing.assert_allclose(got, X, atol=1e-12)

    def test_bad_row_count(self, tmp_path):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 2)), delimiter=",")
        with pytest.raises(ValueError, match="frontal slices"):
            load_slices_csv(path, 2)


SETS = {
    "slice": lambda: make_slice_sketches(6, 2),
    "ragged-block": lambda: make_block_sketches(6, 2, [[0, 3], [1, 2, 4], [5]]),
    "gaussian": lambda: make_gaussian_sketches(6, 2, 4, 2, np.random.default_rng(5)),
    "fourier-row": lambda: make_fourier_sketches(6, 1, 6, 2, "row"),
    "fourier-gaussian": lambda: make_fourier_sketches(6, 2, 4, 2, "gaussian",
                                                      np.random.default_rng(3)),
}

_MATS = np.ones((2, 4, 1)).tolist()
BAD_FIELDS = [
    (dict(kind="slice", m=3, l=2, q=3, rows=[[0], [1.5], [2]]),
     "rows must be integers, got dtype float64"),
    # -1 and -2 used to read the sentinel row and the last row
    (dict(kind="block", m=6, l=4, q=3, rows=[[0, 1, 6], [2, 3, 6], [4, -1, -2]]),
     r"rows must lie in \[0, m=6\], got \[-2, 6\]"),
    (dict(kind="slice", m=3, l=2, q=3, rows=[[0], [1], [4]]),
     r"rows must lie in \[0, m=3\], got \[0, 4\]"),
    (dict(kind="slice", m=3, l=2, q=2, rows=[[0], [1], [2]]),
     r"rows has shape \(3, 1\), not \(q=2, tau\)"),
    (dict(kind="block", m=4, l=2, q=3, rows=[[0, 1], [4, 4], [2, 3]]),
     "member 1 selects no row below m=4"),
    (dict(kind="slice", m=3, l=2, q=3), "slice sketch sets store rows only"),
    (dict(kind="gaussian", m=3, l=2, q=2, mats=_MATS),
     r"mats has shape \(2, 4, 1\), not \(2, 3, 'tau'\)"),
    (dict(kind="fourier-gaussian", m=4, l=2, q=2, mats=_MATS),
     r"mats has shape \(2, 4, 1\), not \(2, 2, 4, 'tau'\)"),
    (dict(kind="gaussian", m=4, l=2, q=2, mats=[[[1.0]] * 4, [[float("nan")]] * 4]),
     "mats contains NaN or inf"),
    # slice 2 of 3 is the mirror of slice 1, so its matrices must be slice 1's
    (dict(kind="fourier-gaussian", m=2, l=3, q=1, mats=[[[[1.0], [0.0]]], [[[0.0], [1.0]]],
                                                        [[[1.0], [0.0]]]]),
     "mats of Fourier slice l - k must equal those of slice k"),
    (dict(kind="slice", m=0, l=2, q=1, rows=[[0]]), "m=0 must be a positive integer"),
    (dict(kind="slice", m=3, l=2.0, q=1, rows=[[0]]), "l=2.0 must be a positive integer"),
]


class TestSketchSerialization:
    def test_spatial_round_trip(self, tmp_path):
        s = make_gaussian_sketches(5, 2, 3, 4, np.random.default_rng(2))
        path = tmp_path / "s.json"
        save_sketches(path, s)
        t = load_sketches(path)
        assert (t.kind, t.m, t.l, t.q) == (s.kind, s.m, s.l, s.q)
        for a, b in zip(s.members, t.members):
            assert np.array_equal(a, b)

    def test_per_slice_round_trip(self, tmp_path):
        s = make_fourier_sketches(4, 2, 3, 2, "gaussian", np.random.default_rng(3))
        path = tmp_path / "f.json"
        save_sketches(path, s)
        t = load_sketches(path)
        assert t.per_slice
        for fam_a, fam_b in zip(s.members, t.members):
            for a, b in zip(fam_a, fam_b):
                assert np.array_equal(a, b)

    def test_replayed_sketches_reproduce_runs(self, tmp_path):
        A, Xs, B = gen_gaussian(ProblemSpec(m=6, n=3, p=2, l=2, seed=4))
        s = make_gaussian_sketches(6, 2, 4, 2, np.random.default_rng(5))
        path = tmp_path / "s.json"
        save_sketches(path, s)
        cfg = dict(method="ATSP-PR", tol=1e-8, seed=6, max_iters=20_000)
        X1, r1 = solve(A, B, SolverConfig(sketches=s, **cfg), x_star=Xs)
        X2, r2 = solve(A, B, SolverConfig(sketches=load_sketches(path), **cfg),
                       x_star=Xs)
        assert np.array_equal(X1, X2)
        assert r1.chosen == r2.chosen


    def test_selection_sets_load_as_rows(self, tmp_path):
        for s in (make_slice_sketches(4, 3),
                  make_block_sketches(5, 2, [[0, 3], [1, 2, 4]]),
                  make_fourier_sketches(4, 1, 4, 3, "row")):
            path = tmp_path / f"{s.kind}.json"
            save_sketches(path, s)
            t = load_sketches(path)
            assert (t.kind, t.m, t.l, t.q, t.taus) == (s.kind, s.m, s.l, s.q, s.taus)
            np.testing.assert_array_equal(t.rows, s.rows)

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_file_holds_the_fields_and_replays(self, tmp_path, name):
        s = SETS[name]()
        path = tmp_path / "s.json"
        save_sketches(path, s)
        stored = "mats" if s.rows is None else "rows"
        assert set(json.loads(path.read_text())) == {"kind", "m", "l", "q", stored}
        t = load_sketches(path)
        assert (t.kind, t.m, t.l, t.q) == (s.kind, s.m, s.l, s.q)
        assert np.array_equal(getattr(t, stored), getattr(s, stored))
        assert getattr(t, stored).dtype == getattr(s, stored).dtype
        A, Xs, B = gen_gaussian(ProblemSpec(m=6, n=3, p=2, l=2, seed=4))
        cfg = dict(method="ATSP-PR-II" if s.per_slice else "ATSP-PR", tol=1e-8,
                   seed=6, max_iters=20_000)
        X1, r1 = solve(A, B, SolverConfig(sketches=s, **cfg), x_star=Xs)
        X2, r2 = solve(A, B, SolverConfig(sketches=t, **cfg), x_star=Xs)
        assert np.array_equal(X1, X2) and r1.chosen == r2.chosen

    @pytest.mark.parametrize("fields, message", BAD_FIELDS)
    def test_malformed_set_rejected_when_built(self, tmp_path, fields, message):
        with pytest.raises(ValueError, match=message):
            SketchSet(**fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=message):
            load_sketches(path)

    @pytest.mark.parametrize("fields, message", [
        # keys the dataclass lacks are a TypeError when passed directly, so
        # only the file reader has something to say about them
        (dict(kind="slice", m=3, l=2, q=1, members=[[[[1.0, 0.0]]] * 3]),
         "'members' is the dense sketch format"),
        (dict(kind="slice", m=3, l=2, q=1, rows=[[0]], extra=1),
         "unexpected keyword argument 'extra'"),
        (dict(kind="slice", m=3, l=2, rows=[[0]]), "missing 1 required positional argument: 'q'"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=message):
            load_sketches(path)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        A, Xs, B = gen_gaussian(ProblemSpec(m=6, n=3, p=2, l=2, seed=7))
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(6, 2),
                           tol=1e-8, seed=8, record_every=2)
        X, rec = solve(A, B, cfg, x_star=Xs)
        path = tmp_path / "trace.csv"
        write_trace(path, rec)
        data = read_trace(path)
        np.testing.assert_array_equal(data["t"], rec.t)
        np.testing.assert_array_equal(data["epsilon"], rec.epsilon)
        assert data["chosen_index"][0] == ""
        assert data["chosen_index"][1] == str(rec.chosen[1])

    @pytest.mark.parametrize("with_x_star", [True, False])
    def test_error_and_stop_reason_columns(self, tmp_path, with_x_star):
        A, Xs, B = gen_gaussian(ProblemSpec(m=6, n=3, p=2, l=2, seed=7))
        cfg = SolverConfig(method="NTSP", sketches=make_slice_sketches(6, 2),
                           tol=1e-12, seed=8, max_iters=30, record_every=4)
        _, rec = solve(A, B, cfg, x_star=Xs if with_x_star else None)
        path = tmp_path / "trace.csv"
        write_trace(path, rec)
        data = read_trace(path)
        np.testing.assert_array_equal(data["q_error"], rec.q_error)
        assert np.all(np.isnan(data["q_error"])) != with_x_star
        assert data["stop_reason"] == [""] * (rec.t.size - 1) + ["max_iters"]

    def test_trace_without_error_columns_is_rejected(self, tmp_path):
        # the column layout of traces written before q_error and stop_reason
        path = tmp_path / "old.csv"
        path.write_text("t,epsilon,chosen_index,loss_max,loss_sum,seconds\n"
                        "0,1.0,,nan,nan,0.0\n")
        with pytest.raises(ValueError, match=r"lacks the columns \['q_error', 'stop_reason'\]"):
            read_trace(path)

    def test_per_slice_indices_are_joined(self, tmp_path):
        A, Xs, B = gen_gaussian(ProblemSpec(m=6, n=3, p=2, l=3, seed=9))
        f = make_fourier_sketches(6, 1, 6, 3, "row")
        cfg = SolverConfig(method="ATSP-MD-II", sketches=f, tol=1e-8, seed=10)
        X, rec = solve(A, B, cfg, x_star=Xs)
        path = tmp_path / "trace.csv"
        write_trace(path, rec)
        data = read_trace(path)
        first = data["chosen_index"][1]
        assert len(first.split(";")) == 3


class TestConfigLoading:
    def test_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"trials": 4, "methods": [{"method": "NTSP"}]}')
        d = load_experiment_dict(str(path))
        assert d["trials"] == 4

    def test_toml_depends_on_interpreter(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text("trials = 4\n")
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(RuntimeError, match="tomllib"):
                load_experiment_dict(str(path))
        else:
            assert load_experiment_dict(str(path))["trials"] == 4

    def test_unknown_extension(self):
        with pytest.raises(ValueError):
            load_experiment_dict("exp.yaml")
