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

    def test_rejects_members_that_are_not_selections(self, tmp_path):
        def payload(kind, members, m=3, l=2, q=1):
            return {"kind": kind, "m": m, "l": l, "q": q, "members": members}

        one_hot = np.zeros((3, 1, 2))
        one_hot[1, 0, 0] = 1.0
        scaled = 2.0 * one_hot
        two_ones = one_hot.copy()
        two_ones[2, 0, 0] = 1.0
        late = one_hot.copy()
        late[0, 0, 1] = 1.0
        gaussian_late = np.random.default_rng(12).standard_normal((3, 1, 2))
        rows = [np.eye(3)[:, i:i + 1].tolist() for i in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        bad = [
            payload("slice", [scaled.tolist()]),
            payload("block", [two_ones.tolist()]),
            payload("slice", [late.tolist()]),  # nonzero second frontal slice
            payload("gaussian", [gaussian_late.tolist()]),
            payload("fourier-row", [rows, swapped], q=3),  # families disagree
            payload("fourier-row", [[[[0.5], [0.5], [0.0]]]] * 2),
        ]
        for data in bad:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError):
                load_sketches(path)
        path = tmp_path / "good.json"
        path.write_text(json.dumps(payload("slice", [one_hot.tolist()])))
        np.testing.assert_array_equal(load_sketches(path).rows, [[1]])


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
