import json
import os

import numpy as np
import pytest

from tubalsketch.cli import main
from tubalsketch.io import load_sketches, load_tensor, read_trace
from tubalsketch.solvers import METHODS, SolverConfig, solve


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def system_files(tmp_path):
    prefix = tmp_path / "sys"
    assert run_cli("gen", "--kind", "gaussian", "--m", 10, "--n", 5, "--p", 2,
                   "--l", 3, "--seed", 3, "--out", prefix) == 0
    return prefix


class TestGen:
    def test_writes_consistent_triple(self, system_files):
        A = load_tensor(f"{system_files}_A.tns")
        X = load_tensor(f"{system_files}_X.tns")
        B = load_tensor(f"{system_files}_B.tns")
        assert A.shape == (10, 5, 3) and X.shape == (5, 2, 3)
        from tubalsketch.t_algebra import tprod

        assert np.linalg.norm(tprod(A, X) - B) <= 1e-12 * np.linalg.norm(B)

    @pytest.mark.parametrize("flag, value", [("--m", 0), ("--l", 0), ("--n", -2), ("--seed", -1)])
    def test_bad_value_is_a_one_line_usage_error(self, tmp_path, capsys, flag, value):
        # --m 0 once wrote an empty A, and --l 0 failed in numpy's FFT
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", flag, value, "--out", tmp_path / "sys")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tubalsketch: error: {flag[2:]}={value} is out of range"
        assert "Traceback" not in err
        assert not os.listdir(tmp_path)

    def test_deblur_kind(self, tmp_path):
        prefix = tmp_path / "blur"
        assert run_cli("gen", "--kind", "deblur", "--image-size", 8,
                       "--num-images", 2, "--kernel-size", 3, "--seed", 1,
                       "--out", prefix) == 0
        A = load_tensor(f"{prefix}_A.tns")
        assert A.shape == (10, 10, 10)


class TestSolve:
    def test_solve_writes_trace_and_solution(self, system_files, tmp_path):
        trace = tmp_path / "run.csv"
        out = tmp_path / "xhat.tns"
        code = run_cli(
            "solve", "--method", "ATSP-MD", "--sketch", "slice",
            "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
            "--xstar", f"{system_files}_X.tns", "--tol", "1e-8",
            "--seed", 5, "--trace", trace, "--out", out,
        )
        assert code == 0
        X = load_tensor(out)
        Xs = load_tensor(f"{system_files}_X.tns")
        assert np.linalg.norm(X - Xs) <= 1e-7 * np.linalg.norm(Xs)
        data = read_trace(trace)
        assert data["t"][0] == 0 and data["epsilon"][-1] < 1e-8

    def test_unconverged_exit_code(self, system_files, tmp_path):
        code = run_cli(
            "solve", "--method", "NTSP", "--sketch", "slice",
            "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
            "--xstar", f"{system_files}_X.tns", "--tol", "1e-12",
            "--max-iters", "5", "--seed", 5,
        )
        assert code == 2

    def test_residual_mode_without_xstar(self, system_files):
        code = run_cli(
            "solve", "--method", "ATSP-PR", "--sketch", "slice",
            "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
            "--tol", "1e-6", "--seed", 5,
        )
        assert code == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--record-every", 0, "record_every=0 is out of range"),
        ("--prob", "bogus", "unknown probability rule 'bogus'"),
        ("--q", 3, "slice sketches: q=3 is not 0 or m=10"),
        ("--block-size", 2, "slice sketches: block_size=2 is for block sketches"),
    ])
    def test_bad_value_is_a_one_line_usage_error(self, system_files, capsys,
                                                 flag, value, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--method", "NTSP", "--sketch", "slice",
                    "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
                    flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tubalsketch: error: {message}"
        assert "Traceback" not in err

    def test_sketch_replay_file(self, system_files, tmp_path):
        sk, trace, out = (tmp_path / name for name in ("sketches.json", "run.csv", "x.tns"))
        code = run_cli(
            "solve", "--method", "NTSP", "--sketch", "gaussian", "--tau", 2,
            "--q", 6, "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
            "--tol", "1e-6", "--seed", 5, "--save-sketches", sk, "--trace", trace,
            "--out", out,
        )
        assert code == 0
        A, B = (load_tensor(f"{system_files}_{name}.tns") for name in "AB")
        X, rec = solve(A, B, SolverConfig(method="NTSP", sketches=load_sketches(sk),
                                          tol=1e-6, seed=5))
        assert rec.iterations == read_trace(trace)["t"][-1]
        assert np.array_equal(X, load_tensor(out))

    def test_tsp_rejects_save_sketches_before_solving(self, system_files, tmp_path,
                                                      capsys, monkeypatch):
        # TSP keeps no sketch set to save, so the flag is a usage error
        monkeypatch.setattr("tubalsketch.cli.solve", lambda *a, **k: pytest.fail("solved"))
        sk = tmp_path / "sketches.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--method", "TSP", "--in", f"{system_files}_A.tns",
                    f"{system_files}_B.tns", "--save-sketches", sk)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "--save-sketches" in err and "fresh sketch every iteration" in err, err
        assert not sk.exists()


class TestRatesAndVerify:
    def test_rates_report(self, system_files, tmp_path):
        out = tmp_path / "rates.json"
        assert run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch",
                       "slice", "--samples", 200, "--out", out) == 0
        report = json.load(open(out))
        assert 0 < report["delta_p_sq"] <= report["delta_inf_sq_estimate"] <= 1

    def test_rates_rejects_no_samples(self, system_files, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch",
                    "slice", "--samples", 0)
        assert exc.value.code == 2
        assert "n_samples must be at least 1" in capsys.readouterr().err

    def test_verify_rejects_residual_mode_trace(self, system_files, tmp_path,
                                                capsys):
        # without --xstar the trace holds residuals, not errors: verify must
        # refuse it rather than judge residuals against an error envelope
        rates = tmp_path / "rates.json"
        run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch", "slice",
                "--samples", 100, "--out", rates)
        trace = tmp_path / "md.csv"
        run_cli("solve", "--method", "ATSP-MD", "--sketch", "slice",
                "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
                "--tol", "1e-9", "--seed", 6, "--trace", trace)
        assert np.all(np.isnan(read_trace(trace)["q_error"]))
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--rates", rates, "--bound", "max-distance",
                    "--traces", trace)
        assert exc.value.code == 2
        assert "x_star known" in capsys.readouterr().err

    def test_verify_rates_without_a_key_is_a_usage_error(self, system_files, tmp_path, capsys):
        rates = tmp_path / "rates.json"
        run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch", "slice",
                "--samples", 100, "--out", rates)
        report = json.load(open(rates))
        del report["per_slice_min_rate"]
        json.dump(report, open(rates, "w"))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--rates", rates, "--bound", "max-distance",
                    "--traces", tmp_path / "unread.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        want = "tubalsketch: error: rate report lacks the key 'per_slice_min_rate'"
        assert err.splitlines()[-1] == want
        assert "Traceback" not in err

    def test_verify_passes_on_max_rule_trace(self, system_files, tmp_path):
        rates = tmp_path / "rates.json"
        run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch", "slice",
                "--samples", 100, "--out", rates)
        trace = tmp_path / "md.csv"
        run_cli("solve", "--method", "ATSP-MD", "--sketch", "slice",
                "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
                "--xstar", f"{system_files}_X.tns", "--tol", "1e-9",
                "--seed", 6, "--trace", trace)
        assert run_cli("verify", "--rates", rates, "--bound", "max-distance",
                       "--traces", trace) == 0

    def test_verify_fails_on_impossible_rate(self, system_files, tmp_path):
        rates = tmp_path / "rates.json"
        run_cli("rates", "--in", f"{system_files}_A.tns", "--sketch", "slice",
                "--samples", 100, "--out", rates)
        report = json.load(open(rates))
        report["delta_p_sq"] = 0.999999  # absurd claim: near-total decrease
        json.dump(report, open(rates, "w"))
        trace = tmp_path / "run.csv"
        run_cli("solve", "--method", "NTSP", "--sketch", "slice",
                "--in", f"{system_files}_A.tns", f"{system_files}_B.tns",
                "--xstar", f"{system_files}_X.tns", "--tol", "1e-6",
                "--seed", 7, "--trace", trace)
        assert run_cli("verify", "--rates", rates, "--bound", "max-distance",
                       "--traces", trace) == 1


class TestBench:
    def test_bench_runs_config(self, tmp_path):
        config = {
            "problem": {"kind": "gaussian", "m": 8, "n": 4, "p": 2, "l": 2,
                        "seed": 3},
            "methods": [
                {"method": "NTSP", "label": "fixed"},
                {"method": "ATSP-MD", "label": "greedy"},
            ],
            "trials": 2,
            "tol": 1e-6,
            "max_iters": 20000,
            "record_every": 10,
            "seed": 4,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert run_cli("bench", "--config", cfg_path, "--out", out_dir) == 0
        summary = json.load(open(out_dir / "summary.json"))
        assert {m["label"] for m in summary["methods"]} == {"fixed", "greedy"}
        assert os.path.exists(out_dir / "trace_greedy_trial0.csv")

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"methods": [{"method": "NTSP"}], "trails": 3}))
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--config", cfg_path, "--out", tmp_path / "results")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'trails'" in err.splitlines()[-1]
        assert "Traceback" not in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("value, message", [
        ("2", "trials='2' is out of range"),
        (0, "trials=0 is out of range"),
    ])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys, value, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"methods": [{"method": "NTSP"}], "trials": value}))
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--config", cfg_path, "--out", tmp_path / "results")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tubalsketch: error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"problem": {"m": "6"}}, "m='6' is out of range"),
        ({"problem": {"l": 0}}, "l=0 is out of range"),
        ({"methods": [{"method": "NTSP", "sketch": "gaussian", "tau": "2"}]},
         "tau='2' is out of range"),
        ({"methods": [{"method": "NTSP", "sketch": "gaussian", "q": 1.5}]},
         "q=1.5 is out of range"),
        ({"methods": [{"method": 5}]}, f"method=5 is unknown; choose from {METHODS}"),
        ({"methods": [{"method": "FOO"}]}, f"method='FOO' is unknown; choose from {METHODS}"),
    ])
    def test_bad_spec_value_is_a_usage_error(self, tmp_path, capsys, entry, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"methods": [{"method": "NTSP"}], **entry}))
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--config", cfg_path, "--out", tmp_path / "results")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tubalsketch: error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "results").exists()

    def test_whole_float_counts_run(self, tmp_path):
        config = {"problem": {"kind": "gaussian", "m": 6, "n": 3, "p": 2, "l": 2},
                  "methods": [{"method": "ATSP-MD"}], "trials": 2.0, "max_iters": 1e4,
                  "record_every": 10.0, "seed": 4.0, "tol": 1e-6}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("bench", "--config", cfg_path, "--out", tmp_path / "results") == 0
        summary = json.load(open(tmp_path / "results" / "summary.json"))
        assert summary["trials"] == 2 and summary["methods"][0]["converged"] == 2
