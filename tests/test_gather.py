"""Row-index sketch sets against the dense members they stand for.

Selection sketches (slice, block, fourier-row) are stored as row indices
and applied by gathering rows.  For finite data a one-hot product equals
the gather exactly, so the cached tables and seeded runs must match the
dense-member route bit for bit.  ``data/seeded_records.json`` holds runs
recorded with the dense-member implementation, made by the recipe in
:func:`seeded_cases` with ``seed=11, tol=1e-10, max_iters=30``.  The
per-slice entries (TSP-II, NTSP-II, ATSP-MD/PR/CS-II, and TSP-I on
fourier-gaussian sets, whose family became mirrored) were recorded again
by :func:`conftest.dense_per_slice_record` once slice l - k drew what slice
k draws; ``data/chosen_before_mirroring.json`` keeps the -II choices
recorded before, when every slice drew from a stream of its own.  Its
``q_error``, ``loss_max``, ``loss_sum`` and ``pr_variance_factor`` rows
(NaN stored as null) were recorded later, before the record row began to
reuse the error norm and to skip loss bookkeeping between logged rows.
Every run is matched in its draws and NaN rows exactly and in its values
within 1e-12 relative.  The methods with a real iterate work on Fourier
slices 0..l//2 with multiplicity weights, TSP-I projects from mirrored
member tables instead of the transformed stacked system, the set states
square R's float view and step by zgemm, and the oracle's pinvs are not
the states' factors, so their sums round differently.  NTSP and NTSP-II
run on TSP-II's direct state: only rules that read their losses log them,
so their loss rows are null.  Under a weight the states run on the
whitened system A Q^{-1/2} in Y = Q^{1/2} X, so the bits of an X-space
recording cannot be met either.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_per_slice_record, dense_set_tables, spd_weight_tensor
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
)
from tubalsketch.solvers import SolverConfig, make_state, solve
from tubalsketch.t_algebra import WeightQ, batched_inv_factor, identity, tprod_oracle, ttranspose

RECORDS = Path(__file__).parent / "data" / "seeded_records.json"
BEFORE_MIRRORING = Path(__file__).parent / "data" / "chosen_before_mirroring.json"
PER_SLICE = ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")


def seeded_cases():
    A, Xs, B = gen_gaussian(ProblemSpec(m=10, n=5, p=3, l=4, seed=3))
    rng = np.random.default_rng(5)
    F = rng.standard_normal((5, 5, 4))
    Q = WeightQ.from_tensor(tprod_oracle(ttranspose(F), F) + 0.5 * identity(5, 4))
    slc = make_slice_sketches(10, 4)
    blk = make_block_sketches(10, 4, [[0, 5], [1, 6], [2, 7], [3, 8], [4, 9]])
    gau = make_gaussian_sketches(10, 2, 6, 4, np.random.default_rng(7))
    frow = make_fourier_sketches(10, 1, 10, 4, "row")
    fgau = make_fourier_sketches(10, 2, 6, 4, "gaussian", np.random.default_rng(8))
    cases = []
    for weight, wname in ((None, "I"), (Q, "Q")):
        cases.append((f"TSP/{wname}", dict(method="TSP", tau=2, weight=weight)))
        for method in ("NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS"):
            for sname, s in (("slice", slc), ("block", blk), ("gaussian", gau)):
                cases.append((f"{method}/{sname}/{wname}",
                              dict(method=method, sketches=s, weight=weight)))
        cases.append((f"NTSP/block-sketch-norm/{wname}",
                      dict(method="NTSP", sketches=blk, weight=weight,
                           probabilities="sketch-norm")))
        cases.append((f"NTSP/slice-slice-norm/{wname}",
                      dict(method="NTSP", sketches=slc, weight=weight,
                           probabilities="slice-norm")))
        for method in ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II",
                       "ATSP-CS-II"):
            for sname, s in (("fourier-row", frow), ("fourier-gaussian", fgau)):
                cases.append((f"{method}/{sname}/{wname}",
                              dict(method=method, sketches=s, weight=weight)))
        cases.append((f"NTSP-II/fourier-row-norm/{wname}",
                      dict(method="NTSP-II", sketches=frow, weight=weight,
                           probabilities="fourier-row-norm")))
    return A, Xs, B, cases


def test_seeded_records_match_dense_member_runs():
    expected = json.loads(RECORDS.read_text())
    A, Xs, B, cases = seeded_cases()
    assert sorted(name for name, _ in cases) == sorted(expected)
    assert {kw["method"] for _, kw in cases} == set(
        ("TSP", "NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS", "TSP-I", "TSP-II",
         "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II"))
    for name, kw in cases:
        cfg = SolverConfig(seed=11, tol=1e-10, max_iters=30, record_every=1, **kw)
        X, rec = solve(A, B, cfg, x_star=Xs)
        want = expected[name]
        assert rec.iterations == want["iterations"], name
        chosen = [c if c is None or isinstance(c, int) else list(c) for c in rec.chosen]
        assert chosen == want["chosen"], name
        _assert_values_close(name, {**vars(rec), "x": X.ravel()}, want)


def _assert_values_close(name, got, want):
    """Each value field of ``got`` within 1e-12 relative of the record's, NaN
    exactly where the record holds null."""
    for f in ("loss_max", "loss_sum", "pr_variance_factor", "epsilon", "q_error", "x"):
        value, ref = (np.array([np.nan if v is None else v for v in x], dtype=float)
                      for x in (got[f], want[f]))
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(value), nan), (name, f)
        assert np.linalg.norm(value[~nan] - ref[~nan]) <= 1e-12 * np.linalg.norm(ref[~nan]), (
            name, f)


def test_seeded_per_slice_records_equal_the_dense_oracle():
    # the per-slice entries are the oracle's runs: every draw, and every value
    # within 1e-12 relative (NaN stored as null)
    expected = json.loads(RECORDS.read_text())
    A, Xs, B, cases = seeded_cases()
    for name, kw in cases:
        if kw["method"] not in PER_SLICE:
            continue
        cfg = SolverConfig(seed=11, tol=1e-10, max_iters=30, record_every=1, **kw)
        got, want = dense_per_slice_record(A, B, cfg, Xs), expected[name]
        assert got["iterations"] == want["iterations"], name
        assert [c if c is None else list(c) for c in got["chosen"]] == want["chosen"], name
        _assert_values_close(name, got, want)


def test_kept_slices_draw_as_before_mirroring():
    # slices 0..l//2 draw from the streams they drew from when every slice
    # had its own, and each kept slice's subsystem is independent of the
    # others: the first h entries of every -II choice are those recorded
    # then, up to the earlier stop, and slice l - k records slice k's
    before = json.loads(BEFORE_MIRRORING.read_text())
    A, Xs, B, cases = seeded_cases()
    l, h = A.shape[2], A.shape[2] // 2 + 1
    names = [name for name, kw in cases if kw["method"].endswith("-II")]
    assert sorted(names) == sorted(before) and len(names) == 22
    for name, kw in cases:
        if name not in before:
            continue
        cfg = SolverConfig(seed=11, tol=1e-10, max_iters=30, record_every=1, **kw)
        _, rec = solve(A, B, cfg, x_star=Xs)
        rows = min(len(rec.chosen), len(before[name]))
        assert rows == 31, name
        for got, was in zip(rec.chosen[1:rows], before[name][1:rows]):
            assert list(got[:h]) == was[:h], name
            assert all(got[l - k] == got[k] for k in range(1, l)), name


def _sets():
    return {
        "slice": make_slice_sketches(9, 3),
        "block": make_block_sketches(9, 3, [[0, 4, 8], [1, 2, 3], [5, 6, 7]]),
        "fourier-row": make_fourier_sketches(9, 1, 9, 3, "row"),
    }


@pytest.mark.parametrize("kind", ["slice", "block", "fourier-row", "fourier-row/TSP-II"])
@pytest.mark.parametrize("weighted", [False, True])
def test_cached_tables_equal_dense_products(kind, weighted):
    A, Xs, B = gen_gaussian(ProblemSpec(m=9, n=4, p=2, l=3, seed=50))
    Q = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(51), 4, 3))
         if weighted else WeightQ.identity(4, 3))
    kind, _, method = kind.partition("/")
    sketches = _sets()[kind]
    method = method or ("ATSP-MD-II" if sketches.per_slice else "ATSP-MD")
    st = make_state(A, B, SolverConfig(method=method, sketches=sketches, weight=Q),
                    x_star=Xs)
    want = dense_set_tables(A, B, sketches, Q)
    # every state keeps Fourier slices 0..l//2 of its tables (U, and every
    # direct table): slice l - k of a real system's tables is conj(slice k)
    h = st.Ah.shape[0]
    assert h == len(st.N) == 2
    if method == "TSP-II":  # the direct state's member tables; N^H is conj(N)^T
        C = want["C"]
        dense = (want["N"], np.swapaxes(want["NH"], -1, -2), want["SB"],
                 C @ np.conj(np.swapaxes(C, -1, -2)))
        N, SB, G = st.tables
        for name, T, ref in zip(("N", "NH", "SB", "G"), (N, np.conj(N), SB, G), dense,
                                strict=True):
            np.testing.assert_array_equal(T, ref[:h], err_msg=name)
        return
    NH = sketches.sketch_cols(np.conj(np.swapaxes(st.Ah, -1, -2)))
    np.testing.assert_array_equal(NH, want["NH"][:h])
    for name in ("N", "SB", "C", "cross", "step_map"):
        np.testing.assert_array_equal(getattr(st, name), want[name][:h], err_msg=name)


def test_ragged_blocks_pad_with_zero_rows():
    s = make_block_sketches(5, 2, [[0, 3], [1, 2, 4]])
    assert s.taus == (2, 3)
    np.testing.assert_array_equal(s.rows, [[0, 3, 5], [1, 2, 4]])
    X = np.arange(10.0).reshape(2, 5, 1) + 1.0
    got = s.sketch(X)  # (l, q, tau, 1)
    np.testing.assert_array_equal(got[:, 0, :, 0], [[1, 4, 0], [6, 9, 0]])
    np.testing.assert_array_equal(s.members[0][:, :, 0], np.eye(5)[:, [0, 3]])


def _five_sets(l):
    return {
        "slice": make_slice_sketches(9, l),
        "block": make_block_sketches(9, l, [[0, 4, 8], [1, 2], [3, 5, 6, 7]]),  # ragged
        "gaussian": make_gaussian_sketches(9, 2, 5, l, np.random.default_rng(52)),
        "fourier-row": make_fourier_sketches(9, 1, 9, l, "row"),
        "fourier-gaussian": make_fourier_sketches(9, 2, 5, l, "gaussian",
                                                  np.random.default_rng(53)),
    }


@pytest.mark.parametrize("kind", ["slice", "block", "gaussian", "fourier-row", "fourier-gaussian"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("l", [4, 5])
def test_setup_tables_equal_the_gathered_and_multiplied_out_expressions(kind, weighted, l):
    # N^H of the whitened system and R_0 = -C^H S^H B must equal, bit for
    # bit, A^H gathered by columns and C^H (N X_0 - S^H B) with X_0 = 0
    A, Xs, B = gen_gaussian(ProblemSpec(m=9, n=4, p=2, l=l, seed=54))
    Q = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(55), 4, l))
         if weighted else WeightQ.identity(4, l))
    s = _five_sets(l)[kind]
    st = make_state(A, B, SolverConfig(method="ATSP-MD-II" if s.per_slice else "ATSP-MD",
                                       sketches=s, weight=Q), x_star=Xs)
    h, q, tau, n = st.N.shape
    if s.rows is None:
        N, SB = s.sketch(st.Ah), s.sketch(st.Bh)
    else:  # X[:, rows] of the stack padded with a zero row
        N, SB = (s._padded(X, 1)[:, s.rows] for X in (st.Ah, st.Bh))
    NH = np.ascontiguousarray(s.sketch_cols(np.conj(np.swapaxes(st.Ah, -1, -2))))
    C = batched_inv_factor(N @ NH, slice_axis=None if s.per_slice else 0)
    CH = np.conj(np.swapaxes(C, -1, -2))
    step_map = NH @ C
    cross = np.empty((h, q, q, tau, tau), dtype=np.complex128)
    for k in range(h):
        jc = np.swapaxes(step_map[k], 1, 2).reshape(q * tau, n)
        ia = np.moveaxis(CH[k] @ N[k], 2, 0).reshape(n, q * tau)
        cross[k] = (jc @ ia).reshape(q, tau, q, tau).transpose(0, 2, 3, 1)
    R = CH @ ((N @ np.zeros_like(st.Xh)[:, None]) - SB)
    assert h == l // 2 + 1  # every set kind keeps slices 0..l//2
    for name, want in (("N", N), ("SB", SB), ("C", C), ("step_map", step_map),
                       ("cross", cross.reshape(h, q, q * tau, tau)), ("R", R)):
        np.testing.assert_array_equal(getattr(st, name), want, err_msg=name)


@pytest.mark.parametrize("kind", ["slice", "block", "gaussian", "fourier-row", "fourier-gaussian"])
@pytest.mark.parametrize("l", [4, 5])
def test_weight_keeps_the_completeness_verdict(kind, l):
    # the check sees the whitened N = S^H A Q^{-1/2}, whose ranks the
    # invertible Q^{-1/2} keeps: make_state warns under a weight exactly when
    # it warns without, on a full-rank A and on one whose column 1 is zero
    A, Xs, B = gen_gaussian(ProblemSpec(m=9, n=4, p=2, l=l, seed=57))
    deficient = A.copy()
    deficient[:, 1] = 0.0
    Q = WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(58), 4, l))
    s = _five_sets(l)[kind]
    for system in (A, deficient):
        fired = []
        for weight in (None, Q):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                make_state(system, B, SolverConfig(method="ATSP-MD-II" if s.per_slice
                                                   else "ATSP-MD", sketches=s, weight=weight))
            fired.append(any("not complete discrete sampling" in str(w.message) for w in caught))
        assert fired[0] == fired[1], (kind, fired)
    assert fired == [True, True]  # the deficient system fails the check


@pytest.mark.parametrize("kind", ["slice", "block", "fourier-row"])
def test_selection_sketches_are_c_contiguous(kind):
    s = _five_sets(4)[kind]
    X = np.random.default_rng(56).standard_normal((4, 9, 3)) + 0j
    assert s.sketch(X).flags.c_contiguous
