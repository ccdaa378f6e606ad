"""Per-slice and direct states keep each Fourier table once.

For a real system, a per-slice family that sketches slice l - k as it
sketches slice k (every fourier-row set; a fourier-gaussian set whose
``mats[l - k] == mats[k]``) has tables in slice l - k that are the
conjugates of slice k's.  The states then keep slices 0..l//2 of U and of
the direct tables, and reach the others through the conjugate: zgemm's
conjugate-transpose flag in the -II step, and one conjugation per gathered
block in TSP-II.  TSP-I's own and mirror groups read the same rows.  The
oracle here is the full-table path itself, taken by declaring the family
not mirrored.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import spd_weight_tensor
from tubalsketch import solvers
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    SketchSet,
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
)
from tubalsketch.solvers import _UNIFORM_BLOCK, SolverConfig, make_state, solve
from tubalsketch.t_algebra import WeightQ

PER_SLICE = ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")
FIELDS = ("epsilon", "q_error", "loss_max", "loss_sum")


def _mirrored_gaussian(m, tau, q, l, seed):
    """A fourier-gaussian set whose slice l - k draws slice k's matrices."""
    mats = make_fourier_sketches(m, tau, q, l, "gaussian", np.random.default_rng(seed)).mats
    mats[l // 2 + 1:] = mats[1:(l + 1) // 2][::-1]
    return SketchSet("fourier-gaussian", m, l, q, mats=mats)


def _runs(monkeypatch, A, B, Xs, cfg):
    """(X, record) of ``cfg`` on the kept tables and on full tables."""
    got = solve(A, B, cfg, x_star=Xs)
    with monkeypatch.context() as mp:
        mp.setattr(SketchSet, "mirrored", property(lambda self: False))
        want = solve(A, B, cfg, x_star=Xs)
    return got, want


def test_mirrored_families():
    rng = np.random.default_rng(0)
    for l in (1, 2, 3, 4, 5, 8):
        assert make_fourier_sketches(6, 1, 6, l, "row").mirrored
        assert _mirrored_gaussian(6, 2, 3, l, 1).mirrored
        # per-slice draws: slice l - k has its own matrices once l > 2
        assert make_fourier_sketches(6, 2, 3, l, "gaussian", rng).mirrored == (l <= 2)
    for s in (make_slice_sketches(6, 4), make_block_sketches(6, 4, [[0, 1, 2], [3, 4, 5]]),
              make_gaussian_sketches(6, 2, 3, 4, rng)):
        assert s.mirrored  # one real family in every slice


@pytest.mark.parametrize("l", range(1, 11))
@pytest.mark.parametrize("weight", ["none", "identity", "general"])
def test_fourier_row_records_match_full_tables(monkeypatch, l, weight):
    # numpy's FFT of real data is exactly mirrored for these l, so the records
    # are bit for bit; for l = 6, 9, 10 it is not, and they agree to 1e-12
    A, Xs, B = gen_gaussian(ProblemSpec(m=12, n=4, p=2, l=l, seed=40 + l))
    Q = {"none": None, "identity": WeightQ.identity(4, l),
         "general": WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(l), 4, l))}[weight]
    f = make_fourier_sketches(12, 1, 12, l, "row")
    exact = l not in (6, 9, 10)
    for method in PER_SLICE:
        cfg = SolverConfig(method=method, sketches=f, weight=Q, seed=l, tol=1e-10,
                           max_iters=150, record_every=1)
        (X, rec), (X0, rec0) = _runs(monkeypatch, A, B, Xs, cfg)
        assert rec.iterations == rec0.iterations and rec.chosen == rec0.chosen, method
        for name, got, want in (("X", X, X0), *((f, getattr(rec, f), getattr(rec0, f))
                                                for f in FIELDS)):
            if exact:
                assert np.array_equal(got, want, equal_nan=True), (method, name)
            else:
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), (method, name)
                assert (np.linalg.norm(got[~nan] - want[~nan])
                        <= 1e-12 * np.linalg.norm(want[~nan])), (method, name)


@pytest.mark.parametrize("l", [4, 5, 6])
def test_gaussian_sets_keep_full_tables_unless_mirrored(monkeypatch, l):
    A, Xs, B = gen_gaussian(ProblemSpec(m=12, n=4, p=2, l=l, seed=50 + l))
    h = l // 2 + 1
    for mirrored, f in ((False, make_fourier_sketches(12, 2, 5, l, "gaussian",
                                                      np.random.default_rng(l))),
                        (True, _mirrored_gaussian(12, 2, 5, l, l))):
        for method in PER_SLICE:
            cfg = SolverConfig(method=method, sketches=f, seed=l, tol=1e-6, max_iters=400,
                               record_every=1)
            st = make_state(A, B, cfg, x_star=Xs)
            kept = st.kept if method.startswith("ATSP") else len(st.tables[0])
            assert kept == (h if mirrored else l), method  # TSP-I: the full spectrum, once
            (X, rec), (X0, rec0) = _runs(monkeypatch, A, B, Xs, cfg)
            assert rec.iterations == rec0.iterations and rec.chosen == rec0.chosen, method
            if not mirrored:  # the same code path: bit for bit
                assert np.array_equal(X, X0) and np.array_equal(rec.epsilon, rec0.epsilon)
                continue
            assert np.linalg.norm(X - X0) <= 1e-12 * np.linalg.norm(X0), method
            assert (np.linalg.norm(rec.epsilon - rec0.epsilon)
                    <= 1e-12 * np.linalg.norm(rec0.epsilon)), method


def _setup_peak(method, weight=None):
    A, Xs, B = gen_gaussian(ProblemSpec(m=240, n=40, p=3, l=8, seed=87))
    cfg = SolverConfig(method=method, sketches=make_fourier_sketches(240, 1, 240, 8, "row"),
                       weight=weight)
    tracemalloc.start()
    try:
        st = make_state(A, B, cfg, x_star=Xs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return st, held, peak


SLICE_N = 240 * 40 * 16  # one Fourier slice of N at 240x40x8 with fourier-row sets


def test_set_state_setup_peak_is_the_kept_half_of_u():
    # U of all 8 slices was 8 q (n + q) complex entries; slices 0..4 are kept
    st, _, peak = _setup_peak("ATSP-MD-II")
    full_u = 8 * 240 * (40 + 240) * 16
    assert st.U.nbytes == full_u * 5 // 8
    data = st.Ah.nbytes + st.Bh.nbytes + st.Xsh.nbytes
    assert peak <= full_u * 5 // 8 + data + 4 * SLICE_N


def test_direct_state_setup_peak_is_its_arrays_and_one_slice():
    # no stack-sized N^H for the Gram, and the full spectrum is transformed in place
    st, held, peak = _setup_peak("TSP-II")
    assert len(st.tables[0]) == 5 and np.shares_memory(st.tables[0], st.Ah)
    assert peak <= held + SLICE_N


def test_stacked_state_keeps_one_table_per_kept_slice():
    st, _, _ = _setup_peak("TSP-I")
    N, SB, G = st.tables
    assert len(N) == len(SB) == st.h == 5 and G is None
    assert np.shares_memory(N, st.Ah) and np.shares_memory(SB, st.Bh)  # views, no copy
    np.testing.assert_array_equal(st.table_rows, np.repeat(np.arange(5), 2))
    np.testing.assert_array_equal(st.table_slices, [0, 0, 1, 7, 2, 6, 3, 5, 4, 4])


@pytest.mark.parametrize("method", PER_SLICE[:4])
def test_identity_weight_holds_no_conjugate_transpose_table(method):
    # a weight whitens the system, so no weight keeps a (Q^{-1}) N^H table either
    general = WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(62), 40, 8))
    for weight in (WeightQ.identity(40, 8), general):
        st, _, _ = _setup_peak(method, weight)
        tables = getattr(st, "tables", [])
        assert len(tables) in (0, 3)  # direct states: N, S^H B and G
        held = [a for a in [*vars(st).values(), *tables] if isinstance(a, np.ndarray)]
        big = [a for a in held if a.nbytes >= 5 * SLICE_N
               and not np.shares_memory(a, st.Ah) and not (hasattr(st, "U") and a is st.U)]
        assert not big, [a.shape for a in big]


@pytest.mark.parametrize("blocks", [False, True], ids=["one-draw", "blocks"])
@pytest.mark.parametrize("method", ["TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II"])
def test_steps_conjugate_nothing(monkeypatch, method, blocks):
    # conjugation happens when a block of draws is gathered, never on a table
    # or a block in a step: a -II step is one zgemm per stepped slice, and so
    # is a fixed rule's step over a block of draws (while solve keeps its
    # ledger); a fixed rule's step of one draw forms N^H from that draw's N
    A, Xs, B = gen_gaussian(ProblemSpec(m=10, n=4, p=2, l=5, seed=60))
    st = make_state(A, B, SolverConfig(method=method, sketches=make_fourier_sketches(
        10, 1, 10, 5, "row"), seed=61, record_every=10**9), x_star=Xs)
    # the first block is drawn and gathered; fixed rules select without losses, as in solve
    st.step(st.select(st.losses() if st.adaptive else None))
    if blocks and not st.adaptive:  # the ledger's bounds never cut a block here
        st.ledger, st.ledger_bounds = 1e300, (0.0, np.inf)
    zgemm, calls, conj, sizes = solvers.zgemm, [], np.conj, []
    monkeypatch.setattr(solvers, "zgemm", lambda *a, **kw: calls.append(a[6:7]) or zgemm(*a, **kw))

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return conj(x, *args, **kwargs)

    for name in ("conj", "conjugate"):
        monkeypatch.setattr(np, name, counted)
    one_draw = st.h * (2 if method == "TSP-I" else 1) * 4  # h g n: its N
    widths = []
    while st.t < _UNIFORM_BLOCK:  # the rest of the first block
        choice = st.select(st.losses() if st.adaptive else None)
        calls.clear(), sizes.clear()
        t = st.t
        st.step(choice)
        widths.append(st.t - t)
        if method.startswith("ATSP"):
            assert len(calls) == np.count_nonzero(np.asarray(choice) >= 0)
            # U is member-major: a kept slice reads its rows by the transpose
            # flag, a mirrored one by the conjugate-transpose flag
            assert sorted(set(calls)) <= [(1,), (2,)] and not sizes
        elif blocks and st.t - t > 1:
            assert calls == [(2,)] * st.h and not sizes
        else:
            assert sizes == [one_draw] and not calls
    assert st.t == _UNIFORM_BLOCK
    assert max(widths) == (st.cap if blocks and not st.adaptive else 1)
