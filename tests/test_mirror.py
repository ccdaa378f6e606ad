"""Per-slice families are mirrored, and so are the per-slice draws.

For a real system, Fourier slice l - k of A, B and X* is the conjugate of
slice k.  A per-slice family sketches slice l - k as it sketches slice k
(every fourier-row set; a fourier-gaussian set must have
``mats[l - k] == mats[k]``), and slice l - k draws what slice k draws
(TSP-I, whose groups pair k with -k, draws both from streams of their
own).  So every per-slice state keeps slices 0..l//2 of its tables and of
its real iterate, as the spatial states do.  The oracle here replays all l
slices from dense members, each projected on its own.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import per_slice_iterates, reference_solve, spd_weight_tensor
from tubalsketch import solvers
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    SketchSet,
    make_block_sketches,
    make_fourier_sketches,
    prob_fourier_row_norm,
    prob_sketch_norm,
)
from tubalsketch.solvers import _UNIFORM_BLOCK, SolverConfig, make_state, solve
from tubalsketch.t_algebra import WeightQ

PER_SLICE = ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")


def test_mirrored_families():
    # slices 0..l//2 of a fourier-gaussian set draw from the first of l
    # spawned streams, one per slice, and slice l - k copies slice k
    for l in range(1, 9):
        mats = make_fourier_sketches(6, 2, 3, l, "gaussian", np.random.default_rng(l)).mats
        children = np.random.default_rng(l).spawn(l)
        for k in range(l):
            want = [children[min(k, l - k)].standard_normal((6, 2)) for _ in range(3)]
            np.testing.assert_array_equal(mats[k], want if k <= l // 2 else mats[l - k])
        if l > 2:  # slices 1 and l - 1 are two slices
            bad = mats.copy()
            bad[-1, 0, 0, 0] += 1.0
            with pytest.raises(ValueError, match="mats of Fourier slice l - k must equal"):
                SketchSet("fourier-gaussian", 6, l, 3, mats=bad)


@pytest.mark.parametrize("l", range(1, 11))
@pytest.mark.parametrize("kind", ["row", "gaussian"])
@pytest.mark.parametrize("weighted", [False, True])
def test_per_slice_runs_equal_the_dense_replay(l, kind, weighted):
    # every slice of the dense replay of the recorded choices is projected on
    # its own; slice l - k steps on slice k's draw, so the replay is real
    # (within rounding: numpy's FFT of real data is not exactly mirrored at
    # l = 6, 9, 10) and the state's x(), from slices 0..l//2, is its X
    A, Xs, B = gen_gaussian(ProblemSpec(m=12, n=4, p=2, l=l, seed=40 + l))
    rng = np.random.default_rng(l)
    Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, l)) if weighted else None
    f = (make_fourier_sketches(12, 1, 12, l, "row") if kind == "row"
         else make_fourier_sketches(12, 2, 5, l, "gaussian", rng))
    for method in ("TSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II"):
        cfg = SolverConfig(method=method, sketches=f, weight=Q, seed=l, tol=0.0, max_iters=40,
                           check_sampling=False)
        X_last, rec = solve(A, B, cfg, x_star=Xs)
        assert all(c[l - k] == c[k] for c in rec.chosen[1:] for k in range(1, l)), method
        iterates = []  # each row's iterate, from the reference loop of the same draws
        _, rows, _ = reference_solve(A, B, cfg, Xs, iterates)
        assert rec.chosen == [row[-1] for row in rows], method
        np.testing.assert_array_equal(X_last, iterates[-1])
        replay = per_slice_iterates(A, B, f, rec.chosen[1:], Q)
        for X, Xc in zip(iterates, replay):
            assert np.linalg.norm(Xc.imag) <= 1e-13 * np.linalg.norm(Xs), method
            assert np.linalg.norm(X - Xc.real) <= 1e-12 * np.linalg.norm(Xs), method


@pytest.mark.parametrize("l", [4, 5, 6])
def test_states_keep_the_kept_slices_and_draw_for_them(l):
    # tables and iterate of slices 0..l//2 only; a stream for each of them,
    # and for every slice for TSP-I
    A, Xs, B = gen_gaussian(ProblemSpec(m=12, n=4, p=2, l=l, seed=50 + l))
    h = l // 2 + 1
    f = make_fourier_sketches(12, 2, 5, l, "gaussian", np.random.default_rng(l))
    for method in PER_SLICE:
        cfg = SolverConfig(method=method, sketches=f, seed=l, tol=1e-6, max_iters=400)
        st = make_state(A, B, cfg, x_star=Xs)
        assert len(st.N) == len(st.SB) == len(st.Xh) == len(st.Ah) == h, method
        assert len(st.rngs) == (l if method == "TSP-I" else h), method
        _, rec = solve(A, B, cfg, x_star=Xs)
        assert all(len(c) == l for c in rec.chosen[1:]), method


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
    # no stack-sized N^H for the Gram, and the spectrum is transformed a few
    # rows at a time into the kept slices
    st, held, peak = _setup_peak("TSP-II")
    assert len(st.tables[0]) == 5 and np.shares_memory(st.tables[0], st.Ah)
    assert peak <= held + SLICE_N


def test_row_norm_probabilities_read_the_state_transform():
    # 'fourier-row-norm' is resolved from the whitened slices the state has
    # just made, not from a second transform of A: TSP-I's setup peaked at
    # 2.04 MB with it against 0.97 MB with uniform probabilities; the
    # probabilities stay bit for bit those of prob_fourier_row_norm
    A, _, B = gen_gaussian(ProblemSpec(m=240, n=40, p=4, l=8), np.random.default_rng(3))
    cfg = SolverConfig(method="TSP-I", sketches=make_fourier_sketches(240, 1, 240, 8, "row"),
                       probabilities="fourier-row-norm")
    tracemalloc.start()
    try:
        st = make_state(A, B, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6, peak
    want = prob_fourier_row_norm(A)
    assert np.array_equal(st.base_cdf, np.cumsum(want, axis=1))


@pytest.mark.parametrize("weighted", [False, True], ids=["no-weight", "weight"])
def test_state_probabilities_equal_the_public_rules(weighted):
    # the states resolve 'sketch-norm' and 'fourier-row-norm' from their own
    # whitened slices, with the arithmetic of prob_sketch_norm and
    # prob_fourier_row_norm: bit for bit, with and without a weight
    rng = np.random.default_rng(64)
    A, _, B = gen_gaussian(ProblemSpec(m=12, n=4, p=2, l=5), rng)
    Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, 5)) if weighted else None
    spatial = make_block_sketches(12, 5, [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9, 10, 11]])
    rows = make_fourier_sketches(12, 1, 12, 5, "row")
    for method, s, rule, want in (
            ("NTSP", spatial, "sketch-norm", prob_sketch_norm(A, Q, spatial)),
            ("ATSP-CS", spatial, "sketch-norm", prob_sketch_norm(A, Q, spatial)),
            ("TSP-II", rows, "fourier-row-norm", prob_fourier_row_norm(A, Q)[:3]),
            ("TSP-I", rows, "fourier-row-norm", prob_fourier_row_norm(A, Q))):
        st = make_state(A, B, SolverConfig(method=method, sketches=s, weight=Q, probabilities=rule))
        assert np.array_equal(st.base_cdf, np.cumsum(np.atleast_2d(want), axis=1)), method


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
    # no step conjugates a table or a gathered block: a -II step is one
    # zgemm per stepped slice, and so is a fixed rule's step over a block of
    # draws (while solve keeps its ledger); a fixed rule's step of one draw
    # forms N^H from that draw's N
    A, Xs, B = gen_gaussian(ProblemSpec(m=10, n=4, p=2, l=5, seed=60))
    st = make_state(A, B, SolverConfig(method=method, sketches=make_fourier_sketches(
        10, 1, 10, 5, "row"), seed=61, record_every=10**9), x_star=Xs)
    # the first block is drawn and gathered; fixed rules select without losses, as in solve
    st.step(st.select(st.losses() if st.adaptive else None))
    if blocks and not st.adaptive:  # the ledger's bounds never cut a block here
        st.ledger = solvers._Ledger(st, st.config, np.inf, 0, 1e300).anchor(1e300)
        assert st.ledger.lo <= 1e300 <= st.ledger.hi
    zgemm, calls, conj, sizes = solvers.zgemm, [], np.conj, []
    monkeypatch.setattr(solvers, "zgemm", lambda *a, **kw: calls.append(a[6:7]) or zgemm(*a, **kw))

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return conj(x, *args, **kwargs)

    for name in ("conj", "conjugate"):
        monkeypatch.setattr(np, name, counted)
    one_draw = st.h * (2 if method == "TSP-I" else 1) * 4  # h g n: its N
    widths = []
    while st.t < _UNIFORM_BLOCK:  # the rest of the first block, as one run of solve's
        most = _UNIFORM_BLOCK - st.t if blocks else 1
        choice = st.select(st.losses() if st.adaptive else None, most)
        calls.clear(), sizes.clear()
        t = st.t
        st.step(choice)
        widths.append(st.t - t)
        if method.startswith("ATSP"):
            assert len(calls) == np.count_nonzero(np.asarray(choice) >= 0)
            # U is member-major: each kept slice reads its rows by the
            # transpose flag
            assert set(calls) == {(1,)} and not sizes
        elif blocks and st.t - t > 1:
            assert calls == [(2,)] * st.h and not sizes
        else:
            assert sizes == [one_draw] and not calls
    assert st.t == _UNIFORM_BLOCK
    assert max(widths) == (st.cap if blocks and not st.adaptive else 1)
