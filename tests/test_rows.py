"""Record rows against a per-row reference loop.

``solve`` copies each logged row's losses into a block and reduces the
block's loss statistics once it is full and at exit; ``reference_solve``
(conftest) logs the same rows one at a time with ``losses.max()``,
``losses.sum()`` and the per-row variance formula.  Every column but
``seconds`` must agree bit for bit: with a block full, one row short of
full and one row over, for each rule and set kind, with and without a
weight, at several record cadences, and on divergence and zero-loss stops.
Under a weight the states iterate on the whitened variable Q^{1/2} X, so
every row's errors are also checked against their X-space definitions on
the iterate the row kept, with and without a weight.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import rand_tubal, reference_solve, spd_weight_tensor

from tubalsketch import solvers
from tubalsketch.harness import relative_error
from tubalsketch.sketching import (
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
)
from tubalsketch.solvers import DivergenceError, SolverConfig, make_state, solve
from tubalsketch.t_algebra import WeightQ, identity, tprod, weighted_fnorm

COLUMNS = ("t", "epsilon", "q_error", "loss_max", "loss_sum", "pr_variance_factor")
M, N, P, L = 12, 4, 2, 4
SETS = {  # each of depth L unless given another
    "slice": lambda l=L: make_slice_sketches(M, l),
    "ragged-block": lambda l=L: make_block_sketches(
        M, l, [[0, 1, 2], [3, 4], [5], [6, 7, 8, 9], [10, 11]]),
    "gaussian": lambda l=L: make_gaussian_sketches(M, 2, 7, l, np.random.default_rng(5)),
    "fourier-row": lambda l=L: make_fourier_sketches(M, 1, M, l, "row"),
    "fourier-gaussian": lambda l=L: make_fourier_sketches(
        M, 2, 6, l, "gaussian", np.random.default_rng(6)),
}
SPATIAL = ("NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS")
PER_SLICE = ("TSP-I", "TSP-II", "NTSP-II", "ATSP-MD-II", "ATSP-PR-II", "ATSP-CS-II")
CASES = [("TSP", None),
         *((m, k) for m in SPATIAL for k in ("slice", "ragged-block", "gaussian")),
         *((m, k) for m in PER_SLICE for k in ("fourier-row", "fourier-gaussian"))]


def system(seed=3):
    rng = np.random.default_rng(seed)
    A, Xs = rand_tubal(rng, M, N, L), rand_tubal(rng, N, P, L)
    return A, Xs, tprod(A, Xs)


def assert_rows_equal(record, rows, what, close=False):
    """Every column of ``rows`` (reference_solve) equals the record's, bit for
    bit; with ``close``, epsilon and q_error only to 1e-13 of row 0's value."""
    assert len(record.t) == len(rows), what
    for i, name in enumerate(COLUMNS):
        want = np.array([row[i] for row in rows], dtype=record.t.dtype if name == "t" else float)
        got = getattr(record, name)
        assert got.dtype == want.dtype, (what, name)
        if close and name in ("epsilon", "q_error"):
            assert np.all(np.abs(got - want) <= 1e-13 * want[0]), (what, name)
        else:
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (what, name)
    assert record.chosen == [row[-1] for row in rows], what


@pytest.mark.parametrize("record_every", [1, 7, 1000])
@pytest.mark.parametrize("weighted", [False, True], ids=["no-weight", "weight"])
@pytest.mark.parametrize("method,kind", CASES, ids=[f"{m}-{k}" for m, k in CASES])
def test_rows_equal_the_reference_loop(method, kind, weighted, record_every, monkeypatch):
    # runs of max_iters = rows * record_every log one block short of full,
    # exactly full and one row over (a full block, then one row flushed at
    # exit); a run 3 iterations longer ends on a row without losses, off the
    # cadence.  At record_every=1000 a block is made one row long and only
    # that last run is made, so that the test stays short.  Between logged
    # rows the fixed rules project blocks of draws by one triangular solve,
    # whose rounding is not the sequential steps': their errors and X are
    # compared to 1e-13 of row 0's, every draw, t and stop exactly.  Under
    # the identity weight a logged row between fresh errors reads its error
    # from the ledger of step losses, so those errors are compared the same way
    A, Xs, B = system()
    weight = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(4), N, L))
              if weighted else None)
    cfg = SolverConfig(method=method, sketches=kind and SETS[kind](), weight=weight, tau=2, seed=9,
                       tol=0.0, record_every=record_every, check_sampling=False)
    state = make_state(A, B, cfg, Xs)
    losses = state.losses() if state.adaptive else None  # None: the rule logs no losses
    blocks = record_every > 1 and not state.adaptive and method != "TSP"
    if record_every == 1000:
        monkeypatch.setattr(solvers, "_LOSS_BLOCK_BYTES", 8 if losses is None else losses.nbytes)
        runs = (record_every + 3,)
    else:
        limit = 2 if losses is None else min(solvers._UNIFORM_BLOCK,
                                             solvers._LOSS_BLOCK_BYTES // losses.nbytes)
        runs = (*(logged * record_every for logged in (limit - 1, limit, limit + 1)),
                (limit + 1) * record_every + 3)
    X_ref, rows, stop = reference_solve(A, B, dataclasses.replace(cfg, max_iters=runs[-1]), Xs)
    assert stop == "max_iters"
    for max_iters in runs:
        X, rec = solve(A, B, dataclasses.replace(cfg, max_iters=max_iters), Xs)
        want = rows if max_iters == runs[-1] else rows[:1 + max_iters // record_every]
        assert_rows_equal(rec, want, (method, kind, max_iters), close=blocks or not weighted)
    assert rec.stop_reason == stop
    assert np.isnan(rec.loss_max[-1]) == (record_every > 1 or losses is None)
    if blocks:
        assert np.linalg.norm(X - X_ref) <= 1e-13 * np.linalg.norm(X_ref)
    else:
        np.testing.assert_array_equal(X, X_ref)


@pytest.mark.parametrize("l", [4, 5])
@pytest.mark.parametrize("weighted", [False, True], ids=["no-weight", "weight"])
@pytest.mark.parametrize("method,kind", CASES, ids=[f"{m}-{k}" for m, k in CASES])
def test_rows_describe_the_returned_iterate(method, kind, weighted, l):
    # every row against the iterate x() gave it: q_error is
    # ||X_t - X*||_{F(Q)}^2 and epsilon ||X_t - X*||_F / ||X*||_F.  The
    # per-slice methods step slice l - k on slice k's draw, so their records
    # measure the real iterate that x() returns, as every other method's do
    rng = np.random.default_rng(30 + l)
    A, Xs = rand_tubal(rng, M, N, l), rand_tubal(rng, N, P, l)
    weight = WeightQ.from_tensor(spd_weight_tensor(rng, N, l)) if weighted else None
    cfg = SolverConfig(method=method, sketches=kind and SETS[kind](l), weight=weight, tau=2,
                       seed=31, tol=0.0, max_iters=80, check_sampling=False)
    X_last, rec = solve(A, tprod(A, Xs), cfg, x_star=Xs)
    iterates = []  # each row's iterate, from the reference loop of the same draws
    _, rows, _ = reference_solve(A, tprod(A, Xs), cfg, Xs, iterates)
    assert rec.chosen == [row[-1] for row in rows]
    np.testing.assert_array_equal(X_last, iterates[-1])
    assert len(iterates) == len(rec.t) == 81
    q = np.array([weighted_fnorm(X - Xs, weight) if weighted else np.linalg.norm(X - Xs)
                  for X in iterates]) ** 2
    eps = np.array([relative_error(X, Xs) for X in iterates])
    assert np.all(np.abs(rec.q_error - q) <= 1e-12 * q[0])
    assert np.all(np.abs(rec.epsilon - eps) <= 1e-12 * eps[0])


def per_slice(method):
    return method.endswith("-II") or method == "TSP-I"


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("method", solvers.METHODS)
def test_diverging_run_keeps_every_row(method, record_every):
    # the iterates head to Xs, about 1050 times the reference x_star: the
    # error passes 1e3 times its start about 5% short of Xs, after a few rows
    rng = np.random.default_rng(16)
    A, Xs = rand_tubal(rng, 10, 4, 4), rand_tubal(rng, 4, 2, 4)
    s = (make_fourier_sketches(10, 1, 10, 4, "row") if per_slice(method)
         else make_slice_sketches(10, 4))
    cfg = SolverConfig(method=method, sketches=s, tau=2, seed=8, tol=0.0, max_iters=5000,
                       record_every=record_every)
    with pytest.raises(DivergenceError) as info:
        solve(A, tprod(A, Xs), cfg, x_star=Xs * 9.5e-4)
    X_ref, rows, stop = reference_solve(A, tprod(A, Xs), cfg, Xs * 9.5e-4)
    record = info.value.record
    assert stop == record.stop_reason == "diverged" and record.iterations > 3
    assert_rows_equal(record, rows, method)


@pytest.mark.parametrize("record_every", [1, 4])
@pytest.mark.parametrize("method", [m for m in solvers.METHODS if m not in ("TSP", "TSP-I")])
def test_zero_loss_stop_keeps_every_row(method, record_every):
    # A = I: drawing member i zeroes R_i exactly, so every loss reaches 0
    # once each member has been drawn, mid-block and, at record_every=4,
    # mostly off the cadence, where a row without losses ends the record
    m, l = 6, 3
    A, Xs = identity(m, l), rand_tubal(np.random.default_rng(26), m, 2, l)
    s = make_fourier_sketches(m, 1, m, l, "row") if per_slice(method) else make_slice_sketches(m, l)
    cfg = SolverConfig(method=method, sketches=s, seed=27, tol=0.0, max_iters=500,
                       record_every=record_every)
    X, record = solve(A, tprod(A, Xs), cfg, x_star=Xs)
    X_ref, rows, stop = reference_solve(A, tprod(A, Xs), cfg, Xs)
    assert stop == record.stop_reason == "zero_loss" and record.iterations >= m
    # rows between fresh errors read the ledger of step losses; the last is fresh
    assert_rows_equal(record, rows, method, close=True)
    assert record.epsilon[-1] == rows[-1][1] and record.q_error[-1] == rows[-1][2]
    np.testing.assert_array_equal(X, X_ref)


def test_row_memory_is_bounded_per_row():
    # the tracemalloc peak of a 4,000-iteration ATSP-MD solve that logs
    # every row, less that of the same solve logging its last row only:
    # 56 bytes of row buffer and 8 of chosen per row, and at the end the
    # record's columns, t as ints and one copy of the six float columns
    # (about 124 bytes; rows of seven Python floats in seven lists take 273)
    rng = np.random.default_rng(7)
    A, Xs = rand_tubal(rng, 50, 20, 5), rand_tubal(rng, 20, 5, 5)
    B = tprod(A, Xs)
    peaks = []
    for record_every in (1, 4000):
        cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(50, 5), tol=0.0,
                           max_iters=4000, record_every=record_every, seed=1)
        tracemalloc.start()
        try:
            X, record = solve(A, B, cfg, x_star=Xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert record.iterations == 4000
    per_row = (peaks[0] - peaks[1]) / 4000
    assert per_row <= 150, per_row


@pytest.mark.parametrize("record_every", [1, 10, 1000])
@pytest.mark.parametrize("weighted", [False, True], ids=["no-weight", "weight"])
@pytest.mark.parametrize("method,kind", CASES, ids=[f"{m}-{k}" for m, k in CASES])
def test_ledger_stops_on_the_reference_iteration(method, kind, weighted, record_every):
    # off the record cadence the loop reads its error from the ledger of
    # step losses (under a weight, bracketed by Q^{-1/2}'s singular values),
    # and so do logged rows under the identity weight; the fixed rules
    # project blocks of draws; a fresh error still decides each stop.
    # Against one sequential run that takes a fresh error every iteration:
    # the stop iteration, reason and every draw for tol 1e-6, 1e-10 and
    # 1e-12, and each logged error to 1e-13 of row 0's
    A, Xs, B = system()
    weight = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(4), N, L))
              if weighted else None)
    cfg = SolverConfig(method=method, sketches=kind and SETS[kind](), weight=weight, tau=2, seed=9,
                       tol=1e-12, max_iters=20_000, check_sampling=False)
    _, rows, _ = reference_solve(A, B, cfg, Xs)
    eps = np.array([row[1] for row in rows])
    for tol in (1e-6, 1e-10, 1e-12):
        stop_at = int(np.argmax(eps < tol))
        assert stop_at > 0, (tol, eps[-1])
        _, rec = solve(A, B, dataclasses.replace(cfg, tol=tol, record_every=record_every), Xs)
        assert rec.stop_reason == "tol" and rec.iterations == stop_at, tol
        logged = [*range(0, stop_at, record_every), stop_at]
        np.testing.assert_array_equal(rec.t, logged)
        assert rec.chosen[1:] == [rows[t][-1] for t in logged[1:]]
        assert np.all(np.abs(rec.epsilon - eps[logged]) <= 1e-13 * eps[0])


ROUNDING_CASES = [("TSP", None, False), ("TSP", None, True), ("ATSP-MD", "slice", False),
                  ("ATSP-MD-II", "fourier-row", False), ("ATSP-CS-II", "fourier-row", False)]


@pytest.mark.parametrize("method,kind,weighted", ROUNDING_CASES, ids=[
    f"{m}-{k}-{'weight' if w else 'no-weight'}" for m, k, w in ROUNDING_CASES])
def test_ledger_keeps_the_tol_floor_at_rounding_level(method, kind, weighted):
    # under an error of about 1e-15 the ledger's D is at rounding level and
    # cannot place 1.1 tol: with tol > 0 it is dropped and every later error
    # is fresh, so a run of sequential steps off the record cadence still
    # stops where one that takes a fresh error every iteration does
    A, Xs, B = system()
    weight = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(4), N, L))
              if weighted else None)
    cfg = SolverConfig(method=method, sketches=kind and SETS[kind](), weight=weight, tau=2, seed=9,
                       tol=5e-16, max_iters=2000, record_every=10, check_sampling=False)
    X_ref, rows, stop = reference_solve(A, B, cfg, Xs)
    X, rec = solve(A, B, cfg, Xs)
    assert stop == rec.stop_reason == "tol" and rec.iterations == rows[-1][0]
    np.testing.assert_array_equal(X, X_ref)


def count_fresh_errors(monkeypatch):
    """A list that grows by one on every fresh error a state takes."""
    calls, errors = [], solvers._BaseState._errors
    monkeypatch.setattr(solvers._BaseState, "_errors", lambda st: calls.append(st.t) or errors(st))
    return calls


def test_every_step_rows_read_the_ledger(monkeypatch):
    # a record-every-step ATSP-MD run at 50x20x5 takes a fresh error only
    # where one decides something: after the first step, every 64
    # iterations, where the ledger leaves its bounds and for the last row
    rng = np.random.default_rng(11)
    A, Xs = rand_tubal(rng, 50, 20, 5), rand_tubal(rng, 20, 5, 5)
    B = tprod(A, Xs)
    cfg = SolverConfig(method="ATSP-MD", sketches=make_slice_sketches(50, 5), seed=12,
                       tol=1e-10, record_every=1)
    X_ref, rows, stop = reference_solve(A, B, cfg, Xs)
    fresh = count_fresh_errors(monkeypatch)
    X, rec = solve(A, B, cfg, x_star=Xs)
    assert rec.stop_reason == stop == "tol" and rec.iterations > 1000
    assert len(fresh) <= rec.iterations // 64 + 20, len(fresh)
    assert rec.fresh_errors == len(fresh)
    assert_rows_equal(rec, rows, "ATSP-MD", close=True)
    np.testing.assert_array_equal(X, X_ref)


def test_ledger_stops_at_the_rounding_floor(monkeypatch):
    # with tol = 0 the error reaches rounding level, where the step losses
    # are rounding too: past 1e-30 l ||X*||^2 the ledger drops its decade
    # trigger and gives no row, so logged rows are fresh and the rest are not
    rng = np.random.default_rng(13)
    A, Xs = rand_tubal(rng, 50, 20, 5), rand_tubal(rng, 20, 5, 5)
    B = tprod(A, Xs)
    cfg = SolverConfig(method="TSP", tau=10, seed=14, tol=0.0, max_iters=3000, record_every=10)
    X_ref, rows, stop = reference_solve(A, B, cfg, Xs)
    fresh = count_fresh_errors(monkeypatch)
    X, rec = solve(A, B, cfg, x_star=Xs)
    assert rec.stop_reason == stop == "max_iters" and rows[-1][1] < 1e-14
    assert len(fresh) <= 400, len(fresh)
    assert rec.fresh_errors == len(fresh)
    assert_rows_equal(rec, rows, "TSP", close=True)
    np.testing.assert_array_equal(X, X_ref)


def spy_runs(monkeypatch, cls):
    """A list that grows by (t before the run, iterations taken, the run's
    length as planned, whether the state keeps a ledger) on every run of a
    state of class ``cls`` (see ``_BaseState.run`` and ``_Ledger.steps``)."""
    runs, run = [], cls.run

    def spied(st, outs, *args):
        t, ledger, out = st.t, st.ledger is not None, run(st, outs, *args)
        runs.append((t, st.t - t, len(outs), ledger))
        return out
    monkeypatch.setattr(cls, "run", spied)
    return runs


RUN_SETS = {  # on 30x8x4, where no member solves the system and runs take 6-35 steps
    "slice": lambda: make_slice_sketches(30, L),
    "ragged-block": lambda: make_block_sketches(30, L, np.split(np.arange(30), [3, 5, 6, 10, 13,
                                                                            15, 19, 22, 23, 27])),
    "gaussian": lambda: make_gaussian_sketches(30, 2, 15, L, np.random.default_rng(5)),
    "fourier-row": lambda: make_fourier_sketches(30, 1, 30, L, "row"),
    "fourier-gaussian": lambda: make_fourier_sketches(30, 2, 15, L, "gaussian",
                                                      np.random.default_rng(6)),
}
RUN_METHODS = [("TSP", None),
               *((m, k) for m in SPATIAL for k in ("slice", "ragged-block", "gaussian")),
               *((m, k) for m in PER_SLICE for k in ("fourier-row", "fourier-gaussian"))]
RUN_CASES = {  # config fields, and the loss block's rows (None: the default)
    "audit-5": (dict(audit_every=5, tol=1e-13, max_iters=2000), None),
    "max-iters-100": (dict(tol=0.0, max_iters=100), None),
    "max-iters-130": (dict(tol=0.0, max_iters=130), None),
    "max-iters-100-every-7": (dict(tol=0.0, max_iters=100, record_every=7), None),
    "block-flush": (dict(tol=1e-13, max_iters=2000), 4),
    "block-flush-every-3": (dict(tol=1e-13, max_iters=2000, record_every=3), 2),
}


# weighted runs to tol = 1e-13 take some thousand iterations: only the max_iters
# cases; the rules that log no losses fill no loss block
RUNS = [(m, k, c, mode) for m, k in RUN_METHODS for c in RUN_CASES
        for mode in ("x_star", "residual", "weight")
        if (mode != "weight" or c.startswith("max-iters"))
        and (not c.startswith("block") or m.startswith("ATSP"))]


@pytest.mark.parametrize("method,kind,case,mode", RUNS, ids=["-".join(map(str, r)) for r in RUNS])
def test_runs_equal_the_reference_loop(method, kind, case, mode, monkeypatch):
    # every state steps through runs between the steps that take a fresh
    # error (the first, each 64th, max_iters, decades of error) or an audit,
    # and the loss block's flushes; without a ledger (residual mode, a
    # weight at record_every = 1) a run is one step.  Every column, draw and
    # X as the reference loop has them, errors to 1e-13 of row 0's (rows
    # between fresh errors read the ledger; the fixed rules' blocks of draws
    # round X differently), audit_max as a loop that audits every 5 steps,
    # and the fresh errors taken (at max_iters = 100, record_every = 7 the
    # last row's too) counted in fresh_errors
    fields, block_rows = RUN_CASES[case]
    rng = np.random.default_rng(3)
    A, Xs = rand_tubal(rng, 30, 8, L), rand_tubal(rng, 8, P, L)
    B = tprod(A, Xs)
    weight = (WeightQ.from_tensor(spd_weight_tensor(np.random.default_rng(4), 8, L))
              if mode == "weight" else None)
    x_star = None if mode == "residual" else Xs
    cfg = SolverConfig(method=method, sketches=kind and RUN_SETS[kind](), weight=weight, tau=2,
                       seed=9, check_sampling=False, **{"record_every": 1, **fields})
    st = make_state(A, B, cfg, x_star)
    if block_rows and st.adaptive:
        monkeypatch.setattr(solvers, "_LOSS_BLOCK_BYTES", block_rows * st.losses().nbytes)
    X_ref, rows, stop = reference_solve(A, B, dataclasses.replace(cfg, audit_every=0), x_star)
    runs = spy_runs(monkeypatch, type(st))
    fresh = count_fresh_errors(monkeypatch)
    X, rec = solve(A, B, cfg, x_star)
    assert rec.fresh_errors == len(fresh) and len(set(fresh)) == len(fresh)
    assert_rows_equal(rec, rows, (method, kind, case), close=x_star is not None)
    assert rec.stop_reason == stop and rec.iterations == rows[-1][0]
    blocks = cfg.record_every > 1 and x_star is not None and not st.adaptive and method != "TSP"
    if blocks:
        assert np.linalg.norm(X - X_ref) <= 1e-13 * np.linalg.norm(X_ref)
    else:
        np.testing.assert_array_equal(X, X_ref)
    # every iteration is taken by a run, and a step that must take a fresh
    # error or an audit ends its run
    assert sum(taken for _, taken, _, _ in runs) == rec.iterations
    inside = [t + i for t, taken, _, _ in runs for i in range(1, taken)]  # not a run's last
    every, audit = cfg.record_every, cfg.audit_every * isinstance(st, solvers._SetState)
    assert not [t for t in inside if t == 1 or t % 64 == 0 or t >= cfg.max_iters
                or audit and t % audit == 0]
    ledger = x_star is not None and (weight is None or every > 1)
    assert all(kept == ledger for *_, kept in runs)
    if ledger:
        assert len(inside) >= rec.iterations // 3, (len(inside), rec.iterations)
    else:
        assert all(planned == 1 for _, _, planned, _ in runs)
    if weight is not None and ledger:  # a weighted row cannot read D: each ends a run
        assert not [t for t in inside if t % every == 0]
    if block_rows and st.adaptive and weight is None and ledger:
        # a run's logged rows fill the block it flushes, and no more
        assert max((t + taken) // every - t // every for t, taken, _, _ in runs) == block_rows
    if audit:  # the set states' audits (the others have none)
        st = make_state(A, B, cfg, x_star)
        while st.t < rec.iterations:
            st.step(st.select(st.losses()))
            if st.t % audit == 0:
                st.audit()
        assert rec.audit_max == st.audit_max > 0
    else:
        assert rec.audit_max == 0.0 or cfg.audit_every


@pytest.mark.parametrize("x_star", [False, True], ids=["residual", "x_star"])
def test_a_stop_off_the_cadence_takes_its_fresh_error_once(x_star, monkeypatch):
    # the loop takes a fresh error of the last iterate that it does not log
    # (off the record cadence; with x_star, at a 64th step): the last row
    # reads it, and no iterate's fresh error is taken twice
    A, Xs, B = system()
    max_iters = 128 if x_star else 5
    cfg = SolverConfig(method="ATSP-MD", sketches=SETS["slice"](), seed=9, tol=0.0,
                       max_iters=max_iters, record_every=100)
    X_ref, rows, stop = reference_solve(A, B, cfg, Xs if x_star else None)
    fresh = count_fresh_errors(monkeypatch)
    X, rec = solve(A, B, cfg, Xs if x_star else None)
    assert fresh.count(max_iters) == 1 and len(set(fresh)) == len(fresh), fresh
    assert rec.fresh_errors == len(fresh)
    if not x_star:
        assert fresh == list(range(6))
    assert_rows_equal(rec, rows, "ATSP-MD", close=x_star)
    assert rec.epsilon[-1] == rows[-1][1]  # the last row is fresh
    np.testing.assert_array_equal(X, X_ref)


NOT_A_SOLUTION = [("NTSP", "slice"), ("ATSP-MD", "slice"), ("ATSP-MD-II", "fourier-row"),
                  ("TSP", None)]


@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("method,kind", NOT_A_SOLUTION, ids=[m for m, _ in NOT_A_SOLUTION])
def test_an_x_star_that_is_not_a_solution_drops_the_ledger(method, kind, record_every,
                                                           monkeypatch):
    # the first fresh error, after step 1, is off the ledger by far more
    # than rounding when x_star is 1e-3 off a solution: the ledger is
    # dropped there, and every later error is fresh, each taken once
    A, Xs, B = system()
    bad = Xs + 1e-3 * rand_tubal(np.random.default_rng(7), N, P, L)
    cfg = SolverConfig(method=method, sketches=kind and SETS[kind](), tau=2, seed=9, tol=0.0,
                       max_iters=400, record_every=record_every, check_sampling=False)
    X_ref, rows, stop = reference_solve(A, B, cfg, bad)
    anchors, anchor = [], solvers._Ledger.anchor
    monkeypatch.setattr(solvers._Ledger, "anchor",
                        lambda ledger, D: anchors.append(anchor(ledger, D)) or anchors[-1])
    fresh = count_fresh_errors(monkeypatch)
    X, rec = solve(A, B, cfg, bad)
    assert len(anchors) == 2 and anchors[0] is not None and anchors[1] is None
    assert fresh == list(range(401)) and rec.fresh_errors == 401
    assert_rows_equal(rec, rows, method)
    np.testing.assert_array_equal(X, X_ref)
