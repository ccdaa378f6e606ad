"""The real-iterate methods on Fourier slices 0..l//2 against a
full-spectrum oracle.

TSP, NTSP and ATSP-MD/PR/CS keep only slices 0..l//2 of every Fourier
stack and weight each slice by its multiplicity.  Here every state is
stepped draw for draw next to :func:`conftest.full_spectrum_step`, which
projects all l slices separately from dense members, and its iterate,
losses and errors are checked at every step, for odd and even l and for
the self-mirrored slices 0 and l/2.
"""

import numpy as np
import pytest

from conftest import full_spectrum_losses, full_spectrum_step, spd_weight_tensor
from tubalsketch.harness import ProblemSpec, gen_gaussian
from tubalsketch.sketching import (
    make_block_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
)
from tubalsketch.solvers import SolverConfig, make_state, solve
from tubalsketch.t_algebra import WeightQ, fnorm, tprod_oracle

STEPS = 12


def _system(l, weighted):
    A, Xs, B = gen_gaussian(ProblemSpec(m=7, n=4, p=2, l=l, seed=70 + l))
    rng = np.random.default_rng(71 + l)
    Q = WeightQ.from_tensor(spd_weight_tensor(rng, 4, l)) if weighted else None
    return A, Xs, B, Q


def _sketches(kind, l):
    if kind == "slice":
        return make_slice_sketches(7, l)
    if kind == "ragged-block":
        return make_block_sketches(7, l, [[0, 3], [1, 2, 4], [5, 6]])
    return make_gaussian_sketches(7, 2, 4, l, np.random.default_rng(72 + l))


def _check_errors(st, X, Xs, Q):
    diff = X - Xs
    assert abs(st.epsilon() - fnorm(diff) / fnorm(Xs)) <= 1e-12
    q_ref = fnorm(diff if Q is None else tprod_oracle(Q.sqrt_tensor(), diff)) ** 2
    assert abs(st.q_error() - q_ref) <= 1e-12 * fnorm(Xs) ** 2


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["slice", "ragged-block", "gaussian"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("method", ["NTSP", "ATSP-MD", "ATSP-PR", "ATSP-CS"])
def test_set_methods_follow_full_spectrum_oracle(l, kind, weighted, method):
    A, Xs, B, Q = _system(l, weighted)
    sketches = _sketches(kind, l)
    members = sketches.members
    st = make_state(A, B, SolverConfig(method=method, sketches=sketches, weight=Q,
                                       seed=73), x_star=Xs)
    assert st.Xh.shape[0] == l // 2 + 1
    X = np.zeros_like(Xs)
    scale = None
    for _ in range(STEPS):
        losses = st.losses()
        ref = full_spectrum_losses(A, B, X, members, Q)
        scale = scale or ref.max()
        assert np.max(np.abs(losses - ref)) <= 1e-12 * scale
        i = st.select(losses)
        if method == "ATSP-MD":
            assert ref[i] >= ref.max() - 1e-12 * scale
        st.step(i)
        X = full_spectrum_step(A, B, X, members[i], Q)
        assert fnorm(st.x() - X) <= 1e-12 * fnorm(X)
        _check_errors(st, X, Xs, Q)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("weighted", [False, True])
def test_fresh_gaussian_follows_full_spectrum_oracle(l, weighted):
    A, Xs, B, Q = _system(l, weighted)
    st = make_state(A, B, SolverConfig(method="TSP", tau=2, weight=Q, seed=74),
                    x_star=Xs)
    X = np.zeros_like(Xs)
    for _ in range(STEPS):
        S0 = st.select(st.losses())
        st.step(S0)
        S = np.zeros((7, 2, l))
        S[:, :, 0] = S0
        X = full_spectrum_step(A, B, X, S, Q)
        assert fnorm(st.x() - X) <= 1e-12 * fnorm(X)
        _check_errors(st, X, Xs, Q)


@pytest.mark.parametrize("l", [4, 5])
def test_residual_mode_epsilon_matches_spatial_residual(l):
    A, Xs, B, _ = _system(l, False)
    cfg = SolverConfig(method="ATSP-PR", sketches=make_slice_sketches(7, l), seed=75,
                       max_iters=STEPS, tol=0.0, keep_iterates=True)
    X, rec = solve(A, B, cfg)
    assert rec.iterations == STEPS
    ref = [fnorm(tprod_oracle(A, Xt) - B) / fnorm(B) for Xt in rec.iterates]
    np.testing.assert_allclose(rec.epsilon, ref, rtol=1e-12, atol=0)
