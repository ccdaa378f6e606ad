"""Every checked field of the four specs rejects each kind of bad value up
front, with a ``ValueError`` that names the field."""

import dataclasses
import math

import numpy as np
import pytest

from tubalsketch.harness import ExperimentConfig, MethodSpec, ProblemSpec
from tubalsketch.solvers import _RANGES, SolverConfig, make_state

LEAST = {name: least for name, least, _, _ in _RANGES}
WHOLE = {name for name, _, _, whole in _RANGES if whole}
CHECKED = {  # the fields of each spec that the up-front checks cover
    SolverConfig: {"record_every", "audit_every", "max_iters", "seed", "theta", "tol", "tau"},
    ProblemSpec: {"m", "n", "p", "l", "seed", "image_size", "num_images", "kernel_size",
                  "kernel_sigma", "padded_size"},
    MethodSpec: {"tau", "q", "block_size", "theta"},
    ExperimentConfig: {"trials", "tol", "max_iters", "record_every", "seed"},
}


def _build(spec, **fields):
    if spec is SolverConfig:  # checked when a state is built
        A = np.ones((2, 1, 1))
        return make_state(A, A, SolverConfig(**fields))
    return spec(**({"method": "NTSP"} if spec is MethodSpec else {}), **fields)


def _bad_values(name):
    """True, a string, a negative where the least value is 0 or more, a zero
    where it is 1, a fraction for whole fields, and NaN."""
    values = [True, "3", math.nan]
    if LEAST[name] >= 0:
        values.append(-1)
    if LEAST[name] == 1:
        values.append(0)
    if name in WHOLE:
        values.append(2.5)
    return values


CASES = [(spec, name, value) for spec, names in CHECKED.items()
         for name in sorted(names) for value in _bad_values(name)]


def test_the_table_covers_every_ranged_field():
    for spec, names in CHECKED.items():
        fields = {f.name for f in dataclasses.fields(spec)}
        assert names == fields & set(LEAST), spec.__name__


@pytest.mark.parametrize("spec, name, value", CASES,
                         ids=[f"{s.__name__}-{n}-{v!r}" for s, n, v in CASES])
def test_bad_value_is_rejected_by_name(spec, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}="):
        _build(spec, **{name: value})


@pytest.mark.parametrize("value", [0, -2.5, 1e300])
def test_any_finite_kernel_sigma_is_accepted(value):
    # sigma <= 0 is the centred delta kernel
    assert ProblemSpec(kernel_sigma=value).kernel_sigma == value


def test_padded_size_may_be_unset_and_whole_floats_become_ints():
    assert ProblemSpec().padded_size is None
    spec = ProblemSpec(padded_size=40.0, image_size=32.0)
    assert (spec.padded_size, spec.image_size) == (40, 32)
    assert isinstance(spec.padded_size, int)


@pytest.mark.parametrize("kind", ["nope", None, 3])
def test_problem_kind_is_checked_up_front(kind):
    with pytest.raises(ValueError, match="kind="):
        ProblemSpec(kind=kind)
