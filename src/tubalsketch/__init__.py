"""Sketch-and-project solvers for tensor linear systems under the t-product."""

from .t_algebra import (
    WeightQ,
    bcirc,
    dft3,
    fnorm,
    fold,
    identity,
    is_t_spd,
    t_sqrt,
    tpinv,
    tprod,
    tprod_oracle,
    ttranspose,
    unfold,
    weighted_fnorm,
)
from .sketching import (
    SketchSet,
    make_block_sketches,
    make_fourier_sketches,
    make_gaussian_sketches,
    make_slice_sketches,
    prob_fourier_row_norm,
    prob_sketch_norm,
    prob_slice_norm,
    prob_uniform,
    sample_index,
)
from .solvers import (
    METHODS,
    DivergenceError,
    RunRecord,
    SolverConfig,
    make_state,
    select_index,
    solve,
)
from .analysis import (
    RateReport,
    compute_rate_report,
    closed_form_rate_bounds,
    estimate_delta_inf,
    expected_projector,
    flops_per_iteration,
    per_slice_rates,
    verify_bounds,
)
from .harness import (
    ExperimentConfig,
    MethodSpec,
    ProblemSpec,
    gen_deblur,
    gen_gaussian,
    relative_error,
    run_experiment,
)

__version__ = "0.1.0"
