"""Monotonicity of transfer functions, measured by the index of increase.

Exact values come from the derivative sign structure and declared jumps
of the function; empirical values come from output differences ordered
by input. The simulation harness reproduces both the convergence of the
estimator on clean data and its collapse to 1/2 under additive noise.
"""

from .distributions import (
    LomaxParams,
    Window,
    WindowedDistribution,
    lomax_cdf,
    lomax_density_quantile,
    lomax_pdf,
    lomax_quantile,
)
from .errors import (
    DegenerateFunctionError,
    DegenerateSampleError,
    NonConvergenceError,
    SingularPointError,
)
from .estimators import (
    EstimateResult,
    SamplePairs,
    empirical_index,
    index_from_ordered_outputs,
    noisy_outputs,
)
from .rng import generator, mix_seed, splitmix64
from .simulation import (
    ExperimentConfig,
    SummaryRow,
    TrajectoryPoint,
    default_n_grid,
    run_experiment,
    summarize,
    write_trajectory_csv,
)
from .theoretical import (
    IndexBreakdown,
    emit_h_profile,
    theoretical_index,
    theoretical_index_via_H,
)
from .transfer import HFunction, PiecewiseFunction, Segment, TransferFunction

__version__ = "0.1.0"

__all__ = [
    "DegenerateFunctionError",
    "DegenerateSampleError",
    "EstimateResult",
    "ExperimentConfig",
    "HFunction",
    "IndexBreakdown",
    "LomaxParams",
    "NonConvergenceError",
    "PiecewiseFunction",
    "SamplePairs",
    "Segment",
    "SingularPointError",
    "SummaryRow",
    "TrajectoryPoint",
    "TransferFunction",
    "Window",
    "WindowedDistribution",
    "default_n_grid",
    "emit_h_profile",
    "empirical_index",
    "generator",
    "index_from_ordered_outputs",
    "lomax_cdf",
    "lomax_density_quantile",
    "lomax_pdf",
    "lomax_quantile",
    "mix_seed",
    "noisy_outputs",
    "run_experiment",
    "splitmix64",
    "summarize",
    "theoretical_index",
    "theoretical_index_via_H",
    "write_trajectory_csv",
]
