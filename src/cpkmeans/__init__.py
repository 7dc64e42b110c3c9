"""Change-point detection for high-dimensional two-segment Gaussian signals.

The split estimator is the two-class k-means minimizer over the first T
coordinates of each signal; the truncation level T can be fixed, picked
by a windowed-energy rule on an off-line surrogate vector, or picked by
one of two practical selectors.  ``experiments`` reproduces the
associated Monte Carlo studies deterministically.
"""

from .errors import ValidationError
from .estimator import (
    ChangePointFit,
    estimate_tau,
    objective_bruteforce,
    sweep_estimate,
)
from .experiments import (
    ExperimentConfig,
    MeanCase,
    StudyResult,
    derive_trial_seed,
    run_rate_study,
    run_regression_study,
    run_selection_comparison,
    run_t_sweep_study,
    sample_case_means,
    sample_rate_means,
)
from .model import (
    ModelSpec,
    SignalMatrix,
    SobolevClass,
    gap_squared,
    generate_sample,
    rate_psi,
    sobolev_sup,
)
from .smoothing import (
    LepskiConfig,
    SurrogateVector,
    estimate_adaptive,
    lepski_select,
    method1_select,
    method2_select,
    surrogate,
)
from .stats import (
    SummaryStats,
    chi_square_moderate_bound,
    chi_square_tail_bound,
    fit_line,
    gaussian_tail_bound,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ValidationError",
    "ModelSpec",
    "SignalMatrix",
    "SobolevClass",
    "generate_sample",
    "gap_squared",
    "rate_psi",
    "sobolev_sup",
    "ChangePointFit",
    "objective_bruteforce",
    "estimate_tau",
    "sweep_estimate",
    "SurrogateVector",
    "LepskiConfig",
    "surrogate",
    "lepski_select",
    "method1_select",
    "method2_select",
    "estimate_adaptive",
    "SummaryStats",
    "gaussian_tail_bound",
    "chi_square_tail_bound",
    "chi_square_moderate_bound",
    "fit_line",
    "summarize",
    "MeanCase",
    "ExperimentConfig",
    "StudyResult",
    "derive_trial_seed",
    "sample_rate_means",
    "sample_case_means",
    "run_rate_study",
    "run_regression_study",
    "run_t_sweep_study",
    "run_selection_comparison",
]
