"""maskspectra: bounds on the peak DFT magnitude of Bernoulli sampling
masks, Monte Carlo validation, and an iterative-thresholding recovery demo.
"""

from .bounds import (
    bound_report,
    gaussian_bound,
    gaussian_bound_approx,
    q_inverse,
    ratio_approximation,
    sigma_bound,
    worst_case_bound,
)
from .masks import generate_mask, is_prime
from .montecarlo import (
    ExperimentSpec,
    RunningStats,
    TrialStats,
    run_experiment,
)
from .recovery import recover, synthesize_signal

__version__ = "0.1.0"

__all__ = [
    "generate_mask",
    "is_prime",
    "worst_case_bound",
    "ratio_approximation",
    "q_inverse",
    "gaussian_bound",
    "gaussian_bound_approx",
    "sigma_bound",
    "bound_report",
    "ExperimentSpec",
    "TrialStats",
    "RunningStats",
    "run_experiment",
    "synthesize_signal",
    "recover",
    "__version__",
]
