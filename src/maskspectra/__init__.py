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
from .masks import Mask, MaskConfig, generate_mask, is_prime, worst_case_mask
from .montecarlo import (
    ExperimentSpec,
    RunningStats,
    TrialStats,
    run_experiment,
)
from .recovery import (
    SignalSpec,
    recover,
    sample_random,
    synthesize_signal,
)

__version__ = "0.1.0"

__all__ = [
    "Mask",
    "MaskConfig",
    "generate_mask",
    "worst_case_mask",
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
    "SignalSpec",
    "synthesize_signal",
    "sample_random",
    "recover",
    "__version__",
]
