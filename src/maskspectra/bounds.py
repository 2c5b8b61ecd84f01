"""Analytic bounds on the peak off-center DFT magnitude of a Bernoulli mask.

Four bound families are provided for max_{k!=0} |A_k|, where A is the DFT
of a length-N mask with keep-probability p and support size n_p:

* worst case       -- exact maximum over all masks with n_p ones (prime N),
                      attained by a contiguous block, whose peak is the
                      Dirichlet kernel value |sin(pi*n_p/N)/sin(pi/N)|.
* Gaussian model   -- threshold T(eps) such that, modeling Re/Im parts as
                      N(0, p(1-p)N), the per-bin tail probability is <= eps.
* Gaussian, approx -- same threshold with Q(x) ~ exp(-x^2/2)/2, giving the
                      closed form 2*sqrt(p(1-p)N*ln(1/eps)).
* m-sigma          -- m*sqrt(p(1-p)N) for m in {3, 4}.

A large-N approximation of the worst-case-to-support ratio is also exposed.

The Gaussian model is conservative by a factor sqrt(2). It gives Re A_k and
Im A_k the variance p(1-p)N, but for k != 0 (and k != N/2) each is a sum
of (b_n - p) times cos or sin of 2*pi*k*n/N, whose squares average 1/2, so
the true variance is p(1-p)N/2. Both Gaussian thresholds therefore sit
sqrt(2) above the same model with the exact variance. That is why the
simulations observe no exceedance of T(eps): at N = 127, p = 0.5 and
eps = 1e-4, T = 31.0, and a Rayleigh model of the peak with the exact
variance, 1 - (1 - exp(-T^2/(p(1-p)N)))^((N-1)/2), puts the chance that
any bin exceeds it at 4.5e-12. The values here keep the model as it is.
"""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

from .masks import _as_index, is_prime

__all__ = [
    "worst_case_bound",
    "ratio_approximation",
    "q_inverse",
    "gaussian_bound",
    "gaussian_bound_approx",
    "sigma_bound",
    "thresholds",
    "bound_report",
]


def _mask_length(n, least: int = 2) -> int:
    """``n`` as a Python int: integers of any type, numpy's included, but
    not ``bool`` or a float."""
    n = _as_index(n, "n")
    if n < least:
        raise ValueError(f"n must be an integer >= {least}, got {n!r}")
    return n


def _warn_if_composite(n: int) -> None:
    # called once by each public function, so stacklevel 3 names its caller
    if not is_prime(n):
        warnings.warn(
            f"worst-case bound assumes prime mask length; n={n} is composite, "
            "so the contiguous block may not be the true maximizer",
            stacklevel=3,
        )


def worst_case_bound(n: int, n_p: int) -> float:
    """Peak off-center DFT magnitude of the contiguous-block mask.

    The block's spectrum is a Dirichlet kernel, peaking at k = 1 with
    |sin(pi*n_p/n) / sin(pi/n)|. The numerator is taken at m = min(n_p,
    n - n_p), which leaves sin^2 unchanged and keeps its argument in
    [0, pi/2].
    """
    bound = _worst_case(n, n_p)
    _warn_if_composite(n)
    return bound


def _worst_case(n: int, n_p: int) -> float:
    """worst_case_bound without the composite-n warning."""
    n, n_p = _mask_length(n), _as_index(n_p, "n_p")
    if not 1 <= n_p <= n:
        raise ValueError(f"n_p must lie in [1, {n}], got {n_p!r}")
    m = min(n_p, n - n_p)
    if m == 0:
        return 0.0
    return abs(math.sin(math.pi * m / n) / math.sin(math.pi / n))


def _ratio_radicand(n: int, p: float) -> float:
    """Np + (N^2/pi^2) sin^2(p*pi) - N [sin(p*pi) - sin(2*p*pi)/(2*pi)], the
    radicand of ``ratio_approximation``; negative for some small N*p."""
    s = math.sin(p * math.pi)
    return n * p + (n / math.pi) ** 2 * s * s - n * (s - math.sin(2.0 * p * math.pi) / (2.0 * math.pi))


def ratio_approximation(n: int, p: float) -> float:
    """Large-N closed form for the worst-case ratio |A_k|_max / (N*p).

    (1/(Np)) * sqrt(Np + (N^2/pi^2) sin^2(p*pi)
                    - N [sin(p*pi) - sin(2*p*pi)/(2*pi)]).
    The radicand can fall below zero for small N*p (at N = 7, p = 0.15 to
    0.19); it is then clamped to 0 with a warning. Tends to
    sin(p*pi)/(p*pi) as N grows.
    """
    ratio = _ratio_approx(n, p)
    _warn_if_clamped(n, p)
    return ratio


def _ratio_approx(n: int, p: float) -> float:
    """ratio_approximation without the clamped-radicand warning."""
    n = _mask_length(n, 1)
    if not 0.0 < p <= 1.0 or n * p < 1.0:
        raise ValueError(f"need 0 < p <= 1 and n*p >= 1, got n={n}, p={p!r}")
    return math.sqrt(max(_ratio_radicand(n, p), 0.0)) / (n * p)


def _warn_if_clamped(n: int, p: float) -> None:
    # called once by each public function, so stacklevel 3 names its caller
    radicand = _ratio_radicand(n, p)
    if radicand < 0.0:
        warnings.warn(f"ratio approximation radicand {radicand:.3g} < 0 at n={n}, p={p}; clamped to 0", stacklevel=3)


_STANDARD_NORMAL = NormalDist()


def q_inverse(y: float) -> float:
    """Inverse of the standard normal tail probability Q(x) =
    erfc(x/sqrt(2))/2: Q^-1(y) = -Phi^-1(y) with the standard normal
    quantile Phi^-1 (Wichura's AS 241, as statistics.NormalDist
    computes it), to a few ulp in x for every y in (0, 1), subnormal y
    included."""
    if not 0.0 < y < 1.0:
        raise ValueError(f"q_inverse argument must lie in (0, 1), got {y!r}")
    if y == 0.5:
        return 0.0  # -Phi^-1(0.5) is -0.0
    return -_STANDARD_NORMAL.inv_cdf(y)


def _gaussian_model(n: int, p: float, epsilon: float, union: bool) -> tuple[float, float]:
    """Check n, p and epsilon; return the Gaussian model's variance p(1-p)N
    of Re{A_k} and Im{A_k}, k != 0, and its per-bin tail budget eps'. That
    is eps as-is, or under ``union`` eps/(N-1): a union bound over the N-1
    candidate bins."""
    n = _mask_length(n)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    budget = epsilon / (n - 1) if union else epsilon
    if budget / 2.0 == 0.0:
        raise ValueError(f"epsilon {epsilon!r} is too small: its per-tail budget effective_epsilon / 2 is 0")
    return p * (1.0 - p) * n, budget


def gaussian_bound(n: int, p: float, *, epsilon: float = 1e-4, union: bool = False) -> float:
    """Threshold T with per-bin P(|A_k| > T) <= eps under the Gaussian model.

    T = sqrt(2 * var) * Q^-1(eps'/2), splitting the eps budget between the
    real and imaginary parts; eps' is eps, or eps/(N-1) under ``union``.
    """
    variance, budget = _gaussian_model(n, p, epsilon, union)
    return math.sqrt(2.0 * variance) * q_inverse(budget / 2.0)


def gaussian_bound_approx(n: int, p: float, *, epsilon: float = 1e-4, union: bool = False) -> float:
    """gaussian_bound with the tail approximation Q(x) ~ exp(-x^2/2)/2.

    Closed form 2*sqrt(var * ln(1/eps')); an upper bound on gaussian_bound
    since Q(x) <= exp(-x^2/2)/2 for x >= 0.
    """
    variance, budget = _gaussian_model(n, p, epsilon, union)
    # -ln(eps') rather than ln(1/eps'): 1/eps' overflows for subnormal eps'
    return 2.0 * math.sqrt(variance * -math.log(budget))


def sigma_bound(n: int, p: float, m: int) -> float:
    """m-standard-deviation bound m * sqrt(p(1-p)N), m in {3, 4}.

    The m=4 value is computed as (4/3) times the m=3 value so their ratio
    is exactly 4/3 in floating point.
    """
    n = _mask_length(n)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if m not in (3, 4):
        raise ValueError(f"m must be 3 or 4, got {m!r}")
    sigma3 = 3.0 * math.sqrt(p * (1.0 - p) * n)
    return sigma3 if m == 3 else (4.0 / 3.0) * sigma3


def thresholds(n: int, p: float, *, epsilon: float = 1e-4) -> dict[str, float]:
    """The four threshold families a simulated peak is compared with:
    gaussian_T, sigma3, sigma4 and worst_case (at n_p = ceil(N*p)), in
    that order."""
    record = {
        "gaussian_T": gaussian_bound(n, p, epsilon=epsilon),  # checks n, p and epsilon first
        "sigma3": sigma_bound(n, p, 3),
        "sigma4": sigma_bound(n, p, 4),
        "worst_case": _worst_case(n, math.ceil(n * p)),
    }
    _warn_if_composite(n)
    return record


def bound_report(
    n: int, p: float, *, n_p: int | None = None, epsilon: float = 1e-4, union: bool = False
) -> dict[str, float]:
    """Every bound family for one (N, p), as one flat record in the column
    order ``maskspectra bounds`` prints.

    n_p defaults to ceil(N*p), the typical support size; ``union`` divides
    eps by the N-1 candidate bins, as in gaussian_bound. worst_case_ratio is
    worst_case / n_p; worst_case_ratio_np divides by the continuous mean
    support N*p instead, which is the normalization used by the reference
    ratio figures. ratio_approx is the closed-form large-N approximation of
    worst_case / (N*p).
    """
    n = _mask_length(n)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    n_p = math.ceil(n * p) if n_p is None else _as_index(n_p, "n_p")
    worst_case = _worst_case(n, n_p)
    record = {
        "n": n,
        "p": p,
        "n_p": n_p,
        "epsilon": epsilon,
        "worst_case": worst_case,
        "worst_case_ratio": worst_case / n_p,
        "worst_case_ratio_np": worst_case / (n * p),
        "gaussian_T": gaussian_bound(n, p, epsilon=epsilon, union=union),
        "gaussian_T_approx": gaussian_bound_approx(n, p, epsilon=epsilon, union=union),
        "sigma3": sigma_bound(n, p, 3),
        "sigma4": sigma_bound(n, p, 4),
        "ratio_approx": _ratio_approx(n, p),
    }
    _warn_if_composite(n)
    _warn_if_clamped(n, p)
    return record
