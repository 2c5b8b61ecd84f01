"""Test-only oracles: slower, independent routes to quantities the package
computes in closed form."""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _cos_table(n: int) -> np.ndarray:
    return np.cos((2.0 * np.pi / n) * np.arange(1, n // 2 + 1, dtype=np.float64))


def worst_case_cosine_sum(n: int, n_p: int) -> float:
    """Block peak as the trigonometric sum sqrt(m + 2 * sum_{0<i<m} (m - i) *
    cos(2*pi*i/n)), m = min(n_p, n - n_p), summed exactly with fsum.

    The radicand is the same for n_p and n - n_p ones, so the complementary
    block is summed when n_p > n/2: fewer terms, and no cancellation as n_p
    approaches n.
    """
    m = min(n_p, n - n_p)
    if m == 0:
        return 0.0
    terms = (m - np.arange(1, m)) * _cos_table(n)[: m - 1]
    return math.sqrt(max(m + 2.0 * math.fsum(terms.tolist()), 0.0))
