"""Bernoulli 0/1 sampling masks: generation and parameter checks.

A mask is a 1-D bool row, True where a sample is kept. Generation is a
pure function of (n, p, seed, trial_index) via a counter-based RNG, so
any execution order or degree of parallelism reproduces the same masks.
Only ``_draw_uniforms`` keys that RNG, for ``generate_mask`` and
``montecarlo``; ``_mask_params`` checks (n, p, seed) for both.

Every numeric parameter of the package goes through one call of one of
two checks here: ``_integer`` for counts, lengths, seeds and indices (any
integer type but ``bool``, in a closed range; a mask length at most
``_MAX_LENGTH``), and ``_real`` for rates, epsilons, tolerances and
thresholds (any real type but ``bool``, in an interval NaN never lies in).
"""

from __future__ import annotations

import math
import numbers
import operator
import threading

import numpy as np

__all__ = [
    "is_prime",
    "generate_mask",
]

_UINT64_SPAN = 1 << 64
# The longest mask: is_prime trial-divides up to sqrt(N), at most 2**16
# divisions, and the closed-form bounds stay finite.
_MAX_LENGTH = 1 << 32


def _integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int in [lo, hi], or at least lo where hi is
    None: any integer type, numpy's included, but not ``bool`` and not a
    float, which would otherwise be truncated."""
    try:
        k = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        k = None
    if k is None or k < lo or (hi is not None and k > hi):
        limits = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {limits}, got {value!r}")
    return k


def _real(value, name: str, interval: str) -> float:
    """``value`` as a Python float in ``interval``, written "(0, 1]" or
    "[0, inf)" with open or closed ends: any real type, numpy's included,
    but not ``bool``. NaN lies in no interval, and an int beyond the float
    range counts as +inf or -inf."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf if value > 0 else -math.inf
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= x if interval[0] == "[" else lo < x
    below = x <= hi if interval[-1] == "]" else x < hi
    if not (above and below):
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")
    return x


# Relative rounding allowance: the support size lowers N*p by it before
# its ceiling, and a Monte Carlo trial exceeds a threshold T only above
# T(1 + _ROUNDING) + _ROUNDING * N.
_ROUNDING = 1e-12


def _support_size(n: int, p: float) -> int:
    """The typical support size n_p = ceil(N*p). The product is lowered by
    _ROUNDING relative first, so that one rounded just above an integer,
    as 100 * 0.07 is, does not round up to the next."""
    return math.ceil(n * p * (1 - _ROUNDING))


def _mask_params(n, p, seed) -> tuple[int, float, int]:
    """Check mask length ``n``, rate ``p`` and 64-bit ``seed``, in that
    order; return them as int, float and int."""
    return (
        _integer(n, "mask length n", 2, _MAX_LENGTH),
        _real(p, "sampling rate p", "(0, 1)"),
        _integer(seed, "seed", 0, _UINT64_SPAN - 1),
    )


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1 in increasing order, by trial division."""
    factors, f = [], 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    return factors


def is_prime(n: int) -> bool:
    """Trial-division primality test (sufficient for mask lengths)."""
    return n >= 2 and _prime_factors(n) == [n]


_philox = threading.local()


def _draw_uniforms(seed: int, first: int, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the uniforms of trial ``first + i``: the
    stream of a Philox keyed (seed << 64) + first + i. One generator per
    thread, built on first use (importing loads no numpy.random), is
    re-keyed per row through a state dict of plain ints, which the state
    setter reads far faster than numpy arrays."""
    keyed = getattr(_philox, "keyed", None)
    if keyed is None:
        bit_gen = np.random.Philox(key=0)
        fresh = bit_gen.state
        state = {
            **fresh,
            "state": {k: v.tolist() for k, v in fresh["state"].items()},
            "buffer": fresh["buffer"].tolist(),
        }
        keyed = _philox.keyed = bit_gen, np.random.Generator(bit_gen), state
    bit_gen, gen, state = keyed
    words = state["state"]
    for t, row in enumerate(out, first):
        words["key"] = [t, seed]  # low word first
        bit_gen.state = state
        gen.random(out=row)


def generate_mask(n: int, p: float, seed: int = 0, trial_index: int = 0) -> np.ndarray:
    """Draw one i.i.d. Bernoulli(p) mask of length n for the given trial
    index, as a bool row; the same (n, p, seed, trial_index) always yields
    the same row."""
    n, p, seed = _mask_params(n, p, seed)
    trial_index = _integer(trial_index, "trial_index", 0, _UINT64_SPAN - 1)
    uniforms = np.empty((1, n))
    _draw_uniforms(seed, trial_index, uniforms)
    return uniforms[0] < p
