"""Bernoulli 0/1 sampling masks: generation, the worst-case block, parameter checks.

Masks are immutable once built; generation is a pure function of (n, p,
seed, trial_index) via a counter-based RNG, so any execution order or
degree of parallelism reproduces the same masks. Only ``_draw_uniforms``
keys that RNG, for ``generate_mask`` and ``montecarlo``; ``_mask_params``
checks (n, p, seed) for both, and ``_unit_interval`` every rate and epsilon.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mask",
    "is_prime",
    "generate_mask",
    "worst_case_mask",
]

_UINT64_SPAN = 1 << 64


def _as_index(value, name: str) -> int:
    """``value`` as a Python int: any integer type, numpy's included, but
    not ``bool`` and not a float, which would otherwise be truncated."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _mask_length(value, name: str = "n", least: int = 2) -> int:
    """``value`` as a Python int of at least ``least``: integers of any
    type, numpy's included, but not ``bool`` or a float."""
    n = _as_index(value, name)
    if n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def _unit_interval(value, name: str) -> float:
    """``value`` as a Python float in the open interval (0, 1): any real
    type, numpy's included, but not ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return float(value)


def _support_size(n: int, p: float) -> int:
    """The typical support size n_p = ceil(N*p). The product is lowered by
    1e-12 relative first, the exceedance tolerance of the Monte Carlo
    kernel, so that one rounded just above an integer, as 100 * 0.07 is,
    does not round up to the next."""
    return math.ceil(n * p * (1 - 1e-12))


def _mask_params(n, p, seed) -> tuple[int, float, int]:
    """Check mask length ``n`` >= 2, rate ``p`` and 64-bit ``seed``, in
    that order; return them as int, float and int."""
    n, p = _mask_length(n, "mask length n"), _unit_interval(p, "sampling rate p")
    key = _as_index(seed, "seed")
    if not 0 <= key < _UINT64_SPAN:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")
    return n, p, key


def is_prime(n: int) -> bool:
    """Trial-division primality test (sufficient for mask lengths)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Mask:
    """A realized 0/1 sequence and its number of ones, n_p."""

    bits: np.ndarray
    n_p: int = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.bits)
        if raw.ndim != 1:
            raise ValueError("mask bits must be one-dimensional")
        # checked before the uint8 cast, which would truncate 1.7 to 1 and wrap 256 to 0
        if raw.dtype != np.bool_ and not ((raw == 0) | (raw == 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        bits = np.ascontiguousarray(raw, dtype=np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n_p", int(np.count_nonzero(bits)))

    @property
    def n(self) -> int:
        return int(self.bits.size)


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


def generate_mask(n: int, p: float, seed: int = 0, trial_index: int = 0) -> Mask:
    """Draw one i.i.d. Bernoulli(p) mask of length n for the given trial
    index; the same (n, p, seed, trial_index) always yields the same bits."""
    n, p, seed = _mask_params(n, p, seed)
    trial_index = _as_index(trial_index, "trial_index")
    if trial_index < 0 or trial_index >= _UINT64_SPAN:
        raise ValueError(f"trial_index must fit in 64 unsigned bits, got {trial_index!r}")
    uniforms = np.empty((1, n))
    _draw_uniforms(seed, trial_index, uniforms)
    return Mask(uniforms[0] < p)


def worst_case_mask(n: int, n_p: int) -> Mask:
    """The mask with n_p ones in a contiguous block at the origin.

    Among all masks with a fixed number of ones (and prime length), this
    arrangement maximizes the peak off-center DFT magnitude.
    """
    n, n_p = _as_index(n, "n"), _as_index(n_p, "n_p")
    if not 0 <= n_p <= n:
        raise ValueError(f"n_p must lie in [0, {n}], got {n_p}")
    bits = np.zeros(n, dtype=np.uint8)
    bits[:n_p] = 1
    return Mask(bits)
