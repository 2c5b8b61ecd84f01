"""Bernoulli 0/1 sampling masks: configuration, generation, the worst-case block.

Masks are immutable once built; generation is a pure function of
(seed, trial_index) via a counter-based RNG, so any execution order or
degree of parallelism reproduces the same sequence of masks. Only
``_draw_uniforms`` keys that RNG, for ``generate_mask`` and ``montecarlo``.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MaskConfig",
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
class MaskConfig:
    """Experiment parameters: mask length ``n``, keep-probability ``p``, RNG seed."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        n = _as_index(self.n, "mask length n")
        if n < 2:
            raise ValueError(f"mask length n must be an integer >= 2, got {self.n!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"sampling rate p must lie in (0, 1), got {self.p!r}")
        seed = _as_index(self.seed, "seed")
        if not 0 <= seed < _UINT64_SPAN:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)


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


def generate_mask(config: MaskConfig, trial_index: int = 0) -> Mask:
    """Draw one i.i.d. Bernoulli(p) mask for the given trial index.

    The same (config.seed, trial_index) always yields the same bits.
    """
    trial_index = _as_index(trial_index, "trial_index")
    if trial_index < 0 or trial_index >= _UINT64_SPAN:
        raise ValueError(f"trial_index must fit in 64 unsigned bits, got {trial_index!r}")
    uniforms = np.empty((1, config.n))
    _draw_uniforms(config.seed, trial_index, uniforms)
    return Mask(uniforms[0] < config.p)


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
