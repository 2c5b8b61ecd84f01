"""DFT spectra of masks and real signals.

Convention: the forward transform uses the standard negative exponent,
coeffs[k] = sum_n x[n] exp(-2j*pi*k*n/N). Magnitudes are identical under
either sign convention, and magnitudes are all the bounds constrain.

For real input of prime length N, _RaderPlan computes the discrete Hartley
transform h_k = Re X_k - Im X_k = sum_n x[n] cas(2*pi*k*n/N), with
cas = cos + sin, as one real cyclic convolution of length N - 1 (Rader's
algorithm). It takes and returns data in Rader order, a fixed permutation
of samples and bins, so the DHT, which is its own inverse up to a factor
N, serves both directions; |X_k|^2 = (h_k^2 + h_-k^2) / 2. Where the plan
beats scipy's transform the functions here use it, and scipy elsewhere; no
other module chooses between the two. The choice fixes the transform
order, Rader order or natural order: to_transform_order and
from_transform_order move data into and out of it, and keep_above_ordered
thresholds within it, so an iterative loop permutes its inputs once and
its result once instead of at every step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

from .masks import Mask, is_prime

__all__ = [
    "dft_direct", "spectrum_of_mask", "max_nonzero_bin", "hard_threshold", "peak_magnitude", "keep_above",
    "to_transform_order", "from_transform_order", "keep_above_ordered",
]

_DIRECT_BLOCK_ROWS = 256
# In recovery_step times measured over all primes from 500 to 3000 and 75
# larger ones, the real Rader plan beats scipy's Bluestein transform at every
# prime N above _RADER_MIN_N whose N - 1 has no prime factor above
# _RADER_MAX_FACTOR. Just outside them it ties (947, 1279) or loses (about
# 2x at 1543, whose N - 1 has the factor 257).
_RADER_MIN_N = 1000
_RADER_MAX_FACTOR = 67


def _as_real_vector(x) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("input must be a nonempty 1-D real sequence")
    return arr


def dft_direct(x) -> np.ndarray:
    """O(N^2) reference transform, evaluated blockwise: the oracle for the
    scipy and Rader transforms.

    Twiddle phases are reduced with (k*n) mod N before scaling so the
    arguments passed to exp stay in [0, 2*pi).
    """
    arr = _as_real_vector(x)
    n = arr.size
    idx = np.arange(n, dtype=np.int64)
    coeffs = np.empty(n, dtype=np.complex128)
    for start in range(0, n, _DIRECT_BLOCK_ROWS):
        k = idx[start : start + _DIRECT_BLOCK_ROWS]
        phase = (k[:, None] * idx[None, :]) % n
        kernel = np.exp((-2j * np.pi / n) * phase)
        coeffs[start : start + _DIRECT_BLOCK_ROWS] = kernel @ arr
    return coeffs


def spectrum_of_mask(mask: Mask) -> np.ndarray:
    """Complex DFT coefficients of a mask's bits."""
    return scipy.fft.fft(mask.bits.astype(np.float64))


def max_nonzero_bin(coeffs) -> tuple[int, float]:
    """Largest magnitude over bins k = 1..N-1 and its smallest attaining index."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError("spectrum must be a 1-D array of at least 2 bins")
    mags = np.abs(coeffs[1:])
    k = int(np.argmax(mags))  # first occurrence: smallest k wins ties
    return k + 1, float(mags[k])


def _prime_factors(m: int) -> list[int]:
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


class _RaderPlan:
    """Real DHT of prime length n as a real cyclic convolution of length n - 1.

    With g a generator of (Z/n)*, Rader order puts sample (or bin) 0 apart
    and sample g^-p at position p: ``order[0] = 0`` and
    ``order[1 + p] = g^-p mod n``. Bin g^-p of the DHT of x is
    x_0 + sum_q x_{g^q} cas(2 pi g^(q-p) / n), the cyclic convolution of the
    input in g^q order with the kernel cas(2 pi g^-r / n), whose rfft is
    precomputed. Input in Rader order is the input in g^q order reversed,
    so the transform maps Rader order to Rader order. Since
    g^((n-1)/2) = -1, bin -k sits (n-1)/2 positions after bin k. Every
    method works along the last axis.
    """

    def __init__(self, n: int) -> None:
        m = n - 1
        factors = _prime_factors(m)
        g = next(c for c in range(2, n) if all(pow(c, m // f, n) != 1 for f in factors))
        order = np.zeros(n, dtype=np.intp)
        g_inv, v = pow(g, -1, n), 1
        for p in range(1, n):
            order[p] = v
            v = v * g_inv % n
        order.flags.writeable = False
        self.n = n
        self.order = order
        angle = (2.0 * np.pi / n) * order[1:]
        self._kernel = scipy.fft.rfft(np.cos(angle) + np.sin(angle))
        # the kernel sums to exactly -1 (the DHT of a unit impulse at 0, less
        # its bin 0); the rounded sum is off by about 1e-13 at n = 8191, which
        # would shift every output by that much times the input's mean
        self._kernel[0] = -1.0

    def dht(self, x0, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """DHT of the Rader-ordered (x0, x) as (bin 0, the rest in Rader order).

        x0 is sample (or bin) 0 and x the other n - 1 values. The DHT is its
        own inverse up to n: applied to its own output it gives n * (x0, x).
        The convolution wants its input in g^q order, x reversed, and for
        real x the rfft of the reversal is the conjugate of rfft(x).
        """
        m = self.n - 1
        y = scipy.fft.rfft(x)
        np.conjugate(y, out=y)
        total = x0 + y[..., 0].real
        y *= self._kernel
        y[..., 0] += m * x0
        return total, scipy.fft.irfft(y, m, overwrite_x=True)

    def pair_magnitudes(self, h: np.ndarray) -> np.ndarray:
        """|X_k| = sqrt((h_k^2 + h_-k^2) / 2) at the first (n-1)/2 Rader
        positions; the second half holds the mirror bins, which share it."""
        half = (self.n - 1) // 2
        mags = np.square(h[..., :half])
        mags += np.square(h[..., half:])
        mags *= 0.5
        return np.sqrt(mags, out=mags)


@lru_cache(maxsize=8)
def _cached_rader_plan(n: int) -> _RaderPlan:
    return _RaderPlan(n)


def _rader_plan(shape: tuple[int, ...]) -> _RaderPlan | None:
    """The cached Rader plan for a real 1-D array of this shape, or None
    where scipy's transform is as fast (or the array is not 1-D).

    Only plans are cached, so shapes without one never evict a plan.
    """
    if len(shape) != 1:
        return None
    (n,) = shape
    if n <= _RADER_MIN_N or not is_prime(n) or max(_prime_factors(n - 1)) > _RADER_MAX_FACTOR:
        return None
    return _cached_rader_plan(n)


def hard_threshold(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    """Keep coefficients with magnitude strictly above the threshold."""
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    out = np.array(coeffs, dtype=np.complex128)
    out[np.abs(out) <= threshold] = 0.0
    return out


def to_transform_order(x) -> np.ndarray:
    """Real 1-D x in the sample order the transform works in at its length:
    Rader order (see _RaderPlan) where a plan runs, and natural order,
    x itself, elsewhere. Bins are ordered the same way."""
    x = _as_real_vector(x)
    plan = _rader_plan(x.shape)
    return x if plan is None else x[plan.order]


def from_transform_order(x) -> np.ndarray:
    """Inverse of to_transform_order: x back in natural order."""
    x = _as_real_vector(x)
    plan = _rader_plan(x.shape)
    if plan is None:
        return x
    out = np.empty_like(x)
    out[plan.order] = x
    return out


def peak_magnitude(x) -> float:
    """max over every k of |DFT(x)_k| for real 1-D x, DC included."""
    x = _as_real_vector(x)
    plan = _rader_plan(x.shape)
    if plan is None:
        return float(np.abs(scipy.fft.fft(x)).max())
    h0, h = plan.dht(x[0], x[plan.order[1:]])
    return max(abs(float(h0)), float(plan.pair_magnitudes(h).max()))


def keep_above_ordered(z, threshold: float) -> np.ndarray:
    """keep_above for z given in transform order, with the result in the
    same order; a recovery loop stays in it from step to step.

    Through a Rader plan the pairs (k, -k), which share |X_k|, are kept or
    dropped together, and the kept Hartley bins are scaled by 1/N: their
    DHT is then the real inverse transform. Agrees with scipy's path at the
    ulp level.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    z = _as_real_vector(z)
    plan = _rader_plan(z.shape)
    if plan is None:
        return np.ascontiguousarray(scipy.fft.ifft(hard_threshold(scipy.fft.fft(z), threshold)).real)
    n = z.size
    h0, h = plan.dht(z[0], z[1:])
    pairs = h.reshape(2, -1)
    pairs *= np.where(plan.pair_magnitudes(h) <= threshold, 0.0, 1.0 / n)
    x0, x = plan.dht(0.0 if abs(h0) <= threshold else h0 / n, h)
    out = np.empty_like(z)
    out[0] = x0
    out[1:] = x
    return out


def keep_above(z, threshold: float) -> np.ndarray:
    """ifft(hard_threshold(fft(z), threshold)).real for real 1-D z."""
    return from_transform_order(keep_above_ordered(to_transform_order(z), threshold))
