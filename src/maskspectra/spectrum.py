"""DFT spectra of masks and real signals.

Convention: the forward transform uses the standard negative exponent,
coeffs[k] = sum_n x[n] exp(-2j*pi*k*n/N). Magnitudes are identical under
either sign convention, and magnitudes are all the bounds constrain.

For real input of prime length N, _RaderPlan computes the discrete Hartley
transform h_k = Re X_k - Im X_k = sum_n x[n] cas(2*pi*k*n/N), with
cas = cos + sin, as one real cyclic convolution of length N - 1 (Rader's
algorithm), and leaves it in Rader order. The DHT is its own inverse up to
a factor N, and |X_k|^2 = (h_k^2 + h_-k^2) / 2. peak_magnitude and
keep_above use it where it beats scipy's transform and scipy elsewhere; no
other module chooses between the two.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

from .masks import Mask, is_prime

__all__ = [
    "dft_direct", "spectrum_of_mask", "max_nonzero_bin", "hard_threshold", "peak_magnitude", "keep_above",
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

    With g a generator of (Z/n)*, bin g^-p of the DHT of z is
    z_0 + sum_q z_{g^q} cas(2 pi g^(q-p) / n), the cyclic convolution of the
    input in g^q order with the kernel cas(2 pi g^-r / n), whose rfft is
    precomputed. Outputs stay in this Rader order: position p holds bin
    g^-p, and since g^((n-1)/2) = -1, bin -k sits (n-1)/2 positions after
    bin k. Every method works along the last axis.
    """

    def __init__(self, n: int) -> None:
        m = n - 1
        factors = _prime_factors(m)
        g = next(c for c in range(2, n) if all(pow(c, m // f, n) != 1 for f in factors))
        g_pos = np.empty(m, dtype=np.intp)  # g^q mod n
        v = 1
        for q in range(m):
            g_pos[q] = v
            v = v * g % n
        self.n = n
        self._g_pos = g_pos
        self.g_neg = np.roll(g_pos[::-1], 1)  # g^-p mod n: the bin at Rader position p
        # Rader position of each bin; bin 0 maps to a dummy and is set apart
        self._rader_pos = np.zeros(n, dtype=np.intp)
        self._rader_pos[self.g_neg] = np.arange(m)
        angle = (2.0 * np.pi / n) * self.g_neg
        self._kernel = scipy.fft.rfft(np.cos(angle) + np.sin(angle))
        # the kernel sums to exactly -1 (the DHT of a unit impulse at 0, less
        # its bin 0); the rounded sum is off by about 1e-13 at n = 8191, which
        # would shift every output by that much times the input's mean
        self._kernel[0] = -1.0

    def _convolve(self, y: np.ndarray, x0) -> tuple[np.ndarray, np.ndarray]:
        """DHT bin 0 and the Rader-ordered rest, from x0 (sample or bin 0)
        and y, the rfft of the other n - 1 values in g^q order; y is reused."""
        m = self.n - 1
        total = x0 + y[..., 0].real
        y *= self._kernel
        y[..., 0] += m * x0
        return total, scipy.fft.irfft(y, m, overwrite_x=True)

    def hartley(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """DHT of real z, given in natural order, as (h_0, h in Rader order)."""
        return self._convolve(scipy.fft.rfft(z[..., self._g_pos]), z[..., 0])

    def inverse_hartley(self, h0, h: np.ndarray) -> np.ndarray:
        """DHT of the Rader-ordered (h0, h), in natural order.

        For h the DHT of z this is n * z. The DHT wants its input in g^q
        order, h reversed, and for real h the rfft of the reversal is the
        conjugate of rfft(h).
        """
        y = scipy.fft.rfft(h)
        np.conjugate(y, out=y)
        total, w = self._convolve(y, h0)
        out = w[..., self._rader_pos]
        out[..., 0] = total
        return out

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


def peak_magnitude(x) -> float:
    """max over every k of |DFT(x)_k| for real 1-D x, DC included."""
    x = _as_real_vector(x)
    plan = _rader_plan(x.shape)
    if plan is None:
        return float(np.abs(scipy.fft.fft(x)).max())
    h0, h = plan.hartley(x)
    return max(abs(float(h0)), float(plan.pair_magnitudes(h).max()))


def keep_above(z, threshold: float) -> np.ndarray:
    """ifft(hard_threshold(fft(z), threshold)).real for real 1-D z.

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
    h0, h = plan.hartley(z)
    pairs = h.reshape(2, -1)
    pairs *= np.where(plan.pair_magnitudes(h) <= threshold, 0.0, 1.0 / n)
    return plan.inverse_hartley(0.0 if abs(h0) <= threshold else h0 / n, h)
