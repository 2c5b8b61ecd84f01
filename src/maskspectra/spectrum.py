"""DFT spectra of real signals.

Convention: the forward transform uses the standard negative exponent,
coeffs[k] = sum_n x[n] exp(-2j*pi*k*n/N). Magnitudes are identical under
either sign convention, and magnitudes are all the bounds constrain.

For real input of prime length N, _RaderPlan computes the discrete Hartley
transform h_k = Re X_k - Im X_k = sum_n x[n] cas(2*pi*k*n/N), with
cas = cos + sin, as one real cyclic convolution of length N - 1 (Rader's
algorithm). It takes and returns data in Rader order, a fixed permutation
of samples and bins, so the DHT, which is its own inverse up to a factor
N, serves both directions; |X_k|^2 = (h_k^2 + h_-k^2) / 2. Where the plan
beats numpy's transform, transform_plan(N) returns it, and elsewhere one
plan that runs numpy.fft in natural order; no other module chooses
between the two. Both plans have the same four methods: to_order and
from_order move a length-N signal into and out of the plan's order,
analyze gives the spectrum and one magnitude per bin, and synthesize
keeps the bins whose magnitude is above a threshold and inverts them. An
iterative hard-thresholding loop so permutes its inputs once and its
result once instead of at every step, and a loop that already holds a
spectrum can skip either transform.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .masks import _prime_factors, is_prime

__all__ = ["transform_plan"]

# One analysis plus synthesis, timed at 110 primes from 101 to 39409 (2
# vCPUs): a Rader plan took 0.13-0.91 of numpy.fft's natural-order time at
# all 102 primes above _RADER_MIN_N, and 0.87-1.52x of it at the 8 below.
# Zero-padded to a 5-smooth length >= 2N - 3, the plan's convolution took
# 0.10-0.94 of the time it takes at length N - 1 at the 49 primes whose
# N - 1 has a prime factor above 137 (257 at 1543 and 131071, 683 at
# 4099), and lost or tied (0.9-2.2x) at the 49 whose largest factor is at
# most _RADER_SMOOTH_FACTOR (13 at 8191). Between the two, padding won at
# 9 of 12 primes.
_RADER_MIN_N = 256
_RADER_SMOOTH_FACTOR = 67


def _fast_length(n: int) -> int:
    """The least 5-smooth integer >= n: a length numpy.fft's real transform
    runs in radix-2, -3 and -5 passes alone."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p235 = p35
            while p235 < n:
                p235 *= 2
            best = min(best, p235)
            p35 *= 3
        p5 *= 5
    return best


class _RaderPlan:
    """Real DHT of prime length n as a real cyclic convolution of length n - 1.

    With g a generator of (Z/n)*, Rader order puts sample (or bin) 0 apart
    and sample g^-p at position p: ``order[0] = 0`` and
    ``order[1 + p] = g^-p mod n``. Bin g^-p of the DHT of x is
    x_0 + sum_q x_{g^q} cas(2 pi g^(q-p) / n), the cyclic convolution of the
    input in g^q order with the kernel cas(2 pi g^-r / n), whose rfft is
    precomputed. Input in Rader order is the input in g^q order reversed,
    so the transform maps Rader order to Rader order. Since
    g^((n-1)/2) = -1, bin -k sits (n-1)/2 positions after bin k. dht and
    magnitudes work along the last axis; the other methods take one
    length-n signal.

    Where n - 1 has a prime factor above _RADER_SMOOTH_FACTOR, the
    convolution runs zero-padded to a 5-smooth length L >= 2n - 3 against
    the kernel repeated, (kernel, kernel[:-1]): the first n - 1 outputs of
    that linear correlation are the cyclic ones.
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
        kernel = np.cos(angle) + np.sin(angle)
        if max(factors) <= _RADER_SMOOTH_FACTOR:
            self._size = m
        else:
            self._size = _fast_length(2 * m - 1)
            kernel = np.concatenate((kernel, kernel[:-1]))
        self._kernel = np.fft.rfft(kernel, self._size)

    def dht(self, v: np.ndarray) -> np.ndarray:
        """DHT of the Rader-ordered v, in Rader order.

        v[..., 0] is sample (or bin) 0. The DHT is its own inverse up to n:
        applied to its own output it gives n * v. The convolution wants the
        other n - 1 values x = v[..., 1:] in g^q order, x reversed, and for
        real x the rfft of the reversal is the conjugate of rfft(x).

        The kernel sums to exactly -1 (the DHT of a unit impulse at 0, less
        its bin 0), so x's mean is taken out before the convolution and
        enters as -mean. Convolved, a large mean would leave a rounding
        error of about 1e-16 (n - 1) times the mean in every output through
        a padded plan, and through a plain one a kernel sum that is off by
        about 3e-13 at n = 8191.
        """
        m = self.n - 1
        x0, x = v[..., 0], v[..., 1:]
        total = x.sum(axis=-1)
        mean = total / m
        y = np.fft.rfft(x - mean[..., None], self._size)
        np.conjugate(y, out=y)
        y *= self._kernel
        y[..., 0] = self._size * (x0 - mean)
        out = np.empty(v.shape)
        out[..., 0] = x0 + total
        out[..., 1:] = np.fft.irfft(y, self._size)[..., :m]
        return out

    def magnitudes(self, h: np.ndarray) -> np.ndarray:
        """|X| of every bin of the Rader-ordered DHT h: |h_0| at position 0,
        and sqrt((h_k^2 + h_-k^2) / 2) at both positions of each pair
        (k, -k), which sit (n-1)/2 apart."""
        half = (self.n - 1) // 2
        mags = np.square(h)
        pair = mags[..., 1 : half + 1]
        pair += mags[..., half + 1 :]
        pair *= 0.5
        np.sqrt(pair, out=pair)
        mags[..., half + 1 :] = pair
        mags[..., 0] = np.abs(h[..., 0])
        return mags

    def to_order(self, x: np.ndarray) -> np.ndarray:
        """The length-n signal x in Rader order."""
        return x[self.order]

    def from_order(self, x: np.ndarray) -> np.ndarray:
        """Inverse of to_order: x back in natural order."""
        out = np.empty_like(x)
        out[self.order] = x
        return out

    def analyze(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Hartley bins of the Rader-ordered z and their magnitudes, in
        Rader order; a pair (k, -k) shares one magnitude."""
        h = self.dht(z)
        return h, self.magnitudes(h)

    def synthesize(self, spectrum: np.ndarray, magnitudes: np.ndarray, threshold: float) -> np.ndarray:
        """The real signal, in Rader order, of the bins of analyze's output
        whose magnitude is strictly above the threshold. The pairs (k, -k),
        which share |X_k|, are kept or dropped together, and the kept
        Hartley bins are scaled by 1/n: their DHT is then the real inverse
        transform. Agrees with the natural-order plan at the ulp level. The
        spectrum is not modified, so it can serve again."""
        if not threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")
        kept = spectrum * np.where(magnitudes <= threshold, 0.0, 1.0 / self.n)
        kept[0] = 0.0 if magnitudes[0] <= threshold else spectrum[0] / self.n
        return self.dht(kept)


class _NaturalPlan:
    """numpy.fft in natural order, for every length without a Rader plan:
    the orders are the identity, and the spectrum is the complex DFT.
    Composed as from_order(synthesize(*analyze(to_order(z)), threshold)),
    either plan gives ifft(where(|fft(z)| > threshold, fft(z), 0)).real
    for real 1-D z."""

    def to_order(self, x: np.ndarray) -> np.ndarray:
        return x

    def from_order(self, x: np.ndarray) -> np.ndarray:
        return x

    def analyze(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeffs = np.fft.fft(z)
        return coeffs, np.abs(coeffs)

    def synthesize(self, spectrum: np.ndarray, magnitudes: np.ndarray, threshold: float) -> np.ndarray:
        if not threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")
        return np.ascontiguousarray(np.fft.ifft(np.where(magnitudes <= threshold, 0.0, spectrum)).real)


_NATURAL_PLAN = _NaturalPlan()


@lru_cache(maxsize=8)
def _cached_rader_plan(n: int) -> _RaderPlan:
    return _RaderPlan(n)


def transform_plan(n: int) -> _RaderPlan | _NaturalPlan:
    """The transform of real length-n signals and the order it works in:
    the cached Rader plan at primes above _RADER_MIN_N, where it beats
    numpy's transform, and the one natural-order plan elsewhere. Lengths
    without a Rader plan never reach the cache, so they cannot evict one.
    """
    if n > _RADER_MIN_N and is_prime(n):
        return _cached_rader_plan(n)
    return _NATURAL_PLAN
