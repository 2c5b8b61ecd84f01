"""DFT spectra of masks and real signals.

Convention: the forward transform uses the standard negative exponent,
coeffs[k] = sum_n x[n] exp(-2j*pi*k*n/N). Magnitudes are identical under
either sign convention, and magnitudes are all the bounds constrain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .masks import Mask

__all__ = ["Spectrum", "dft_direct", "dft_fast", "spectrum_of_mask", "max_nonzero_bin"]

_DIRECT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT coefficients; ``source_n_p`` is set when a mask was transformed."""

    coeffs: np.ndarray
    source_n_p: int | None = None

    def __post_init__(self) -> None:
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("spectrum coefficients must be a nonempty 1-D array")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return int(self.coeffs.size)


def _as_real_vector(x) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("input must be a nonempty 1-D real sequence")
    return arr


def dft_direct(x) -> Spectrum:
    """O(N^2) reference transform, evaluated blockwise.

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
    return Spectrum(coeffs)


def dft_fast(x) -> Spectrum:
    """O(N log N) transform for any length, including primes.

    Backed by scipy's pocketfft, which falls back to Bluestein's chirp-z
    algorithm for large prime factors; agrees with dft_direct to ~1e-13
    relative in the infinity norm.
    """
    arr = _as_real_vector(x)
    return Spectrum(scipy.fft.fft(arr))


def spectrum_of_mask(mask: Mask, fast: bool = True) -> Spectrum:
    """Transform a mask, recording its support size on the spectrum."""
    bits = mask.bits.astype(np.float64)
    coeffs = scipy.fft.fft(bits) if fast else dft_direct(bits).coeffs
    return Spectrum(coeffs, source_n_p=mask.n_p)


def max_nonzero_bin(s: Spectrum) -> tuple[int, float]:
    """Largest magnitude over bins k = 1..N-1 and its smallest attaining index."""
    if s.n < 2:
        raise ValueError("spectrum must have at least 2 bins")
    mags = np.abs(s.coeffs[1:])
    k = int(np.argmax(mags))  # first occurrence: smallest k wins ties
    return k + 1, float(mags[k])
