"""Test-only oracles: slower, independent routes to quantities the package
computes in closed form or in batches, and the per-trial path the Monte
Carlo kernel is checked against."""

import math
from functools import lru_cache

import numpy as np

from maskspectra.montecarlo import RunningStats
from maskspectra.recovery import _relative_norm, _snr_db

_DIRECT_BLOCK_ROWS = 256
_LAW_CHUNK_MASKS = 1 << 15


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


def dft_direct(x) -> np.ndarray:
    """O(N^2) reference transform, evaluated blockwise: the oracle for the
    numpy.fft and Rader transforms.

    Twiddle phases are reduced with (k*n) mod N before scaling so the
    arguments passed to exp stay in [0, 2*pi).
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("input must be a nonempty 1-D real sequence")
    n = arr.size
    idx = np.arange(n, dtype=np.int64)
    coeffs = np.empty(n, dtype=np.complex128)
    for start in range(0, n, _DIRECT_BLOCK_ROWS):
        k = idx[start : start + _DIRECT_BLOCK_ROWS]
        phase = (k[:, None] * idx[None, :]) % n
        kernel = np.exp((-2j * np.pi / n) * phase)
        coeffs[start : start + _DIRECT_BLOCK_ROWS] = kernel @ arr
    return coeffs


def oracle_mask(n: int, p: float, seed: int, t: int) -> np.ndarray:
    """The length-n, rate-p mask of trial t from a Philox built for it with
    the 128-bit key (seed << 64) + t: the keying that the package's one
    re-keyed generator must reproduce for generate_mask(n, p, seed, t)."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
    return rng.random(n) < p


def worst_case_mask(n: int, n_p: int) -> np.ndarray:
    """The length-n bool row with n_p ones in a contiguous block at the
    origin. Among all masks with n_p ones at prime n, this arrangement
    maximizes the peak off-center DFT magnitude (bounds.worst_case_bound)."""
    return np.arange(n) < n_p


@lru_cache(maxsize=2)
def exact_peak_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Peak max_{k!=0} |A_k| and weight (count of ones) of every one of the
    2^n masks of length n, enumerated in chunks: mask m holds bit i of m at
    position i. Under rate p, mask m has probability p^w (1-p)^(n-w) for
    its weight w, so the two arrays give the exact law of any per-trial
    statistic of the Monte Carlo engine at that length."""
    count = 1 << n
    peaks, weights = np.empty(count), np.empty(count, dtype=np.int64)
    positions = np.arange(n)
    for start in range(0, count, _LAW_CHUNK_MASKS):
        codes = np.arange(start, min(start + _LAW_CHUNK_MASKS, count))
        bits = ((codes[:, None] >> positions) & 1).astype(np.float64)
        # bins 1..n//2: |A_{n-k}| = |A_k| for a real mask
        peaks[codes] = np.abs(np.fft.rfft(bits, axis=1)[:, 1:]).max(axis=1)
        weights[codes] = bits.sum(axis=1)
    return peaks, weights


def spectrum_of_mask(mask) -> np.ndarray:
    """Complex DFT coefficients of a 0/1 mask row."""
    return np.fft.fft(np.asarray(mask, dtype=np.float64))


def max_nonzero_bin(coeffs) -> tuple[int, float]:
    """Largest magnitude over bins k = 1..N-1 and its smallest attaining index."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError("spectrum must be a 1-D array of at least 2 bins")
    mags = np.abs(coeffs[1:])
    k = int(np.argmax(mags))  # first occurrence: smallest k wins ties
    return k + 1, float(mags[k])


def hard_threshold(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    """Keep coefficients with magnitude strictly above the threshold."""
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    out = np.array(coeffs, dtype=np.complex128)
    out[np.abs(out) <= threshold] = 0.0
    return out


def push(stats: RunningStats, x: float) -> None:
    """Add one value to the aggregate (Welford's update)."""
    stats.count += 1
    delta = x - stats.mean
    stats.mean += delta / stats.count
    stats._m2 += delta * (x - stats.mean)
    if x < stats.min:
        stats.min = x
    if x > stats.max:
        stats.max = x


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = erfc(x/sqrt(2))/2."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def snr_db(reference, estimate) -> float:
    """10*log10(||ref||^2 / ||ref - est||^2); inf for an exact match, -inf
    for a zero reference and a nonzero error."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError(f"reference shape {ref.shape} != estimate shape {est.shape}")
    return _snr_db(float(np.sum(ref * ref)), ref, est)


def sampled_residual(xs, mask, estimate) -> float:
    """||mask * estimate - xs|| / ||xs||, the estimate's relative misfit on
    the sampled positions; it needs no reference signal. 0/0 counts as 0."""
    xs = np.asarray(xs, dtype=np.float64)
    return _relative_norm(mask * np.asarray(estimate, dtype=np.float64) - xs, float(np.linalg.norm(xs)))


def demo_signal_spec() -> np.ndarray:
    """The bundled demo signal's spectrum: 5 active bins (DC plus two
    mirrored pairs), on-band magnitudes between 10 and 40, length 127."""
    a1 = 15.0 * complex(math.cos(0.7), math.sin(0.7))
    a2 = 10.0 * complex(math.cos(-1.1), math.sin(-1.1))
    coeffs = np.zeros(127, dtype=np.complex128)
    coeffs[[0, 1, 2, 125, 126]] = (40.0, a1, a2, a2.conjugate(), a1.conjugate())
    return coeffs
