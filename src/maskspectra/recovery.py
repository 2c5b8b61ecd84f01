"""Sparse recovery demo: iterative hard thresholding of a sampled band-limited
signal from a bound-derived threshold. The loop runs in spectrum's transform
order, so each step is one spectrum.keep_above_ordered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.fft

from .bounds import ratio_approximation, sigma_bound
from .masks import Mask, _as_index
from .spectrum import from_transform_order, hard_threshold, keep_above_ordered, peak_magnitude, to_transform_order

__all__ = [
    "SignalSpec",
    "RecoverySpec",
    "synthesize_signal",
    "random_band_signal",
    "sample_random",
    "hard_threshold",
    "snr_db",
    "default_initial_threshold",
    "recovery_step",
    "recover",
    "history_to_csv",
    "read_signal_csv",
    "write_signal_csv",
    "demo_signal_spec",
    "demo_signal_path",
]

@dataclass(frozen=True)
class SignalSpec:
    """A band-limited test signal: active DFT bins and their amplitudes.

    band/amplitudes must be conjugate-symmetric (bin n-k carries the
    conjugate of bin k) so the synthesized time signal is real.
    """

    n: int
    band: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("signal length must be positive")
        if len(self.band) != len(self.amplitudes):
            raise ValueError("band and amplitudes must have equal length")
        if any(not 0 <= k < self.n for k in self.band):
            raise ValueError("band indices must lie in [0, n-1]")
        if len(set(self.band)) != len(self.band):
            raise ValueError("band indices must be distinct")


def synthesize_signal(spec: SignalSpec) -> np.ndarray:
    """Inverse DFT of the banded spectrum; raises if the band is not symmetric."""
    coeffs = np.zeros(spec.n, dtype=np.complex128)
    for k, a in zip(spec.band, spec.amplitudes):
        coeffs[k] = a
    mirrored = np.conj(coeffs[(-np.arange(spec.n)) % spec.n])
    if not np.allclose(coeffs, mirrored, rtol=0.0, atol=1e-9 * (1.0 + np.abs(coeffs).max())):
        raise ValueError("band/amplitudes are not conjugate-symmetric; time signal would be complex")
    x = scipy.fft.ifft(coeffs)
    residue = float(np.abs(x.imag).max())
    if residue > 1e-9:
        raise ValueError(f"imaginary residue {residue:.3g} exceeds 1e-9")
    return np.ascontiguousarray(x.real)


def random_band_signal(n: int, pairs: int, seed: int = 0, dc: float = 0.0) -> SignalSpec:
    """Random conjugate-symmetric spec with ``pairs`` mirrored bin pairs.

    Bin positions are drawn from [1, n//2]; pair magnitudes lie in [1, 2).
    """
    pairs = _as_index(pairs, "pairs")
    if pairs < 1 or pairs > (n - 1) // 2:
        raise ValueError(f"pairs must lie in [1, {(n - 1) // 2}], got {pairs!r}")
    rng = np.random.Generator(np.random.Philox(key=_as_index(seed, "seed")))
    positions = 1 + rng.permutation(n // 2)[:pairs]
    band: list[int] = []
    amps: list[complex] = []
    if dc != 0.0:
        band.append(0)
        amps.append(complex(dc))
    for k in positions:
        a = (1.0 + rng.random()) * np.exp(2j * np.pi * rng.random())
        band.extend([int(k), int(n - k)])
        amps.extend([complex(a), complex(np.conj(a))])
    return SignalSpec(n=n, band=tuple(band), amplitudes=tuple(amps))


def sample_random(x, mask: Mask) -> np.ndarray:
    """Pointwise product of the signal with the mask bits."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.shape != mask.bits.shape:
        raise ValueError(f"signal length {arr.size} != mask length {mask.n}")
    return arr * mask.bits


def snr_db(reference, estimate) -> float:
    """10*log10(||ref||^2 / ||ref - est||^2); inf for an exact match, -inf
    for a zero reference and a nonzero error."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError(f"reference shape {ref.shape} != estimate shape {est.shape}")
    return _snr_db(float(np.sum(ref * ref)), ref, est)


def _snr_db(ref_energy: float, ref: np.ndarray, est: np.ndarray) -> float:
    """snr_db given ||ref||^2."""
    err = ref - est
    den = float(np.sum(np.square(err, out=err)))
    if den == 0.0:
        return math.inf
    if ref_energy == 0.0:
        return -math.inf
    return 10.0 * math.log10(ref_energy / den)


@dataclass(frozen=True)
class RecoverySpec:
    """Recovery loop parameters; t0=None derives the initial threshold
    from the mask-noise bounds (see default_initial_threshold)."""

    mask: Mask
    iterations: int = 50
    t0: float | None = None
    alpha: float = 0.1

    def __post_init__(self) -> None:
        iterations = _as_index(self.iterations, "iterations")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        object.__setattr__(self, "iterations", iterations)
        if self.t0 is not None and not self.t0 > 0.0:
            raise ValueError("t0 must be positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


def default_initial_threshold(xs, mask: Mask) -> float:
    """Initial threshold c * max|DFT(xs)| / p_hat with p_hat = n_p/n.

    c adds a 3-sigma margin of the mask spectrum (normalized by n_p) to the
    worst-case ratio approximation, placing T0 above the aliasing noise of
    every line in the sampled spectrum.
    """
    if mask.n_p == 0:
        raise ValueError("mask has empty support; nothing was sampled")
    p_hat = mask.n_p / mask.n
    c = ratio_approximation(mask.n, p_hat)
    if p_hat < 1.0:
        c += sigma_bound(mask.n, p_hat, 3) / mask.n_p
    peak = peak_magnitude(xs)
    if peak == 0.0:
        raise ValueError("sampled signal is identically zero")
    return c * peak / p_hat


def _ordered_step(xs: np.ndarray, free: np.ndarray, estimate: np.ndarray, threshold: float) -> np.ndarray:
    """recovery_step with every array in transform order and free = 1 - mask bits."""
    z = free * estimate
    z += xs
    return keep_above_ordered(z, threshold)


def recovery_step(xs: np.ndarray, mask: Mask, estimate: np.ndarray, threshold: float) -> np.ndarray:
    """One iteration: re-impose known samples, hard-threshold in frequency."""
    xs, free, estimate = (to_transform_order(a) for a in (xs, 1.0 - mask.bits, estimate))
    return from_transform_order(_ordered_step(xs, free, estimate, threshold))


def recover(
    xs,
    spec: RecoverySpec,
    reference=None,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Iterate hard-thresholded re-synthesis from the sampled signal.

    Starts from the zero estimate with threshold t0 * exp(-alpha * i) at
    iteration i. Returns the final estimate and the per-iteration history
    (iteration, threshold, snr_db); SNR entries are NaN unless a reference
    signal is supplied. The reference is for scoring only: the loop always
    runs all ``spec.iterations`` iterations, whatever the SNR does.

    Every iteration is recovery_step, run in spectrum's transform order:
    the samples, the free-sample weights and the reference are permuted
    into it once, and the final estimate back out of it. SNRs do not
    depend on the order.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.shape != spec.mask.bits.shape:
        raise ValueError(f"sampled signal length {xs.size} != mask length {spec.mask.n}")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != xs.shape:
            raise ValueError(f"reference shape {reference.shape} != sampled signal shape {xs.shape}")
        reference = to_transform_order(reference)
        ref_energy = float(np.sum(reference * reference))
    t0 = spec.t0 if spec.t0 is not None else default_initial_threshold(xs, spec.mask)
    free = to_transform_order(1.0 - spec.mask.bits)
    xs = to_transform_order(xs)
    estimate = np.zeros_like(xs)
    history: list[tuple[int, float, float]] = []
    for i in range(spec.iterations):
        threshold = t0 * math.exp(-spec.alpha * i)
        estimate = _ordered_step(xs, free, estimate, threshold)
        snr = _snr_db(ref_energy, reference, estimate) if reference is not None else math.nan
        history.append((i, threshold, snr))
    return from_transform_order(estimate), history


def history_to_csv(history) -> str:
    lines = ["iteration,threshold,snr_db"]
    for i, threshold, snr in history:
        lines.append(f"{i},{threshold:.9g},{snr:.9g}")
    return "\n".join(lines) + "\n"


def read_signal_csv(path) -> np.ndarray:
    """Signal fixture: one 'index,value' pair per line, indices 0..n-1.

    Blank lines are skipped; any other malformed line (an index that is
    not an integer, a field too many or too few, a comment) raises
    ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty signal fixture: {path}")
    # Every column is parsed: loadtxt would drop a third field if told to
    # read only the first two.
    rows = np.loadtxt(
        lines, delimiter=",", comments=None, ndmin=1,
        dtype=[("index", np.int64), ("value", np.float64)],
    )
    if not np.array_equal(np.sort(rows["index"]), np.arange(rows.size)):
        raise ValueError(f"signal fixture indices must be 0..n-1 without gaps: {path}")
    x = np.empty(rows.size, dtype=np.float64)
    x[rows["index"]] = rows["value"]
    if not np.isfinite(x).all():
        raise ValueError(f"signal fixture values must be finite: {path}")
    return x


def write_signal_csv(path, x) -> None:
    arr = np.asarray(x, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, v in enumerate(arr):
            fh.write(f"{i},{float(v)!r}\n")


def demo_signal_spec() -> SignalSpec:
    """The bundled demo signal: 5 active bins (DC plus two mirrored pairs),
    on-band magnitudes between 10 and 40, length 127."""
    a1 = 15.0 * complex(math.cos(0.7), math.sin(0.7))
    a2 = 10.0 * complex(math.cos(-1.1), math.sin(-1.1))
    return SignalSpec(
        n=127,
        band=(0, 1, 2, 125, 126),
        amplitudes=(40.0 + 0.0j, a1, a2, a2.conjugate(), a1.conjugate()),
    )


def demo_signal_path() -> Path:
    """Path of the bundled band-limited fixture CSV."""
    return Path(resources.files("maskspectra").joinpath("data/bandlimited_n127.csv"))
