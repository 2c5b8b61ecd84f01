"""Sparse recovery demo: iterative hard thresholding of a band-limited
signal from the samples a mask keeps, with the threshold the mask-noise
bounds set decaying by exp(-0.1) per iteration and the step min(N/n_p, 2),
stopped once the estimate matches the samples. recover samples its input
itself, so it takes the whole signal or its samples alike. It is the only
thresholding step: it fetches spectrum.transform_plan(N) once, runs in
that plan's order and calls its analyze and synthesize apart, so that no
step transforms what is already transformed.
"""
from __future__ import annotations

import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .bounds import ratio_approximation, sigma_bound
from .masks import _MAX_LENGTH, _integer, _real
from .spectrum import transform_plan

__all__ = [
    "synthesize_signal",
    "random_band_signal",
    "recover",
    "read_signal_csv",
    "write_signal_csv",
    "demo_signal_path",
]

def synthesize_signal(coeffs) -> np.ndarray:
    """The real signal whose length-n DFT is ``coeffs``, a spectrum in
    which bin n-k holds the conjugate of bin k. A spectrum that is not
    1-D, empty, not finite or not conjugate-symmetric raises ValueError
    before any transform."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 1 or coeffs.size == 0 or not np.isfinite(coeffs).all():
        raise ValueError("spectrum must be a non-empty 1-D array of finite values")
    mirrored = np.conj(coeffs[(-np.arange(coeffs.size)) % coeffs.size])
    if not np.allclose(coeffs, mirrored, rtol=0.0, atol=1e-9 * (1.0 + np.abs(coeffs).max())):
        raise ValueError("spectrum is not conjugate-symmetric; time signal would be complex")
    x = np.fft.ifft(coeffs)
    residue = float(np.abs(x.imag).max())
    if residue > 1e-9:
        raise ValueError(f"imaginary residue {residue:.3g} exceeds 1e-9")
    return np.ascontiguousarray(x.real)


def random_band_signal(n: int, pairs: int, seed: int = 0) -> np.ndarray:
    """Random length-n spectrum with ``pairs`` mirrored bin pairs, zero
    elsewhere: bin n-k holds the conjugate of bin k.

    Bin positions are drawn from [1, (n-1)//2], so no pair holds the
    Nyquist bin n/2 of an even n, its own mirror; pair magnitudes lie in
    [1, 2).
    """
    n = _integer(n, "n", 2, _MAX_LENGTH)
    pairs = _integer(pairs, "pairs", 1, (n - 1) // 2)
    rng = np.random.Generator(np.random.Philox(key=_integer(seed, "seed", 0, (1 << 128) - 1)))
    coeffs = np.zeros(n, dtype=np.complex128)
    for k in 1 + rng.permutation((n - 1) // 2)[:pairs]:
        a = (1.0 + rng.random()) * np.exp(2j * np.pi * rng.random())
        coeffs[k], coeffs[n - k] = a, np.conj(a)
    return coeffs


def _snr_db(ref_energy: float, ref: np.ndarray, est: np.ndarray) -> float:
    """10*log10(||ref||^2 / ||ref - est||^2) given ref_energy = ||ref||^2;
    inf for an exact match, -inf for a zero reference and a nonzero error."""
    err = ref - est
    den = float(np.sum(np.square(err, out=err)))
    if den == 0.0:
        return math.inf
    if ref_energy == 0.0:
        return -math.inf
    return 10.0 * math.log10(ref_energy / den)


def _step_size(n: int, n_p: int) -> float:
    """The recovery step min(N/n_p, 2) for a length-n mask with n_p ones:
    the inverse of the sampling rate, 1 under full sampling, capped at 2.
    Once the threshold keeps every bin, a step multiplies the misfit on the
    sampled positions by 1 - step, so a larger one diverges."""
    if n_p == 0:
        raise ValueError("mask has empty support; nothing was sampled")
    return min(n / n_p, 2.0)


def _initial_threshold(n: int, n_p: int, peak: float) -> float:
    """Initial threshold c * peak / p_hat for the samples xs of a length-n
    mask with n_p >= 1 ones, with peak = max|DFT(xs)| and p_hat = n_p/n.

    c adds a 3-sigma margin of the mask spectrum (normalized by n_p) to the
    worst-case ratio approximation, placing T0 above the aliasing noise of
    every line in the sampled spectrum.
    """
    p_hat = n_p / n
    c = ratio_approximation(n, p_hat)
    if p_hat < 1.0:
        c += sigma_bound(n, p_hat, 3) / n_p
    if peak == 0.0:
        raise ValueError("sampled signal is identically zero")
    return c * peak / p_hat


# iteration i thresholds at _initial_threshold(...) * exp(-_THRESHOLD_DECAY * i)
_THRESHOLD_DECAY = 0.1


def _relative_norm(v: np.ndarray, scale: float) -> float:
    """||v|| / scale, with 0/0 = 0."""
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    return norm / scale if scale > 0.0 else math.inf


def recover(
    x,
    mask,
    *,
    iterations: int = 50,
    tol: float = 1e-6,
    reference=None,
) -> tuple[np.ndarray, list[tuple[int, float, float, float, int]]]:
    """Iterate hard-thresholded re-synthesis from the samples xs = M x of
    the signal x that the mask M keeps.

    The mask is a 1-D row of 0s and 1s of x's length, bool or numeric;
    any other value (2, 1.7, NaN) raises ValueError before any transform.
    x may be the whole signal or its samples: recover multiplies it by
    the mask itself, so both give the same bytes. Starts from the
    zero estimate with threshold t0 * exp(-0.1 * i) at iteration i, where
    t0 derives from the mask-noise bounds (see _initial_threshold). Every
    iteration steps towards the known samples, z = e + lam (xs - M e) for
    the estimate e, then keeps the bins of z above the threshold. The step
    lam = min(N/n_p, 2) scales the misfit on the sampled positions by the
    inverse of the sampling rate, capped at 2 (see _step_size), so the
    mask must sample something; under full sampling lam = 1 and z
    re-imposes the samples. Returns the final estimate and the
    per-iteration history (iteration, threshold, snr_db, residual, kept):
    snr_db is NaN unless a reference signal is supplied, residual is r_i
    below, and kept counts the DFT bins above the threshold. The reference
    is for scoring only and never stops the loop.

    The loop stops after iteration i once r_i, the residual
    ||M e_i - xs|| / ||xs|| of the estimate e_i on the sampled positions
    (0/0 counts as 0), is at most tol, and after ``iterations`` iterations
    at the latest; tol = 0 runs them all. The stop changes no iterate, so
    the history is a prefix of the history with tol = 0.

    The loop runs in the order of spectrum.transform_plan(N), fetched once:
    the weights 1 - lam M, the scaled samples lam xs and the reference are
    permuted into it once, and the final estimate back out of it. SNRs do
    not depend on the order. The step's input z = (1 - lam M) e + lam xs
    is lam xs while the estimate is zero, so xs is transformed once, for
    t0 and, scaled by lam, for every such step; a step that keeps no bin
    skips the inverse transform. With z formed,
    r_i = ||e_i - z_(i+1)|| / (lam ||xs||).
    """
    mask = np.asarray(mask)
    # checked before the bool cast, which would read 2, 1.7 and NaN as 1
    if mask.ndim != 1 or not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask must be a 1-D row of 0s and 1s")
    mask = mask.astype(bool)
    n, n_p = mask.size, int(np.count_nonzero(mask))
    step = _step_size(n, n_p)  # rejects an empty mask
    iterations = _integer(iterations, "iterations", 1)
    tol = _real(tol, "tol", "[0, inf)")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != mask.shape:
        raise ValueError(f"signal length {x.size} != mask length {n}")
    # checked before sampling, where an unsampled NaN would spoil its zero
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != x.shape:
            raise ValueError(f"reference shape {reference.shape} != signal shape {x.shape}")
        if not np.isfinite(reference).all():
            raise ValueError("reference signal must be finite")
    plan = transform_plan(n)
    if reference is not None:
        reference = plan.to_order(reference)
        ref_energy = float(np.sum(reference * reference))
    weights = plan.to_order(1.0 - step * mask)
    xs = plan.to_order(x * mask)
    coeffs, magnitudes = plan.analyze(xs)
    t0 = _initial_threshold(n, n_p, float(magnitudes.max()))
    # the step's input and its spectrum while the estimate is zero
    drive, sampled = step * xs, (step * coeffs, step * magnitudes)
    scale = step * float(np.linalg.norm(xs))
    zero = np.zeros_like(xs)
    estimate, z = zero, drive
    history: list[tuple[int, float, float, float, int]] = []
    for i in range(iterations):
        threshold = t0 * math.exp(-_THRESHOLD_DECAY * i)
        coeffs, magnitudes = sampled if z is drive else plan.analyze(z)
        kept = int(np.count_nonzero(magnitudes > threshold))
        if kept:
            estimate = plan.synthesize(coeffs, magnitudes, threshold)
            z = weights * estimate
            z += drive
        else:
            estimate, z = zero, drive
        snr = _snr_db(ref_energy, reference, estimate) if reference is not None else math.nan
        residual = _relative_norm(estimate - z, scale)
        history.append((i, threshold, snr, residual, kept))
        if tol > 0.0 and residual <= tol:
            break
    return plan.from_order(estimate), history


def read_signal_csv(path) -> np.ndarray:
    """Signal fixture: one 'index,value' pair per line, indices 0..n-1.

    Blank lines are skipped; any other malformed line (an index that is
    not an integer, a field too many or too few, a comment) raises
    ValueError naming its line in the file. Any line ending (LF, CRLF, CR)
    is accepted, and so is a leading UTF-8 byte order mark.
    """
    with warnings.catch_warnings():
        # a file without data rows parses to no rows with a warning; rejected below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = _load_signal_rows(path)
        except ValueError:
            # loadtxt rejects whitespace-only lines, and numbers its errors
            # by data row, not by line
            rows = _load_signal_lines(path)
    if rows.size == 0:
        raise ValueError(f"empty signal fixture: {path}")
    if not np.array_equal(np.sort(rows["index"]), np.arange(rows.size)):
        raise ValueError(f"signal fixture indices must be 0..n-1 without gaps: {path}")
    x = np.empty(rows.size, dtype=np.float64)
    x[rows["index"]] = rows["value"]
    if not np.isfinite(x).all():
        raise ValueError(f"signal fixture values must be finite: {path}")
    return x


def _load_signal_lines(path) -> np.ndarray:
    """_load_signal_rows on the file's lines that are not blank; a line
    that does not parse is named by its number in the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        numbered = [(i, line) for i, line in enumerate(fh.read().splitlines(), 1) if line.strip()]
    try:
        return _load_signal_rows([line for _, line in numbered])
    except ValueError as exc:
        for i, line in numbered:
            try:
                _load_signal_rows([line])
            except ValueError:
                raise ValueError(f"{path}: line {i} is not an 'index,value' pair: {line!r}") from exc
        raise


def _load_signal_rows(source) -> np.ndarray:
    """(index, value) rows of a fixture path or a list of its lines."""
    # Every column is parsed: loadtxt would drop a third field if told to
    # read only the first two.
    return np.loadtxt(
        source, delimiter=",", comments=None, ndmin=1, encoding="utf-8-sig",
        dtype=[("index", np.int64), ("value", np.float64)],
    )


def write_signal_csv(path, x) -> None:
    """Write ``x`` as the fixture ``read_signal_csv`` reads; input it would
    reject (not 1-D, empty, not finite) raises ValueError before opening."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
        raise ValueError("signal must be a non-empty 1-D array of finite values")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, v in enumerate(arr):
            fh.write(f"{i},{float(v)!r}\n")


def demo_signal_path() -> Path:
    """Path of the bundled band-limited fixture CSV."""
    return Path(resources.files("maskspectra").joinpath("data/bandlimited_n127.csv"))
