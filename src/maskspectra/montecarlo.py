"""Monte Carlo validation of the bounds: streaming trial statistics,
reference-table and figure-curve generation.

One engine serves every runner: the chunk kernel ``_run_chunk`` reduces
each trial's off-center DFT magnitudes to per-trial statistics and to a
per-bin max, and the driver ``_run`` takes a list of experiments, runs
all their chunks through one task list, in-process or in one pool, and
merges each experiment's chunks. ``run_experiment`` runs one experiment
and keeps its statistics; ``table1_report`` and ``figure_curves`` run all
their rows in one call, and ``noise_ratio_curves`` all its rates, keeping
the per-bin max. So a CLI call opens at most one pool.

A mask is ``u < p`` with uniforms ``u`` that depend on (seed, t) alone,
so experiments that share (N, seed, trials) differ only in their rate
and thresholds. The driver gives them one task per chunk carrying all
their rates, and the kernel draws each trial's uniforms once and
thresholds them at every rate; the rest of the kernel runs once per
rate. An experiment alone is a task with one rate, and so is each rate
of a group whose task would outweigh a worker's share of the call (at
600 trials, table1's N = 131071 rows would otherwise leave one of two
workers a 512-trial task at three rates and the other an 88-trial one).

The kernel works through its chunk in blocks of ``_BLOCK_ELEMS // N``
trials, rounded down to an even count and at least two, so a block holds
about ``_BLOCK_ELEMS`` mask elements whatever N is. One Philox generator
per chunk is re-keyed for each trial and draws into a preallocated
(block, N) array; its state is a dict built once per chunk with every
word a plain int, and only the key changes between trials. Masks are
real, so two of them share one complex transform: trial 2j goes in the
real part and trial 2j + 1 in the imaginary part of one row, and one FFT
of shape (block/2, N) serves the whole block. With Z that transform,
|A_k| = |Z_k + conj Z_{N-k}| / 2 and |B_k| = |Z_k - conj Z_{N-k}| / 2 are
unpacked for k = 1..N//2 only; the other half mirrors them exactly, and
the bin sum counts every bin twice except the Nyquist bin of even N.
Per rate, each trial's peak, bin mean and n_p go into three chunk-length
arrays in trial order, and each array becomes one ``RunningStats`` by
array reductions at the end of the chunk (``RunningStats.from_values``).
A pool receives the tasks in batches sized by work: at most a quarter of
a worker's share of the tasks and about ``_BATCH_ELEMS`` mask elements,
counted by the largest task as trials times N times rates, so at
N = 1543 each task is its own batch and an N = 131071 task never shares
one. Results come back in task order.

Determinism contract: trial t is always transformed together with trial
t ^ 1 (a chunk that starts or ends inside a pair draws the partner and
discards it), and per-trial RNG streams are keyed by trial index, so
every per-trial value is a pure function of (seed, t), whatever the chunk
boundaries, block size, trial count or worker count. Chunks are fixed
runs of ``_CHUNK_TRIALS`` trials, independent of the worker count, and
are merged in order (Chan et al.), so any worker count and any block
size give bit-identical results; the per-bin max, the exceedance counts
and the per-trial extremes are bit-identical under any other chunking
too.

The per-trial path ``generate_mask`` -> ``spectrum_of_mask`` takes one
real transform per mask and stays public as the reference the tests
compare against. The kernel agrees with it to 1e-12 relative (and
1e-12 * N absolute), not bit for bit, because the packed transform
rounds differently.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import bounds
from .masks import MaskConfig, _as_index, _trial_key

__all__ = [
    "RunningStats",
    "ExperimentSpec",
    "TrialStats",
    "run_experiment",
    "exceedance_rate",
    "table1_report",
    "figure_curves",
    "noise_ratio_curves",
    "records_to_csv",
    "records_to_json",
    "TABLE1_ROWS",
    "TABLE1_COLUMNS",
    "FIGURE_COLUMNS",
]

_CHUNK_TRIALS = 512
_BLOCK_ELEMS = 1 << 16  # mask elements per block: 512 KB of uniforms, 512 KB of packed transform
_BATCH_ELEMS = 1 << 20  # mask elements times rates per pool batch: one N = 1543 chunk, 16 chunks at N = 127

# Reference grid: (N, p) pairs of the comparison table. The mask length of
# the middle three rows is 1543 throughout (their printed support sizes
# 772/1235/155 only make sense for that length).
TABLE1_ROWS: tuple[tuple[int, float], ...] = (
    (127, 0.5),
    (127, 0.8),
    (127, 0.1),
    (1543, 0.5),
    (1543, 0.8),
    (1543, 0.1),
    (131071, 0.5),
    (131071, 0.8),
    (131071, 0.1),
)
_LARGE_N = 65536  # table1_report runs large_n_trials trials on rows at or above this N

TABLE1_COLUMNS = ("N", "p", "n_p", "sim_max_mean", "sim_global_max", "sim_ratio", "bound_worst", "bound_ratio")
FIGURE_COLUMNS = ("N", "sim_max_mean", "sim_global_max", "mean_abs", "gaussian_T", "sigma3", "sigma4", "worst_case")


class RunningStats:
    """Mergeable streaming aggregate: count, mean, variance, min, max."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RunningStats":
        """The aggregate of a 1-D float64 array, by array reductions.

        The mean is clamped to [min, max]: the rounded ``values.mean()`` can
        fall outside that range (``np.full(3, 0.1).mean() > 0.1``), and with
        the clamp, constant data has a variance of exactly 0.
        """
        stats = cls()
        if values.size:
            stats.count = int(values.size)
            stats.min, stats.max = float(values.min()), float(values.max())
            stats.mean = min(max(float(values.mean()), stats.min), stats.max)
            deviations = values - stats.mean
            stats._m2 = float((deviations * deviations).sum())
        return stats

    def merge(self, other: "RunningStats") -> None:
        """Combine with another aggregate (Chan et al. update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            self.min, self.max = other.min, other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunningStats):
            return NotImplemented
        return (self.count, self.mean, self._m2, self.min, self.max) == (
            other.count,
            other.mean,
            other._m2,
            other.min,
            other.max,
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation campaign: mask parameters, trial count, thresholds."""

    config: MaskConfig
    trials: int
    thresholds: tuple[tuple[str, float], ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        trials = _as_index(self.trials, "trials")
        # trial indices key the RNG and must fit its 64-bit key word
        if not 1 <= trials <= 1 << 64:
            raise ValueError(f"trials must lie in [1, 2**64], got {self.trials!r}")
        workers = _as_index(self.workers, "workers")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "workers", workers)
        labels = [label for label, _ in self.thresholds]
        if len(set(labels)) != len(labels):
            raise ValueError("threshold labels must be unique")


@dataclass
class TrialStats:
    """Streaming aggregates over trials of per-trial spectral maxima."""

    trials: int = 0
    per_trial_max: RunningStats = field(default_factory=RunningStats)
    mean_abs: RunningStats = field(default_factory=RunningStats)
    n_p_stats: RunningStats = field(default_factory=RunningStats)
    exceedance_counts: dict[str, int] = field(default_factory=dict)

    @property
    def global_max(self) -> float:
        return self.per_trial_max.max if self.trials else 0.0

    @property
    def mean_abs_coeff(self) -> float:
        """Mean of |A_k| over all k != 0 and all trials.

        Every trial contributes the same number of bins, so this equals the
        mean over trials of the per-trial bin means.
        """
        return self.mean_abs.mean

    def merge(self, other: "TrialStats") -> None:
        self.trials += other.trials
        self.per_trial_max.merge(other.per_trial_max)
        self.mean_abs.merge(other.mean_abs)
        self.n_p_stats.merge(other.n_p_stats)
        for label, count in other.exceedance_counts.items():
            self.exceedance_counts[label] = self.exceedance_counts.get(label, 0) + count

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "per_trial_max": self.per_trial_max.to_dict(),
            "global_max": self.global_max,
            "mean_abs_coeff": self.mean_abs_coeff,
            "exceedance_counts": dict(self.exceedance_counts),
            "n_p_stats": self.n_p_stats.to_dict(),
        }


def _run_chunk(args: tuple) -> list[tuple[TrialStats, np.ndarray]]:
    """Trials [start, stop) of one (N, seed) at every rate of ``rates``,
    ``((p, thresholds), ...)``; returns one (stats, per-bin max) per rate.

    Each trial's uniforms are drawn once and thresholded at every rate.
    """
    n, seed, start, stop, rates = args
    half = n // 2  # bins k = 1..N//2; |A_{N-k}| = |A_k| for real masks
    half_max = np.zeros((len(rates), half))
    values = np.empty((len(rates), 3, stop - start))  # per rate: peak, bin mean, n_p of each trial
    # trial t is always transformed with trial t ^ 1, so a chunk that starts
    # or ends inside a pair draws the missing partner and discards it
    first, end = start & ~1, (stop + 1) & ~1
    rows = min(end - first, max(2, (_BLOCK_ELEMS // n) & ~1))
    uniforms = np.empty((rows, n))
    # every rate but the last writes its 0/1 mask into a second buffer, so
    # the uniforms survive for the next rate; the last one overwrites them
    targets = [np.empty((rows, n))] * (len(rates) - 1) + [uniforms]
    packed = np.empty((rows // 2, n), dtype=np.complex128)
    mags = np.empty((rows // 2, 2, half))
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    # a freshly keyed stream (counter 0, empty buffer) with every word a
    # plain int, which the state setter reads far faster than numpy arrays;
    # only the key changes from trial to trial
    fresh = bit_gen.state
    state = {**fresh, "state": {k: v.tolist() for k, v in fresh["state"].items()}, "buffer": fresh["buffer"].tolist()}
    words = state["state"]
    for lo in range(first, end, rows):
        hi = min(lo + rows, end)
        block = uniforms[: hi - lo]
        for t, row in enumerate(block, lo):
            words["key"] = _trial_key(seed, t)
            bit_gen.state = state
            gen.random(out=row)
        pairs = packed[: len(block) // 2]
        block_mags = mags[: len(pairs)]
        lo_keep, hi_keep = max(start, lo), min(stop, hi)
        keep = slice(lo_keep - lo, hi_keep - lo)
        out = slice(lo_keep - start, hi_keep - start)
        half_mags = block_mags.reshape(len(block), half)[keep]
        for (p, _), target, (peaks, means, n_ps), rate_max in zip(rates, targets, values, half_max):
            bits = target[: len(block)]
            np.less(block, p, out=bits)
            pairs.real = bits[0::2]
            pairs.imag = bits[1::2]
            z = scipy.fft.fft(pairs, axis=-1, overwrite_x=True)  # in place
            # A_k = (Z_k + conj Z_{N-k}) / 2 and B_k = (Z_k - conj Z_{N-k}) / 2i
            z_k = z[:, 1 : half + 1]
            z_mirror = np.conj(z[:, n - 1 : n - half - 1 : -1])
            np.abs(z_k + z_mirror, out=block_mags[:, 0])
            np.abs(z_k - z_mirror, out=block_mags[:, 1])
            block_mags *= 0.5
            half_mags.max(axis=1, out=peaks[out])
            sums = 2.0 * half_mags.sum(axis=1)
            if n % 2 == 0:
                sums -= half_mags[:, -1]  # the Nyquist bin is its own mirror
            np.divide(sums, n - 1, out=means[out])
            bits[keep].sum(axis=1, out=n_ps[out])  # exact: a sum of 0s and 1s
            np.maximum(rate_max, half_mags.max(axis=0), out=rate_max)
    results = []
    for (_, thresholds), (peaks, means, n_ps), rate_max in zip(rates, values, half_max):
        stats = TrialStats(
            trials=stop - start,
            per_trial_max=RunningStats.from_values(peaks),
            mean_abs=RunningStats.from_values(means),
            n_p_stats=RunningStats.from_values(n_ps),
            # strict exceedance
            exceedance_counts={label: int(np.count_nonzero(peaks > value)) for label, value in thresholds},
        )
        results.append((stats, np.concatenate((rate_max, rate_max[: n - 1 - half][::-1]))))
    return results


def _run(specs) -> list[tuple[TrialStats, np.ndarray]]:
    """Run every chunk of every spec through one task list and merge each
    spec's chunks in chunk order; returns one (stats, per-bin max) per spec.

    Specs that share (N, seed, trials) differ only in their rate and
    thresholds, so they share one task per chunk and one draw per trial:
    the task carries all their rates. Where such a task would hold more
    mask elements than a worker's share of the call, each rate gets its own
    tasks instead; either way every bit of the result is the same. One pool
    serves the whole call, with at most the largest worker count any spec
    asks for and at most one worker per task and per CPU; one worker runs
    in-process. A pool receives the tasks in batches of at most
    ``len(tasks) // (4 * workers)`` tasks and about ``_BATCH_ELEMS`` mask
    elements, counted by the largest task as its trials times N times its
    rate count.
    """
    workers = min(max(spec.workers for spec in specs), os.cpu_count() or 1)
    share = sum(spec.trials * spec.config.n for spec in specs) / workers  # mask elements per worker
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.config.n, spec.config.seed, spec.trials), []).append(i)
    tasks, owners = [], []
    for (n, seed, trials), members in groups.items():
        # a task that outweighs a worker's share leaves the other workers idle
        parts = [[i] for i in members] if min(trials, _CHUNK_TRIALS) * n * len(members) > share else [members]
        for part in parts:
            rates = tuple((specs[i].config.p, specs[i].thresholds) for i in part)
            for start in range(0, trials, _CHUNK_TRIALS):
                tasks.append((n, seed, start, min(start + _CHUNK_TRIALS, trials), rates))
                owners.append(part)
    totals = [
        (TrialStats(exceedance_counts={label: 0 for label, _ in spec.thresholds}), np.zeros(spec.config.n - 1))
        for spec in specs
    ]
    workers = min(workers, len(tasks))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            largest = max((stop - start) * n * len(rates) for n, _, start, stop, rates in tasks)
            batch = max(1, min(len(tasks) // (4 * workers), _BATCH_ELEMS // largest))
            results = pool.map(_run_chunk, tasks, chunksize=batch)
        else:
            results = map(_run_chunk, tasks)
        for members, task_results in zip(owners, results):
            for i, (chunk_stats, chunk_bin_max) in zip(members, task_results):
                total, bin_max = totals[i]
                total.merge(chunk_stats)
                np.maximum(bin_max, chunk_bin_max, out=bin_max)
    return totals


def run_experiment(spec: ExperimentSpec) -> TrialStats:
    """Run all trials and reduce their statistics deterministically.

    Any worker failure propagates and the whole result is discarded;
    there are no partial results.
    """
    return _run([spec])[0][0]


def exceedance_rate(stats: TrialStats, label: str) -> float:
    """Fraction of trials whose spectral max strictly exceeded the threshold."""
    if label not in stats.exceedance_counts:
        raise KeyError(f"unknown threshold label {label!r}")
    return stats.exceedance_counts[label] / stats.trials


def table1_report(
    rows,
    trials: int,
    seed: int,
    large_n_trials: int = 1000,
    workers: int = 1,
) -> list[dict]:
    """Reference-table rows: simulated maxima next to the worst-case bound.

    sim_max_mean is the mean over trials of the per-trial max; sim_ratio
    divides it by n_p = ceil(N*p). bound_ratio is bound/(N*p), the
    normalization the reference table prints. Rows with N >= _LARGE_N
    run large_n_trials trials (pass large_n_trials=trials to force the full
    count; at N=131071 that is a long run).
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    specs = [
        ExperimentSpec(MaskConfig(n, p, seed), large_n_trials if n >= _LARGE_N else trials, workers=workers)
        for n, p in rows
    ]
    out = []
    for (n, p), (stats, _) in zip(rows, _run(specs)):
        n_p = math.ceil(n * p)
        bound = bounds.worst_case_bound(n, n_p)
        out.append(
            {
                "N": n,
                "p": p,
                "n_p": n_p,
                "sim_max_mean": stats.per_trial_max.mean,
                "sim_global_max": stats.global_max,
                "sim_ratio": stats.per_trial_max.mean / n_p,
                "bound_worst": bound,
                "bound_ratio": bound / (n * p),
            }
        )
    return out


def figure_curves(
    p: float,
    n_values,
    trials: int,
    seed: int,
    eps: float = 1e-4,
    workers: int = 1,
) -> list[dict]:
    """Per-N bound and simulation curves at a fixed sampling rate."""
    if not n_values:
        raise ValueError("n_values must be non-empty")
    bound_specs = [bounds.BoundSpec(n, p, epsilon=eps) for n in n_values]
    results = _run([ExperimentSpec(MaskConfig(n, p, seed), trials, workers=workers) for n in n_values])
    out = []
    for n, spec, (stats, _) in zip(n_values, bound_specs, results):
        out.append(
            {
                "N": n,
                "sim_max_mean": stats.per_trial_max.mean,
                "sim_global_max": stats.global_max,
                "mean_abs": stats.mean_abs_coeff,
                "gaussian_T": bounds.gaussian_bound(spec),
                "sigma3": bounds.sigma_bound(n, p, 3),
                "sigma4": bounds.sigma_bound(n, p, 4),
                "worst_case": bounds.worst_case_bound(n, math.ceil(n * p)),
            }
        )
    return out


def noise_ratio_curves(configs, trials: int, workers: int = 1) -> list[np.ndarray]:
    """Per config, the per-bin max over trials of |A_k|/(N*p) for k = 1..N-1.

    The aliasing-noise level of the sampled spectrum relative to the
    signal line; elementwise max merges are exact, so the reduction is
    order-insensitive. All configs share one run of the driver, and
    configs with the same N and seed share each trial's draw.
    """
    if not configs:
        raise ValueError("configs must be non-empty")
    results = _run([ExperimentSpec(config, trials, workers=workers) for config in configs])
    return [bin_max / (config.n * config.p) for config, (_, bin_max) in zip(configs, results)]


def _format_cell(value) -> str:
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def records_to_csv(records: list[dict], columns=None) -> str:
    """CSV with a header row; floats at 9 significant digits, LF endings."""
    if not records:
        raise ValueError("records must be non-empty")
    cols = list(columns) if columns is not None else list(records[0].keys())
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_format_cell(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def records_to_json(payload) -> str:
    """JSON mirror of the CSV/report payloads. Non-finite floats (an
    infinite bound, an undefined SNR) become null, so the output is strict
    JSON that any parser accepts."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"
