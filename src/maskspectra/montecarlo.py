"""Monte Carlo validation of the bounds: streaming trial statistics.

One engine serves every command: the span kernel ``_run_span`` reduces
each trial's off-center DFT magnitudes to per-chunk statistics and to a
per-bin max, and the driver ``run_experiment`` takes a list of
experiments, ``ExperimentSpec(n, p, trials, seed, thresholds)``, and a
worker count, runs all their spans through one task list, in-process or
in one pool, and merges each experiment's chunks into one (statistics,
per-bin max) pair. It is the module's only entry point to the engine:
each Monte Carlo command of the CLI makes one call with all its rows or
rates and builds its report from the pairs, so a CLI call opens at most
one pool.

The pool is paid for only by a call that starts one:

* It is loaded on first use. ``concurrent.futures``, and with it
  ``multiprocessing``, ``socket``, ``subprocess`` and ``logging``, is
  imported only when a call starts a pool (about 10 ms and 2 MB of RSS
  after numpy), so ``recover``, ``bounds`` and every 1-worker run load
  none of them. ``montecarlo.ProcessPoolExecutor`` stays a module
  attribute (PEP 562), which the driver reads at call time, so a test or a
  benchmark may replace it.
* It is started by a named method, ``fork`` on Linux (as Python 3.11-3.13
  do by default; 3.14 makes it ``forkserver``) when the calling process
  runs no other Python thread, and the platform's default in a process
  with more threads (where a fork can deadlock the child) or on another
  platform. A pool start plus 4 tiny tasks took 11 ms under fork, 496 ms
  under forkserver and 632 ms under spawn, and ``figure --mode ratio --n
  1543 --trials 4096 --workers 2`` ran 37.5k trials/s under fork, 22.9k
  under forkserver and 19.9k under spawn (median of 4 alternating 10-s
  benchmark runs, 2 vCPUs): a forked worker starts with numpy and the
  package already imported.
* It is skipped where it loses: a call of fewer than ``_POOL_MIN_ELEMS``
  (2M) mask elements times rates runs in-process at any worker count,
  since a pool's start and pickling outweigh the second worker there. It
  cuts the same spans either way, so the bytes are the same. Milliseconds
  per call, a 2-worker pool against 1 worker in-process, median of 7
  alternating runs on 2 shared vCPUs::

      N = 127, one rate           1,024   2,048   4,096   8,192  16,384  32,768 trials
        mask elements             0.13M   0.26M   0.52M   1.04M   2.08M   4.16M
        pool / in-process         19/3.8  26/7.4  37/16   35/34   56/75   100/189
      N = 1543, three rates         256     512   1,024   2,048 trials
        mask elements times rates  1.2M    2.4M    4.7M    9.5M
        pool / in-process         34/26   52/50   74/101  117/203

  The break-even moves with how much of the second vCPU the host gives:
  in runs where it gave none, the pool lost at every size up to 4.7M. It
  was measured with 2 workers only; at more workers it is unmeasured.

A mask is ``u < p`` with uniforms ``u`` that depend on (seed, t) alone,
so experiments that share (N, seed, trials) differ only in their rate
and thresholds. The driver gives them one task per span carrying all
their rates, and the kernel draws each trial's uniforms once and
thresholds them at every rate; the rest of the kernel runs once per
rate. An experiment alone is a task with one rate, and so is each rate
of a group whose chunk would outweigh a worker's share of the call (at
600 trials, table1's N = 131071 rows would otherwise leave one of two
workers a 512-trial task at three rates and the other an 88-trial one).

The kernel works through its span in blocks of ``_BLOCK_ELEMS // N``
trials, rounded down to an even count and at least
``_BLOCK_MIN_TRIALS`` (16), so a block holds about ``_BLOCK_ELEMS`` mask
elements up to N = 4096, and 16 trials above it. One call of
``masks._draw_uniforms``, the keyed draw behind ``generate_mask``, fills
a block's (block, N) uniforms. Masks are real, so two of them share one
complex transform: trial 2j goes in the real part and trial 2j + 1 in
the imaginary part of one row, and one in-place ``numpy.fft.fft`` of
shape (block/2, N) serves the whole block. With Z that transform,
|A_k| = |Z_k + conj Z_{N-k}| / 2 and |B_k| = |Z_k - conj Z_{N-k}| / 2 are
unpacked for k = 1..N//2 only, through two scratch arrays; the other half
mirrors them exactly, and the bin sum counts every bin twice except the
Nyquist bin of even N.
Per rate, each trial's peak, bin mean and n_p go into three span-length
arrays in trial order, and at the end of the span each chunk's slice of
each array becomes one ``RunningStats`` by array reductions
(``RunningStats.from_values``).

The driver cuts the work into tasks once. A task is a span: a run of
whole chunks of ``_CHUNK_TRIALS`` trials, at most a quarter of a
worker's share of the call's chunks and about ``_BATCH_ELEMS`` mask
elements, counted by the largest chunk as trials times N times rates, so
at N = 1543 each span is one chunk and an N = 131071 span never holds
two. In-process and pooled runs cut the same spans, and results come
back in task order.

Buffer lifetime: the block buffers (uniforms, a second 0/1 target where
a task has several rates, the packed transform, the magnitudes and the
unpack scratch) are locals of ``_run_span``, sized for its block, so
they last one span and no kernel state outlives a call or is shared
between threads. Making them first allocates and frees one buffer-sized
block, which keeps numpy.fft's per-call scratch on glibc's heap. No
value passes from one block to the next through a buffer: every element
a block reads is written in that block.

Determinism contract: trial t is always transformed together with trial
t ^ 1 (a span that starts or ends inside a pair draws the partner and
discards it), and each trial's uniforms are keyed by (seed, t) alone, so
every per-trial value is a pure function of (seed, t), whatever the span
boundaries, block size, trial count or worker count. Chunks are fixed
runs of ``_CHUNK_TRIALS`` trials, independent of the span length and the
worker count, and are merged in order (Chan et al.), so any worker count
and any block size give bit-identical results; the per-bin max, the
exceedance counts and the per-trial extremes are bit-identical under any
other chunking too.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .masks import _ROUNDING, _draw_uniforms, _integer, _mask_params, _real

__all__ = [
    "RunningStats",
    "ExperimentSpec",
    "TrialStats",
    "run_experiment",
]

_CHUNK_TRIALS = 512
_BLOCK_ELEMS = 1 << 16  # mask elements per block: 512 KB of uniforms, 512 KB of packed transform
# Trials per block at least, so no transform carries fewer than 8 packed
# rows: numpy.fft sets its transform up anew on every call, and at prime N
# that costs about a row's transform (at N = 131071 a lone row took 27 ms,
# a row of an 8-row call 13.7 ms; at N = 8191, 0.90 and 0.37 ms; 2 vCPUs).
_BLOCK_MIN_TRIALS = 16
_BATCH_ELEMS = 1 << 20  # mask elements times rates per span: one N = 1543 chunk, 16 chunks at N = 127
# Mask elements times rates below which a call runs in-process at any
# worker count: on 2 vCPUs a 2-worker pool took 35 ms against 34 in-process
# at N = 127 and 1.04M elements, and 56 against 75 at 2.08M (the module
# docstring has the table).
_POOL_MIN_ELEMS = 2_000_000
# The pool's start method, named so that Python 3.14's forkserver default
# (1.6 times fork's time on ratio-n1543; the module docstring has the
# numbers) does not apply. Fork is safe only while the forking process
# runs no other Python thread: the package starts none, but a caller may,
# so run_experiment names it only when the calling process runs one
# thread, and otherwise keeps the platform's default. numpy's OpenBLAS
# thread pool, started on import, shuts itself down across a fork.
_START_METHOD = "fork" if sys.platform == "linux" else None


def __getattr__(name: str):
    # PEP 562: the pool class, and with it concurrent.futures and
    # multiprocessing, is imported when a call first starts a pool
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


@dataclass(slots=True)
class RunningStats:
    """Mergeable streaming aggregate: count, mean, variance, min, max."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

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


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation campaign: mask parameters, trial count, thresholds.

    Each threshold is a (label, value) pair: a unique str label and a real
    value T, kept as a float. The kernel counts the trials whose peak
    exceeds T(1 + r) + r N, with the rounding allowance r =
    ``masks._ROUNDING`` (1e-12): a mask that attains T exactly, as a
    block-equivalent mask attains the worst-case bound, is not counted
    when its transform rounds its peak up. NaN, which no peak exceeds, is
    rejected; an infinite value is allowed, and an int beyond the float
    range is read as one.
    """

    n: int
    p: float
    trials: int
    seed: int = 0
    thresholds: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        n, p, seed = _mask_params(self.n, self.p, self.seed)
        # trial indices key the RNG and must fit its 64-bit key word
        trials = _integer(self.trials, "trials", 1, 1 << 64)
        thresholds = tuple(_threshold(entry) for entry in self.thresholds)
        labels = [label for label, _ in thresholds]
        if len(set(labels)) != len(labels):
            raise ValueError("threshold labels must be unique")
        for name, value in zip(("n", "p", "trials", "seed", "thresholds"), (n, p, trials, seed, thresholds)):
            object.__setattr__(self, name, value)


def _threshold(entry) -> tuple[str, float]:
    try:
        label, value = entry
    except (TypeError, ValueError):
        raise ValueError(f"a threshold must be a (label, value) pair, got {entry!r}") from None
    if not isinstance(label, str):
        raise ValueError(f"a threshold label must be a str, got {label!r}")
    return label, _real(value, f"threshold {label!r}", "[-inf, inf]")


@dataclass
class TrialStats:
    """Streaming aggregates over trials of per-trial spectral maxima: the
    peak max |A_k| over k != 0, the bin mean of |A_k| over k != 0 and n_p
    of each trial. Every trial has the same bin count, so the mean of the
    bin means is the mean of |A_k| over all bins and trials."""

    per_trial_max: RunningStats = field(default_factory=RunningStats)
    mean_abs: RunningStats = field(default_factory=RunningStats)
    n_p_stats: RunningStats = field(default_factory=RunningStats)
    exceedance_counts: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "TrialStats") -> None:
        self.per_trial_max.merge(other.per_trial_max)
        self.mean_abs.merge(other.mean_abs)
        self.n_p_stats.merge(other.n_p_stats)
        for label, count in other.exceedance_counts.items():
            self.exceedance_counts[label] = self.exceedance_counts.get(label, 0) + count


def _run_span(args: tuple) -> tuple[list[list[TrialStats]], list[np.ndarray]]:
    """Trials [start, stop) of one (N, seed) at every rate of ``rates``,
    ``((p, thresholds), ...)``, as chunks of ``_CHUNK_TRIALS`` trials from
    ``start``; returns, for each chunk in order, one ``TrialStats`` per
    rate, and one per-bin max per rate over the whole span.

    Each trial's uniforms are drawn once and thresholded at every rate.
    """
    n, seed, start, stop, rates = args
    half = n // 2  # bins k = 1..N//2; |A_{N-k}| = |A_k| for real masks
    half_max = np.zeros((len(rates), half))
    values = np.empty((len(rates), 3, stop - start))  # per rate: peak, bin mean, n_p of each trial
    # trial t is always transformed with trial t ^ 1, so a span that starts
    # or ends inside a pair draws the missing partner and discards it
    first, end = start & ~1, (stop + 1) & ~1
    rows = min(end - first, max(_BLOCK_MIN_TRIALS, (_BLOCK_ELEMS // n) & ~1))
    # glibc maps each allocation above its mmap threshold (128 KB at start)
    # afresh, and raises the threshold to the size of a mapped block once one
    # is freed. numpy.fft's per-call scratch outgrows the starting threshold
    # from N of a few thousand, so until a block this size has been freed,
    # every transform faults its scratch in anew (28,672 faults per 512-trial
    # chunk at N = 8191). Allocating and freeing one buffer-sized block keeps
    # it on the heap.
    np.empty((rows, n))
    uniforms = np.empty((rows, n))
    # every rate but the last writes its 0/1 mask into a second buffer, so
    # the uniforms survive for the next rate; the last one overwrites them
    second = np.empty((rows, n)) if len(rates) > 1 else uniforms
    targets = [second] * (len(rates) - 1) + [uniforms]
    packed = np.empty((rows // 2, n), dtype=np.complex128)
    mags = np.empty((rows // 2, 2, half))
    scratch = np.empty((2, rows // 2, half), dtype=np.complex128)  # Z_k + conj Z_{N-k}, Z_k - conj Z_{N-k}
    for lo in range(first, end, rows):
        hi = min(lo + rows, end)
        block = uniforms[: hi - lo]
        _draw_uniforms(seed, lo, block)
        pairs = packed[: len(block) // 2]
        block_mags = mags[: len(pairs)]
        mirror, diff = scratch[:, : len(pairs)]
        lo_keep, hi_keep = max(start, lo), min(stop, hi)
        keep = slice(lo_keep - lo, hi_keep - lo)
        out = slice(lo_keep - start, hi_keep - start)
        half_mags = block_mags.reshape(len(block), half)[keep]
        for (p, _), target, (peaks, means, n_ps), rate_max in zip(rates, targets, values, half_max):
            bits = target[: len(block)]
            np.less(block, p, out=bits)
            pairs.real = bits[0::2]
            pairs.imag = bits[1::2]
            np.fft.fft(pairs, axis=-1, out=pairs)  # in place
            # A_k = (Z_k + conj Z_{N-k}) / 2 and B_k = (Z_k - conj Z_{N-k}) / 2i
            z_k = pairs[:, 1 : half + 1]
            np.conjugate(pairs[:, n - 1 : n - half - 1 : -1], out=mirror)
            np.subtract(z_k, mirror, out=diff)
            np.add(z_k, mirror, out=mirror)
            np.abs(mirror, out=block_mags[:, 0])
            np.abs(diff, out=block_mags[:, 1])
            block_mags *= 0.5
            half_mags.max(axis=1, out=peaks[out])
            sums = 2.0 * half_mags.sum(axis=1)
            if n % 2 == 0:
                sums -= half_mags[:, -1]  # the Nyquist bin is its own mirror
            np.divide(sums, n - 1, out=means[out])
            bits[keep].sum(axis=1, out=n_ps[out])  # exact: a sum of 0s and 1s
            np.maximum(rate_max, half_mags.max(axis=0), out=rate_max)
    chunks = []
    for lo in range(0, stop - start, _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        chunks.append(
            [
                TrialStats(
                    per_trial_max=RunningStats.from_values(peaks[chunk]),
                    mean_abs=RunningStats.from_values(means[chunk]),
                    n_p_stats=RunningStats.from_values(n_ps[chunk]),
                    exceedance_counts={
                        label: int(np.count_nonzero(peaks[chunk] > value * (1.0 + _ROUNDING) + _ROUNDING * n))
                        for label, value in thresholds
                    },
                )
                for (_, thresholds), (peaks, means, n_ps) in zip(rates, values)
            ]
        )
    return chunks, [np.concatenate((rate_max, rate_max[: n - 1 - half][::-1])) for rate_max in half_max]


def run_experiment(specs: list[ExperimentSpec], workers: int = 1) -> list[tuple[TrialStats, np.ndarray]]:
    """Run every chunk of every spec through one task list and merge each
    spec's chunks in chunk order; returns one (stats, per-bin max) per
    spec, the per-bin max holding max |A_k| over trials for k = 1..N-1.

    Specs that share (N, seed, trials) differ only in their rate and
    thresholds, so they share their tasks and one draw per trial: each
    task carries all their rates. Where a chunk of such a task would hold
    more mask elements than a worker's share of the call, each rate gets
    its own tasks instead; either way every bit of the result is the same.
    One pool serves the whole call, with at most ``workers`` workers and at
    most one worker per chunk and per CPU; one worker runs in-process, and
    so does a call of fewer than ``_POOL_MIN_ELEMS`` (2M) mask elements
    times rates (below 15,749 trials at N = 127), where starting a pool
    costs more than it saves on 2 vCPUs (the break-even was not measured
    at more workers). The pool class is imported on the first call that
    starts one. Its workers are forked on Linux when the calling process
    runs no other Python thread; a call from a process with more threads,
    or on another platform, starts them by the platform's default method,
    since forking a process with threads can deadlock the child. Each
    task is a span of whole chunks, at most ``chunks // (4 * workers)`` of
    them and about ``_BATCH_ELEMS`` mask elements, counted by the largest
    chunk as its trials times N times its rate count; in-process and pooled
    runs cut the same spans. No kernel buffer outlives its span.

    Any worker failure propagates and the whole result is discarded;
    there are no partial results.
    """
    workers = min(_integer(workers, "workers", 1), os.cpu_count() or 1)
    if not specs:
        raise ValueError("specs must be non-empty")
    elements = sum(spec.trials * spec.n for spec in specs)  # mask elements times rates
    share = elements / workers  # per worker
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.n, spec.seed, spec.trials), []).append(i)
    parts = []  # (n, seed, trials, the specs whose rates one task carries)
    for (n, seed, trials), members in groups.items():
        # a task that outweighs a worker's share leaves the other workers idle
        split = min(trials, _CHUNK_TRIALS) * n * len(members) > share
        parts += [(n, seed, trials, [i]) for i in members] if split else [(n, seed, trials, members)]
    chunks = sum(-(-trials // _CHUNK_TRIALS) for _, _, trials, _ in parts)
    workers = min(workers, chunks)
    largest = max(min(trials, _CHUNK_TRIALS) * n * len(members) for n, _, trials, members in parts)
    span = _CHUNK_TRIALS * max(1, min(chunks // (4 * workers), _BATCH_ELEMS // largest))
    tasks, owners = [], []
    for n, seed, trials, members in parts:
        rates = tuple((specs[i].p, specs[i].thresholds) for i in members)
        for start in range(0, trials, span):
            tasks.append((n, seed, start, min(start + span, trials), rates))
            owners.append(members)
    totals = [
        (TrialStats(exceedance_counts={label: 0 for label, _ in spec.thresholds}), np.zeros(spec.n - 1))
        for spec in specs
    ]
    with contextlib.ExitStack() as stack:
        if workers > 1 and elements >= _POOL_MIN_ELEMS:
            import multiprocessing

            pool_class = sys.modules[__name__].ProcessPoolExecutor  # patched by tests and the benchmark
            context = multiprocessing.get_context(_START_METHOD if threading.active_count() == 1 else None)
            pool = stack.enter_context(pool_class(max_workers=workers, mp_context=context))
            results = pool.map(_run_span, tasks)
        else:
            results = map(_run_span, tasks)
        for members, (chunk_stats, span_bin_max) in zip(owners, results):
            for rate_stats in chunk_stats:
                for i, stats in zip(members, rate_stats):
                    totals[i][0].merge(stats)
            for i, rate_bin_max in zip(members, span_bin_max):
                np.maximum(totals[i][1], rate_bin_max, out=totals[i][1])
    return totals
