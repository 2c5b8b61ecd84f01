import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from maskspectra import bounds
from maskspectra.cli import TABLE1_ROWS, main, records_to_csv
from maskspectra.masks import generate_mask
from maskspectra.montecarlo import (
    ExperimentSpec,
    RunningStats,
    TrialStats,
    run_experiment,
)
from oracles import exact_peak_law, max_nonzero_bin, oracle_mask, push, spectrum_of_mask


def _stats(spec, workers=1):
    # the statistics of a one-spec driver call
    [(stats, _)] = run_experiment([spec], workers)
    return stats


def _json_stdout(argv, capsys):
    # the records a CLI call prints as JSON
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_running_stats_against_numpy():
    rng = np.random.Generator(np.random.Philox(key=5))
    data = rng.random(500) * 10.0
    rs = RunningStats()
    for x in data:
        push(rs, float(x))
    assert rs.count == 500
    assert rs.mean == pytest.approx(float(np.mean(data)), rel=1e-12)
    assert rs.variance == pytest.approx(float(np.var(data, ddof=1)), rel=1e-10)
    assert rs.min == float(np.min(data))
    assert rs.max == float(np.max(data))


def test_running_stats_merge_matches_single_pass():
    rng = np.random.Generator(np.random.Philox(key=6))
    data = rng.random(1000)
    whole = RunningStats()
    for x in data:
        push(whole, float(x))
    left, right = RunningStats(), RunningStats()
    for x in data[:400]:
        push(left, float(x))
    for x in data[400:]:
        push(right, float(x))
    left.merge(right)
    assert left.count == whole.count
    assert left.mean == pytest.approx(whole.mean, rel=1e-13)
    assert left.variance == pytest.approx(whole.variance, rel=1e-10)
    assert (left.min, left.max) == (whole.min, whole.max)


def test_running_stats_merge_empty():
    rs = RunningStats()
    push(rs, 2.0)
    rs.merge(RunningStats())
    assert (rs.count, rs.mean) == (1, 2.0)
    empty = RunningStats()
    empty.merge(rs)
    assert (empty.count, empty.mean) == (1, 2.0)


def test_run_experiment_reruns_identically():
    spec = ExperimentSpec(127, 0.5, 700, seed=3)
    a = _stats(spec)
    b = _stats(spec)
    assert a.per_trial_max == b.per_trial_max
    assert a.mean_abs == b.mean_abs
    assert a.n_p_stats == b.n_p_stats


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Lower the pool's break-even to 0, so a multi-worker call of any size
    starts a real process pool."""
    import maskspectra.montecarlo as mc

    monkeypatch.setattr(mc, "_POOL_MIN_ELEMS", 0)


def test_parallel_reduction_bit_identical(pool_at_any_size):
    # 1 worker vs 4 workers must agree exactly, field by field
    spec = ExperimentSpec(127, 0.5, 1500, seed=3, thresholds=(("t", 12.0),))
    serial = _stats(spec, workers=1)
    parallel = _stats(spec, workers=4)
    assert serial.per_trial_max.count == parallel.per_trial_max.count
    assert serial.per_trial_max == parallel.per_trial_max
    assert serial.mean_abs == parallel.mean_abs
    assert serial.n_p_stats == parallel.n_p_stats
    assert serial.exceedance_counts == parallel.exceedance_counts


def test_trial_stats_basic_ordering():
    stats = _stats(ExperimentSpec(127, 0.5, 300, seed=8))
    assert stats.per_trial_max.max >= stats.per_trial_max.mean >= 0.0
    assert stats.per_trial_max.mean >= stats.mean_abs.mean
    assert stats.n_p_stats.mean == pytest.approx(63.5, abs=2.0)


def test_flat_mask_trial_has_zero_peak():
    # p -> 1 boundary: the realized mask is all ones, so no off-center energy
    assert generate_mask(127, 1.0 - 1e-12, 3).all()
    stats = _stats(ExperimentSpec(127, 1.0 - 1e-12, 1, seed=3))
    assert stats.per_trial_max.mean == pytest.approx(0.0, abs=1e-9)


def test_exceedance_zero_threshold_always_hit():
    spec = ExperimentSpec(127, 0.5, 300, seed=5, thresholds=(("zero", 0.0),))
    stats = _stats(spec)
    assert stats.exceedance_counts["zero"] / stats.per_trial_max.count == 1.0


def test_exceedance_gaussian_bound_never_hit():
    t = bounds.gaussian_bound(127, 0.5, epsilon=1e-4)
    spec = ExperimentSpec(127, 0.5, 2000, seed=5, thresholds=(("g", t),))
    stats = _stats(spec)
    assert stats.exceedance_counts["g"] / stats.per_trial_max.count == 0.0


def test_exceedance_three_sigma_band():
    # 3-sigma sits low enough in the tail to be crossed occasionally
    s3 = bounds.sigma_bound(127, 0.5, 3)
    spec = ExperimentSpec(127, 0.5, 2000, seed=7, thresholds=(("s3", s3),))
    stats = _stats(spec)
    rate = stats.exceedance_counts["s3"] / stats.per_trial_max.count
    assert 0.0 < rate < 0.2


def test_conditioned_peaks_respect_worst_case():
    for t in range(400):
        mask = generate_mask(127, 0.5, 13, t)
        if not mask.any():
            continue
        _, peak = max_nonzero_bin(spectrum_of_mask(mask))
        assert peak <= bounds.worst_case_bound(127, int(np.count_nonzero(mask))) + 1e-9


def test_peak_mean_grows_like_sqrt_log_n():
    def ev_mean(n, p):
        scale = math.sqrt(p * (1.0 - p) * n / 2.0)
        g = math.sqrt(2.0 * math.log((n - 1) / 2))
        return scale * (g + np.euler_gamma / g)

    specs = [ExperimentSpec(n, 0.5, 1000, seed=7) for n in (127, 8191)]
    [(small, _), (big, _)] = run_experiment(specs)
    sim_ratio = big.per_trial_max.mean / small.per_trial_max.mean
    oracle_ratio = ev_mean(8191, 0.5) / ev_mean(127, 0.5)
    assert abs(sim_ratio / oracle_ratio - 1.0) <= 0.2


def test_streaming_memory_footprint():
    # aggregates only: far below the ~80 MB a trials-by-N retention would need
    tracemalloc.start()
    run_experiment([ExperimentSpec(127, 0.5, 20000, seed=9)])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 20 * 1024 * 1024


def test_table1_row_values(monkeypatch, capsys):
    import maskspectra.cli as cli

    monkeypatch.setattr(cli, "TABLE1_ROWS", ((127, 0.5),))
    rows = _json_stdout(["table1", "--trials", "3000", "--seed", "7"], capsys)
    row = rows[0]
    assert row["n_p"] == 64
    assert row["worst_case"] == pytest.approx(40.426, abs=1e-3)
    assert round(row["worst_case_ratio_np"], 3) == 0.637
    assert row["sim_max_mean"] == pytest.approx(11.55, rel=0.10)
    assert row["sim_ratio"] == pytest.approx(row["sim_max_mean"] / 64)


def test_table1_default_grid_shape(capsys):
    argv = ["table1", "--trials", "20", "--seed", "1"]
    rows = _json_stdout(argv, capsys)
    assert len(rows) == 9
    assert [(r["N"], r["p"]) for r in rows] == list(TABLE1_ROWS)
    again = _json_stdout(argv, capsys)
    assert rows == again


def test_table1_caps_large_n_rows_in_one_place(monkeypatch, capsys):
    # rows at N >= 65536 run min(trials, 1000) trials, and the whole table
    # is one driver call
    import maskspectra.montecarlo as mc

    calls = []

    def fake_run(specs, workers=1):
        calls.append([(spec.n, spec.trials) for spec in specs])
        return [(TrialStats(), None) for _ in specs]

    monkeypatch.setattr(mc, "run_experiment", fake_run)
    small = [(n, 20) for n in (127, 127, 127, 1543, 1543, 1543)]
    assert main(["table1", "--trials", "20"]) == 0
    assert calls == [small + [(131071, 20)] * 3]
    calls.clear()
    assert main(["table1", "--trials", "1500"]) == 0
    big = [(n, 1500) for n, _ in small]
    assert calls == [big + [(131071, 1000)] * 3]
    capsys.readouterr()


def test_table1_trials_column_shows_the_cap(monkeypatch, capsys):
    # each row says how many trials the engine ran: the capped count on the
    # large-N rows, --trials on the others
    import maskspectra.cli as cli

    monkeypatch.setattr(cli, "_LARGE_N_TRIALS", 4)
    rows = _json_stdout(["table1", "--trials", "5"], capsys)
    assert [(row["N"], row["trials"]) for row in rows] == [(n, 4 if n == 131071 else 5) for n, _ in TABLE1_ROWS]


def test_table1_large_n_rows_match_simulate(capsys):
    # simulate runs a large-N row at any trial count, so table1 needs no
    # switch to lift its cap: at the same (N, p, trials, seed) the two
    # report the same statistics, bit for bit
    rows = _json_stdout(["table1", "--trials", "8", "--seed", "3"], capsys)
    large = [row for row in rows if row["N"] == 131071]
    assert [row["p"] for row in large] == [0.5, 0.8, 0.1]
    for row in large:
        sim = _json_stdout(["simulate", "--n", "131071", "--p", str(row["p"]), "--trials", "8", "--seed", "3"], capsys)
        assert sim["trials"] == 8
        assert (row["sim_max_mean"], row["sim_global_max"]) == (sim["per_trial_max"]["mean"], sim["global_max"])


def test_table1_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        run_experiment([])


def test_figure_curves_layering_at_half_rate(capsys):
    records = _json_stdout(["figure", "--rate", "0.5", "--ns", "127,521", "--trials", "800", "--seed", "7"], capsys)
    for rec in records:
        assert rec["worst_case"] >= rec["gaussian_T"] >= rec["sim_global_max"]
        assert rec["sim_global_max"] >= rec["sim_max_mean"] >= rec["mean_abs"]
        assert rec["sigma4"] == (4.0 / 3.0) * rec["sigma3"]


def _ratio_curves(ps, capsys):
    # figure --mode ratio's columns at N = 1009, one array per rate
    argv = ["figure", "--mode", "ratio", "--n", "1009", "--ps", ",".join(map(str, ps)), "--trials", "300"]
    rows = _json_stdout([*argv, "--seed", "7"], capsys)
    assert [row["k"] for row in rows] == list(range(1, 1009))
    return [np.array([row[f"ratio_p{p:g}"] for row in rows]) for p in ps]


def test_noise_ratio_curve_shape_and_consistency(capsys):
    [curve] = _ratio_curves([0.1], capsys)
    assert curve.shape == (1008,)
    stats = _stats(ExperimentSpec(1009, 0.1, 300, seed=7))
    assert float(curve.max() * 1009 * 0.1) == stats.per_trial_max.max


def test_noise_ratio_higher_rate_is_quieter(capsys):
    low, high = _ratio_curves([0.1, 0.8], capsys)
    assert np.all(high < low)


def _close(a, b, n):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * n)


def _assert_stats_close(got, want, n):
    # the packed kernel transforms two masks at once, so it matches the
    # per-trial path to a tolerance fixed from float64 rounding, not exactly
    assert got.count == want.count
    assert _close(got.mean, want.mean, n)
    assert _close(got.min, want.min, n)
    assert _close(got.max, want.max, n)
    assert abs(got._m2 - want._m2) <= 1e-12 * n * n * want.count


def _assert_bins_close(got, want, n):
    assert got.shape == want.shape
    assert all(_close(a, b, n) for a, b in zip(got.tolist(), want.tolist()))


def _allowed(value, n):
    # the kernel counts a peak above this, not above the threshold itself
    return value * (1.0 + 1e-12) + 1e-12 * n


def _assert_counts_bracketed(counts, peaks, thresholds, n):
    # a peak within 1e-12 * N of the allowed threshold may fall on either side of it
    for label, value in thresholds:
        low = sum(peak > _allowed(value, n) + 1e-12 * n for peak in peaks)
        high = sum(peak > _allowed(value, n) - 1e-12 * n for peak in peaks)
        assert low <= counts[label] <= high, label


def test_engine_matches_per_trial_oracle():
    # the plain per-trial path, pushed chunk by chunk and merged in chunk
    # order as the engine does; 1100 trials span three chunks
    import maskspectra.montecarlo as mc

    thresholds = (("s3", bounds.sigma_bound(257, 0.3, 3)), ("s4", bounds.sigma_bound(257, 0.3, 4)))
    peaks, means, n_ps = RunningStats(), RunningStats(), RunningStats()
    all_peaks = []
    bin_max = np.zeros(256)
    for start in range(0, 1100, mc._CHUNK_TRIALS):
        chunk = (RunningStats(), RunningStats(), RunningStats())
        for t in range(start, min(start + mc._CHUNK_TRIALS, 1100)):
            mask = oracle_mask(257, 0.3, 11, t)
            coeffs = spectrum_of_mask(mask)
            _, peak = max_nonzero_bin(coeffs)
            mags = np.abs(coeffs[1:])
            push(chunk[0], peak)
            push(chunk[1], float(mags.mean()))
            push(chunk[2], float(np.count_nonzero(mask)))
            all_peaks.append(peak)
            bin_max = np.maximum(bin_max, mags)
        for total, part in zip((peaks, means, n_ps), chunk):
            total.merge(part)
    [(stats, bins)] = run_experiment([ExperimentSpec(257, 0.3, 1100, 11, thresholds)])
    assert stats.per_trial_max.count == 1100
    _assert_stats_close(stats.per_trial_max, peaks, 257)
    _assert_stats_close(stats.mean_abs, means, 257)
    _assert_stats_close(stats.n_p_stats, n_ps, 257)
    _assert_counts_bracketed(stats.exceedance_counts, all_peaks, thresholds, 257)
    assert 0 < stats.exceedance_counts["s3"] < 1100
    _assert_bins_close(bins, bin_max, 257)


def _oracle_chunk(n, p, seed, start, stop):
    # the per-trial path: one Philox, mask and transform per trial
    stats = TrialStats()
    peaks = []
    bin_max = np.zeros(n - 1)
    for t in range(start, stop):
        mask = oracle_mask(n, p, seed, t)
        mags = np.abs(spectrum_of_mask(mask)[1:])
        peak = float(mags.max())
        push(stats.per_trial_max, peak)
        push(stats.mean_abs, float(mags.mean()))
        push(stats.n_p_stats, float(np.count_nonzero(mask)))
        peaks.append(peak)
        bin_max = np.maximum(bin_max, mags)
    return stats, peaks, bin_max


def _chunk(n, p, seed, start, stop, thresholds=()):
    # a one-chunk span at the one rate p: one (stats, per-bin max)
    import maskspectra.montecarlo as mc

    [[stats]], [bin_max] = mc._run_span((n, seed, start, stop, ((p, thresholds),)))
    return stats, bin_max


@settings(max_examples=12, deadline=None)
@example(n=1999, p=0.3, seed=2**64 - 1, count=80, at_end=True, start=0)  # three blocks: 32 + 32 + 16
@example(n=128, p=0.5, seed=0, count=1, at_end=False, start=0)
@example(n=127, p=0.5, seed=1, count=40, at_end=False, start=3)  # odd start: trial 2 drawn and dropped
@example(n=257, p=0.3, seed=2, count=7, at_end=False, start=0)  # odd count: trial 7 drawn and dropped
@example(n=1000, p=0.2, seed=3, count=70, at_end=False, start=1)  # even N: the Nyquist bin
@example(n=2, p=0.5, seed=4, count=5, at_end=False, start=1)
@example(n=32771, p=0.1, seed=5, count=3, at_end=False, start=1)  # N > 2**15: two-row blocks
@given(
    n=st.one_of(
        st.sampled_from([2, 3, 127, 128, 257, 1543, 1999]),  # primes and even N
        st.integers(2, 2000),  # mostly N that does not divide the block size
    ),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 80),
    at_end=st.booleans(),
    start=st.integers(0, 2**64 - 81),
)
def test_block_kernel_matches_per_trial_oracle(n, p, seed, count, at_end, start):
    # the block kernel against the per-trial path; at_end puts the chunk's
    # last trial at index 2**64 - 1, the largest key word
    if at_end:
        start = 2**64 - count
    thresholds = (("s3", bounds.sigma_bound(n, p, 3)), ("zero", 0.0))
    stats, bin_max = _chunk(n, p, seed, start, start + count, thresholds)
    oracle, peaks, oracle_bin_max = _oracle_chunk(n, p, seed, start, start + count)
    assert stats.per_trial_max.count == oracle.per_trial_max.count == count
    _assert_stats_close(stats.n_p_stats, oracle.n_p_stats, n)
    _assert_stats_close(stats.per_trial_max, oracle.per_trial_max, n)
    _assert_stats_close(stats.mean_abs, oracle.mean_abs, n)
    _assert_counts_bracketed(stats.exceedance_counts, peaks, thresholds, n)
    _assert_bins_close(bin_max, oracle_bin_max, n)


@settings(max_examples=12, deadline=None)
@example(n=1543, p=0.1, seed=7, start=0, first=43, second=40)  # the split falls inside a pair and a block
@example(n=128, p=0.5, seed=8, start=2**64 - 9, first=4, second=5)  # even N, ending at trial 2**64 - 1
@given(
    n=st.integers(2, 2000),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 81),
    first=st.integers(1, 40),
    second=st.integers(1, 40),
)
def test_block_kernel_split_is_exact(n, p, seed, start, first, second):
    # trial t is always paired with trial t ^ 1, so its values do not depend
    # on where a chunk starts or stops: [a, c) and [a, b) + [b, c) agree exactly
    thresholds = (("s3", bounds.sigma_bound(n, p, 3)),)
    a, b, c = start, start + first, start + first + second
    whole, whole_bins = _chunk(n, p, seed, a, c, thresholds)
    left, left_bins = _chunk(n, p, seed, a, b, thresholds)
    right, right_bins = _chunk(n, p, seed, b, c, thresholds)
    assert whole.per_trial_max.count == left.per_trial_max.count + right.per_trial_max.count == c - a
    assert np.array_equal(whole_bins, np.maximum(left_bins, right_bins))
    assert np.array_equal(whole_bins, whole_bins[::-1])  # |A_k| == |A_{N-k}| exactly
    assert whole.exceedance_counts["s3"] == left.exceedance_counts["s3"] + right.exceedance_counts["s3"]
    for name in ("per_trial_max", "mean_abs", "n_p_stats"):
        parts = getattr(left, name), getattr(right, name)
        assert getattr(whole, name).min == min(part.min for part in parts)
        assert getattr(whole, name).max == max(part.max for part in parts)


def test_block_kernel_memory_is_bounded():
    # blocks hold ~_BLOCK_ELEMS mask elements; one 512 x 8191 block would
    # need ~67 MB for its complex transform alone
    import maskspectra.montecarlo as mc

    tracemalloc.start()
    stats, _ = _chunk(8191, 0.5, 3, 0, mc._CHUNK_TRIALS)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert stats.per_trial_max.count == mc._CHUNK_TRIALS
    assert peak < 16 * 1024 * 1024


def test_span_gives_the_bytes_of_its_chunks_run_alone():
    # a 3-chunk span returns each chunk's statistics apart, with the bytes
    # of three one-chunk spans, at one rate and at two; its last chunk ends
    # inside a pair, and its per-bin max is the max of theirs
    import maskspectra.montecarlo as mc

    for rates in (((0.3, (("t", 10.0),)),), ((0.3, (("t", 10.0),)), (0.8, ()))):
        chunks, bins = mc._run_span((127, 3, 0, 1125, rates))
        alone = [mc._run_span((127, 3, start, stop, rates)) for start, stop in ((0, 512), (512, 1024), (1024, 1125))]
        assert len(chunks) == 3
        for got, ([want], _) in zip(chunks, alone):
            assert got == want
        for rate, rate_bins in enumerate(bins):
            want = np.maximum.reduce([chunk_bins[rate] for _, chunk_bins in alone])
            assert rate_bins.tobytes() == want.tobytes()


def test_runs_on_threads_give_the_serial_result():
    # the keyed generator is per thread and the kernel's buffers are per
    # span, so runs and generate_mask calls on several threads of one
    # process, switching often, each give the serial result
    import sys
    from concurrent.futures import ThreadPoolExecutor

    spec = ExperimentSpec(127, 0.3, 2048, seed=8, thresholds=(("t", 10.0),))
    keys = [(seed, t) for seed in (0, 8, 2**64 - 1) for t in (0, 5, 2**64 - 1)]

    def masks():
        return [generate_mask(131, 0.4, seed, t).tobytes() for seed, t in keys]

    def run():
        return _stats(spec), masks(), _stats(spec)

    want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(8)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == want for result in got)


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for the process pool; records the size each
    pool was opened with and the trial count of each span of each ``map``."""
    import maskspectra.montecarlo as mc

    opened, spans = [], []

    class FakePool:
        def __init__(self, max_workers, mp_context):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            spans.append([stop - start for _, _, start, stop, _ in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", FakePool)
    return opened, spans


def test_worker_count_is_clamped_without_spawning(monkeypatch, fake_pool):
    import os

    opened, spans = fake_pool
    # every call here is above the pool's break-even: 1,400 x 1,500 and
    # 241 x 8,704 are 2.1M mask elements each
    for cpu in (2, 8):
        monkeypatch.setattr(os, "cpu_count", lambda cpu=cpu: cpu)
        stats = _stats(ExperimentSpec(1400, 0.5, 1500, seed=1), workers=100000)
        assert stats.per_trial_max.count == 1500
    assert opened == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_experiment([ExperimentSpec(1400, 0.5, 1500, seed=1)], workers=4)
    assert opened == [2, 3]  # unknown CPU count: runs serially, opens no pool
    # three chunks go out one per task; 17 chunks on 2 workers in spans of 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_experiment([ExperimentSpec(241, 0.5, 512 * 17, seed=1)], workers=2)
    assert opened == [2, 3, 2]
    assert spans == [[512, 512, 476]] * 2 + [[1024] * 8 + [512]]


def test_every_row_shares_one_pool(monkeypatch, fake_pool, capsys):
    import os

    import maskspectra.montecarlo as mc

    opened, spans = fake_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # every call here is above the pool's break-even: 2.4M, 2.3M, 2.3M,
    # 2.1M and 6.2M mask elements times rates
    rows = [
        ExperimentSpec(n, p, trials, seed=3)
        for n, p, trials in ((127, 0.5, 1100), (131, 0.1, 1100), (131071, 0.5, 16))
    ]
    pooled, serial = run_experiment(rows, workers=2), run_experiment(rows)
    assert [stats for stats, _ in pooled] == [stats for stats, _ in serial]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(pooled, serial))
    assert opened == [2]
    for argv in (
        ["figure", "--ns", "127,61", "--trials", "12000", "--seed", "3"],
        ["figure", "--mode", "ratio", "--n", "257", "--ps", "0.1,0.5,0.8", "--trials", "3000", "--seed", "3"],
    ):
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
    assert opened == [2, 2, 2]
    # a span holds at most chunks // (4 * workers) chunks and at most
    # _BATCH_ELEMS mask elements, counted by the largest chunk
    specs = [ExperimentSpec(101, 0.5, 512 * 40, seed=1), ExperimentSpec(7, 0.5, 9)]
    run_experiment(specs, workers=2)
    monkeypatch.setattr(mc, "_BATCH_ELEMS", 512 * 101 * 3 + 1)
    run_experiment(specs, workers=2)
    assert spans[-2:] == [[512 * (41 // 8)] * 8 + [9], [512 * 3] * 13 + [512, 9]]
    # three rates that share a draw make one task per chunk, three times the work
    run_experiment([ExperimentSpec(101, p, 512 * 40, seed=1) for p in (0.2, 0.5, 0.8)], workers=2)
    assert spans[-1] == [512] * 40


def test_small_calls_run_in_process_at_any_worker_count(monkeypatch, fake_pool):
    # a call of fewer mask elements times rates than the break-even opens
    # no pool; one trial more opens one; both give the 1-worker bytes
    import os

    import maskspectra.montecarlo as mc

    opened, _ = fake_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    below = (mc._POOL_MIN_ELEMS - 1) // 127
    for trials, pools in ((below, []), (below + 1, [2])):
        spec = ExperimentSpec(127, 0.5, trials, seed=5, thresholds=(("t", 12.0),))
        [(stats, bins)] = run_experiment([spec], workers=2)
        assert opened == pools
        [(want, want_bins)] = run_experiment([spec], workers=1)
        assert stats == want and bins.tobytes() == want_bins.tobytes()


def test_small_calls_send_the_one_worker_task_list(monkeypatch, fake_pool):
    # below the break-even the worker count is 1 before the tasks are cut:
    # three rates at N = 257 and 600 trials (462k mask elements times
    # rates) share one draw per trial in the 1-worker spans at any count
    import os

    import maskspectra.montecarlo as mc

    opened, _ = fake_pool
    sent, original = [], mc._run_span

    def recording(task):
        sent.append(task)
        return original(task)

    monkeypatch.setattr(mc, "_run_span", recording)
    specs = [ExperimentSpec(257, p, 600, seed=3) for p in (0.1, 0.5, 0.8)]
    want = run_experiment(specs, workers=1)
    one_worker = list(sent)
    assert [(start, stop, len(rates)) for _, _, start, stop, rates in one_worker] == [(0, 512, 3), (512, 600, 3)]
    for cpus, workers in ((2, 2), (8, 100000)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        sent.clear()
        got = run_experiment(specs, workers)
        assert sent == one_worker
        assert [stats for stats, _ in got] == [stats for stats, _ in want]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))
    assert opened == []


def test_start_method_is_named_only_from_a_single_thread(monkeypatch, fake_pool, pool_at_any_size):
    # the pool gets the named start method where the caller runs one
    # thread, and the platform's default where it runs more, since a fork
    # there can deadlock the child
    import multiprocessing
    import os
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import maskspectra.montecarlo as mc

    methods, fake = [], mc.ProcessPoolExecutor

    class Recording(fake):
        def __init__(self, max_workers, mp_context):
            methods.append(mp_context.get_start_method())
            super().__init__(max_workers, mp_context)

    default = multiprocessing.get_start_method()
    named = next(method for method in multiprocessing.get_all_start_methods() if method != default)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(mc, "_START_METHOD", named)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = [ExperimentSpec(127, 0.5, 600, seed=1)]
    assert threading.active_count() == 1
    want = run_experiment(specs, workers=2)
    with ThreadPoolExecutor(max_workers=1) as caller:
        got = caller.submit(run_experiment, specs, 2).result(timeout=60)
    assert methods == [named, default]
    assert got[0][0] == want[0][0] and got[0][1].tobytes() == want[0][1].tobytes()


def test_multi_spec_run_matches_one_run_per_spec(pool_at_any_size):
    # chunks of specs with different N share one task list and one pool, and
    # the rates of one (N, seed, trials) share each trial's draw, yet each
    # spec's result equals its own run field for field
    shared = 2 * 512 + 101  # the last chunk ends inside a pair
    specs = [
        ExperimentSpec(61, 0.1, shared, 4, (("t", 6.0),)),
        ExperimentSpec(31, 0.5, 512 * 3 + 100, 6, (("s3", bounds.sigma_bound(31, 0.5, 3)),)),
        ExperimentSpec(61, 0.5, shared, 4, (("s3", bounds.sigma_bound(61, 0.5, 3)),)),
        ExperimentSpec(64, 0.3, 700, seed=2),
        ExperimentSpec(61, 0.5, shared, seed=5),  # another seed: another draw
        ExperimentSpec(61, 0.9, shared, 4, (("s4", bounds.sigma_bound(61, 0.9, 4)), ("t", 49.0))),
        ExperimentSpec(61, 0.5, shared - 1, seed=4),  # another trial count: another draw
        ExperimentSpec(127, 0.8, 300, 9, (("t", 20.0),)),
    ]
    alone = [run_experiment([spec])[0] for spec in specs]
    for workers in (1, 2, 3):
        together = run_experiment(specs, workers)
        assert len(together) == len(specs)
        for (stats, bins), (want, want_bins) in zip(together, alone):
            assert stats.per_trial_max.count == want.per_trial_max.count
            assert stats.per_trial_max == want.per_trial_max
            assert stats.mean_abs == want.mean_abs
            assert stats.n_p_stats == want.n_p_stats
            assert stats.exceedance_counts == want.exceedance_counts
            assert np.array_equal(bins, want_bins)


def test_rates_of_one_draw_key_each_trial_once(monkeypatch):
    # three rates at one (N, seed, trials) threshold the same uniforms, so
    # the keyed draw keys each trial once, not once per rate
    import maskspectra.montecarlo as mc

    keyed, original = [], mc._draw_uniforms

    def counting_draw(seed, first, out):
        keyed.extend(range(first, first + len(out)))
        original(seed, first, out)

    monkeypatch.setattr(mc, "_draw_uniforms", counting_draw)
    run_experiment([ExperimentSpec(127, p, 1024, seed=3) for p in (0.1, 0.5, 0.8)], workers=1)
    assert sorted(keyed) == list(range(1024))


def test_rates_split_where_one_task_would_outweigh_a_worker(monkeypatch, fake_pool, pool_at_any_size):
    # 600 trials make a 512-trial and an 88-trial chunk: with 2 workers,
    # three rates per task would leave one worker most of the work, so each
    # rate gets its own tasks; at 4096 trials the rates share them. The
    # 600-trial call is below the break-even, lowered here so a pool runs it
    import os

    import maskspectra.montecarlo as mc

    rates_per_task, original = [], mc._run_span

    def recording(task):
        rates_per_task.append(len(task[-1]))
        return original(task)

    monkeypatch.setattr(mc, "_run_span", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = [ExperimentSpec(257, p, 600, seed=3) for p in (0.1, 0.5, 0.8)]
    serial = run_experiment(specs)
    assert rates_per_task == [3, 3]
    rates_per_task.clear()
    split = run_experiment(specs, workers=2)
    assert rates_per_task == [1] * 6
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(split, serial))
    rates_per_task.clear()
    run_experiment([ExperimentSpec(spec.n, spec.p, 4096, spec.seed) for spec in specs], workers=2)
    assert rates_per_task == [3] * 8


def test_batched_pool_tasks_are_bit_identical(pool_at_any_size):
    # 17 chunks: a pool gets them in spans of two chunks, yet every field
    # matches the in-process run exactly
    spec = ExperimentSpec(31, 0.5, 512 * 17, 6, (("s3", bounds.sigma_bound(31, 0.5, 3)),))
    [(serial, serial_bins)] = run_experiment([spec], workers=1)
    for workers in (2, 3):
        [(stats, bins)] = run_experiment([spec], workers=workers)
        assert stats.per_trial_max.count == serial.per_trial_max.count == 512 * 17
        assert stats.per_trial_max == serial.per_trial_max
        assert stats.mean_abs == serial.mean_abs
        assert stats.n_p_stats == serial.n_p_stats
        assert stats.exceedance_counts == serial.exceedance_counts
        assert np.array_equal(bins, serial_bins)


def test_chunk_statistics_do_not_depend_on_block_size(monkeypatch):
    # the chunk is reduced once, after all its blocks, so the block size
    # cannot change a single bit
    import maskspectra.montecarlo as mc

    task = (127, 0.3, 4, 3, 3 + mc._CHUNK_TRIALS, (("t", 10.0),))
    whole, whole_bins = _chunk(*task)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 127 * 6)
    blocked, blocked_bins = _chunk(*task)
    for name in ("per_trial_max", "mean_abs", "n_p_stats"):
        assert getattr(blocked, name) == getattr(whole, name)
    assert blocked.exceedance_counts == whole.exceedance_counts
    assert np.array_equal(blocked_bins, whole_bins)


def test_kernel_transforms_at_least_eight_rows_in_place(monkeypatch):
    # where _BLOCK_ELEMS // N would give a block of fewer than 16 trials,
    # the block still holds 16, so every transform of a whole block carries
    # 8 packed rows, and it writes its result over its input
    import maskspectra.montecarlo as mc

    fft, calls = np.fft.fft, []

    def recording_fft(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("out") is a))
        return fft(a, *args, **kwargs)

    whole, whole_bins = _chunk(127, 0.3, 4, 0, mc._CHUNK_TRIALS)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 127 * 6)
    monkeypatch.setattr(np.fft, "fft", recording_fft)
    blocked, blocked_bins = _chunk(127, 0.3, 4, 0, mc._CHUNK_TRIALS)
    assert calls == [((8, 127), True)] * (mc._CHUNK_TRIALS // 16)
    assert blocked.per_trial_max == whole.per_trial_max
    assert np.array_equal(blocked_bins, whole_bins)


def test_noise_ratio_parallel_matches_serial(pool_at_any_size):
    spec = ExperimentSpec(257, 0.5, 1200, seed=2)
    [(_, serial)] = run_experiment([spec], workers=1)
    [(_, parallel)] = run_experiment([spec], workers=3)
    assert np.array_equal(serial, parallel)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(127, 0.5, trials=0)
    with pytest.raises(ValueError):
        run_experiment([ExperimentSpec(127, 0.5, trials=1)], workers=0)
    with pytest.raises(ValueError):
        ExperimentSpec(127, 0.5, trials=1, thresholds=(("a", 1.0), ("a", 2.0)))
    # integers of any type are accepted; floats, bools and trial indices past 2**64 - 1 are not
    spec = ExperimentSpec(127, 0.5, trials=np.int64(3))
    assert spec.trials == 3 and type(spec.trials) is int
    assert _stats(spec, workers=np.int32(2)).per_trial_max.count == 3
    assert ExperimentSpec(127, 0.5, trials=2**64).trials == 2**64
    for bad in (2.5, True, 2**64 + 1):
        with pytest.raises(ValueError):
            ExperimentSpec(127, 0.5, trials=bad)
    for bad in (True, 2.0):
        with pytest.raises(ValueError):
            run_experiment([spec], workers=bad)


def test_spec_rejects_malformed_thresholds():
    # each threshold is a (str label, real value) pair, checked when the
    # spec is made; NaN would count 0 exceedances without testing any
    for bad in (("t", float("nan")), ("s", "5"), ("s", None), ("t", 1.0, 2.0)):
        with pytest.raises(ValueError, match="threshold"):
            ExperimentSpec(127, 0.5, trials=1, thresholds=(bad,))
    spec = ExperimentSpec(127, 0.5, trials=1, thresholds=[("inf", math.inf), ("low", -math.inf), ("n", np.float32(2))])
    assert spec.thresholds == (("inf", math.inf), ("low", -math.inf), ("n", 2.0))
    assert all(type(value) is float for _, value in spec.thresholds)
    assert _stats(spec).exceedance_counts == {"inf": 0, "low": 1, "n": 1}


def test_csv_rendering():
    text = records_to_csv([{"N": 127, "x": 1.23456789012345, "tag": "row"}])
    assert text == "N,x,tag\n127,1.23456789,row\n"
    with pytest.raises(ValueError):
        records_to_csv([])


def test_json_mirrors_stats_fields(capsys):
    # simulate's JSON restates the engine's statistics of the same spec
    thresholds = tuple(bounds.thresholds(127, 0.5).items())
    stats = _stats(ExperimentSpec(127, 0.5, 64, seed=4, thresholds=thresholds))
    assert main(["simulate", "--n", "127", "--p", "0.5", "--trials", "64", "--seed", "4", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == [
        "N",
        "p",
        "seed",
        "trials",
        "per_trial_max",
        "global_max",
        "mean_abs_coeff",
        "exceedance_counts",
        "n_p_stats",
    ]
    assert payload["trials"] == 64
    assert payload["per_trial_max"]["count"] == 64
    assert payload["global_max"] == stats.per_trial_max.max
    assert payload["mean_abs_coeff"] == stats.mean_abs.mean
    assert payload["exceedance_counts"] == stats.exceedance_counts


def test_trial_stats_merge_accumulates_counts():
    a = TrialStats(per_trial_max=RunningStats.from_values(np.ones(2)), exceedance_counts={"t": 1})
    b = TrialStats(per_trial_max=RunningStats.from_values(np.ones(5)), exceedance_counts={"t": 3})
    a.merge(b)
    assert a.per_trial_max.count == 7
    assert a.exceedance_counts == {"t": 4}


def test_failures_discard_all_progress(monkeypatch):
    # all-or-nothing: a failing chunk aborts the run instead of returning partials
    import maskspectra.montecarlo as mc

    calls = {"n": 0}
    original = mc._run_span

    def flaky(args):
        calls["n"] += 1
        if calls["n"] == 2:
            raise MemoryError("simulated exhaustion")
        return original(args)

    monkeypatch.setattr(mc, "_run_span", flaky)
    with pytest.raises(MemoryError):
        run_experiment([ExperimentSpec(127, 0.5, 1500, seed=1)])


def _stats_of(values):
    rs = RunningStats()
    for x in values:
        push(rs, x)
    return rs


@settings(max_examples=60, deadline=None)
@example(parts=[[0.0], [0.0], [1.359342984401485e-158]])  # _m2 is subnormal: the two orders differ in its last place
@given(parts=st.lists(st.lists(st.floats(-1e3, 1e3), max_size=30), min_size=3, max_size=3))
def test_running_stats_merge_is_associative(parts):
    a, b, c = parts
    left = _stats_of(a)
    left.merge(_stats_of(b))
    left.merge(_stats_of(c))  # (a + b) + c
    right_tail = _stats_of(b)
    right_tail.merge(_stats_of(c))
    right = _stats_of(a)
    right.merge(right_tail)  # a + (b + c)
    values = a + b + c
    scale = max((abs(x) for x in values), default=0.0)
    assert (left.count, left.min, left.max) == (right.count, right.min, right.max)
    assert left.mean == pytest.approx(right.mean, rel=1e-12, abs=1e-12 * scale)
    # below the normal range a last place is 5e-324 absolute, where 1e-12 * scale**2 underflows to 0
    subnormal_places = 4 * np.finfo(float).smallest_subnormal
    assert left._m2 == pytest.approx(right._m2, rel=1e-12, abs=1e-12 * len(values) * scale * scale + subnormal_places)


@settings(max_examples=30, deadline=None)
@example(n=3, p=0.99, seed=0, start=0)  # a full mask: worst case 0
@example(n=127, p=0.01, seed=1, start=0)  # n_p of 0 or 1
@given(
    n=st.sampled_from([2, 3, 5, 7, 13, 127, 257, 1543, 1999]),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 17),
)
def test_block_kernel_peaks_respect_worst_case(n, p, seed, start):
    # at prime N no mask with n_p ones has a peak above the contiguous block's
    for t in range(start, start + 16):
        stats, _ = _chunk(n, p, seed, t, t + 1)
        n_p = int(stats.n_p_stats.max)
        peak = stats.per_trial_max.max
        bound = bounds.worst_case_bound(n, n_p) if n_p else 0.0
        assert peak <= _allowed(bound, n), (t, n_p)


@pytest.mark.parametrize("p", [0.1, 0.5])
@pytest.mark.parametrize("n", [17, 19])
def test_engine_matches_the_exact_law(n, p):
    # all 2^N masks enumerated give the exact law of each statistic. A mask
    # that ties the worst-case bound, as a block does, is no exceedance: at
    # N = 17, p = 0.5 ties carry probability 0.0021 and nothing exceeds
    trials = 100_000
    limits = bounds.thresholds(n, p)
    stats = _stats(ExperimentSpec(n, p, trials, seed=1729, thresholds=tuple(limits.items())))
    peaks, weights = exact_peak_law(n)
    probs = p**weights * (1.0 - p) ** (n - weights)
    mean = float(probs @ peaks)
    peak_se = math.sqrt((float(probs @ (peaks * peaks)) - mean * mean) / trials)
    assert abs(stats.per_trial_max.mean - mean) <= 4.0 * peak_se
    assert abs(stats.n_p_stats.mean - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p) / trials)
    for label, value in limits.items():
        rate = float(probs[peaks > _allowed(value, n)].sum())
        low, high = binom.ppf([0.0005, 0.9995], trials, rate)
        assert low <= stats.exceedance_counts[label] <= high, (label, stats.exceedance_counts[label], rate)


@settings(max_examples=100, deadline=None)
@example(values=[0.1, 0.1, 0.1], split=1)  # a plain mean lands above 0.1, and M2 at about 6e-34
@example(values=[1e3, -1e3], split=0)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200), split=st.integers(0, 200))
def test_running_stats_from_values_matches_push(values, split):
    x = np.array(values)
    got = RunningStats.from_values(x)
    want = _stats_of(values)
    scale = max(1.0, float(np.abs(x).max()))
    assert (got.count, got.min, got.max) == (want.count, want.min, want.max)
    _assert_stats_close(got, want, scale)
    halves = RunningStats.from_values(x[:split])
    halves.merge(RunningStats.from_values(x[split:]))
    _assert_stats_close(halves, got, scale)
    assert got.min <= got.mean <= got.max
    constant = RunningStats.from_values(np.full(x.size, x[0]))
    assert (constant.mean, constant._m2, constant.variance) == (x[0], 0.0, 0.0)
    assert RunningStats.from_values(x[:0]) == RunningStats()
