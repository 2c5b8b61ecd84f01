import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskspectra import bounds
from maskspectra.masks import MaskConfig, generate_mask
from maskspectra.montecarlo import (
    TABLE1_COLUMNS,
    TABLE1_ROWS,
    ExperimentSpec,
    RunningStats,
    TrialStats,
    exceedance_rate,
    figure_curves,
    noise_ratio_curves,
    records_to_csv,
    records_to_json,
    run_experiment,
    table1_report,
)
from maskspectra.spectrum import max_nonzero_bin, spectrum_of_mask


def test_running_stats_against_numpy():
    rng = np.random.Generator(np.random.Philox(key=5))
    data = rng.random(500) * 10.0
    rs = RunningStats()
    for x in data:
        rs.push(float(x))
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
        whole.push(float(x))
    left, right = RunningStats(), RunningStats()
    for x in data[:400]:
        left.push(float(x))
    for x in data[400:]:
        right.push(float(x))
    left.merge(right)
    assert left.count == whole.count
    assert left.mean == pytest.approx(whole.mean, rel=1e-13)
    assert left.variance == pytest.approx(whole.variance, rel=1e-10)
    assert (left.min, left.max) == (whole.min, whole.max)


def test_running_stats_merge_empty():
    rs = RunningStats()
    rs.push(2.0)
    rs.merge(RunningStats())
    assert (rs.count, rs.mean) == (1, 2.0)
    empty = RunningStats()
    empty.merge(rs)
    assert (empty.count, empty.mean) == (1, 2.0)


def test_run_experiment_reruns_identically():
    spec = ExperimentSpec(MaskConfig(127, 0.5, seed=3), trials=700)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.per_trial_max == b.per_trial_max
    assert a.mean_abs == b.mean_abs
    assert a.n_p_stats == b.n_p_stats


def test_parallel_reduction_bit_identical():
    # 1 worker vs 4 workers must agree exactly, field by field
    cfg = MaskConfig(127, 0.5, seed=3)
    thresholds = (("t", 12.0),)
    serial = run_experiment(ExperimentSpec(cfg, trials=1500, thresholds=thresholds, workers=1))
    parallel = run_experiment(ExperimentSpec(cfg, trials=1500, thresholds=thresholds, workers=4))
    assert serial.trials == parallel.trials
    assert serial.per_trial_max == parallel.per_trial_max
    assert serial.mean_abs == parallel.mean_abs
    assert serial.n_p_stats == parallel.n_p_stats
    assert serial.exceedance_counts == parallel.exceedance_counts
    assert serial.global_max == parallel.global_max


def test_trial_stats_basic_ordering():
    stats = run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=8), trials=300))
    assert stats.global_max >= stats.per_trial_max.mean >= 0.0
    assert stats.per_trial_max.mean >= stats.mean_abs_coeff
    assert stats.n_p_stats.mean == pytest.approx(63.5, abs=2.0)


def test_flat_mask_trial_has_zero_peak():
    # p -> 1 boundary: the realized mask is all ones, so no off-center energy
    cfg = MaskConfig(127, 1.0 - 1e-12, seed=3)
    assert generate_mask(cfg, 0).n_p == 127
    stats = run_experiment(ExperimentSpec(cfg, trials=1))
    assert stats.per_trial_max.mean == pytest.approx(0.0, abs=1e-9)


def test_exceedance_zero_threshold_always_hit():
    spec = ExperimentSpec(MaskConfig(127, 0.5, seed=5), trials=300, thresholds=(("zero", 0.0),))
    assert exceedance_rate(run_experiment(spec), "zero") == 1.0


def test_exceedance_gaussian_bound_never_hit():
    t = bounds.gaussian_bound(bounds.BoundSpec(127, 0.5, epsilon=1e-4))
    spec = ExperimentSpec(MaskConfig(127, 0.5, seed=5), trials=2000, thresholds=(("g", t),))
    assert exceedance_rate(run_experiment(spec), "g") == 0.0


def test_exceedance_three_sigma_band():
    # 3-sigma sits low enough in the tail to be crossed occasionally
    s3 = bounds.sigma_bound(127, 0.5, 3)
    spec = ExperimentSpec(MaskConfig(127, 0.5, seed=7), trials=2000, thresholds=(("s3", s3),))
    rate = exceedance_rate(run_experiment(spec), "s3")
    assert 0.0 < rate < 0.2


def test_exceedance_unknown_label():
    stats = run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=5), trials=10))
    with pytest.raises(KeyError):
        exceedance_rate(stats, "nope")


def test_conditioned_peaks_respect_worst_case():
    cfg = MaskConfig(127, 0.5, seed=13)
    for t in range(400):
        mask = generate_mask(cfg, t)
        if mask.n_p == 0:
            continue
        _, peak = max_nonzero_bin(spectrum_of_mask(mask))
        assert peak <= bounds.worst_case_bound(127, mask.n_p) + 1e-9


def test_peak_mean_grows_like_sqrt_log_n():
    def ev_mean(n, p):
        scale = math.sqrt(p * (1.0 - p) * n / 2.0)
        g = math.sqrt(2.0 * math.log((n - 1) / 2))
        return scale * (g + np.euler_gamma / g)

    small = run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=7), trials=1000))
    big = run_experiment(ExperimentSpec(MaskConfig(8191, 0.5, seed=7), trials=1000))
    sim_ratio = big.per_trial_max.mean / small.per_trial_max.mean
    oracle_ratio = ev_mean(8191, 0.5) / ev_mean(127, 0.5)
    assert abs(sim_ratio / oracle_ratio - 1.0) <= 0.2


def test_streaming_memory_footprint():
    # aggregates only: far below the ~80 MB a trials-by-N retention would need
    tracemalloc.start()
    run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=9), trials=20000))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 20 * 1024 * 1024


def test_table1_row_values():
    rows = table1_report([(127, 0.5)], trials=3000, seed=7)
    row = rows[0]
    assert list(row.keys()) == list(TABLE1_COLUMNS)
    assert row["n_p"] == 64
    assert row["bound_worst"] == pytest.approx(40.426, abs=1e-3)
    assert round(row["bound_ratio"], 3) == 0.637
    assert row["sim_max_mean"] == pytest.approx(11.55, rel=0.10)
    assert row["sim_ratio"] == pytest.approx(row["sim_max_mean"] / 64)


def test_table1_default_grid_shape():
    rows = table1_report(TABLE1_ROWS, trials=20, seed=1, large_n_trials=20)
    assert len(rows) == 9
    assert [(r["N"], r["p"]) for r in rows] == list(TABLE1_ROWS)
    again = table1_report(TABLE1_ROWS, trials=20, seed=1, large_n_trials=20)
    assert rows == again


def test_table1_rejects_empty():
    with pytest.raises(ValueError):
        table1_report([], trials=10, seed=1)


def test_figure_curves_layering_at_half_rate():
    records = figure_curves(0.5, [127, 521], trials=800, seed=7)
    for rec in records:
        assert rec["worst_case"] >= rec["gaussian_T"] >= rec["sim_global_max"]
        assert rec["sim_global_max"] >= rec["sim_max_mean"] >= rec["mean_abs"]
        assert rec["sigma4"] == (4.0 / 3.0) * rec["sigma3"]


def test_noise_ratio_curve_shape_and_consistency():
    cfg = MaskConfig(1009, 0.1, seed=7)
    [curve] = noise_ratio_curves([cfg], trials=300)
    assert curve.shape == (1008,)
    stats = run_experiment(ExperimentSpec(cfg, trials=300))
    assert float(curve.max() * 1009 * 0.1) == stats.global_max


def test_noise_ratio_higher_rate_is_quieter():
    low, high = noise_ratio_curves([MaskConfig(1009, 0.1, seed=7), MaskConfig(1009, 0.8, seed=7)], trials=300)
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


def _assert_counts_bracketed(counts, peaks, thresholds, n):
    # a peak within 1e-12 * N of a threshold may fall on either side of it
    for label, value in thresholds:
        low = sum(peak > value + 1e-12 * n for peak in peaks)
        high = sum(peak > value - 1e-12 * n for peak in peaks)
        assert low <= counts[label] <= high, label


def test_engine_matches_per_trial_oracle():
    # the plain per-trial path, pushed chunk by chunk and merged in chunk
    # order as the engine does; 1100 trials span three chunks
    import maskspectra.montecarlo as mc

    cfg = MaskConfig(257, 0.3, seed=11)
    thresholds = (("s3", bounds.sigma_bound(257, 0.3, 3)), ("s4", bounds.sigma_bound(257, 0.3, 4)))
    peaks, means, n_ps = RunningStats(), RunningStats(), RunningStats()
    all_peaks = []
    bin_max = np.zeros(256)
    for start in range(0, 1100, mc._CHUNK_TRIALS):
        chunk = (RunningStats(), RunningStats(), RunningStats())
        for t in range(start, min(start + mc._CHUNK_TRIALS, 1100)):
            mask = generate_mask(cfg, t)
            coeffs = spectrum_of_mask(mask)
            _, peak = max_nonzero_bin(coeffs)
            mags = np.abs(coeffs[1:])
            chunk[0].push(peak)
            chunk[1].push(float(mags.mean()))
            chunk[2].push(float(mask.n_p))
            all_peaks.append(peak)
            bin_max = np.maximum(bin_max, mags)
        for total, part in zip((peaks, means, n_ps), chunk):
            total.merge(part)
    stats = run_experiment(ExperimentSpec(cfg, trials=1100, thresholds=thresholds))
    assert stats.trials == 1100
    _assert_stats_close(stats.per_trial_max, peaks, 257)
    _assert_stats_close(stats.mean_abs, means, 257)
    _assert_stats_close(stats.n_p_stats, n_ps, 257)
    _assert_counts_bracketed(stats.exceedance_counts, all_peaks, thresholds, 257)
    assert 0 < stats.exceedance_counts["s3"] < 1100
    _assert_bins_close(noise_ratio_curves([cfg], trials=1100)[0] * (257 * 0.3), bin_max, 257)


def _oracle_chunk(config, start, stop):
    # the per-trial path: one Philox, Mask and transform per trial
    stats = TrialStats()
    peaks = []
    bin_max = np.zeros(config.n - 1)
    for t in range(start, stop):
        mask = generate_mask(config, t)
        mags = np.abs(spectrum_of_mask(mask)[1:])
        peak = float(mags.max())
        stats.trials += 1
        stats.per_trial_max.push(peak)
        stats.mean_abs.push(float(mags.mean()))
        stats.n_p_stats.push(float(mask.n_p))
        peaks.append(peak)
        bin_max = np.maximum(bin_max, mags)
    return stats, peaks, bin_max


def _chunk(config, start, stop, thresholds=()):
    # the chunk kernel at config's rate alone: one (stats, per-bin max)
    import maskspectra.montecarlo as mc

    [result] = mc._run_chunk((config.n, config.seed, start, stop, ((config.p, thresholds),)))
    return result


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
    config = MaskConfig(n, p, seed=seed)
    thresholds = (("s3", bounds.sigma_bound(n, p, 3)), ("zero", 0.0))
    stats, bin_max = _chunk(config, start, start + count, thresholds)
    oracle, peaks, oracle_bin_max = _oracle_chunk(config, start, start + count)
    assert stats.trials == oracle.trials == count
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
    config = MaskConfig(n, p, seed=seed)
    thresholds = (("s3", bounds.sigma_bound(n, p, 3)),)
    a, b, c = start, start + first, start + first + second
    whole, whole_bins = _chunk(config, a, c, thresholds)
    left, left_bins = _chunk(config, a, b, thresholds)
    right, right_bins = _chunk(config, b, c, thresholds)
    assert whole.trials == left.trials + right.trials == c - a
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

    config = MaskConfig(8191, 0.5, seed=3)
    tracemalloc.start()
    stats, _ = _chunk(config, 0, mc._CHUNK_TRIALS)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert stats.trials == mc._CHUNK_TRIALS
    assert peak < 16 * 1024 * 1024


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for the process pool; records the size each
    pool was opened with and the batch size of each ``map``."""
    import maskspectra.montecarlo as mc

    opened, chunksizes = [], []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", FakePool)
    return opened, chunksizes


def test_worker_count_is_clamped_without_spawning(monkeypatch, fake_pool):
    import os

    opened, chunksizes = fake_pool
    for cpu in (2, 8):
        monkeypatch.setattr(os, "cpu_count", lambda cpu=cpu: cpu)
        stats = run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=1), trials=1500, workers=100000))
        assert stats.trials == 1500
    assert opened == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=1), trials=1500, workers=4))
    assert opened == [2, 3]  # unknown CPU count: runs serially, opens no pool
    # three chunks go out one per task; 17 chunks on 2 workers in batches of 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_experiment(ExperimentSpec(MaskConfig(31, 0.5, seed=1), trials=512 * 17, workers=2))
    assert opened == [2, 3, 2]
    assert chunksizes[:2] == [1, 1] and chunksizes[2] > 1


def test_every_row_shares_one_pool(monkeypatch, fake_pool, capsys):
    import os

    import maskspectra.montecarlo as mc
    from maskspectra.cli import main

    opened, chunksizes = fake_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = ((127, 0.5), (131, 0.1), (131071, 0.5))
    assert table1_report(rows, trials=1100, seed=3, large_n_trials=2, workers=2) == table1_report(
        rows, trials=1100, seed=3, large_n_trials=2
    )
    assert opened == [2]
    assert figure_curves(0.5, [127, 61], trials=600, seed=3, workers=2) == figure_curves(
        0.5, [127, 61], trials=600, seed=3
    )
    assert opened == [2, 2]
    argv = ["figure", "--mode", "ratio", "--n", "257", "--ps", "0.1,0.5,0.8", "--trials", "600", "--seed", "3"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert opened == [2, 2, 2]
    # a batch holds at most len(tasks) // (4 * workers) chunks and at most
    # _BATCH_ELEMS mask elements, counted by the largest chunk
    specs = [ExperimentSpec(MaskConfig(31, 0.5, seed=1), 512 * 40, workers=2), ExperimentSpec(MaskConfig(7, 0.5), 9)]
    mc._run(specs)
    monkeypatch.setattr(mc, "_BATCH_ELEMS", 512 * 31 * 3 + 1)
    mc._run(specs)
    assert chunksizes[-2:] == [41 // 8, 3]
    # three rates that share a draw make one task per chunk, three times the work
    mc._run([ExperimentSpec(MaskConfig(31, p, seed=1), 512 * 40, workers=2) for p in (0.2, 0.5, 0.8)])
    assert chunksizes[-1] == 1


def test_multi_spec_run_matches_one_run_per_spec():
    # chunks of specs with different N share one task list and one pool, and
    # the rates of one (N, seed, trials) share each trial's draw, yet each
    # spec's result equals its own run field for field
    import maskspectra.montecarlo as mc

    shared = 2 * 512 + 101  # the last chunk ends inside a pair
    specs = [
        ExperimentSpec(MaskConfig(61, 0.1, seed=4), shared, (("t", 6.0),)),
        ExperimentSpec(MaskConfig(31, 0.5, seed=6), 512 * 3 + 100, (("s3", bounds.sigma_bound(31, 0.5, 3)),)),
        ExperimentSpec(MaskConfig(61, 0.5, seed=4), shared, (("s3", bounds.sigma_bound(61, 0.5, 3)),)),
        ExperimentSpec(MaskConfig(64, 0.3, seed=2), 700),
        ExperimentSpec(MaskConfig(61, 0.5, seed=5), shared),  # another seed: another draw
        ExperimentSpec(MaskConfig(61, 0.9, seed=4), shared, (("s4", bounds.sigma_bound(61, 0.9, 4)), ("t", 49.0))),
        ExperimentSpec(MaskConfig(61, 0.5, seed=4), shared - 1),  # another trial count: another draw
        ExperimentSpec(MaskConfig(127, 0.8, seed=9), 300, (("t", 20.0),)),
    ]
    alone = [mc._run([spec])[0] for spec in specs]
    for workers in (1, 2, 3):
        together = mc._run([ExperimentSpec(s.config, s.trials, s.thresholds, workers) for s in specs])
        assert len(together) == len(specs)
        for (stats, bins), (want, want_bins) in zip(together, alone):
            assert stats.trials == want.trials
            assert stats.per_trial_max == want.per_trial_max
            assert stats.mean_abs == want.mean_abs
            assert stats.n_p_stats == want.n_p_stats
            assert stats.exceedance_counts == want.exceedance_counts
            assert np.array_equal(bins, want_bins)


def test_rates_of_one_draw_key_each_trial_once(monkeypatch):
    # three rates at one (N, seed, trials) threshold the same uniforms, so
    # each trial's RNG is keyed once, not once per rate
    import maskspectra.montecarlo as mc

    keyed, original = [], mc._trial_key

    def counting_key(seed, trial_index):
        keyed.append(trial_index)
        return original(seed, trial_index)

    monkeypatch.setattr(mc, "_trial_key", counting_key)
    noise_ratio_curves([MaskConfig(127, p, seed=3) for p in (0.1, 0.5, 0.8)], trials=1024, workers=1)
    assert sorted(keyed) == list(range(1024))


def test_rates_split_where_one_task_would_outweigh_a_worker(monkeypatch, fake_pool):
    # 600 trials make a 512-trial and an 88-trial chunk: with 2 workers,
    # three rates per task would leave one worker most of the work, so each
    # rate gets its own tasks; at 4096 trials the rates share them
    import os

    import maskspectra.montecarlo as mc

    rates_per_task, original = [], mc._run_chunk

    def recording(task):
        rates_per_task.append(len(task[-1]))
        return original(task)

    monkeypatch.setattr(mc, "_run_chunk", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    configs = [MaskConfig(257, p, seed=3) for p in (0.1, 0.5, 0.8)]
    serial = noise_ratio_curves(configs, trials=600)
    assert rates_per_task == [3, 3]
    rates_per_task.clear()
    split = noise_ratio_curves(configs, trials=600, workers=2)
    assert rates_per_task == [1] * 6
    assert all(np.array_equal(a, b) for a, b in zip(split, serial))
    rates_per_task.clear()
    noise_ratio_curves(configs, trials=4096, workers=2)
    assert rates_per_task == [3] * 8


def test_batched_pool_tasks_are_bit_identical():
    # 17 chunks: a pool gets them in batches, yet every field matches the
    # in-process run exactly
    import maskspectra.montecarlo as mc

    config = MaskConfig(31, 0.5, seed=6)
    thresholds = (("s3", bounds.sigma_bound(31, 0.5, 3)),)
    [(serial, serial_bins)] = mc._run([ExperimentSpec(config, 512 * 17, thresholds, workers=1)])
    for workers in (2, 3):
        [(stats, bins)] = mc._run([ExperimentSpec(config, 512 * 17, thresholds, workers=workers)])
        assert stats.trials == serial.trials == 512 * 17
        assert stats.per_trial_max == serial.per_trial_max
        assert stats.mean_abs == serial.mean_abs
        assert stats.n_p_stats == serial.n_p_stats
        assert stats.exceedance_counts == serial.exceedance_counts
        assert np.array_equal(bins, serial_bins)


def test_chunk_statistics_do_not_depend_on_block_size(monkeypatch):
    # the chunk is reduced once, after all its blocks, so the block size
    # cannot change a single bit
    import maskspectra.montecarlo as mc

    config = MaskConfig(127, 0.3, seed=4)
    task = (config, 3, 3 + mc._CHUNK_TRIALS, (("t", 10.0),))
    whole, whole_bins = _chunk(*task)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 127 * 6)
    blocked, blocked_bins = _chunk(*task)
    for name in ("per_trial_max", "mean_abs", "n_p_stats"):
        assert getattr(blocked, name) == getattr(whole, name)
    assert blocked.exceedance_counts == whole.exceedance_counts
    assert np.array_equal(blocked_bins, whole_bins)


def test_noise_ratio_parallel_matches_serial():
    cfg = MaskConfig(257, 0.5, seed=2)
    [serial] = noise_ratio_curves([cfg], trials=1200, workers=1)
    [parallel] = noise_ratio_curves([cfg], trials=1200, workers=3)
    assert np.array_equal(serial, parallel)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(MaskConfig(127, 0.5), trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(MaskConfig(127, 0.5), trials=1, workers=0)
    with pytest.raises(ValueError):
        ExperimentSpec(MaskConfig(127, 0.5), trials=1, thresholds=(("a", 1.0), ("a", 2.0)))
    # integers of any type are accepted; floats, bools and trial indices past 2**64 - 1 are not
    spec = ExperimentSpec(MaskConfig(127, 0.5), trials=np.int64(3), workers=np.int32(2))
    assert (spec.trials, spec.workers) == (3, 2) and type(spec.trials) is int and type(spec.workers) is int
    assert ExperimentSpec(MaskConfig(127, 0.5), trials=2**64).trials == 2**64
    for bad in ({"trials": 2.5}, {"trials": True}, {"trials": 2**64 + 1}, {"workers": True}, {"workers": 2.0}):
        kwargs = {"trials": 1, **bad}
        with pytest.raises(ValueError):
            ExperimentSpec(MaskConfig(127, 0.5), **kwargs)


def test_csv_rendering():
    text = records_to_csv([{"N": 127, "x": 1.23456789012345, "tag": "row"}])
    assert text == "N,x,tag\n127,1.23456789,row\n"
    with pytest.raises(ValueError):
        records_to_csv([])


def test_json_mirrors_stats_fields():
    stats = run_experiment(
        ExperimentSpec(MaskConfig(127, 0.5, seed=4), trials=64, thresholds=(("t", 10.0),))
    )
    payload = stats.to_dict()
    assert set(payload) == {
        "trials",
        "per_trial_max",
        "global_max",
        "mean_abs_coeff",
        "exceedance_counts",
        "n_p_stats",
    }
    assert payload["trials"] == 64
    assert payload["per_trial_max"]["count"] == 64
    text = records_to_json(payload)
    assert text.endswith("\n")
    import json

    assert json.loads(text)["global_max"] == stats.global_max


def test_trial_stats_merge_accumulates_counts():
    a = TrialStats(exceedance_counts={"t": 1})
    a.trials = 2
    b = TrialStats(exceedance_counts={"t": 3})
    b.trials = 5
    a.merge(b)
    assert a.trials == 7
    assert a.exceedance_counts == {"t": 4}


def test_failures_discard_all_progress(monkeypatch):
    # all-or-nothing: a failing chunk aborts the run instead of returning partials
    import maskspectra.montecarlo as mc

    calls = {"n": 0}
    original = mc._run_chunk

    def flaky(args):
        calls["n"] += 1
        if calls["n"] == 2:
            raise MemoryError("simulated exhaustion")
        return original(args)

    monkeypatch.setattr(mc, "_run_chunk", flaky)
    with pytest.raises(MemoryError):
        run_experiment(ExperimentSpec(MaskConfig(127, 0.5, seed=1), trials=1500))


def _stats_of(values):
    rs = RunningStats()
    for x in values:
        rs.push(x)
    return rs


@settings(max_examples=60, deadline=None)
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
    assert left._m2 == pytest.approx(right._m2, rel=1e-12, abs=1e-12 * len(values) * scale * scale)


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
    config = MaskConfig(n, p, seed=seed)
    for t in range(start, start + 16):
        stats, _ = _chunk(config, t, t + 1)
        n_p = int(stats.n_p_stats.max)
        peak = stats.per_trial_max.max
        bound = bounds.worst_case_bound(n, n_p) if n_p else 0.0
        assert peak <= bound * (1.0 + 1e-12) + 1e-12 * n, (t, n_p)


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
