"""Acceptance gate: every release criterion, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The heavy Monte Carlo grid (10^4 trials over
{127,1543,8191} x {0.2,0.5,0.8}) is simulated once and shared.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.fft

from maskspectra import bounds, montecarlo
from maskspectra.masks import generate_mask
from maskspectra.montecarlo import ExperimentSpec, run_experiment
from maskspectra.recovery import (
    demo_signal_path,
    read_signal_csv,
    recover,
)
from maskspectra.spectrum import transform_plan
from oracles import dft_direct, q_function, spectrum_of_mask, worst_case_cosine_sum, worst_case_mask

GRID_NS = (127, 1543, 8191)
GRID_PS = (0.2, 0.5, 0.8)
GRID_TRIALS = 10_000
GRID_SEED = 7


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def grid_stats():
    """10^4-trial runs for the (N, p) grid, thresholds at T(1e-4) and 4-sigma."""
    cells, specs = {}, []
    for n, p in itertools.product(GRID_NS, GRID_PS):
        t_gauss = bounds.gaussian_bound(n, p, epsilon=1e-4)
        s4 = bounds.sigma_bound(n, p, 4)
        cells[(n, p)] = (t_gauss, s4)
        specs.append(
            ExperimentSpec(n, p, GRID_TRIALS, GRID_SEED, thresholds=(("gaussian_T", t_gauss), ("sigma4", s4)))
        )
    # the whole grid is one driver call
    results = run_experiment(specs, workers=4)
    return {cell: (stats, *values) for (cell, values), (stats, _) in zip(cells.items(), results)}


def test_criterion_1_worst_case_reference_rows():
    # printed reference values, 0.05% relative, all nine rows inside 1 second
    rows = [
        (127, 64, 40.426),
        (127, 102, 23.439),
        (127, 13, 12.778),
        (1543, 772, 491.152),
        (1543, 1235, 288.207),
        (1543, 155, 152.44),
        (131071, 65535, 4.172e4),
        (131071, 104856, 2.452e4),
        (131071, 13107, 1.289e4),
    ]
    start = time.perf_counter()
    for n, n_p, expected in rows:
        value = bounds.worst_case_bound(n, n_p)
        assert abs(value - expected) / expected <= 5e-4, (n, n_p, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (worst-case rows)", f"9 rows, {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence_full_prime_grid():
    sieve = np.ones(2001, dtype=bool)
    sieve[:2] = False
    for i in range(2, 45):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve)
    start = time.perf_counter()
    worst = 0.0
    for n in primes:
        n = int(n)
        for n_p in range(1, n + 1):
            w = bounds.worst_case_bound(n, n_p)
            d = worst_case_cosine_sum(n, n_p)
            err = abs(w - d) / max(1.0, d)
            worst = max(worst, err)
            assert err <= 1e-9, (n, n_p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 2 (oracle equivalence)", f"{len(primes)} primes, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_exhaustive_maximality_small_n():
    # every nonzero mask, in chunks of 2^16 so memory stays bounded
    chunk = 1 << 16
    start = time.perf_counter()
    for n in (7, 11, 13, 17, 19):
        kernel = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        class_max = np.zeros(n + 1)
        for lo in range(1, 2**n, chunk):
            codes = np.arange(lo, min(lo + chunk, 2**n), dtype=np.uint32)
            bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
            peaks = np.abs(bits @ kernel.T)[:, 1:].max(axis=1)
            pops = bits.sum(axis=1).astype(int)
            np.maximum.at(class_max, pops, peaks)
        for n_p in range(1, n + 1):
            bound = bounds.worst_case_bound(n, n_p)
            assert class_max[n_p] <= bound + 1e-9, (n, n_p)
            # the contiguous block attains it
            assert abs(class_max[n_p] - bound) <= 1e-9, (n, n_p)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 3 (exhaustive maximality)", f"N in 7/11/13/17/19, {elapsed:.1f}s")


def test_criterion_4_simulated_maxima_match_reference_table():
    # Statistic: mean over trials of the per-trial max. The printed row
    # (N=127-as-typed, p=0.8, sim 617.2) is a table erratum (inconsistent
    # with every other row and the extreme-value scale) and is excluded.
    # N=131071 runs the desk-scale 10^3-trial substitute; the statistic is
    # trial-count-insensitive.
    [(stats_a, _), (stats_b, _), (stats_c, _)] = run_experiment(
        [
            ExperimentSpec(127, 0.5, 100_000, GRID_SEED),
            ExperimentSpec(127, 0.1, 100_000, GRID_SEED),
            ExperimentSpec(131071, 0.5, 1000, GRID_SEED),
        ],
        workers=4,
    )
    assert stats_a.per_trial_max.mean == pytest.approx(11.55, rel=0.10)

    ratio = stats_b.per_trial_max.mean / math.ceil(127 * 0.1)
    assert ratio == pytest.approx(0.607, rel=0.15)

    assert stats_c.per_trial_max.mean == pytest.approx(618.65, rel=0.10)
    _report(
        "criterion 4 (simulation columns)",
        f"mean(127,.5)={stats_a.per_trial_max.mean:.2f}, ratio(127,.1)={ratio:.3f}, "
        f"mean(131071,.5)={stats_c.per_trial_max.mean:.1f}",
    )


def test_criterion_5_gaussian_bound_is_confident(grid_stats):
    for (n, p), (stats, t_gauss, _) in grid_stats.items():
        assert stats.exceedance_counts["gaussian_T"] / stats.per_trial_max.count == 0.0, (n, p, t_gauss)
    _report("criterion 5 (confident bound)", f"0 exceedances of T(1e-4) across {len(grid_stats)} cells x 10^4 trials")


def test_criterion_6_four_sigma_tracks_the_maximum(grid_stats):
    total_exceed = 0
    for (n, p), (stats, _, s4) in grid_stats.items():
        assert 0.75 <= s4 / stats.per_trial_max.max <= 1.25, (n, p, s4, stats.per_trial_max.max)
        total_exceed += stats.exceedance_counts["sigma4"]
    assert total_exceed > 0  # sometimes sits under the maximum curve
    _report("criterion 6 (4-sigma tracking)", f"within 25% everywhere, {total_exceed} exceedances on grid")


def test_criterion_7_ratio_approximation_fidelity():
    # the approximation is of the contiguous block's peak ratio, which is
    # the worst case at prime N only, so the composite N = 1000 and 4096
    # are compared with the block's peak too
    worst = 0.0
    for n in (1000, 1009, 1543, 4096, 8191, 10007, 65537, 100003, 131071):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            n_p = math.ceil(n * p)
            exact = worst_case_cosine_sum(n, n_p) / n_p
            diff = abs(bounds.ratio_approximation(n, p) - exact)
            worst = max(worst, diff)
            assert diff <= 0.02, (n, p, diff)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        limit = math.sin(p * math.pi) / (p * math.pi)
        assert abs(bounds.ratio_approximation(10**6, p) - limit) < 1e-3, p
    _report("criterion 7 (approximation fidelity)", f"worst spread {worst:.4f} <= 0.02, limit checks pass")


def test_criterion_8_invariant_suites(monkeypatch):
    # Parseval, conjugate symmetry, DC bin = n_p: 1000 masks over three lengths
    for n, count in ((7, 334), (127, 333), (1543, 333)):
        for t in range(count):
            mask = generate_mask(n, 0.5, n + 1, t)
            coeffs = spectrum_of_mask(mask)
            mags = np.abs(coeffs)
            assert abs(coeffs[0] - np.count_nonzero(mask)) <= 1e-9
            assert np.allclose(mags[1:], mags[1:][::-1], rtol=1e-9, atol=1e-12)
            energy_time = n * float(np.sum(mask.astype(float) ** 2))
            if energy_time:
                assert float(np.sum(mags**2)) == pytest.approx(energy_time, rel=1e-6)

    # fast transform == direct transform
    rng = np.random.Generator(np.random.Philox(key=99))
    for n in (17, 127, 1024, 1543, 4093, 4096):
        x = rng.random(n) - 0.5
        a, b = scipy.fft.fft(x), dft_direct(x)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max(), n

    # deterministic parallel reduction: 1 worker vs 8, bit-identical, with
    # the break-even lowered so the 8-worker run starts a pool
    monkeypatch.setattr(montecarlo, "_POOL_MIN_ELEMS", 0)
    spec = ExperimentSpec(127, 0.5, 2000, seed=31, thresholds=(("t", 11.0),))
    [(one, _)] = run_experiment([spec], workers=1)
    [(eight, _)] = run_experiment([spec], workers=8)
    assert one.per_trial_max == eight.per_trial_max
    assert one.mean_abs == eight.mean_abs
    assert one.n_p_stats == eight.n_p_stats
    assert one.exceedance_counts == eight.exceedance_counts

    # Q / Q-inverse round trip
    for y in (0.4, 0.1, 1e-3, 1e-7, 1e-12):
        assert abs(q_function(bounds.q_inverse(y)) - y) <= 1e-12 * y
    for x in (0.0, 0.5, 2.345, 6.0):
        assert bounds.q_inverse(q_function(x)) == pytest.approx(x, abs=1e-9)
    _report("criterion 8 (invariant suites)", "Parseval/symmetry/DC, fast==direct, 1v8 workers, Q round trip")


def test_criterion_9_recovery_demo():
    x = read_signal_csv(demo_signal_path())
    n = x.size

    # full sampling: one iteration, threshold below the weakest band line
    full = worst_case_mask(n, n)
    estimate, history = recover(x, full, iterations=1, reference=x)
    assert history[-1][2] >= 100.0

    # half-rate sampling of the bundled fixture reaches 40 dB inside 50
    # iterations under every mask seed 0..39, not just a lucky one
    finals = {}
    for seed in range(40):
        mask = generate_mask(n, 0.5, seed)
        _, history = recover(x, mask, iterations=50, reference=x)
        finals[seed] = history[-1][2]
    failed = {seed: round(snr, 2) for seed, snr in finals.items() if not snr >= 40.0}
    assert not failed, f"mask seeds below 40 dB: {failed}"

    # fixed point: the true signal is stationary under one more step
    mask = generate_mask(n, 0.5, 11)
    z = x + min(n / np.count_nonzero(mask), 2.0) * (x * mask - mask * x)
    plan = transform_plan(n)
    step = plan.from_order(plan.synthesize(*plan.analyze(plan.to_order(z)), 5.0))
    assert np.abs(step - x).max() < 1e-9
    _report(
        "criterion 9 (recovery demo)",
        f"full-rate exact, half-rate >= {min(finals.values()):.1f} dB over 40 mask seeds, fixed point holds",
    )
