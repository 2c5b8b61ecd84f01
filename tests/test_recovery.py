import math
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskspectra import recovery, spectrum
from maskspectra.bounds import ratio_approximation
from maskspectra.masks import MaskConfig, generate_mask, worst_case_mask
from maskspectra.recovery import (
    RecoverySpec,
    SignalSpec,
    default_initial_threshold,
    demo_signal_path,
    demo_signal_spec,
    hard_threshold,
    history_to_csv,
    random_band_signal,
    read_signal_csv,
    recover,
    recovery_step,
    sample_random,
    snr_db,
    synthesize_signal,
    write_signal_csv,
)
from maskspectra.spectrum import dft_direct

DEMO = demo_signal_spec()
DEMO_X = synthesize_signal(DEMO)
DEMO_MASK = generate_mask(MaskConfig(127, 0.5, seed=11), 0)


def test_dc_only_band_gives_constant_signal():
    x = synthesize_signal(SignalSpec(n=16, band=(0,), amplitudes=(16.0 + 0j,)))
    assert np.allclose(x, 1.0, atol=1e-12)


def test_empty_band_gives_zero_signal():
    x = synthesize_signal(SignalSpec(n=16, band=(), amplitudes=()))
    assert np.all(x == 0.0)


def test_random_symmetric_band_roundtrip():
    spec = random_band_signal(127, pairs=2, seed=21, dc=3.0)
    assert len(spec.band) == 5
    x = synthesize_signal(spec)
    coeffs = scipy.fft.fft(x)
    off_band = np.delete(np.abs(coeffs), list(spec.band))
    assert off_band.max() < 1e-9


def test_random_band_signal_takes_integers_only():
    # numpy integers are integers; floats and bools would silently become other seeds
    assert random_band_signal(127, np.int64(3), seed=np.uint64(5)) == random_band_signal(127, 3, seed=5)
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"pairs": 2.5}, {"pairs": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            random_band_signal(127, **{"pairs": 2, **kwargs})


def test_asymmetric_band_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        synthesize_signal(SignalSpec(n=16, band=(1,), amplitudes=(1.0 + 0j,)))
    with pytest.raises(ValueError, match="symmetric"):
        synthesize_signal(SignalSpec(n=16, band=(0,), amplitudes=(1.0 + 1.0j,)))


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(n=8, band=(9,), amplitudes=(1.0,))
    with pytest.raises(ValueError):
        SignalSpec(n=8, band=(1, 1), amplitudes=(1.0, 1.0))
    with pytest.raises(ValueError):
        SignalSpec(n=8, band=(1,), amplitudes=(1.0, 2.0))


def test_sample_random_identity_and_annihilation():
    x = DEMO_X
    assert np.array_equal(sample_random(x, worst_case_mask(127, 127)), x)
    assert np.all(sample_random(x, worst_case_mask(127, 0)) == 0.0)
    with pytest.raises(ValueError):
        sample_random(x[:64], DEMO_MASK)


def test_sampling_is_circular_convolution_in_frequency():
    n = 127
    x = DEMO_X
    mask = DEMO_MASK
    lhs = scipy.fft.fft(sample_random(x, mask))
    big_x = scipy.fft.fft(x)
    big_m = scipy.fft.fft(mask.bits.astype(float))
    rhs = np.array([np.sum(big_x * big_m[(k - np.arange(n)) % n]) for k in range(n)]) / n
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()


def test_hard_threshold_energy_never_grows():
    rng = np.random.Generator(np.random.Philox(key=31))
    coeffs = rng.normal(size=64) + 1j * rng.normal(size=64)
    base = float(np.linalg.norm(coeffs))
    for t in (0.0, 0.5, 1.0, 2.5, 10.0):
        kept = hard_threshold(coeffs, t)
        assert float(np.linalg.norm(kept)) <= base + 1e-12
    with pytest.raises(ValueError):
        hard_threshold(coeffs, -1.0)


def test_snr_db_values():
    x = np.array([3.0, 4.0])
    assert snr_db(x, x) == math.inf
    assert snr_db(x, np.zeros(2)) == pytest.approx(0.0)
    assert snr_db(x, x - np.array([0.3, 0.4])) == pytest.approx(20.0)
    assert snr_db(np.zeros(3), np.ones(3)) == -math.inf


def test_snr_db_rejects_mismatched_shapes():
    # broadcasting would score a length-1 estimate against every sample
    with pytest.raises(ValueError, match="shape"):
        snr_db(np.ones(4), np.zeros(1))
    with pytest.raises(ValueError, match="shape"):
        snr_db(np.ones((2, 3)), np.ones(3))


def test_fixed_point_of_recovery_step():
    # estimate == true signal stays put when T is below the on-band minimum (10)
    xs = sample_random(DEMO_X, DEMO_MASK)
    out = recovery_step(xs, DEMO_MASK, DEMO_X, threshold=5.0)
    assert np.abs(out - DEMO_X).max() < 1e-9


def test_full_sampling_recovers_in_one_iteration():
    mask = worst_case_mask(127, 127)
    xs = sample_random(DEMO_X, mask)
    spec = RecoverySpec(mask=mask, iterations=1, t0=5.0)
    estimate, history = recover(xs, spec, reference=DEMO_X)
    assert history[-1][2] >= 100.0
    assert np.abs(estimate - DEMO_X).max() < 1e-10


def test_demo_recovery_reaches_forty_db():
    xs = sample_random(DEMO_X, DEMO_MASK)
    estimate, history = recover(xs, RecoverySpec(mask=DEMO_MASK, iterations=50), reference=DEMO_X)
    assert history[-1][2] >= 40.0
    assert len(history) == 50


def test_low_threshold_admits_alias_bins_on_first_pass():
    # starting below the aliasing-noise floor keeps off-band bins immediately
    xs = sample_random(DEMO_X, DEMO_MASK)
    kept = hard_threshold(scipy.fft.fft(xs), 1.0)
    support = set(np.flatnonzero(np.abs(kept) > 0.0).tolist())
    assert set(DEMO.band) < support  # strictly larger than the true band


def test_reference_never_stops_the_loop():
    # the reference only scores: against -x the SNR falls as the estimate
    # improves, yet every iteration runs and nothing warns
    xs = sample_random(DEMO_X, DEMO_MASK)
    spec = RecoverySpec(mask=DEMO_MASK, iterations=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = recover(xs, spec, reference=-DEMO_X)
    assert [i for i, _, _ in history] == list(range(50))


def test_converged_estimate_matches_known_samples():
    xs = sample_random(DEMO_X, DEMO_MASK)
    estimate, _ = recover(xs, RecoverySpec(mask=DEMO_MASK, iterations=200), reference=DEMO_X)
    on_mask = estimate * DEMO_MASK.bits
    assert np.linalg.norm(on_mask - xs) <= 1e-6 * np.linalg.norm(xs)


def test_default_threshold_rules():
    xs = sample_random(DEMO_X, DEMO_MASK)
    t0 = default_initial_threshold(xs, DEMO_MASK)
    peak = float(np.abs(scipy.fft.fft(xs)).max())
    assert t0 > peak  # margin above every sampled-spectrum line
    with pytest.raises(ValueError):
        default_initial_threshold(xs, worst_case_mask(127, 0))
    with pytest.raises(ValueError):
        default_initial_threshold(np.zeros(127), DEMO_MASK)


def test_default_threshold_margin_divides_by_n_p():
    # at N = 1543, ceil(N * (49/N)) rounds up to 50; the margin is over n_p = 49
    n, n_p = 1543, 49
    mask = worst_case_mask(n, n_p)
    assert math.ceil(n * (n_p / n)) == n_p + 1
    xs = sample_random(synthesize_signal(random_band_signal(n, 4, seed=3)), mask)
    p_hat = n_p / n
    c = ratio_approximation(n, p_hat) + 3.0 * math.sqrt(p_hat * (1.0 - p_hat) * n) / n_p
    want = c * float(np.abs(scipy.fft.fft(xs)).max()) / p_hat
    assert default_initial_threshold(xs, mask) == pytest.approx(want, rel=1e-12)


def test_recovery_spec_validation():
    with pytest.raises(ValueError):
        RecoverySpec(mask=DEMO_MASK, iterations=0)
    with pytest.raises(ValueError):
        RecoverySpec(mask=DEMO_MASK, t0=0.0)
    with pytest.raises(ValueError):
        RecoverySpec(mask=DEMO_MASK, alpha=0.0)
    with pytest.raises(ValueError):
        recover(np.zeros(64), RecoverySpec(mask=DEMO_MASK, t0=1.0))


def test_recovery_spec_iterations_must_be_an_integer():
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="iterations"):
            RecoverySpec(mask=DEMO_MASK, iterations=bad)
    spec = RecoverySpec(mask=DEMO_MASK, iterations=np.int64(3))
    assert type(spec.iterations) is int and spec.iterations == 3


@pytest.mark.parametrize("n", [127, 8191])
def test_recover_rejects_mismatched_reference(n):
    mask = generate_mask(MaskConfig(n, 0.5, seed=4), 0)
    x = synthesize_signal(random_band_signal(n, 2, seed=4))
    xs = sample_random(x, mask)
    for bad in (x[:1], x[:-1], np.stack((x, x))):
        with pytest.raises(ValueError, match="reference"):
            recover(xs, RecoverySpec(mask=mask, iterations=2), reference=bad)


def test_history_without_reference_has_nan_snr():
    xs = sample_random(DEMO_X, DEMO_MASK)
    _, history = recover(xs, RecoverySpec(mask=DEMO_MASK, iterations=3))
    assert len(history) == 3
    assert all(math.isnan(snr) for _, _, snr in history)


def test_history_csv_format():
    text = history_to_csv([(0, 33.0, 1.5), (1, 29.9, 2.25)])
    lines = text.splitlines()
    assert lines[0] == "iteration,threshold,snr_db"
    assert lines[1] == "0,33,1.5"
    assert text.endswith("\n")


def test_signal_csv_roundtrip(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal_csv(path, DEMO_X)
    assert np.array_equal(read_signal_csv(path), DEMO_X)


def test_signal_csv_rejects_gaps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\n2,2.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_signal_csv(empty)
    nonfinite = tmp_path / "nonfinite.csv"
    nonfinite.write_text("0,nan\n1,inf\n2,1.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(nonfinite)
    for name, text in (
        ("float_index", "0,1.0\n1.0,2.0\n"),
        ("three_fields", "0,1.0\n1,2.0,3.0\n"),
        ("one_field", "0,1.0\n1\n"),
        ("non_numeric", "0,1.0\n1,abc\n"),
        ("comment", "0,1.0\n# note\n1,2.0\n"),
        ("duplicate", "0,1.0\n0,2.0\n1,3.0\n"),
        ("negative_infinity", "0,1.0\n1,-inf\n"),
        ("blank_only", "\n  \n"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        with pytest.raises(ValueError):
            read_signal_csv(bad)


def test_signal_csv_skips_blank_lines_and_sorts_indices(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("\n1,-2.5\n  \n0,0.1\n\n2,1e-300\n")
    assert read_signal_csv(path).tolist() == [0.1, -2.5, 1e-300]


def test_bundled_fixture_matches_spec():
    x = read_signal_csv(demo_signal_path())
    assert np.array_equal(x, DEMO_X)


# Primes whose N - 1 has no factor above 43, small enough for dft_direct.
RADER_PRIMES = (3, 5, 7, 11, 13, 29, 31, 43, 47, 59, 83, 127, 173, 211)


def _natural_order(plan, x0, x):
    """The Rader-ordered (x0, x) in natural order."""
    out = np.empty(x.shape[:-1] + (plan.n,))
    out[..., 0] = x0
    out[..., plan.order[1:]] = x
    return out


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=0)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1))
def test_rader_plan_matches_fft(n, seed):
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n) + 10.0  # a large mean, as a recovery estimate may have
    expected = scipy.fft.fft(z)
    scale = np.abs(expected).max()
    zr = z[plan.order]
    h0, h = plan.dht(zr[0], zr[1:])
    hartley = _natural_order(plan, h0, h)
    assert np.abs(hartley - (expected.real - expected.imag)).max() <= 1e-12 * scale
    if n < 1000:
        direct = dft_direct(z)
        assert np.abs(hartley - (direct.real - direct.imag)).max() <= 1e-12 * scale
    # the DHT is its own inverse up to n. 1e-14 is tight enough to catch a
    # kernel whose rounded sum is used as is: the large mean then moves
    # sample 0 by about 3e-13 relative at n = 8191.
    assert np.abs(_natural_order(plan, *plan.dht(h0, h)) - n * z).max() <= 1e-14 * n * np.abs(z).max()
    # in Rader order bin -k sits (n-1)/2 positions after bin k
    half = (n - 1) // 2
    g_neg = plan.order[1:]
    assert plan.order[0] == 0 and np.array_equal(np.sort(plan.order), np.arange(n))
    assert np.array_equal(g_neg[half:], n - g_neg[:half])
    mags = np.abs(expected[g_neg[:half]])
    assert np.abs(plan.pair_magnitudes(h) - mags).max() <= 1e-12 * scale
    # batched along the last axis
    pair = np.stack((z, rng.normal(size=n)))
    pr = pair[:, plan.order]
    b0, b = plan.dht(pr[:, 0], pr[:, 1:])
    assert np.abs(_natural_order(plan, b0, b)[0] - hartley).max() <= 1e-12 * scale
    assert np.abs(_natural_order(plan, *plan.dht(b0, b)) - n * pair).max() <= 1e-12 * n * np.abs(pair).max()


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=2, offset=1e3)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, 1.0, 1e3]))
def test_rader_dht_is_its_own_inverse(n, seed, offset):
    # in Rader order, with no permutation on either side: dht(dht(x)) = n x
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    x0, x = offset + rng.normal(), offset + rng.normal(size=n - 1)
    y0, y = plan.dht(*plan.dht(x0, x))
    tol = 1e-14 * n * max(abs(x0), np.abs(x).max())
    assert abs(y0 - n * x0) <= tol
    assert np.abs(y - n * x).max() <= tol


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=1)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1))
def test_rader_inverse_of_kept_pairs_is_real_ifft(n, seed):
    # for any kept set closed under k <-> -k, the DHT of the kept Hartley
    # bins over n is ifft(kept).real: what the Rader step relies on
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n)
    keep_pairs = rng.random((n - 1) // 2) < 0.3
    keep_dc = bool(rng.random() < 0.5)
    zr = z[plan.order]
    h0, h = plan.dht(zr[0], zr[1:])
    h.reshape(2, -1)[...] *= keep_pairs / n
    got = _natural_order(plan, *plan.dht(h0 / n if keep_dc else 0.0, h))
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep_dc
    keep[plan.order[1:]] = np.tile(keep_pairs, 2)
    assert np.array_equal(keep[1:], keep[1:][::-1])
    want = scipy.fft.ifft(scipy.fft.fft(z) * keep).real
    assert np.abs(got - want).max() <= 1e-12 * np.abs(z).max()


def test_rader_step_matches_scipy_step(monkeypatch):
    n = 8191
    x = synthesize_signal(random_band_signal(n, 8, seed=7))
    mask = generate_mask(MaskConfig(n, 0.5, seed=8), 0)
    xs = sample_random(x, mask)
    rng = np.random.Generator(np.random.Philox(key=9))
    estimate = x + 0.01 * rng.normal(size=n) + 0.2  # off-band noise and a DC offset
    assert spectrum._rader_plan((n,)) is not None
    z = xs + (1.0 - mask.bits) * estimate
    spectrum_z = scipy.fft.fft(z)
    for threshold in (0.0, 0.05, 0.5, 1.0, 5.0, 0.999 * np.abs(spectrum_z).max(), 1e9):
        want = scipy.fft.ifft(hard_threshold(spectrum_z, threshold)).real
        got = recovery_step(xs, mask, estimate, threshold)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), np.abs(z).max()), threshold
    assert recovery_step(xs, mask, estimate, 1e9).tolist() == [0.0] * n
    with pytest.raises(ValueError, match="nonnegative"):
        recovery_step(xs, mask, estimate, -1.0)
    # the initial threshold takes its peak from the same magnitudes; here
    # the DC bin, which has no mirror, is the peak
    assert abs(spectrum_z[0]) == np.abs(spectrum_z).max()
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_rader_plan", lambda shape: None)
        want_t0 = default_initial_threshold(z, mask)
    assert default_initial_threshold(z, mask) == pytest.approx(want_t0, rel=1e-12)


def test_rader_plan_selection(monkeypatch):
    built = []

    class CountingPlan(spectrum._RaderPlan):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(spectrum, "_RaderPlan", CountingPlan)
    spectrum._cached_rader_plan.cache_clear()
    try:
        # 1542 and 131070 have the prime factor 257, 1278 = 2 * 3^2 * 71,
        # 8192 is even, and 127 and 947 qualify but lie below the crossover
        for n in (1543, 131071, 1279, 8192, 127, 947):
            assert spectrum._rader_plan((n,)) is None, n
        assert spectrum._rader_plan((1, 8191)) is None
        assert built == []
        # 8190 = 2 * 3^2 * 5 * 7 * 13, 1032 = 2^3 * 3 * 43, 1608 = 2^3 * 3 * 67
        for n in (8191, 1033, 1609):
            assert isinstance(spectrum._rader_plan((n,)), CountingPlan), n
        xs = np.zeros(8191)
        mask = generate_mask(MaskConfig(8191, 0.5, seed=1), 0)
        for _ in range(3):
            recovery_step(xs, mask, xs, 1.0)
        assert built == [8191, 1033, 1609]
    finally:
        spectrum._cached_rader_plan.cache_clear()


def test_rader_plan_survives_shapes_without_a_plan():
    # shapes without a plan are not cached, so any number of them between
    # two steps leaves the 8191 plan in place
    n = 8191
    mask = generate_mask(MaskConfig(n, 0.5, seed=2), 0)
    xs = sample_random(synthesize_signal(random_band_signal(n, 4, seed=3)), mask)
    first = recovery_step(xs, mask, np.zeros(n), 0.5)
    plan = spectrum._rader_plan((n,))
    for m in (127, 128, 1543, 1279, 947, 8192, 131071, 4099, 2048, 1000, 3):
        assert spectrum._rader_plan((m,)) is None, m
    assert spectrum._rader_plan((2, n)) is None
    assert spectrum._rader_plan((n,)) is plan
    assert np.array_equal(recovery_step(xs, mask, np.zeros(n), 0.5), first)


def test_rader_recovery_permutes_once(monkeypatch):
    # at a planned N the loop runs in Rader order: the same permutations
    # in and out whatever the number of iterations, and no recovery_step
    n = 8191
    mask = generate_mask(MaskConfig(n, 0.5, seed=6), 0)
    x = synthesize_signal(random_band_signal(n, 8, seed=5))
    xs = sample_random(x, mask)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("to_transform_order", "from_transform_order", "recovery_step"):
        monkeypatch.setattr(recovery, name, counted(name, getattr(recovery, name)))
    seen = []
    for iterations in (1, 7):
        calls.clear()
        estimate, history = recover(xs, RecoverySpec(mask=mask, iterations=iterations), reference=x)
        seen.append(sorted(calls))
        assert len(history) == iterations
    assert seen[0] == seen[1] == ["from_transform_order"] + ["to_transform_order"] * 3
    assert spectrum._rader_plan((n,)) is not None


def test_rader_recovery_matches_scipy_oracle(monkeypatch):
    n = 8191
    x = synthesize_signal(random_band_signal(n, 8, seed=5))
    mask = generate_mask(MaskConfig(n, 0.5, seed=6), 0)
    xs = sample_random(x, mask)
    assert spectrum._rader_plan((n,)) is not None
    estimate, history = recover(xs, RecoverySpec(mask=mask, iterations=50), reference=x)

    # the same loop on scipy's transforms alone
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_rader_plan", lambda shape: None)
        t0 = default_initial_threshold(xs, mask)
    assert history[0][1] == pytest.approx(t0, rel=1e-12)
    oracle = np.zeros(n)
    for i in range(50):
        z = xs + (1.0 - mask.bits) * oracle
        kept = hard_threshold(scipy.fft.fft(z), t0 * math.exp(-0.1 * i))
        oracle = scipy.fft.ifft(kept).real
    assert len(history) == 50
    assert np.linalg.norm(estimate - oracle) <= 1e-9 * np.linalg.norm(oracle)
    assert history[-1][2] >= 40.0
