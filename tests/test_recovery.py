import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskspectra import recovery, spectrum
from maskspectra.bounds import ratio_approximation
from maskspectra.masks import generate_mask, is_prime
from maskspectra.recovery import (
    demo_signal_path,
    random_band_signal,
    read_signal_csv,
    recover,
    synthesize_signal,
    write_signal_csv,
)
from maskspectra.spectrum import transform_plan
from oracles import dft_direct, demo_signal_spec, hard_threshold, sampled_residual, snr_db, worst_case_mask

DEMO = demo_signal_spec()
DEMO_X = synthesize_signal(DEMO)
DEMO_MASK = generate_mask(127, 0.5, 11)


def _spectrum(n, bins):
    # a length-n spectrum holding bins = {k: amplitude} and zero elsewhere
    coeffs = np.zeros(n, dtype=np.complex128)
    for k, a in bins.items():
        coeffs[k] = a
    return coeffs


def test_dc_only_band_gives_constant_signal():
    x = synthesize_signal(_spectrum(16, {0: 16.0}))
    assert np.allclose(x, 1.0, atol=1e-12)


def test_empty_band_gives_zero_signal():
    x = synthesize_signal(np.zeros(16, dtype=np.complex128))
    assert np.all(x == 0.0)


def test_random_symmetric_band_roundtrip():
    coeffs = random_band_signal(127, pairs=2, seed=21)
    band = np.flatnonzero(coeffs)
    assert len(band) == 4
    x = synthesize_signal(coeffs)
    off_band = np.delete(np.abs(scipy.fft.fft(x)), band)
    assert off_band.max() < 1e-9


def test_random_band_signal_takes_integers_only():
    # numpy integers are integers; floats and bools would silently become other seeds
    want = random_band_signal(127, 3, seed=5)
    assert np.array_equal(random_band_signal(np.int64(127), np.int64(3), seed=np.uint64(5)), want)
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"pairs": 2.5}, {"pairs": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            random_band_signal(127, **{"pairs": 2, **kwargs})


@pytest.mark.parametrize("n", [127.0, "127", True])
def test_random_band_signal_checks_length(n):
    # a float or string length and a bool (once read as n = 1) are not lengths
    with pytest.raises(ValueError, match="n must be an integer"):
        random_band_signal(n, 2)


def test_random_band_signal_seed_is_a_philox_key():
    # any 128-bit key is a seed; a negative one is rejected by the seed check
    assert np.count_nonzero(random_band_signal(31, 2, seed=(1 << 128) - 1)) == 4
    for seed in (-1, 1 << 128, 1.0):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, "):
            random_band_signal(31, 2, seed=seed)


@pytest.mark.parametrize("n", [8, 128, 1000])
def test_random_band_signal_at_even_length(n):
    # the Nyquist bin n/2 is its own mirror, so no pair may draw it
    for seed in range(40):
        coeffs = random_band_signal(n, pairs=3, seed=seed)
        band = np.flatnonzero(coeffs)
        assert n // 2 not in band and len(band) == 6, seed
        assert np.array_equal(coeffs[(-band) % n], np.conj(coeffs[band])), seed
        x = synthesize_signal(coeffs)
        assert x.dtype == np.float64 and x.shape == (n,)
        assert np.abs(np.delete(scipy.fft.fft(x), band)).max() < 1e-9, seed


def test_asymmetric_band_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        synthesize_signal(_spectrum(16, {1: 1.0}))
    with pytest.raises(ValueError, match="symmetric"):
        synthesize_signal(_spectrum(16, {0: 1.0 + 1.0j}))


@pytest.mark.parametrize("bad", [math.nan, math.nan * 1j], ids=["nan", "nan-imag"])
def test_synthesize_rejects_nan_before_transforming(bad, monkeypatch):
    # a NaN once warned inside the symmetry check, then reported an asymmetry
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kwargs: pytest.fail("transformed"))
    with pytest.raises(ValueError, match="finite"):
        synthesize_signal(_spectrum(4, {1: bad, 3: bad}))


def test_synthesize_rejects_infinite_pair():
    # an infinite pair once gave [inf, 0, -inf, 0], which no fixture reader takes
    with pytest.raises(ValueError, match="finite"):
        synthesize_signal(_spectrum(4, {1: math.inf, 3: math.inf}))


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((2, 4)), 1.0], ids=["empty", "2-d", "scalar"])
def test_synthesize_rejects_non_spectra(bad):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        synthesize_signal(bad)


def test_sampling_is_circular_convolution_in_frequency():
    n = 127
    x = DEMO_X
    mask = DEMO_MASK
    lhs = scipy.fft.fft(x * mask)
    big_x = scipy.fft.fft(x)
    big_m = scipy.fft.fft(mask.astype(float))
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
    xs = DEMO_X * DEMO_MASK
    z = DEMO_X + min(DEMO_MASK.size / np.count_nonzero(DEMO_MASK), 2.0) * (xs - DEMO_MASK * DEMO_X)
    plan = transform_plan(127)
    out = plan.from_order(plan.synthesize(*plan.analyze(plan.to_order(z)), 5.0))
    assert np.abs(out - DEMO_X).max() < 1e-9


def test_full_sampling_recovers_in_one_iteration():
    # the default t0, 3.55 here, lies below the weakest band line
    mask = worst_case_mask(127, 127)
    estimate, history = recover(DEMO_X, mask, iterations=1, reference=DEMO_X)
    assert history[-1][1] < 5.0
    assert history[-1][2] >= 100.0
    assert np.abs(estimate - DEMO_X).max() < 1e-10


def test_demo_recovery_reaches_forty_db():
    estimate, history = recover(DEMO_X, DEMO_MASK, iterations=50, tol=0.0, reference=DEMO_X)
    assert history[-1][2] >= 40.0
    assert len(history) == 50


@pytest.mark.parametrize("n", [127, 8191])
def test_recover_samples_its_input(n):
    # recover multiplies its input by the mask bits, so the whole signal
    # gives the bytes its samples give; taken as samples, the whole demo
    # signal under seed 11 ended at -33 dB
    if n == 127:
        x, mask = DEMO_X, DEMO_MASK
    else:
        x, mask, _ = _n8191_case()
    estimate, history = recover(x, mask, reference=x)
    from_samples, samples_history = recover(x * mask, mask, reference=x)
    assert estimate.tobytes() == from_samples.tobytes()
    assert history == samples_history
    assert history[-1][2] >= 40.0


def test_low_threshold_admits_alias_bins_on_first_pass():
    # starting below the aliasing-noise floor keeps off-band bins immediately
    xs = DEMO_X * DEMO_MASK
    kept = hard_threshold(scipy.fft.fft(xs), 1.0)
    support = set(np.flatnonzero(np.abs(kept) > 0.0).tolist())
    assert set(np.flatnonzero(DEMO).tolist()) < support  # strictly larger than the true band


def test_reference_never_stops_the_loop():
    # the reference only scores: against -x the SNR falls as the estimate
    # improves, yet every iteration runs and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = recover(DEMO_X, DEMO_MASK, iterations=50, tol=0.0, reference=-DEMO_X)
    assert [row[0] for row in history] == list(range(50))


def test_converged_estimate_matches_known_samples():
    xs = DEMO_X * DEMO_MASK
    estimate, _ = recover(xs, DEMO_MASK, iterations=200, reference=DEMO_X)
    on_mask = estimate * DEMO_MASK
    assert np.linalg.norm(on_mask - xs) <= 1e-6 * np.linalg.norm(xs)


def _default_t0(xs, mask):
    """The initial threshold recover derives."""
    return recover(xs, mask, iterations=1)[1][0][1]


def test_default_threshold_rules():
    xs = DEMO_X * DEMO_MASK
    t0 = _default_t0(xs, DEMO_MASK)
    peak = float(np.abs(scipy.fft.fft(xs)).max())
    assert t0 > peak  # margin above every sampled-spectrum line
    with pytest.raises(ValueError):
        _default_t0(xs, worst_case_mask(127, 0))
    with pytest.raises(ValueError, match="identically zero"):
        _default_t0(np.zeros(127), DEMO_MASK)


def test_default_threshold_margin_divides_by_n_p():
    # at N = 1543, ceil(N * (49/N)) rounds up to 50; the margin is over n_p = 49
    n, n_p = 1543, 49
    mask = worst_case_mask(n, n_p)
    assert math.ceil(n * (n_p / n)) == n_p + 1
    xs = synthesize_signal(random_band_signal(n, 4, seed=3)) * mask
    p_hat = n_p / n
    c = ratio_approximation(n, p_hat) + 3.0 * math.sqrt(p_hat * (1.0 - p_hat) * n) / n_p
    want = c * float(np.abs(scipy.fft.fft(xs)).max()) / p_hat
    assert _default_t0(xs, mask) == pytest.approx(want, rel=1e-12)


def test_recover_validation():
    with pytest.raises(ValueError):
        recover(DEMO_X, DEMO_MASK, iterations=0)
    # a str, complex or bool is a ValueError naming the argument, never a
    # TypeError from the comparison, nor False read as 0.0
    for bad in ("0", None, 0j, False, 10**400):
        with pytest.raises(ValueError) as info:
            recover(DEMO_X, DEMO_MASK, tol=bad)
        assert str(info.value) == f"tol must lie in [0, inf), got {bad!r}"
    # numpy reals are read as Python floats, so the history holds floats
    _, history = recover(DEMO_X, DEMO_MASK, iterations=2, tol=np.int64(0))
    assert history == recover(DEMO_X, DEMO_MASK, iterations=2, tol=0.0)[1]
    assert all(type(row[1]) is float for row in history)
    with pytest.raises(ValueError, match="^signal length 64 != mask length 127$"):
        recover(DEMO_X[:64], DEMO_MASK)


def test_recover_tol_must_be_nonnegative_and_finite():
    for bad in (-1e-9, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            recover(DEMO_X, DEMO_MASK, tol=bad)
    assert inspect.signature(recover).parameters["tol"].default == 1e-6
    assert len(recover(DEMO_X, DEMO_MASK, iterations=3, tol=0.0)[1]) == 3


def test_recover_iterations_must_be_an_integer():
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="iterations"):
            recover(DEMO_X, DEMO_MASK, iterations=bad)
    assert len(recover(DEMO_X, DEMO_MASK, iterations=np.int64(3), tol=0.0)[1]) == 3


@pytest.mark.parametrize("n", [127, 8191])
def test_recover_rejects_mismatched_reference(n):
    mask = generate_mask(n, 0.5, 4)
    x = synthesize_signal(random_band_signal(n, 2, seed=4))
    for bad in (x[:1], x[:-1], np.stack((x, x))):
        with pytest.raises(ValueError, match="reference"):
            recover(x, mask, iterations=2, reference=bad)


@pytest.mark.parametrize("n", [127, 8191])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_recover_rejects_non_finite_input_before_any_transform(monkeypatch, n, bad):
    # a NaN sample used to run every iteration at threshold NaN and return
    # the zero estimate; an infinite one warned from inside numpy.fft.
    # Both are rejected at a sampled position and at one the mask leaves
    # out, where sampling would make inf or NaN times zero a NaN
    mask = generate_mask(n, 0.5, 4)
    x = synthesize_signal(random_band_signal(n, 2, seed=4))

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform plan was fetched")

    monkeypatch.setattr(recovery, "transform_plan", no_transform)
    for bit in (0, 1):
        spoiled = x.copy()
        spoiled[np.flatnonzero(mask == bit)[0]] = bad
        with pytest.raises(ValueError, match="^signal must be finite$"):
            recover(spoiled, mask)
        with pytest.raises(ValueError, match="^signal must be finite$"):
            recover(spoiled, mask, reference=x)
        with pytest.raises(ValueError, match="^reference signal must be finite$"):
            recover(x, mask, reference=spoiled)


def test_history_without_reference_has_nan_snr():
    _, history = recover(DEMO_X, DEMO_MASK, iterations=3)
    assert len(history) == 3
    assert all(math.isnan(row[2]) for row in history)


def test_signal_csv_roundtrip(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal_csv(path, DEMO_X)
    assert np.array_equal(read_signal_csv(path), DEMO_X)
    write_signal_csv(path, [0.1, -2.5, 1e-300, 3])
    assert path.read_bytes() == b"0,0.1\n1,-2.5\n2,1e-300\n3,3.0\n"


def test_write_signal_csv_rejects_what_read_would_before_opening(tmp_path):
    # a fixture read_signal_csv would reject is never written, and the file
    # at the path is left as it was
    path = tmp_path / "sig.csv"
    path.write_text("0,1.0\n")
    for bad in ([1.0, math.nan], [math.inf], [], [[1.0, 2.0], [3.0, 4.0]], 1.0):
        with pytest.raises(ValueError, match="non-empty 1-D array of finite values"):
            write_signal_csv(path, bad)
        assert path.read_text() == "0,1.0\n"
    with pytest.raises(ValueError):
        write_signal_csv(tmp_path / "new.csv", [[1.0]])
    assert not (tmp_path / "new.csv").exists()


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


def test_signal_csv_accepts_a_byte_order_mark(tmp_path):
    # a UTF-8 BOM opens the file, not its first index, on both parse paths:
    # loadtxt's for a clean file, the line-by-line one after a blank line
    path = tmp_path / "sig.csv"
    for text in ("0,0.1\n1,-2.5\n2,1e-300\n", "0,0.1\n  \n1,-2.5\n2,1e-300\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_signal_csv(path).tolist() == [0.1, -2.5, 1e-300]
    # errors still name the file's own line, and a BOM anywhere else is no
    # part of a number
    path.write_bytes(b"\xef\xbb\xbf0,0.1\n# note\n1,-2.5\n")
    with pytest.raises(ValueError, match="line 2 is not"):
        read_signal_csv(path)
    path.write_bytes(b"0,0.1\n\xef\xbb\xbf1,-2.5\n")
    with pytest.raises(ValueError, match="line 2 is not"):
        read_signal_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        "0,0.1\r\n1,-2.5\r\n2,1e-300\r\n",  # CRLF
        "0,0.1\r\n \r\n1,-2.5\r\n\r\n2,1e-300",  # CRLF, blank lines, no final newline
        "0,0.1\n\t\n1,-2.5\n   \n2,1e-300\n",  # whitespace-only lines
        "2,1e-300\n \t \n0,0.1\n1,-2.5\n\n",
    ],
)
def test_signal_csv_line_endings_and_whitespace_lines(tmp_path, text):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode())
    assert read_signal_csv(path).tolist() == [0.1, -2.5, 1e-300]


def test_signal_csv_errors_past_whitespace_lines_still_raise(tmp_path):
    # a whitespace-only line sends the parse down the filtered path, which
    # must reject everything the direct path rejects
    for name, text in (
        ("gap", "0,1.0\n  \n2,2.0\n"),
        ("comment", "0,1.0\n  \n# note\n1,2.0\n"),
        ("three_fields", "0,1.0\r\n \r\n1,2.0,3.0\r\n"),
        ("nonfinite", "0,1.0\n\t\n1,nan\n"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_bytes(text.encode())
        with pytest.raises(ValueError):
            read_signal_csv(bad)


def test_signal_csv_errors_name_the_file_line(tmp_path):
    # the whitespace-only line 2 sends the parse down the filtered path; the
    # error still names the comment's own line, 3, not its filtered row
    for text, line in (("0,1.0\n  \n# note\n1,2.0\n", 3), ("\n\n0,1.0\n\n1,abc\n", 5), ("0,1.0\n1\n", 2)):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"line {line} is not"):
            read_signal_csv(bad)


def test_bundled_fixture_matches_spec():
    x = read_signal_csv(demo_signal_path())
    assert np.array_equal(x, DEMO_X)


# Primes small enough for dft_direct: N - 1 has no factor above 43 for the
# plain plan, and a factor above 67 for the padded one (166 = 2 * 83,
# 346 = 2 * 173, 502 = 2 * 251).
RADER_PRIMES = (3, 5, 7, 11, 13, 29, 31, 43, 47, 59, 83, 127, 173, 211, 167, 347, 503)


def _natural_order(plan, v):
    """The Rader-ordered v in natural order."""
    out = np.empty(v.shape)
    out[..., plan.order] = v
    return out


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=0)
@example(n=1543, seed=0)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1))
def test_rader_plan_matches_fft(n, seed):
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n) + 10.0  # a large mean, as a recovery estimate may have
    expected = scipy.fft.fft(z)
    scale = np.abs(expected).max()
    h = plan.dht(z[plan.order])
    hartley = _natural_order(plan, h)
    assert np.abs(hartley - (expected.real - expected.imag)).max() <= 1e-12 * scale
    if n < 1000:
        direct = dft_direct(z)
        assert np.abs(hartley - (direct.real - direct.imag)).max() <= 1e-12 * scale
    # the DHT is its own inverse up to n. 1e-14 is tight enough to catch a
    # kernel whose rounded sum is used as is: the large mean then moves
    # sample 0 by about 3e-13 relative at n = 8191.
    assert np.abs(_natural_order(plan, plan.dht(h)) - n * z).max() <= 1e-14 * n * np.abs(z).max()
    # in Rader order bin -k sits (n-1)/2 positions after bin k
    half = (n - 1) // 2
    g_neg = plan.order[1:]
    assert plan.order[0] == 0 and np.array_equal(np.sort(plan.order), np.arange(n))
    assert np.array_equal(g_neg[half:], n - g_neg[:half])
    assert np.abs(_natural_order(plan, plan.magnitudes(h)) - np.abs(expected)).max() <= 1e-12 * scale
    # batched along the last axis
    pair = np.stack((z, rng.normal(size=n)))
    b = plan.dht(pair[:, plan.order])
    assert np.abs(_natural_order(plan, b)[0] - hartley).max() <= 1e-12 * scale
    assert np.abs(_natural_order(plan, plan.dht(b)) - n * pair).max() <= 1e-12 * n * np.abs(pair).max()


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=2, offset=1e3)
@example(n=4099, seed=2, offset=1e3)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, 1.0, 1e3]))
def test_rader_dht_is_its_own_inverse(n, seed, offset):
    # in Rader order, with no permutation on either side: dht(dht(x)) = n x
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    x0, x = offset + rng.normal(), offset + rng.normal(size=n - 1)
    y = plan.dht(plan.dht(np.concatenate(([x0], x))))
    tol = 1e-14 * n * max(abs(x0), np.abs(x).max())
    assert abs(y[0] - n * x0) <= tol
    assert np.abs(y[1:] - n * x).max() <= tol


@settings(max_examples=25, deadline=None)
@example(n=8191, seed=1)
@example(n=1543, seed=1)
@given(n=st.sampled_from(RADER_PRIMES), seed=st.integers(0, 2**32 - 1))
def test_rader_inverse_of_kept_pairs_is_real_ifft(n, seed):
    # for any kept set closed under k <-> -k, the DHT of the kept Hartley
    # bins over n is ifft(kept).real: what the Rader step relies on
    plan = spectrum._RaderPlan(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n)
    keep_pairs = rng.random((n - 1) // 2) < 0.3
    keep_dc = bool(rng.random() < 0.5)
    h = plan.dht(z[plan.order])
    h[1:].reshape(2, -1)[...] *= keep_pairs / n
    h[0] = h[0] / n if keep_dc else 0.0
    got = _natural_order(plan, plan.dht(h))
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep_dc
    keep[plan.order[1:]] = np.tile(keep_pairs, 2)
    assert np.array_equal(keep[1:], keep[1:][::-1])
    want = scipy.fft.ifft(scipy.fft.fft(z) * keep).real
    assert np.abs(got - want).max() <= 1e-12 * np.abs(z).max()


def test_rader_step_matches_scipy_step(monkeypatch):
    n = 8191
    x = synthesize_signal(random_band_signal(n, 8, seed=7))
    mask = generate_mask(n, 0.5, 8)
    xs = x * mask
    rng = np.random.Generator(np.random.Philox(key=9))
    estimate = x + 0.01 * rng.normal(size=n) + 0.2  # off-band noise and a DC offset
    plan = transform_plan(n)
    assert isinstance(plan, spectrum._RaderPlan)
    z = estimate + min(n / np.count_nonzero(mask), 2.0) * (xs - mask * estimate)
    spectrum_z = scipy.fft.fft(z)
    ordered = plan.analyze(plan.to_order(z))
    for threshold in (0.0, 0.05, 0.5, 1.0, 5.0, 0.999 * np.abs(spectrum_z).max(), 1e9):
        want = scipy.fft.ifft(hard_threshold(spectrum_z, threshold)).real
        got = plan.from_order(plan.synthesize(*ordered, threshold))
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), np.abs(z).max()), threshold
    assert plan.from_order(plan.synthesize(*ordered, 1e9)).tolist() == [0.0] * n
    with pytest.raises(ValueError, match="nonnegative"):
        plan.synthesize(*ordered, -1.0)
    # the initial threshold takes its peak from the same magnitudes; here
    # the DC bin, which has no mirror, is the peak of the samples
    dc_heavy = mask * estimate
    spectrum_dc = scipy.fft.fft(dc_heavy)
    assert abs(spectrum_dc[0]) == np.abs(spectrum_dc).max()
    with monkeypatch.context() as m:
        m.setattr(recovery, "transform_plan", lambda n: spectrum._NATURAL_PLAN)
        want_t0 = _default_t0(dc_heavy, mask)
    assert _default_t0(dc_heavy, mask) == pytest.approx(want_t0, rel=1e-12)


def test_rader_plan_selection(monkeypatch):
    built = []

    class CountingPlan(spectrum._RaderPlan):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(spectrum, "_RaderPlan", CountingPlan)
    spectrum._cached_rader_plan.cache_clear()
    try:
        # 8192 and 1000 are composite, and 127 and 251 lie below the crossover
        for n in (8192, 1000, 127, 251):
            assert transform_plan(n) is spectrum._NATURAL_PLAN, n
        assert built == []
        # every prime above the crossover has a plan: a plain one where N - 1
        # has no prime factor above 67 (8190 = 2 * 3^2 * 5 * 7 * 13,
        # 1032 = 2^3 * 3 * 43, 1608 = 2^3 * 3 * 67), and elsewhere one
        # padded to a 5-smooth length >= 2N - 3 (1542 = 2 * 3 * 257,
        # 1278 = 2 * 3^2 * 71, 508 = 2^2 * 127, 4098 = 2 * 3 * 683)
        sizes = {8191: 8190, 1033: 1032, 1609: 1608, 1543: 3125, 1279: 2560, 509: 1024, 4099: 8640}
        for n, size in sizes.items():
            plan = transform_plan(n)
            assert isinstance(plan, CountingPlan), n
            assert plan._size == size, n
        mask = generate_mask(8191, 0.5, 1)
        for _ in range(3):
            recover(mask, mask, iterations=1)
        assert built == list(sizes)
    finally:
        spectrum._cached_rader_plan.cache_clear()


@pytest.mark.parametrize("n", [127, 1000, 8191])
def test_recover_looks_up_its_plan_once(monkeypatch, n):
    # one recover call asks for its plan once, whatever the number of
    # iterations, and so tests the length for primality at most once
    lookups, primality = [], []
    monkeypatch.setattr(recovery, "transform_plan", lambda m: lookups.append(m) or transform_plan(m))
    monkeypatch.setattr(spectrum, "is_prime", lambda m: primality.append(m) or is_prime(m))
    mask = generate_mask(n, 0.5, 1)
    _, history = recover(mask.astype(np.float64), mask, iterations=3, tol=0.0, reference=mask)
    assert len(history) == 3
    assert lookups == [n]
    assert primality == ([] if n <= spectrum._RADER_MIN_N else [n])


def test_rader_plan_survives_shapes_without_a_plan():
    # lengths without a plan never reach the plan cache, so any number of
    # them between two recoveries leaves the 8191 plan in place
    n = 8191
    mask = generate_mask(n, 0.5, 2)
    x = synthesize_signal(random_band_signal(n, 4, seed=3))
    first, _ = recover(x, mask)
    plan = transform_plan(n)
    for m in (127, 128, 251, 255, 8192, 131072, 4097, 2048, 1000, 3):
        assert transform_plan(m) is spectrum._NATURAL_PLAN, m
    assert transform_plan(n) is plan
    assert np.array_equal(recover(x, mask)[0], first)


def test_rader_recovery_permutes_once(monkeypatch):
    # at a planned N the loop runs in Rader order: the same permutations
    # in and out whatever the number of iterations
    n = 8191
    mask = generate_mask(n, 0.5, 6)
    x = synthesize_signal(random_band_signal(n, 8, seed=5))
    assert isinstance(transform_plan(n), spectrum._RaderPlan)
    calls = []

    def counted(name, fn):
        def wrapper(self, *args):
            calls.append(name)
            return fn(self, *args)
        return wrapper

    for name in ("to_order", "from_order"):
        monkeypatch.setattr(spectrum._RaderPlan, name, counted(name, getattr(spectrum._RaderPlan, name)))
    seen = []
    for iterations in (1, 7):
        calls.clear()
        estimate, history = recover(x, mask, iterations=iterations, reference=x)
        seen.append(sorted(calls))
        assert len(history) == iterations
    assert seen[0] == seen[1] == ["from_order"] + ["to_order"] * 3


# 8191 runs the plain plan and 1543 the padded one
@pytest.mark.parametrize("n", [8191, 1543])
def test_rader_recovery_matches_scipy_oracle(monkeypatch, n):
    x = synthesize_signal(random_band_signal(n, 8, seed=5))
    mask = generate_mask(n, 0.5, 6)
    xs = x * mask
    assert isinstance(transform_plan(n), spectrum._RaderPlan)
    estimate, history = recover(x, mask, iterations=50, tol=0.0, reference=x)

    # the same loop on the natural-order numpy.fft transforms alone
    with monkeypatch.context() as m:
        m.setattr(recovery, "transform_plan", lambda n: spectrum._NATURAL_PLAN)
        _, natural_history = recover(x, mask, iterations=50, tol=0.0, reference=x)
    t0 = natural_history[0][1]
    assert history[0][1] == pytest.approx(t0, rel=1e-12)
    oracle, oracle_kept = np.zeros(n), []
    for i in range(50):
        z = oracle + min(n / np.count_nonzero(mask), 2.0) * (xs - mask * oracle)
        kept = hard_threshold(scipy.fft.fft(z), t0 * math.exp(-0.1 * i))
        oracle_kept.append(int(np.count_nonzero(kept)))
        oracle = scipy.fft.ifft(kept).real
    assert len(history) == 50
    assert np.linalg.norm(estimate - oracle) <= 1e-9 * np.linalg.norm(oracle)
    assert history[-1][2] >= 40.0
    # both paths count both bins of each kept pair
    assert [row[4] for row in history] == [row[4] for row in natural_history] == oracle_kept


@pytest.mark.parametrize("rate", [0.2, 0.3, 0.4, 0.5])
def test_stop_truncates_the_history_and_keeps_forty_db(rate):
    # the stop changes no iterate: the default run's history is a prefix of
    # the full run's, and no seed that reaches 40 dB in full ends below it
    stopped = 0
    for seed in range(40):
        mask = generate_mask(127, rate, seed)
        xs = DEMO_X * mask
        full_estimate, full = recover(DEMO_X, mask, tol=0.0, reference=DEMO_X)
        estimate, history = recover(DEMO_X, mask, reference=DEMO_X)
        assert len(full) == 50
        assert history == full[: len(history)], seed
        if len(history) < 50:
            stopped += 1
            assert sampled_residual(xs, mask, estimate) <= 1e-6 * (1 + 1e-9), seed
        else:
            assert np.array_equal(estimate, full_estimate), seed
        if full[-1][2] >= 40.0:
            assert history[-1][2] >= 40.0, seed
    # 1, 26, 38 and 40 of the 40 seeds stop before the cap at rates 0.2 to
    # 0.5 (at unit step none, none, 7 and 26)
    assert stopped >= {0.2: 1, 0.3: 20, 0.4: 30, 0.5: 40}[rate]


def _n8191_case(rate=0.5, mask_seed=6):
    """A band-limited N = 8191 signal, a mask and its samples."""
    n = 8191
    x = synthesize_signal(random_band_signal(n, 8, seed=5))
    mask = generate_mask(n, rate, mask_seed)
    return x, mask, x * mask


def test_stop_at_n8191_keeps_over_one_hundred_db():
    x, mask, xs = _n8191_case()
    estimate, history = recover(x, mask, iterations=50, reference=x)
    assert len(history) < 50
    assert history[-1][2] >= 100.0
    assert sampled_residual(xs, mask, estimate) <= 1e-6 * (1 + 1e-9)


def test_stop_at_n8191_within_ten_iterations():
    # the step min(N/n_p, 2) stops this fixture after 9 iterations; at
    # unit step it took 27
    x, mask, _ = _n8191_case()
    _, history = recover(x, mask, iterations=50, reference=x)
    assert len(history) <= 10
    assert history[-1][3] <= 1e-6


def test_recover_never_transforms_the_same_thing_twice(monkeypatch):
    # the samples are transformed once, for t0 and, scaled by the step, for
    # every step whose estimate is zero; every later step analyses once and
    # synthesizes once. A step keeps no bin while its threshold is at or
    # above the scaled peak: never at half rate (c is about 0.67), and for
    # the first 9 and 10 steps at rate 0.2
    for rate, mask_seed, least_empty in ((0.5, 6, 0), (0.2, 6, 9), (0.2, 7, 10)):
        x, mask, xs = _n8191_case(rate, mask_seed)
        plan = transform_plan(mask.size)
        scaled_peak = min(mask.size / np.count_nonzero(mask), 2.0) * float(plan.analyze(plan.to_order(xs))[1].max())
        calls = []
        dht = spectrum._RaderPlan.dht
        with monkeypatch.context() as m:
            m.setattr(spectrum._RaderPlan, "dht", lambda self, *args: calls.append(1) or dht(self, *args))
            _, history = recover(x, mask, reference=x)
        case = (rate, mask_seed)
        empty = sum(1 for row in history if row[1] >= scaled_peak)
        assert empty >= least_empty, case
        assert all(row[1] >= scaled_peak and row[4] == 0 for row in history[:empty]), case
        assert all(row[4] > 0 for row in history[empty:]), case
        # 1 for xs, len - empty - 1 analyses, len - empty syntheses
        assert len(calls) == 2 * (len(history) - empty), case


@pytest.mark.parametrize("rate", [0.3, 0.9])
def test_every_demo_seed_reaches_forty_db(rate):
    # at unit step 8 of the 40 seeds missed 40 dB at rate 0.3, and a fixed
    # step of 2, not capped at N/n_p, misses it for 20 seeds at rate 0.9
    failed = []
    for seed in range(40):
        mask = generate_mask(127, rate, seed)
        _, history = recover(DEMO_X, mask, reference=DEMO_X)
        if not history[-1][2] >= 40.0:
            failed.append(seed)
    assert failed == []


@pytest.mark.parametrize("rate", [0.2, 0.3])
def test_long_runs_never_diverge(rate):
    # once the threshold keeps every bin, a step above 2 multiplies the
    # misfit on the sampled positions by |1 - step| > 1 per iteration: the
    # uncapped step N/n_p drove these runs to residuals of 1e16 and more, and
    # SNRs far below 0 dB. Capped at 2 the residual never exceeds the zero
    # estimate's, 1, and seeds that find no support stall above 0 dB.
    for seed in range(10):
        mask = generate_mask(127, rate, seed)
        _, history = recover(DEMO_X, mask, iterations=500, tol=0.0, reference=DEMO_X)
        assert max(row[3] for row in history) <= 1.0 + 1e-12, seed
        assert history[-1][2] > 0.0, seed


def test_empty_mask_is_rejected_up_front():
    # the step min(N/n_p, 2) needs at least one sample
    empty = worst_case_mask(127, 0)
    with pytest.raises(ValueError, match="nothing was sampled"):
        recover(np.zeros(127), empty)


def test_sampled_residual_values():
    mask = worst_case_mask(4, 2)  # bits 1, 1, 0, 0
    xs = np.array([3.0, 4.0, 0.0, 0.0])
    assert sampled_residual(xs, mask, np.zeros(4)) == 1.0
    assert sampled_residual(xs, mask, np.array([3.0, 4.0, 7.0, -7.0])) == 0.0
    assert sampled_residual(xs, mask, np.array([3.0, 4.5, 9.0, 9.0])) == pytest.approx(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sampled_residual(np.zeros(4), mask, np.zeros(4)) == 0.0
        assert sampled_residual(np.zeros(4), mask, np.ones(4)) == math.inf


def test_clamped_radicand_warning_names_the_caller_of_recover():
    # one sampled position of 100 gives p_hat = 0.01, where the ratio
    # approximation clamps its radicand; the warning names this file
    mask = np.arange(100) == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recover(mask * 1.0, mask, iterations=1)
    assert [(w.filename, w.category) for w in caught] == [(__file__, UserWarning)]
    assert "radicand" in str(caught[0].message)
