import itertools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcinv

from maskspectra.bounds import (
    bound_report,
    gaussian_bound,
    gaussian_bound_approx,
    q_inverse,
    ratio_approximation,
    sigma_bound,
    thresholds,
    worst_case_bound,
)
from maskspectra.cli import records_to_json
from maskspectra.masks import is_prime
from oracles import dft_direct, max_nonzero_bin, q_function, worst_case_cosine_sum, worst_case_mask


def test_worst_case_reference_values():
    assert worst_case_bound(127, 64) == pytest.approx(40.426, abs=1e-3)
    assert worst_case_bound(127, 102) == pytest.approx(23.439, abs=1e-3)
    assert worst_case_bound(127, 13) == pytest.approx(12.778, abs=1e-3)
    assert worst_case_bound(1543, 772) == pytest.approx(491.152, abs=1e-3)


def test_worst_case_endpoints():
    for n in (7, 127, 1543):
        assert worst_case_bound(n, 1) == 1.0
        assert worst_case_bound(n, n) == 0.0


def test_worst_case_domain_errors():
    with pytest.raises(ValueError):
        worst_case_bound(127, 0)
    with pytest.raises(ValueError):
        worst_case_bound(127, 128)
    with pytest.raises(ValueError):
        worst_case_bound(1, 1)


def test_worst_case_warns_for_composite_length():
    with pytest.warns(UserWarning, match="composite"):
        worst_case_bound(1000, 500)


@pytest.mark.parametrize(
    "call",
    [
        lambda: worst_case_bound(128, 64),
        lambda: thresholds(128, 0.5),
        lambda: bound_report(128, 0.5),
    ],
    ids=["worst_case_bound", "thresholds", "bound_report"],
)
def test_composite_warning_names_the_caller_once(call):
    # the warning points at the line that called the public function, here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert len(caught) == 1
    assert caught[0].filename == __file__
    assert "composite" in str(caught[0].message)


def test_dirichlet_reference_values():
    assert worst_case_bound(127, 64) == pytest.approx(40.426, abs=1e-3)
    assert worst_case_bound(127, 13) == pytest.approx(12.778, abs=1e-3)
    for n in (31, 127):
        assert worst_case_bound(n, n) == 0.0


def test_sum_and_closed_form_agree_on_sampled_primes():
    # full prime grid up to 2000 runs in the acceptance suite
    for n in (7, 31, 127, 251):
        for n_p in range(1, n + 1):
            w = worst_case_bound(n, n_p)
            d = worst_case_cosine_sum(n, n_p)
            assert abs(w - d) <= 1e-9 * max(1.0, d), (n, n_p)


def test_worst_case_unimodal_in_support():
    for n in (127, 1543):
        mid = worst_case_bound(n, n // 2)
        assert mid >= worst_case_bound(n, 1)
        assert mid >= worst_case_bound(n, n)


def test_no_mask_beats_the_block_exhaustively():
    # every one of the 2^7 masks of length 7
    n = 7
    kernel = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    for bits in itertools.product((0, 1), repeat=n):
        x = np.array(bits, dtype=float)
        peak = float(np.abs(kernel @ x)[1:].max())
        n_p = int(x.sum())
        if n_p == 0:
            assert peak == 0.0
            continue
        assert peak <= worst_case_bound(n, n_p) + 1e-9


def test_block_attains_the_bound():
    # primes up to 4096; exact reference transform for the small one
    value = max_nonzero_bin(dft_direct(worst_case_mask(13, 4)))[1]
    assert abs(value - worst_case_bound(13, 4)) <= 1e-9
    for n in (13, 127, 541, 1543, 4093):
        for n_p in (1, n // 3, n // 2, n - 1, n):
            value = max_nonzero_bin(scipy.fft.fft(worst_case_mask(n, n_p).astype(float)))[1]
            assert abs(value - worst_case_bound(n, n_p)) <= 1e-9 * max(1.0, value)


PRIMES_TO_10K = [n for n in range(2, 10_001) if is_prime(n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from(PRIMES_TO_10K))
def test_worst_case_bound_is_the_block_peak(data, n):
    n_p = data.draw(st.integers(1, n), label="n_p")
    value = worst_case_bound(n, n_p)
    peak = float(np.abs(scipy.fft.fft(worst_case_mask(n, n_p).astype(float)))[1:].max())
    # scaled by sqrt(n_p) = ||bits||_2 too: the FFT's own rounding error is
    # relative to its input's norm, and the peak is only 1 at n_p = N - 1
    assert abs(peak - value) <= 1e-12 * max(value, math.sqrt(n_p))
    if n_p < n:
        assert value == worst_case_bound(n, n - n_p)
    assert worst_case_bound(n, 1) == 1.0
    assert worst_case_bound(n, n) == 0.0


def test_ratio_approximation_reference_values():
    assert ratio_approximation(131071, 0.5) == pytest.approx(0.637, abs=2e-3)
    assert ratio_approximation(131071, 0.1) == pytest.approx(0.984, abs=3e-3)


def test_ratio_approximation_limit():
    assert abs(ratio_approximation(10**6, 0.5) - 2.0 / math.pi) < 1e-3


def test_ratio_approximation_clamps_negative_radicand():
    with pytest.warns(UserWarning, match="clamped"):
        assert ratio_approximation(2, 0.5) == 0.0


def test_ratio_approximation_domain():
    with pytest.raises(ValueError):
        ratio_approximation(100, 0.001)  # n*p < 1
    with pytest.raises(ValueError):
        ratio_approximation(100, 1.5)


def test_ratio_tracks_exact_worst_case_for_large_n():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # composite lengths in the grid
        for n in (1009, 4096, 8191):
            for p in np.arange(0.1, 0.95, 0.1):
                n_p = math.ceil(n * p)
                exact = worst_case_bound(n, n_p) / n_p
                assert abs(ratio_approximation(n, float(p)) - exact) <= 0.02, (n, p)


def test_q_function_reference_points():
    assert q_function(0.0) == 0.5
    assert q_function(3.0) == pytest.approx(1.3499e-3, abs=1e-7)
    for x in (-5.0, -1.2, 0.3, 2.0, 7.5):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)


def test_q_function_against_mpmath_oracle():
    mpmath.mp.dps = 40
    for x in np.linspace(-8.0, 8.0, 33):
        exact = float(0.5 * mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)))
        assert q_function(float(x)) == pytest.approx(exact, rel=1e-12)


def test_q_inverse_basics():
    assert q_inverse(0.5) == 0.0
    assert q_inverse(q_function(2.345)) == pytest.approx(2.345, abs=1e-9)
    assert q_inverse(5e-5) == pytest.approx(3.89, abs=0.01)
    with pytest.raises(ValueError):
        q_inverse(0.0)
    with pytest.raises(ValueError):
        q_inverse(1.0)


def test_q_inverse_residual_contract():
    for y in (0.4999, 0.3, 1e-2, 1e-6, 1e-12, 1e-50, 1e-300, 0.75, 0.999):
        x = q_inverse(y)
        assert abs(q_function(x) - y) <= 1e-12 * y, y


def test_q_inverse_against_erfcinv_oracle():
    for y in (0.45, 0.1, 1e-3, 1e-8, 1e-15):
        assert q_inverse(y) == pytest.approx(math.sqrt(2.0) * float(erfcinv(2.0 * y)), rel=1e-12)


def test_q_inverse_against_mpmath_log_space_oracle():
    # Solving log Q(x) = log y at 60 digits reaches subnormal y, where Q(x)
    # itself underflows; [5.6e-225, 4.5e-213] is where a bracketed Newton
    # solver on Q once stopped short.
    mpmath.mp.dps = 60
    ys = np.concatenate((np.logspace(math.log10(4e-323), math.log10(0.49), 40),
                         [5e-324, 5.66e-225, 1e-220, 3e-217, 4.5e-213, 0.4999]))
    for y in ys.tolist():
        log_y = mpmath.log(mpmath.mpf(y))
        exact = mpmath.findroot(
            lambda x: mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2) - log_y,
            mpmath.sqrt(-2 * log_y) if y < 0.1 else mpmath.mpf(0.5),
        )
        assert q_inverse(y) == pytest.approx(float(exact), rel=1e-14), y


def test_gaussian_bound_reference_value():
    assert gaussian_bound(127, 0.5, epsilon=1e-4) == pytest.approx(31.0, abs=0.1)


def test_gaussian_bound_union_mode_is_larger():
    plain = gaussian_bound(127, 0.5, epsilon=1e-4)
    union = gaussian_bound(127, 0.5, epsilon=1e-4, union=True)
    assert union > plain


def test_gaussian_bound_vanishes_as_epsilon_approaches_one():
    assert gaussian_bound(127, 0.5, epsilon=1 - 1e-9) == pytest.approx(0.0, abs=1e-3)


def test_gaussian_bound_decreasing_in_epsilon():
    values = [gaussian_bound(127, 0.5, epsilon=e) for e in (1e-8, 1e-6, 1e-4, 1e-2, 0.3)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gaussian_approx_reference_value():
    assert gaussian_bound_approx(127, 0.5, epsilon=1e-4) == pytest.approx(34.2, abs=0.1)


def test_gaussian_approx_dominates_exact_bound():
    # Q(x) <= exp(-x^2/2)/2 for x >= 0
    for eps in (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.23):
        assert gaussian_bound_approx(127, 0.5, epsilon=eps) >= gaussian_bound(127, 0.5, epsilon=eps), eps


def test_gaussian_approx_stays_finite_for_subnormal_epsilon():
    # down to a subnormal eps' = eps / 126, whose reciprocal overflows
    for eps in (1e-300, 1e-308, 1e-310, 1e-315, 1e-320):
        approx = gaussian_bound_approx(127, 0.5, epsilon=eps, union=True)
        assert math.isfinite(approx) and approx >= gaussian_bound(127, 0.5, epsilon=eps, union=True), eps
    assert gaussian_bound_approx(127, 0.5, epsilon=1e-320, union=True) == pytest.approx(306.9, abs=0.1)


def test_gaussian_approx_vanishes_as_epsilon_approaches_one():
    assert gaussian_bound_approx(127, 0.5, epsilon=1 - 1e-9) == pytest.approx(0.0, abs=1e-2)


def test_sigma_bound_values_and_ratio():
    assert sigma_bound(127, 0.5, 4) == pytest.approx(22.539, abs=1e-3)
    for n, p in ((127, 0.5), (1543, 0.8), (8191, 0.1), (131071, 0.33)):
        s3 = sigma_bound(n, p, 3)
        s4 = sigma_bound(n, p, 4)
        assert s4 == (4.0 / 3.0) * s3  # exact in floats by construction
        assert s4 / s3 == 4.0 / 3.0


def test_sigma_bound_sqrt_scaling():
    for m in (3, 4):
        assert sigma_bound(4 * 127, 0.5, m) == 2.0 * sigma_bound(127, 0.5, m)


def test_sigma_bound_multiplier_policy():
    for m in (2, 5):
        with pytest.raises(ValueError, match=r"^m must be an integer in \[3, 4\], got"):
            sigma_bound(127, 0.5, m)


def test_bound_report_defaults_and_validation():
    assert bound_report(127, 0.5)["n_p"] == 64
    # union divides eps by the N - 1 = 126 candidate bins
    union = bound_report(127, 0.5, epsilon=1e-4, union=True)
    assert union["gaussian_T"] == gaussian_bound(127, 0.5, union=True) == gaussian_bound(127, 0.5, epsilon=1e-4 / 126)
    with pytest.raises(ValueError):
        bound_report(127, 0.5, n_p=128)
    with pytest.raises(ValueError):
        bound_report(127, 0.5, epsilon=0.0)


def test_default_support_size_is_not_pushed_up_by_rounding():
    # 100 * 0.07 rounds to 7.000000000000001, whose ceiling is 8: the
    # support size N*p is 7 all the same
    assert math.ceil(100 * 0.07) == 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N = 100 is composite
        assert bound_report(100, 0.07)["n_p"] == 7
        assert thresholds(100, 0.07)["worst_case"] == worst_case_bound(100, 7)
        assert bound_report(101, 0.07)["n_p"] == 8


def test_bound_report_takes_numpy_floats_as_floats():
    # a float32 rate and epsilon are read as the floats they hold: the record
    # is strict JSON and equals the float record bit for bit
    report = bound_report(127, np.float32(0.1), epsilon=np.float32(1e-4))
    want = bound_report(127, float(np.float32(0.1)), epsilon=float(np.float32(1e-4)))
    assert records_to_json(report) == records_to_json(want)
    assert report.keys() == want.keys()
    for key, value in report.items():
        assert type(value) is type(want[key]) and value == want[key], key
    assert thresholds(127, np.float32(0.1)) == thresholds(127, float(np.float32(0.1)))


def test_bounds_accept_numpy_integers():
    # a length read off a numpy array is an integer too; bools and floats are not
    n = np.int64(127)
    report = bound_report(n, 0.5, n_p=np.int32(64))
    assert (report["n"], report["n_p"]) == (127, 64) and type(report["n"]) is int and type(report["n_p"]) is int
    json.loads(records_to_json(report))  # strict JSON takes the record as it is
    assert worst_case_bound(n, np.int64(64)) == worst_case_bound(127, 64)
    assert worst_case_bound(np.int32(127), 64) == worst_case_bound(127, 64)
    assert ratio_approximation(n, 0.5) == ratio_approximation(127, 0.5)
    assert sigma_bound(n, 0.5, 3) == sigma_bound(127, 0.5, 3)
    for bad in (True, 127.0):
        for call in (
            lambda: bound_report(bad, 0.5),
            lambda: worst_case_bound(bad, 1),
            lambda: worst_case_bound(127, bad),
            lambda: ratio_approximation(bad, 0.5),
            lambda: sigma_bound(bad, 0.5, 3),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
    with pytest.raises(ValueError, match="must be an integer"):
        worst_case_bound(127, 64.0)
    with pytest.raises(ValueError, match="must be an integer"):
        bound_report(127, 0.5, n_p=True)


def test_bound_report_table_row():
    rep = bound_report(127, 0.5, n_p=64, epsilon=1e-4)
    assert rep["worst_case"] == pytest.approx(40.426, abs=1e-3)
    assert rep["worst_case_ratio"] == pytest.approx(40.4264 / 64, abs=1e-4)
    # the printed table normalizes by N*p, which rounds to 0.637
    assert round(rep["worst_case_ratio_np"], 3) == 0.637
    assert rep["ratio_approx"] == pytest.approx(ratio_approximation(127, 0.5))
    assert rep["sigma4"] == (4.0 / 3.0) * rep["sigma3"]
    assert rep["sigma4"] > rep["sigma3"]
    assert all(v >= 0 and math.isfinite(v) for v in (rep["worst_case"], rep["gaussian_T"], rep["gaussian_T_approx"]))


def test_bound_report_low_rate_row():
    rep = bound_report(127, 0.1, n_p=13, epsilon=1e-4)
    assert rep["worst_case"] == pytest.approx(12.778, abs=1e-3)
    assert rep["worst_case_ratio_np"] == pytest.approx(1.006, abs=5e-3)


@pytest.mark.parametrize(
    "spec",
    [(127, 0.5, {}), (1543, 0.8, {"n_p": 1}), (131, 0.25, {"epsilon": 1e-6, "union": True})],
)
def test_bound_report_values_are_the_bound_functions(spec):
    # each value is exactly what its bound function returns, in the column order the CLI prints
    n, p, options = spec
    n_p = options.get("n_p", math.ceil(n * p))
    epsilon, union = options.get("epsilon", 1e-4), options.get("union", False)
    wc = worst_case_bound(n, n_p)
    want = {
        "n": n,
        "p": p,
        "n_p": n_p,
        "epsilon": epsilon,
        "worst_case": wc,
        "worst_case_ratio": wc / n_p,
        "worst_case_ratio_np": wc / (n * p),
        "gaussian_T": gaussian_bound(n, p, epsilon=epsilon, union=union),
        "gaussian_T_approx": gaussian_bound_approx(n, p, epsilon=epsilon, union=union),
        "sigma3": sigma_bound(n, p, 3),
        "sigma4": sigma_bound(n, p, 4),
        "ratio_approx": ratio_approximation(n, p),
    }
    assert list(bound_report(n, p, **options).items()) == list(want.items())


@pytest.mark.parametrize(
    "call",
    [lambda: ratio_approximation(7, 0.15), lambda: bound_report(7, 0.15)],
    ids=["ratio_approximation", "bound_report"],
)
def test_radicand_warning_names_the_caller_once(call):
    # the clamped-radicand warning points at the line that called the public function, here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert len(caught) == 1
    assert caught[0].filename == __file__
    assert "radicand" in str(caught[0].message)


def test_bound_report_warns_in_column_order():
    # worst_case precedes ratio_approx in the record, and so does its warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bound_report(100, 0.01)
    assert ["composite" in str(w.message) for w in caught] == [True, False]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: thresholds(1.5, 0.5), "n must be an integer in [2, 4294967296], got 1.5"),
        (lambda: thresholds(128, 0.0), "p must lie in (0, 1), got 0.0"),
        (lambda: bound_report(True, 0.5), "n must be an integer in [2, 4294967296], got True"),
        (lambda: bound_report(128, 0.5, n_p=200), "n_p must be an integer in [1, 128], got 200"),
        (lambda: bound_report(128, 0.5, epsilon=0.0), "epsilon must lie in (0, 1), got 0.0"),
        (lambda: bound_report(128, 0.005), "need n*p >= 1, got n=128, p=0.005"),
        (
            lambda: bound_report(128, 0.5, epsilon=5e-324),
            "epsilon 5e-324 is too small: its per-tail budget epsilon / 2 is 0",
        ),
        (
            lambda: bound_report(128, 0.5, epsilon=5e-322, union=True),
            "epsilon 5e-322 is too small: its per-tail budget epsilon / (N - 1) / 2 is 0",
        ),
    ],
    ids=[
        "thresholds-n",
        "thresholds-p",
        "report-n",
        "report-n_p",
        "report-eps",
        "report-np",
        "report-tiny-eps",
        "report-union-eps",
    ],
)
def test_bad_input_fails_before_the_composite_warning(call, message):
    # N = 128 is composite: a warning raised before the check would hide the
    # ValueError under filterwarnings = error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value) == message
    assert caught == []
