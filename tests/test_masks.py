import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskspectra.bounds import bound_report, gaussian_bound, ratio_approximation, sigma_bound, worst_case_bound
from maskspectra import recovery
from maskspectra.masks import generate_mask, is_prime
from maskspectra.montecarlo import ExperimentSpec
from maskspectra.recovery import random_band_signal, recover, synthesize_signal
from oracles import oracle_mask, worst_case_mask


def test_generate_is_deterministic():
    a = generate_mask(127, 0.5, 42, 17)
    assert a.dtype == np.bool_ and a.shape == (127,)
    b = generate_mask(127, 0.5, 42, 17)
    assert np.array_equal(a, b)
    # independent of evaluation order
    c = generate_mask(127, 0.5, 42, 3)
    a2 = generate_mask(127, 0.5, 42, 17)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, c)


@settings(max_examples=50, deadline=None)
# each word at 0, small, 2**63 and 2**64 - 1
@example(seed=2**64 - 1, t=5)
@example(seed=5, t=2**64 - 1)
@example(seed=0, t=2**63)
@example(seed=1729, t=0)
@given(seed=st.integers(0, 2**64 - 1), t=st.integers(0, 2**64 - 1))
def test_trial_key_is_seed_high_word_trial_low_word(seed, t):
    # the re-keyed generator against a Philox built with the 128-bit key
    # (seed << 64) + t, over the full range of both words
    assert np.array_equal(generate_mask(127, 0.5, seed, t), oracle_mask(127, 0.5, seed, t))


def test_distinct_seeds_distinct_masks():
    a = generate_mask(127, 0.5, 1)
    b = generate_mask(127, 0.5, 2)
    assert not np.array_equal(a, b)


def test_mean_support_matches_binomial_oracle():
    # Binomial mean N*p = 63.5; sample mean over 1e5 trials has sd ~ 5.6/sqrt(1e5)
    trials = 100_000
    total = sum(int(np.count_nonzero(generate_mask(127, 0.5, 7, t))) for t in range(trials))
    mean = total / trials
    assert 64 - 1.5 <= mean <= 64 + 1.5


def test_worst_case_mask_layout():
    # the test oracle's block of ones at the origin
    assert worst_case_mask(5, 2).tolist() == [1, 1, 0, 0, 0]
    assert not worst_case_mask(5, 0).any()
    assert worst_case_mask(5, 5).tolist() == [1] * 5
    assert worst_case_mask(1, 1).tolist() == [1]


def test_config_validation():
    # generate_mask and ExperimentSpec share one check of (n, p, seed), in that order
    def checks(n, p, seed=0):
        return (lambda: generate_mask(n, p, seed), lambda: ExperimentSpec(n, p, 1, seed))

    for (n, p, seed), message in (
        ((1, 0.5, 0), "mask length n must be an integer in [2, 4294967296], got 1"),
        ((10, 0.0, 0), "sampling rate p must lie in (0, 1), got 0.0"),
        ((10, 1.0, 0), "sampling rate p must lie in (0, 1), got 1.0"),
        ((10, 0.5, -1), "seed must be an integer in [0, 18446744073709551615], got -1"),
        ((10, 0.5, 2**64), "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616"),
        ((1, 2.0, -1), "mask length n must be an integer in [2, 4294967296], got 1"),
        ((10, 2.0, -1), "sampling rate p must lie in (0, 1), got 2.0"),
    ):
        for call in checks(n, p, seed):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
    # every other integer goes through the same check: a float multiplier is
    # not read as 3
    with pytest.raises(ValueError) as info:
        sigma_bound(127, 0.5, 3.0)
    assert str(info.value) == "m must be an integer in [3, 4], got 3.0"
    # any integer type is accepted and stored as int; floats and bools are not truncated
    spec = ExperimentSpec(np.int64(127), np.float64(0.5), 1, seed=np.uint64(2**64 - 1))
    assert (spec.n, spec.p, spec.seed) == (127, 0.5, 2**64 - 1)
    assert (type(spec.n), type(spec.p), type(spec.seed)) == (int, float, int)
    assert spec == ExperimentSpec(127, 0.5, 1, seed=2**64 - 1)
    want = generate_mask(127, 0.5, 2**64 - 1, 1)
    assert np.array_equal(generate_mask(np.int64(127), np.float64(0.5), np.uint64(2**64 - 1), 1), want)
    for bad in ({"n": 127.0}, {"n": True}, {"n": "127"}, {"seed": 1.9}, {"seed": True}, {"seed": np.bool_(1)}):
        kwargs = {"n": 127, "p": 0.5, **bad}
        for call in checks(**kwargs):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
    # the same for trial indices: 1.5 and True must not read as trial 1
    want = generate_mask(127, 0.5, 0, 1)
    assert np.array_equal(generate_mask(127, 0.5, 0, np.int64(1)), want)
    assert np.array_equal(generate_mask(127, 0.5, 0, np.uint64(1)), want)
    for bad in (-1, 1.5, 1.0, True, np.bool_(True), "1", 2**64, np.int64(-1)):
        with pytest.raises(ValueError, match="trial_index"):
            generate_mask(127, 0.5, 0, bad)


def test_every_rate_check_rejects_non_real_values():
    # one check serves every rate and epsilon: a str, None, complex, bool or
    # NaN value is a ValueError naming it, never a TypeError from the comparison
    for p in ("0.5", None, 0.5 + 0j, True, np.bool_(True), math.nan, np.float32(1.0)):
        for call in (
            lambda: ExperimentSpec(127, p, 1),
            lambda: generate_mask(127, p),
            lambda: gaussian_bound(127, p),
            lambda: sigma_bound(127, p, 3),
            lambda: bound_report(127, p),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).endswith(f"p must lie in (0, 1), got {p!r}")
    for bad in ("1e-4", None, 1e-4 + 0j, True):
        with pytest.raises(ValueError) as info:
            gaussian_bound(127, 0.5, epsilon=bad)
        assert str(info.value) == f"epsilon must lie in (0, 1), got {bad!r}"
    # the ratio approximation also takes p = 1, and keeps its own message
    for p in ("0.5", None, 0.5 + 0j, True, np.bool_(True), math.nan, np.float32(1.5)):
        with pytest.raises(ValueError) as info:
            ratio_approximation(127, p)
        assert str(info.value) == f"p must lie in (0, 1], got {p!r}"
    # a threshold, like tol, reads an int beyond the float range as infinite
    spec = ExperimentSpec(127, 0.5, 1, thresholds=(("a", 10**400), ("b", -(10**400))))
    assert spec.thresholds == (("a", math.inf), ("b", -math.inf))


def test_every_mask_length_has_one_upper_limit():
    # is_prime trial-divides up to sqrt(N), which ran for minutes at
    # N = 10**18 + 3, and the ratio radicand overflowed at N = 10**300
    for n in (2**32 + 1, 10**18 + 3, 10**300):
        for call in (
            lambda: generate_mask(n, 0.5),
            lambda: ExperimentSpec(n, 0.5, 1),
            lambda: worst_case_bound(n, 1),
            lambda: ratio_approximation(n, 0.5),
            lambda: gaussian_bound(n, 0.5),
            lambda: sigma_bound(n, 0.5, 3),
            lambda: bound_report(n, 0.5),
            lambda: random_band_signal(n, 1),
        ):
            with pytest.raises(ValueError, match=r"n must be an integer in \[[12], 4294967296\], got"):
                call()
    assert sigma_bound(2**32, 0.5, 3) == 3.0 * 2**15  # the limit itself is a length


def test_rates_of_any_real_type_are_kept_as_float():
    p = float(np.float32(0.1))
    spec = ExperimentSpec(127, np.float32(0.1), 1)
    assert type(spec.p) is float and spec.p == p
    assert np.array_equal(generate_mask(127, np.float32(0.1), 3), generate_mask(127, p, 3))
    assert ExperimentSpec(127, Fraction(1, 2), 1).p == 0.5
    ratio = ratio_approximation(127, np.float32(0.1))
    assert type(ratio) is float and ratio == ratio_approximation(127, p)
    assert ratio_approximation(127, np.float32(1.0)) == ratio_approximation(127, 1.0)
    assert ratio_approximation(127, Fraction(1, 2)) == ratio_approximation(127, 0.5)


def test_is_prime_against_oracle():
    for n in list(range(2, 200)) + [1543, 8191, 65537, 131071, 131072, 100000]:
        assert is_prime(n) == sympy.isprime(n), n


def test_mask_bits_validation(monkeypatch):
    # recover takes the mask from outside: a row that is not 1-D or holds
    # anything but 0 and 1 is rejected before any transform, not read as
    # True by the bool cast
    x = synthesize_signal(random_band_signal(127, 2, seed=4))
    row = generate_mask(127, 0.5, 4)
    want = recover(x, row, iterations=3)[1]
    # a numeric 0/1 row is the same mask as the bool one
    for same in (row.astype(np.uint8), row.astype(np.float64), row.astype(np.float32), row.tolist()):
        assert recover(x, same, iterations=3)[1] == want

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform plan was fetched")

    monkeypatch.setattr(recovery, "transform_plan", no_transform)
    for value, dtype in ((2, np.uint8), (256, np.uint16), (1.7, np.float64), (np.nan, np.float64)):
        bad = row.astype(dtype)
        bad[0] = value
        with pytest.raises(ValueError, match="^mask must be a 1-D row of 0s and 1s$"):
            recover(x, bad)
    with pytest.raises(ValueError, match="^mask must be a 1-D row of 0s and 1s$"):
        recover(x, np.stack((row, row)))
