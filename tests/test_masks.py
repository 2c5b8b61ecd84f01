import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskspectra.masks import (
    Mask,
    MaskConfig,
    generate_mask,
    is_prime,
    worst_case_mask,
)
from oracles import oracle_mask


def test_n_p_equals_popcount():
    cfg = MaskConfig(8, 0.4, seed=123)
    for t in range(20):
        m = generate_mask(cfg, t)
        assert m.n_p == int(np.sum(m.bits))


def test_generate_is_deterministic():
    cfg = MaskConfig(127, 0.5, seed=42)
    a = generate_mask(cfg, 17)
    b = generate_mask(cfg, 17)
    assert np.array_equal(a.bits, b.bits)
    # independent of evaluation order
    c = generate_mask(cfg, 3)
    a2 = generate_mask(cfg, 17)
    assert np.array_equal(a.bits, a2.bits)
    assert not np.array_equal(a.bits, c.bits)


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
    config = MaskConfig(127, 0.5, seed=seed)
    assert np.array_equal(generate_mask(config, t).bits, oracle_mask(config, t).bits)


def test_distinct_seeds_distinct_masks():
    a = generate_mask(MaskConfig(127, 0.5, seed=1), 0)
    b = generate_mask(MaskConfig(127, 0.5, seed=2), 0)
    assert not np.array_equal(a.bits, b.bits)


def test_mean_support_matches_binomial_oracle():
    # Binomial mean N*p = 63.5; sample mean over 1e5 trials has sd ~ 5.6/sqrt(1e5)
    cfg = MaskConfig(127, 0.5, seed=7)
    trials = 100_000
    total = sum(generate_mask(cfg, t).n_p for t in range(trials))
    mean = total / trials
    assert 64 - 1.5 <= mean <= 64 + 1.5


def test_worst_case_mask_layout():
    m = worst_case_mask(5, 2)
    assert m.bits.tolist() == [1, 1, 0, 0, 0]
    assert worst_case_mask(5, 0).n_p == 0
    assert worst_case_mask(5, 5).bits.tolist() == [1] * 5
    with pytest.raises(ValueError):
        worst_case_mask(5, 6)
    with pytest.raises(ValueError):
        worst_case_mask(5, -1)
    # any integer type; a float or bool is rejected, not truncated or read as 1
    assert worst_case_mask(np.int64(5), np.uint8(2)).bits.tolist() == [1, 1, 0, 0, 0]
    for n, n_p in ((127, 5.5), (127, True), (127.0, 5), (True, 1), (127, "5")):
        with pytest.raises(ValueError):
            worst_case_mask(n, n_p)


def test_config_validation():
    with pytest.raises(ValueError):
        MaskConfig(1, 0.5)
    with pytest.raises(ValueError):
        MaskConfig(10, 0.0)
    with pytest.raises(ValueError):
        MaskConfig(10, 1.0)
    with pytest.raises(ValueError):
        MaskConfig(10, 0.5, seed=-1)
    with pytest.raises(ValueError):
        generate_mask(MaskConfig(10, 0.5), -1)
    # any integer type is accepted and stored as int; floats and bools are not truncated
    cfg = MaskConfig(np.int64(127), 0.5, seed=np.uint64(2**64 - 1))
    assert (cfg.n, cfg.seed) == (127, 2**64 - 1) and type(cfg.n) is int and type(cfg.seed) is int
    assert cfg == MaskConfig(127, 0.5, seed=2**64 - 1)
    for bad in ({"n": 127.0}, {"n": True}, {"n": "127"}, {"seed": 1.9}, {"seed": True}, {"seed": np.bool_(1)}):
        kwargs = {"n": 127, "p": 0.5, **bad}
        with pytest.raises(ValueError):
            MaskConfig(**kwargs)
    # the same for trial indices: 1.5 and True must not read as trial 1
    want = generate_mask(cfg, 1).bits
    assert np.array_equal(generate_mask(cfg, np.int64(1)).bits, want)
    assert np.array_equal(generate_mask(cfg, np.uint64(1)).bits, want)
    for bad in (1.5, 1.0, True, np.bool_(True), "1", 2**64, np.int64(-1)):
        with pytest.raises(ValueError, match="trial_index"):
            generate_mask(cfg, bad)


def test_is_prime_against_oracle():
    for n in list(range(2, 200)) + [1543, 8191, 65537, 131071, 131072, 100000]:
        assert is_prime(n) == sympy.isprime(n), n


def test_mask_bits_validation():
    with pytest.raises(ValueError):
        Mask(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        Mask(np.zeros((2, 2), dtype=np.uint8))
    # non-binary values are rejected, not truncated by the uint8 cast
    with pytest.raises(ValueError):
        Mask(np.array([0.5, 1.7, 0]))
    with pytest.raises(ValueError):
        Mask(np.array([0.0, np.nan, 1.0]))


def test_mask_immutable():
    m = worst_case_mask(8, 3)
    with pytest.raises(ValueError):
        m.bits[0] = 0

