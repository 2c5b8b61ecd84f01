import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maskspectra import spectrum
from maskspectra.masks import generate_mask
from maskspectra.spectrum import transform_plan
from oracles import dft_direct, hard_threshold, max_nonzero_bin, spectrum_of_mask, worst_case_mask

# grid spanning primes, powers of two, and mixed composites
FAST_VS_DIRECT_SIZES = [1, 2, 3, 4, 5, 8, 16, 17, 64, 127, 128, 251, 360, 1024, 1543, 2048, 4093, 4096]


def test_direct_all_zero():
    assert np.all(dft_direct(np.zeros(16)) == 0)


def test_direct_single_impulse_unit_modulus():
    for m in (0, 3, 7):
        x = np.zeros(11)
        x[m] = 1.0
        assert np.allclose(np.abs(dft_direct(x)), 1.0, atol=1e-12)


def test_direct_all_ones_geometric_sum():
    n = 25
    coeffs = dft_direct(np.ones(n))
    assert coeffs[0] == pytest.approx(n, abs=1e-9)
    assert np.abs(coeffs[1:]).max() < 1e-9


def test_length_one():
    assert dft_direct([3.25]).tolist() == [3.25 + 0j]
    assert spectrum_of_mask(worst_case_mask(1, 1)).tolist() == [1.0 + 0j]


def test_fast_matches_direct():
    rng = np.random.Generator(np.random.Philox(key=2024))
    for n in FAST_VS_DIRECT_SIZES:
        x = rng.random(n) - 0.5
        a = scipy.fft.fft(x)
        b = dft_direct(x)
        scale = max(np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() <= 1e-9 * scale, n


def test_worst_case_block_peak_matches_reference_value():
    # contiguous block of 64 ones in a length-127 mask
    m = worst_case_mask(127, 64)
    for transform in (scipy.fft.fft, dft_direct):
        _, peak = max_nonzero_bin(transform(m.astype(float)))
        assert peak == pytest.approx(40.426, abs=1e-3)


def test_mask_spectrum_invariants():
    # Parseval, conjugate symmetry, and DC bin = n_p
    for n, count in ((7, 334), (127, 333), (1543, 333)):
        for t in range(count):
            mask = generate_mask(n, 0.4, n, t)
            coeffs = spectrum_of_mask(mask)
            assert abs(coeffs[0].imag) < 1e-9
            assert coeffs[0].real == pytest.approx(np.count_nonzero(mask), abs=1e-9)
            mags = np.abs(coeffs)
            assert np.allclose(mags[1:], mags[1:][::-1], rtol=1e-9, atol=1e-12)
            energy_freq = float(np.sum(mags**2))
            energy_time = n * float(np.sum(mask.astype(float) ** 2))
            if energy_time:
                assert energy_freq == pytest.approx(energy_time, rel=1e-6)


def test_max_nonzero_bin_dirichlet_main_lobe():
    # minimum angular spacing puts the main lobe at k=1
    k, _ = max_nonzero_bin(dft_direct(worst_case_mask(13, 4)))
    assert k == 1


def test_max_nonzero_bin_flat_mask_is_zero():
    _, peak = max_nonzero_bin(spectrum_of_mask(worst_case_mask(64, 64)))
    assert peak == pytest.approx(0.0, abs=1e-9)


def test_max_nonzero_bin_impulse_tie_breaks_low():
    x = np.zeros(9)
    x[0] = 1.0
    k, peak = max_nonzero_bin(dft_direct(x))
    assert (k, peak) == (1, pytest.approx(1.0))


def test_max_nonzero_bin_needs_two_bins():
    with pytest.raises(ValueError):
        max_nonzero_bin(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        max_nonzero_bin(np.ones((2, 2), dtype=np.complex128))


@settings(max_examples=40, deadline=None)
@example(n=2, p=0.5, seed=1, trial=1)
@example(n=1543, p=0.5, seed=2, trial=2**64 - 1)
@given(
    n=st.integers(2, 400),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 2**64 - 1),
)
def test_mask_spectrum_dc_and_conjugate_symmetry(n, p, seed, trial):
    mask = generate_mask(n, p, seed, trial)
    coeffs = spectrum_of_mask(mask)
    direct = dft_direct(mask)
    tol = 1e-12 * n
    n_p = np.count_nonzero(mask)
    assert np.abs(coeffs - direct).max() <= tol
    assert abs(coeffs[0] - n_p) <= tol and abs(direct[0] - n_p) <= tol
    mirror = np.conj(coeffs[(-np.arange(n)) % n])
    assert np.abs(coeffs - mirror).max() <= tol


# transform_plan returns a Rader plan at the first four
# lengths (padded at 1543, whose N - 1 has the prime factor 257) and
# numpy.fft in natural order at the others (127 lies below the crossover,
# 128 is even)
RADER_LENGTHS = (1033, 1543, 1609, 8191)
NATURAL_LENGTHS = (127, 128)


@pytest.mark.parametrize("n", RADER_LENGTHS + NATURAL_LENGTHS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, 0.3]), frac=st.floats(0.05, 0.95))
def test_keep_above_and_peak_magnitude_match_scipy(n, seed, offset, frac):
    plan = transform_plan(n)
    assert isinstance(plan, spectrum._RaderPlan) == (n in RADER_LENGTHS)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n) + offset  # with the offset, the DC bin is the peak
    coeffs = scipy.fft.fft(z)
    mags = np.abs(coeffs)
    peak = float(mags.max())
    ordered = plan.analyze(plan.to_order(z))
    assert float(ordered[1].max()) == pytest.approx(peak, rel=1e-12)
    # one magnitude per bin, in transform order, on both paths
    assert np.abs(ordered[1] - plan.to_order(mags)).max() <= 1e-12 * peak
    # a middle threshold splits the off-DC bins; none may sit on it, where
    # an ulp decides whether a bin is kept
    middle = frac * float(mags[1:].max())
    assume(np.abs(mags - middle).min() > 1e-9 * peak)
    assert np.count_nonzero(ordered[1] > middle) == np.count_nonzero(mags > middle)
    scale = max(np.abs(z).max(), 1.0)
    for threshold in (0.0, middle, 1.01 * peak):
        want = scipy.fft.ifft(hard_threshold(coeffs, threshold)).real
        got = plan.from_order(plan.synthesize(*ordered, threshold))
        assert np.abs(got - want).max() <= 1e-12 * scale, threshold
    assert plan.from_order(plan.synthesize(*ordered, 1.01 * peak)).tolist() == [0.0] * n
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            plan.synthesize(*ordered, bad)


@pytest.mark.parametrize("n", RADER_LENGTHS + NATURAL_LENGTHS)
def test_one_analysis_serves_many_syntheses(n):
    # one analysis, then a synthesis per threshold, gives exactly what a
    # fresh analysis and synthesis give, and leaves the analysis as it was
    rng = np.random.Generator(np.random.Philox(key=n))
    x = rng.normal(size=n) + 0.3
    plan = transform_plan(n)
    z = plan.to_order(x)
    coeffs, mags = plan.analyze(z)
    kept_before = coeffs.copy(), mags.copy()
    assert float(mags.max()) == float(plan.analyze(plan.to_order(x))[1].max())
    assert float(mags.max()) == pytest.approx(float(np.abs(scipy.fft.fft(x)).max()), rel=1e-12)
    for threshold in (0.0, 0.5 * float(np.median(mags)), 2.0 * float(np.median(mags)), float(mags.max())):
        got = plan.synthesize(coeffs, mags, threshold)
        assert np.array_equal(got, plan.synthesize(*plan.analyze(z), threshold)), threshold
    assert not plan.synthesize(coeffs, mags, float(mags.max())).any()
    assert np.array_equal(coeffs, kept_before[0]) and np.array_equal(mags, kept_before[1])
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            plan.synthesize(coeffs, mags, bad)
