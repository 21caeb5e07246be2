import math
import warnings

import numpy as np
import pytest

from prva.distributions import GaussianSpec, UniformSpec
from prva import stats
from prva.samplers import SeededStream, inversion_sample, reference_gaussian_sample
from prva.stats import (
    FitResult,
    confidence_interval_90,
    fit_gaussian,
    fit_gaussian_binned,
    histogram,
    kl_divergence,
    quantization_sweep,
    unit_code_binning,
    unit_code_kl,
)

SENSOR = GaussianSpec(980.794, 7.178)


def test_histogram_worked_example():
    h = histogram([0.1, 0.4, 0.6, 0.9], 2, (0.0, 1.0))
    np.testing.assert_array_equal(h.counts, [2, 2])
    np.testing.assert_allclose(h.edges, [0.0, 0.5, 1.0])
    assert h.total == 4
    assert h.bins == 2


def test_histogram_saturates_instead_of_dropping():
    h = histogram([-5.0, 0.4, 7.0, 2.0], 2, (0.0, 1.0))
    np.testing.assert_array_equal(h.counts, [2, 2])
    assert h.total == 4  # nothing silently discarded


@pytest.mark.parametrize(
    "x, counts",
    [
        (1e300, [0, 1, 0, 1]),
        (-1e300, [1, 1, 0, 0]),
        (np.finfo(float).max, [0, 1, 0, 1]),
        (-np.finfo(float).max, [1, 1, 0, 0]),
        (math.inf, [0, 1, 0, 1]),
        (-math.inf, [1, 1, 0, 0]),
    ],
)
def test_histogram_saturates_extreme_samples(x, counts):
    h = histogram([x, 0.75], 4, (0.0, 2.0))
    np.testing.assert_array_equal(h.counts, counts)


def test_histogram_identical_samples_at_lo():
    h = histogram([2.0, 2.0, 2.0], 4, (2.0, 3.0))
    np.testing.assert_array_equal(h.counts, [3, 0, 0, 0])


def test_histogram_errors():
    with pytest.raises(ValueError, match="cannot histogram zero samples"):
        histogram([], 4, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram([1.0], 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram([1.0], 4, (1.0, 1.0))
    with pytest.raises(ValueError):
        histogram([math.nan], 4, (0.0, 1.0))


@pytest.mark.parametrize(
    "samples, bins, hist_range",
    [
        ([1e308, -1e308, 0.0], 4, (-1e308, 1e308)),  # width overflows to inf
        ([0.0], 4, (0.0, 5e-324)),  # bin width underflows to 0
        ([0.0], 1, (0.0, 4e-309)),  # bins per unit overflows to inf
    ],
)
def test_histogram_rejects_range_too_wide_or_narrow_for_its_bins(samples, bins, hist_range):
    with pytest.raises(ValueError, match="too wide or too narrow"):
        histogram(samples, bins, hist_range)


def test_histogram_refuses_more_bins_than_samples_or_a_block():
    # every bin costs memory whatever the sample count, so the count is
    # refused before anything is allocated
    assert histogram(np.arange(10.0), 2**16, (0.0, 10.0)).bins == 2**16
    assert histogram(np.zeros(2**16 + 5), 2**16 + 5, (0.0, 1.0)).bins == 2**16 + 5
    with pytest.raises(ValueError, match="10 samples into 65537 bins"):
        histogram(np.arange(10.0), 65537, (0.0, 10.0))


def test_fit_gaussian_known_values():
    fit = fit_gaussian([0.0, 2.0])
    assert isinstance(fit, GaussianSpec)
    assert fit.mean == 1.0
    assert fit.sigma == 1.0  # ML (1/n) spread
    assert fit.n == 2


def test_fit_gaussian_errors():
    with pytest.raises(ValueError):
        fit_gaussian([1.0])
    with pytest.raises(ValueError, match="samples have zero spread"):
        fit_gaussian([3.0, 3.0, 3.0])


def test_fit_gaussian_tiny_spread_is_fit_not_refused():
    # squared, these deviations underflow to 0; scaled by 2**600 they do not
    fit = fit_gaussian([1e-300, -1e-300, 3e-300])
    assert fit.mean == 1e-300
    assert math.isclose(fit.sigma, math.sqrt(8.0 / 3.0) * 1e-300, rel_tol=1e-15)
    # the smallest spread there is, one subnormal step
    assert fit_gaussian([5e-324, 0.0]).sigma == 5e-324
    # constant samples still have no fit, at any scale, even where their
    # mean rounds off the constant and leaves a deviation of a few ulp, or
    # one whose square overflows
    for constant in (
        [1e-300] * 3, [3.3e-301] * 3, [7e-161] * 7, [5e-324] * 4, [0.0] * 5,
        [0.1] * 3, [0.1] * 1000, [1.0856491671436244e200] * 3,
    ):
        with pytest.raises(ValueError, match="samples have zero spread"):
            fit_gaussian(constant)


@pytest.mark.parametrize(
    "samples",
    [
        [0.0, math.inf],
        [math.inf, -math.inf],
        [-math.inf, 1.0, 2.0],
        [0.0, math.nan],
        [1e308, 1e308],
        [1e200, -1e200],
    ],
)
def test_fit_gaussian_rejects_non_finite_samples_without_warning(samples):
    # numpy used to warn ("invalid value encountered in subtract", or
    # "overflow encountered in square" from the spread of finite samples)
    # before the ValueError, and under warnings-as-errors the caller got
    # the warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit_gaussian(samples)


def test_fit_binned_matches_center_mapped_fit():
    x = reference_gaussian_sample(SeededStream(2), GaussianSpec(0.0, 1.0), 20_000)
    h = histogram(x, 500, (-5.0, 5.0))
    centers = h.centers
    idx = np.clip(np.floor((x + 5.0) * (500 / 10.0)).astype(int), 0, 499)
    direct = fit_gaussian(centers[idx])
    binned = fit_gaussian_binned(h)
    assert math.isclose(binned.mean, direct.mean, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(binned.sigma, direct.sigma, rel_tol=0, abs_tol=1e-10)
    assert binned.n == 20_000


def test_kl_zero_when_histogram_matches_reference():
    # counts proportional to the reference's own bin masses score ~zero
    from prva.distributions import gaussian_cdf
    from prva.stats import Histogram

    spec = GaussianSpec(0.0, 1.0)
    edges = np.linspace(-4.0, 4.0, 65)
    q = np.diff(gaussian_cdf(edges, spec))
    q = q / q.sum()
    counts = np.round(q * 1e15).astype(np.int64)
    h = Histogram(edges=edges, counts=counts)
    assert kl_divergence(h, spec) < 1e-12


def test_kl_nonnegative():
    x = reference_gaussian_sample(SeededStream(3), GaussianSpec(0.0, 1.0), 5_000)
    h = histogram(x, 64, (-4.0, 4.0))
    assert kl_divergence(h, GaussianSpec(0.0, 1.0)) >= 0.0
    assert kl_divergence(h, GaussianSpec(0.3, 1.2)) >= 0.0


def test_kl_detects_mismatch_direction():
    # a uniform sample scored against a gaussian fit pays a visible price
    u = inversion_sample(SeededStream(4), UniformSpec(-3.0, 3.0), 50_000)
    g = reference_gaussian_sample(SeededStream(4), GaussianSpec(0.0, 1.0), 50_000)
    hu = histogram(u, 64, (-3.0, 3.0))
    hg = histogram(g, 64, (-3.0, 3.0))
    kl_u = kl_divergence(hu, fit_gaussian(u))
    kl_g = kl_divergence(hg, fit_gaussian(g))
    assert kl_u > 10.0 * kl_g


def test_kl_scale_invariance():
    # scaling samples, edges, and reference by a power of two leaves every
    # intermediate float identical, so the KL must match bit for bit
    x = reference_gaussian_sample(SeededStream(5), GaussianSpec(0.0, 1.0), 10_000)
    h1 = histogram(x, 64, (-4.0, 4.0))
    h2 = histogram(4.0 * x, 64, (-16.0, 16.0))
    kl1 = kl_divergence(h1, GaussianSpec(0.0, 1.0))
    kl2 = kl_divergence(h2, GaussianSpec(0.0, 4.0))
    assert math.isclose(kl1, kl2, rel_tol=1e-12)


def test_kl_absolute_continuity_error():
    h = histogram([0.05, 0.95], 100, (0.0, 1.0))
    # reference so tight that far bins carry exactly zero mass
    with pytest.raises(ValueError, match="zero mass in an occupied bin"):
        kl_divergence(h, FitResult(mean=0.5, sigma=0.001, n=2))
    # reference centered absurdly far away has no mass on the range at all
    with pytest.raises(ValueError, match="no mass on the histogram range"):
        kl_divergence(h, FitResult(mean=1e6, sigma=0.5, n=2))


def test_unit_code_binning_span_rule():
    h = unit_code_binning(np.array([0.0, 10.0, 5.0]))
    assert h.bins == 10
    assert h.edges[0] == 0.0 and h.edges[-1] == 10.0
    # tiny spans still get the two-bin floor
    h2 = unit_code_binning(np.array([0.0, 1.2]))
    assert h2.bins == 2
    with pytest.raises(ValueError, match="samples have zero span"):
        unit_code_binning(np.array([3.0, 3.0]))
    # one bin per unit is allowed up to max(samples, 2**16) bins; past
    # that the span is refused before any count is allocated
    assert unit_code_binning(np.array([0.0, 2.0**16])).bins == 2**16
    with pytest.raises(ValueError, match=r"2 samples .* 10000000 bins"):
        unit_code_binning(np.array([0.0, 1e7]))
    with pytest.raises(ValueError, match="65537 bins"):
        unit_code_binning(np.array([0.0, 2.0**16 + 1]))


@pytest.mark.parametrize(
    "samples",
    [[0.0, math.inf], [-1.7e308, 1.7e308], [0.0, math.nan]],
    ids=("inf", "span-overflow", "nan"),
)
def test_unit_code_binning_rejects_non_finite_span(samples):
    with pytest.raises(ValueError, match="finite samples with a finite span"):
        unit_code_binning(np.array(samples))


def test_unit_code_kl_uniform_regime():
    # a uniform window of +/-3 sigma scored against its own gaussian fit:
    # the mismatch lands in a narrow, reproducible band
    spec = UniformSpec(SENSOR.mean - 3 * SENSOR.sigma, SENSOR.mean + 3 * SENSOR.sigma)
    kls = []
    for seed in range(5):
        x = inversion_sample(SeededStream(seed), spec, 100_000)
        _, kl = unit_code_kl(x)
        kls.append(kl)
    for kl in kls:
        assert 0.083 < kl < 0.097
    assert 0.086 < float(np.mean(kls)) < 0.093


def test_unit_code_kl_gaussian_is_small():
    x = reference_gaussian_sample(SeededStream(1), SENSOR, 100_000)
    _, kl = unit_code_kl(x)
    assert kl < 0.002


def test_unit_code_kl_separates_families():
    spec = UniformSpec(SENSOR.mean - 3 * SENSOR.sigma, SENSOR.mean + 3 * SENSOR.sigma)
    u = inversion_sample(SeededStream(0), spec, 100_000)
    g = reference_gaussian_sample(SeededStream(0), SENSOR, 100_000)
    _, kl_u = unit_code_kl(u)
    _, kl_g = unit_code_kl(g)
    assert kl_u >= 3.0 * kl_g


def test_quantization_sweep_trend_small():
    rows = quantization_sweep(SENSOR, 20_000, (16, 256, 4096), 10, seed=3)
    assert [b for b, _ in rows] == [16, 256, 4096]
    kls = [kl for _, kl in rows]
    assert kls[0] < kls[1] < kls[2]


def test_quantization_sweep_coarse_limit():
    rows = quantization_sweep(SENSOR, 20_000, (2,), 5, seed=1)
    assert rows[0][1] < 5e-3  # two bins barely distinguish anything


def test_quantization_sweep_refuses_bin_counts_before_the_first_row(monkeypatch):
    # a count histogram refuses used to fail only when its row was
    # reached, after every earlier row had drawn all its batches
    calls = []

    def counting(stream, spec, size):
        calls.append(size)
        return reference_gaussian_sample(stream, spec, size)

    monkeypatch.setattr(stats, "reference_gaussian_sample", counting)
    with pytest.raises(ValueError, match="10 samples into 65537 bins"):
        quantization_sweep(SENSOR, 10, [16, 65537], 3)
    assert calls == []


def test_quantization_sweep_determinism():
    a = quantization_sweep(SENSOR, 5_000, (16, 64), 3, seed=9)
    b = quantization_sweep(SENSOR, 5_000, (16, 64), 3, seed=9)
    assert a == b


def test_confidence_interval_formula():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    lo, hi = confidence_interval_90(values)
    s = np.std(values, ddof=1)
    half = 1.645 * s / math.sqrt(5)
    assert math.isclose(lo, 3.0 - half, rel_tol=1e-12)
    assert math.isclose(hi, 3.0 + half, rel_tol=1e-12)


def test_confidence_interval_coverage():
    rng = SeededStream(17)
    batches = rng.uniforms(2000 * 100).reshape(2000, 100) - 0.5  # mean 0
    hits = 0
    for row in batches:
        lo, hi = confidence_interval_90(row)
        hits += lo <= 0.0 <= hi
    coverage = hits / 2000
    assert 0.86 < coverage < 0.94


def test_confidence_interval_needs_two():
    with pytest.raises(ValueError):
        confidence_interval_90([1.0])
