import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import prva
from prva.distributions import (
    ExponentialSpec,
    GaussianSpec,
    InverseUnavailableError,
    UniformSpec,
    gaussian_cdf,
    gaussian_pdf,
    inverse_cdf,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianSpec(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianSpec(math.inf, 1.0)
    with pytest.raises(ValueError):
        UniformSpec(2.0, 2.0)
    with pytest.raises(ValueError):
        UniformSpec(5.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialSpec(0.0)
    with pytest.raises(ValueError):
        ExponentialSpec(-3.0)


def test_gaussian_pdf_peak_and_symmetry():
    std = GaussianSpec(0.0, 1.0)
    assert math.isclose(gaussian_pdf(0.0, std), 1.0 / math.sqrt(2.0 * math.pi))
    assert math.isclose(gaussian_pdf(1.3, std), gaussian_pdf(-1.3, std))
    sensor = GaussianSpec(980.794, 7.178)
    assert math.isclose(
        gaussian_pdf(980.794, sensor), 1.0 / (7.178 * math.sqrt(2.0 * math.pi))
    )
    # scale family: sigma stretches x and divides the height
    assert math.isclose(
        gaussian_pdf(980.794 + 7.178, sensor), gaussian_pdf(1.0, std) / 7.178
    )


def test_gaussian_pdf_normalizes():
    spec = GaussianSpec(-3.0, 2.5)
    x = np.linspace(spec.mean - 10 * spec.sigma, spec.mean + 10 * spec.sigma, 200_001)
    area = np.trapezoid(gaussian_pdf(x, spec), x)
    assert abs(area - 1.0) < 1e-9


def test_gaussian_pdf_far_tail_is_zero_without_warning():
    # (x - mean) / sigma beyond ~1.34e154 squares to inf; the density is
    # still exactly 0.0, and no overflow warning escapes
    spec = GaussianSpec(2.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_pdf(1e154, spec) == 0.0
        assert gaussian_pdf(-1e300, spec) == 0.0
        # here z itself overflows in the divide by sigma
        assert gaussian_pdf(1e300, GaussianSpec(0.0, 1e-300)) == 0.0
        out = gaussian_pdf(np.array([2.0, 1e200, -math.inf, math.inf, 1e154]), spec)
    assert out[0] == 1.0 / (0.5 * math.sqrt(2.0 * math.pi))
    np.testing.assert_array_equal(out[1:], 0.0)


def test_gaussian_pdf_saturates_overflowing_deviation_and_peak_without_warning():
    # x - mean overflowed in the subtract, and a subnormal sigma's peak
    # 1 / (sigma sqrt(2 pi)) in the final divide; both warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_pdf(1.7e308, GaussianSpec(-1.7e308, 1.0)) == 0.0
        assert gaussian_pdf(0.0, GaussianSpec(0.0, 5e-324)) == math.inf
        out = gaussian_pdf(np.array([1.7e308, -1.7e308]), GaussianSpec(-1.7e308, 1.0))
    np.testing.assert_array_equal(out, [0.0, 1.0 / math.sqrt(2.0 * math.pi)])


def test_gaussian_cdf_values():
    std = GaussianSpec(0.0, 1.0)
    assert math.isclose(gaussian_cdf(0.0, std), 0.5)
    # central one-sigma mass, a standard constant
    mass = gaussian_cdf(1.0, std) - gaussian_cdf(-1.0, std)
    assert math.isclose(mass, 0.6826894921370859, rel_tol=1e-12)
    # deep lower tail keeps relative precision instead of rounding to 0
    tail = gaussian_cdf(-10.0, std)
    assert 0.0 < tail < 1e-22
    assert math.isclose(tail, 7.61985302416053e-24, rel_tol=1e-10)


def test_inverse_cdf_uniform():
    spec = UniformSpec(2.0, 6.0)
    assert inverse_cdf(0.0, spec) == 2.0
    assert inverse_cdf(1.0, spec) == 6.0
    assert inverse_cdf(0.5, spec) == 4.0
    out = inverse_cdf(np.array([0.0, 0.25, 1.0]), spec)
    np.testing.assert_allclose(out, [2.0, 3.0, 6.0])


def test_inverse_cdf_exponential():
    spec = ExponentialSpec(1.0)
    assert math.isclose(inverse_cdf(0.5, spec), math.log(2.0))
    assert math.isclose(inverse_cdf(1.0 - math.exp(-1.0), spec), 1.0)
    assert inverse_cdf(0.0, spec) == 0.0
    assert inverse_cdf(1.0, spec) == math.inf
    rate3 = ExponentialSpec(3.0)
    assert math.isclose(inverse_cdf(0.5, rate3), math.log(2.0) / 3.0)


def test_inverse_cdf_is_right_inverse():
    uspec = UniformSpec(-1.5, 4.0)
    espec = ExponentialSpec(0.7)
    p = np.linspace(0.01, 0.99, 99)
    # the closed-form CDFs: (x - lo) / width and 1 - exp(-rate x)
    x = inverse_cdf(p, uspec)
    np.testing.assert_allclose((x - uspec.lo) / uspec.width, p, atol=1e-12)
    x = inverse_cdf(p, espec)
    np.testing.assert_allclose(-np.expm1(-espec.rate * x), p, atol=1e-12)


def test_inverse_cdf_rejects_bad_probabilities():
    spec = UniformSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        inverse_cdf(-0.1, spec)
    with pytest.raises(ValueError):
        inverse_cdf(1.1, spec)
    with pytest.raises(ValueError):
        inverse_cdf(np.array([0.5, math.nan]), spec)


def test_inverse_cdf_refuses_gaussian_by_name():
    with pytest.raises(InverseUnavailableError, match="gaussian"):
        inverse_cdf(0.5, GaussianSpec(0.0, 1.0))


def test_import_does_not_load_scipy():
    src = str(Path(prva.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, prva; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "False"
