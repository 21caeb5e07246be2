import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import prva
from prva.distributions import GaussianSpec, UniformSpec, gaussian_cdf, gaussian_pdf
from prva.samplers import OpCounter, inversion_sample


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianSpec(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianSpec(math.inf, 1.0)
    # an infinite sigma is not called "not positive"
    with pytest.raises(ValueError, match="finite and positive, got inf"):
        GaussianSpec(0.0, math.inf)
    with pytest.raises(ValueError):
        UniformSpec(2.0, 2.0)
    with pytest.raises(ValueError):
        UniformSpec(5.0, 1.0)


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
    y = gaussian_pdf(x, spec)
    # the trapezoid rule written out: np.trapezoid needs numpy 2.0, and
    # np.trapz warns there
    area = (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()
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


class ForcedStream:
    """Stream double that hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = np.array(values, dtype=float)
        self.counter = OpCounter()

    def uniforms(self, size):
        out, self._values = self._values[:size].copy(), self._values[size:]
        self.counter.uniform_draws += size
        return out


def test_inverse_cdf_uniform():
    # the uniform inverse CDF lo + u * width, at u = 0, 1/4, 1/2 and 1
    spec = UniformSpec(2.0, 6.0)
    out = inversion_sample(ForcedStream([0.0, 0.25, 0.5, 1.0]), spec, 4)
    np.testing.assert_array_equal(out, [2.0, 3.0, 4.0, 6.0])


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


def test_public_surface_resolves_and_star_imports_clean():
    names = prva.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        getattr(prva, name)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec("from prva import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
