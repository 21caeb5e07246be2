"""Distribution parameter types, the Gaussian density and the Gaussian CDF.

Every sampler in the package is parameterized by one of the small frozen
spec types below rather than by bare floats, so that a distribution choice
travels as a single value and is validated once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class GaussianSpec:
    """Normal distribution with mean ``mean`` and standard deviation ``sigma``."""

    mean: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"gaussian mean must be finite, got {self.mean}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"gaussian sigma must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class UniformSpec:
    """Uniform distribution on the closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def gaussian_pdf(x, spec: GaussianSpec):
    """Density of ``spec`` at ``x``: an ndarray of ``x``'s shape, 0-d for a scalar.

    exp(-0.5 * z * z) / (sigma * sqrt(2 pi)) with z = (x - mean) / sigma,
    each step in place on one buffer. Squaring before the exact ×−0.5
    changes a rounding only where 0.5·z² is subnormal, and exp gives 1.0
    there either way. Overflow saturates, unwarned, in two places:

    - an x − mean that overflows (x = 1.7e308 against mean = −1.7e308),
      or a |z| that overflows, or whose square does, gives 0.0;
    - a sigma so small that the peak 1/(sigma·sqrt(2π)) exceeds float64
      (a subnormal sigma such as 5e-324) gives inf near the mean, which
      :func:`prva.montecarlo.mc_integrate` reports as an overflowing area.
    """
    x = np.asarray(x, dtype=float)
    # the out array keeps a scalar input 0-d, so every step runs in place
    with np.errstate(over="ignore"):
        out = np.subtract(x, spec.mean, out=np.empty_like(x))
        out /= spec.sigma
        np.multiply(out, out, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out /= spec.sigma * math.sqrt(2.0 * math.pi)
    return out


def gaussian_cdf(x, spec: GaussianSpec):
    """CDF of ``spec`` at ``x``: an ndarray of ``x``'s shape, 0-d for a scalar.

    erfc is used instead of ``0.5*(1+erf(z/sqrt(2)))`` so the deep lower
    tail keeps full relative precision; tail mass enters the KL and
    benchmark oracles where cancellation would otherwise dominate.
    ``math.erfc`` is applied elementwise; it stays within about 2 ulp of
    an arbitrary-precision reference out to erfc(26) ~ 1e-296.
    """
    z = (np.asarray(x, dtype=float) - spec.mean) / spec.sigma
    # halved in place: 0.5 * a 0-d array would return a numpy scalar
    out = _erfc(-z / math.sqrt(2.0))
    out *= 0.5
    return out

