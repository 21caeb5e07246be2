"""Distribution parameter types, densities, and closed-form inverse CDFs.

Every sampler in the package is parameterized by one of the small frozen
spec types below rather than by bare floats, so that a distribution choice
travels as a single value and is validated once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_erfc = np.vectorize(math.erfc, otypes=[float])


class InverseUnavailableError(ValueError):
    """Raised for distribution families without a closed-form inverse CDF."""


@dataclass(frozen=True)
class GaussianSpec:
    """Normal distribution with mean ``mean`` and standard deviation ``sigma``."""

    mean: float
    sigma: float
    family = "gaussian"

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"gaussian mean must be finite, got {self.mean}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"gaussian sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class UniformSpec:
    """Uniform distribution on the closed interval [lo, hi]."""

    lo: float
    hi: float
    family = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class ExponentialSpec:
    """Exponential distribution with rate parameter ``rate`` (mean 1/rate)."""

    rate: float
    family = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"exponential rate must be positive, got {self.rate}")


def gaussian_pdf(x, spec: GaussianSpec):
    """Density of ``spec`` evaluated at ``x`` (scalar or array).

    exp(-0.5 * z * z) / (sigma * sqrt(2 pi)) with z = (x - mean) / sigma,
    each step in place on one buffer. Squaring before the exact ×−0.5
    changes a rounding only where 0.5·z² is subnormal, and exp gives 1.0
    there either way. A |z| that overflows, or whose square does, gives
    0.0, unwarned.
    """
    x = np.asarray(x, dtype=float)
    # the out array keeps a scalar input 0-d, so every step runs in place
    out = np.subtract(x, spec.mean, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        out /= spec.sigma
        np.multiply(out, out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= spec.sigma * math.sqrt(2.0 * math.pi)
    return out if out.ndim else float(out)


def gaussian_cdf(x, spec: GaussianSpec):
    """CDF of ``spec`` at ``x``, via the complementary error function.

    erfc is used instead of ``0.5*(1+erf(z/sqrt(2)))`` so the deep lower
    tail keeps full relative precision; tail mass enters the KL and
    benchmark oracles where cancellation would otherwise dominate.
    ``math.erfc`` is applied elementwise; it stays within about 2 ulp of
    an arbitrary-precision reference out to erfc(26) ~ 1e-296.
    """
    z = (np.asarray(x, dtype=float) - spec.mean) / spec.sigma
    out = 0.5 * _erfc(-z / math.sqrt(2.0))
    return out if out.ndim else float(out)


def uniform_cdf(x, spec: UniformSpec):
    x = np.asarray(x, dtype=float)
    out = np.clip((x - spec.lo) / spec.width, 0.0, 1.0)
    return out if out.ndim else float(out)


def exponential_cdf(x, spec: ExponentialSpec):
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, -np.expm1(-spec.rate * np.maximum(x, 0.0)), 0.0)
    return out if out.ndim else float(out)


def inverse_cdf(p, spec):
    """Closed-form inverse CDF of ``spec`` evaluated at probability ``p``.

    Supports the uniform and exponential families. ``p`` must lie in
    [0, 1]; for the exponential, p = 1 maps to +inf. Families without a
    closed-form inverse (the Gaussian in particular) raise
    InverseUnavailableError — use a sampler from :mod:`prva.samplers`
    for those instead.
    """
    p_arr = np.asarray(p, dtype=float)
    # a NaN propagates through min and max and fails both comparisons
    if p_arr.size and not (p_arr.min() >= 0.0 and p_arr.max() <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    # lo + p * width and -log1p(-p) / rate, in place on one output buffer
    if isinstance(spec, UniformSpec):
        out = np.multiply(p_arr, spec.width, out=np.empty_like(p_arr))
        out += spec.lo
    elif isinstance(spec, ExponentialSpec):
        out = np.negative(p_arr, out=np.empty_like(p_arr))
        with np.errstate(divide="ignore"):
            np.log1p(out, out=out)
        np.negative(out, out=out)
        out /= spec.rate
    elif isinstance(spec, GaussianSpec):
        raise InverseUnavailableError(
            "no closed-form inverse CDF for family 'gaussian'; "
            "use an accept-reject or reference sampler"
        )
    else:
        raise InverseUnavailableError(
            f"no closed-form inverse CDF for family {getattr(spec, 'family', type(spec).__name__)!r}"
        )
    return out if out.ndim else float(out)
