"""Histogramming, Gaussian fitting, KL divergence, and sweep statistics.

The quality measure used throughout the package is the KL divergence
(in nats) between an empirical histogram P and the Gaussian Q it is
supposed to follow, with Q's mass renormalized over the histogram range
so truncation does not masquerade as mismatch. A "sensor-native" helper
bins at unit code width over the observed span, which is the regime a
raw ADC trace is naturally scored in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianSpec, gaussian_cdf
from .samplers import SeededStream, derive_seed, reference_gaussian_sample


class EmptyDataError(ValueError):
    """Raised when an operation needs at least one sample and got none."""


class DegenerateDataError(ValueError):
    """Raised when samples carry no spread, so no Gaussian fit exists."""


class AbsoluteContinuityError(ValueError):
    """Raised when P puts mass where Q has none, making KL undefined."""


@dataclass(frozen=True)
class Histogram:
    """Counts over equal-width bins given by ``edges`` (len(counts) + 1)."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need bins+1 edges for bins counts")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("histogram edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("histogram counts must be non-negative")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bins(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood Gaussian parameters estimated from n samples."""

    mean: float
    sigma: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
            raise ValueError("fit parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"fit sigma must be positive, got {self.sigma}")
        if self.n < 0:
            raise ValueError("sample count cannot be negative")


def histogram(samples, bins: int, hist_range) -> Histogram:
    """Equal-width histogram with saturating out-of-range handling.

    Samples below the range land in the first bin and samples above in
    the last, mirroring how the ADC clips rather than drops; nothing is
    ever silently discarded, so counts always sum to len(samples).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptyDataError("cannot histogram zero samples")
    # a NaN propagates through min
    if math.isnan(x.min()):
        raise ValueError("samples contain NaN")
    bins = int(bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = (float(hist_range[0]), float(hist_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid histogram range [{lo}, {hi}]")
    # an infinite width, or an infinite bins-per-unit scale from a tiny
    # one, makes the bin index of some samples inf*0 or 0*inf, a NaN that
    # no clip saturates
    scale = bins / (hi - lo)
    if not (math.isfinite(hi - lo) and math.isfinite(scale)):
        raise ValueError(
            f"histogram range [{lo}, {hi}] is too wide or too narrow for "
            f"{bins} bins (bin width {(hi - lo) / bins})"
        )
    # floor((x - lo) * scale) in one buffer; clip in float before the
    # integer cast, so huge or infinite samples saturate instead of
    # overflowing into the wrong bin, and cast as the clip writes
    with np.errstate(over="ignore"):
        pos = np.subtract(x, lo)
        pos *= scale
    np.floor(pos, out=pos)
    idx = np.clip(pos, 0, bins - 1, out=np.empty(pos.shape, np.int64), casting="unsafe")
    counts = np.bincount(idx, minlength=bins)
    return Histogram(edges=np.linspace(lo, hi, bins + 1), counts=counts)


def fit_gaussian(samples) -> FitResult:
    """ML Gaussian fit: sample mean and biased (1/n) standard deviation.

    Needs at least two samples; a sample set with zero spread has no
    Gaussian MLE and raises DegenerateDataError.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"gaussian fit needs at least 2 samples, got {x.size}")
    # a NaN or infinite sample makes the mean non-finite, and so does a
    # sum that overflows; std of such samples would warn before failing
    with np.errstate(invalid="ignore", over="ignore"):
        mean = float(x.mean())
    if not math.isfinite(mean):
        raise ValueError(f"gaussian fit needs finite samples and mean, got mean {mean}")
    # finite samples whose deviations overflow when squared give inf,
    # which FitResult rejects
    with np.errstate(over="ignore"):
        sigma = float(x.std(ddof=0))
    if sigma == 0.0:
        raise DegenerateDataError("samples have zero spread; no gaussian fit exists")
    return FitResult(mean=mean, sigma=sigma, n=int(x.size))


def fit_gaussian_binned(hist: Histogram) -> FitResult:
    """ML Gaussian fit of binned data, treating each count as its bin center.

    Identical to fitting the center-mapped sample list, computed from the
    histogram's weighted moments instead.
    """
    total = hist.total
    if total < 2:
        raise ValueError(f"gaussian fit needs at least 2 samples, got {total}")
    w = hist.counts / total
    centers = hist.centers
    mean = float(np.sum(w * centers))
    var = float(np.sum(w * (centers - mean) ** 2))
    if var <= 0.0:
        raise DegenerateDataError("binned samples have zero spread")
    return FitResult(mean=mean, sigma=math.sqrt(var), n=total)


def kl_divergence(hist: Histogram, target) -> float:
    """KL(P || Q) in nats between a histogram and a Gaussian reference.

    P is the histogram's bin-mass vector. Q is the Gaussian's exact CDF
    difference over the same edges, renormalized to sum to one over the
    histogram range, so a histogram of a correctly truncated Gaussian
    scores near zero instead of paying for the missing tails. Bins where
    P is zero contribute nothing; a bin where P > 0 but Q underflows to
    zero raises AbsoluteContinuityError. ``target`` is anything with
    mean/sigma attributes (a FitResult or a GaussianSpec).

    The result is clipped at zero: by Gibbs' inequality the exact value
    cannot be negative, so any tiny negative is rounding residue.
    """
    total = hist.total
    if total == 0:
        raise EmptyDataError("histogram is empty")
    spec = GaussianSpec(float(target.mean), float(target.sigma))
    q = np.diff(gaussian_cdf(hist.edges, spec))
    z = q.sum()
    if not z > 0.0:
        raise AbsoluteContinuityError(
            "reference Gaussian has no mass on the histogram range"
        )
    q = q / z
    p = hist.counts / total
    mask = p > 0
    if np.any(q[mask] <= 0.0):
        raise AbsoluteContinuityError(
            "reference Gaussian has zero mass in an occupied bin"
        )
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return val if val > 0.0 else 0.0


def unit_code_binning(samples) -> Histogram:
    """Histogram at unit code width spanning the observed sample range.

    The bin count is the sample span rounded to the nearest integer (at
    least 2), so for data in raw ADC code units each bin is one code
    wide. This is the native resolution for scoring a sensor trace.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptyDataError("cannot histogram zero samples")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise DegenerateDataError("samples have zero span")
    bins = max(2, int(round(hi - lo)))
    return histogram(x, bins, (lo, hi))


def unit_code_kl(samples) -> tuple:
    """Sensor-native score: unit-code histogram, binned fit, KL against it.

    Returns (FitResult, kl_nats). The fit is computed from the same
    binned view that P uses, so quantization affects both sides the way
    it does for a real trace.
    """
    hist = unit_code_binning(samples)
    fit = fit_gaussian_binned(hist)
    return fit, kl_divergence(hist, fit)


def quantization_sweep(
    spec: GaussianSpec,
    n: int,
    bin_counts,
    repetitions: int,
    seed: int = 0,
):
    """Mean self-fit KL as a function of histogram resolution.

    For each bin count b, ``repetitions`` independent batches of ``n``
    Gaussian samples are histogrammed into b bins over mean +/- 4 sigma,
    fit from the binned view, and scored with :func:`kl_divergence`; the
    per-b KLs are averaged. Batches use seeds derived from (seed, bin
    index, repetition index), so results do not depend on evaluation
    order. Returns a list of (bins, mean_kl) pairs in the order the bin
    counts were given.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    lo = spec.mean - 4.0 * spec.sigma
    hi = spec.mean + 4.0 * spec.sigma
    out = []
    for bi, b in enumerate(bin_counts):
        kls = np.empty(repetitions)
        for rep in range(repetitions):
            stream = SeededStream(derive_seed(seed, bi, rep))
            x = reference_gaussian_sample(stream, spec, n)
            hist = histogram(x, int(b), (lo, hi))
            fit = fit_gaussian_binned(hist)
            kls[rep] = kl_divergence(hist, fit)
        out.append((int(b), float(kls.mean())))
    return out


def confidence_interval_90(values) -> tuple:
    """Normal-approximation 90% CI for the mean of ``values``.

    Uses the 1.645 critical value with the sample (ddof=1) standard
    deviation; needs at least two values.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"confidence interval needs at least 2 values, got {x.size}")
    mean = float(x.mean())
    half = 1.645 * float(x.std(ddof=1)) / math.sqrt(x.size)
    return (mean - half, mean + half)
