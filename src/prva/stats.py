"""Histogramming, Gaussian fitting, KL divergence, and sweep statistics.

The quality measure used throughout the package is the KL divergence
(in nats) between an empirical histogram P and the Gaussian Q it is
supposed to follow, with Q's mass renormalized over the histogram range
so truncation does not masquerade as mismatch. A "sensor-native" helper
bins one unit of the data wide over the observed span; ``prva kl
--trace`` scores a trace's bin centers this way, one sensor unit a bin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianSpec, gaussian_cdf
from .samplers import SeededStream, derive_seed, reference_gaussian_sample


# values per block of the blocked scoring kernels, so that their scratch
# (512 KiB per float64 buffer) does not grow with the sample count
_BLOCK = 2**16


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
class FitResult(GaussianSpec):
    """Maximum-likelihood Gaussian estimated from ``n`` samples."""

    n: int

    def __post_init__(self):
        super().__post_init__()
        if self.n < 0:
            raise ValueError("sample count cannot be negative")


def _checked_bins(bins, size: int) -> int:
    """``bins`` as an int, or ValueError when :func:`histogram` refuses it for ``size`` samples."""
    bins = int(bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    # counts, edges and bincounts cost 8 B a bin whatever the sample count
    if bins > max(size, _BLOCK):
        raise ValueError(
            f"histogram of {size} samples into {bins} bins: more bins than "
            f"max(samples, {_BLOCK})"
        )
    return bins


def histogram(samples, bins: int, hist_range) -> Histogram:
    """Equal-width histogram with saturating out-of-range handling.

    Samples below the range land in the first bin and samples above in
    the last, mirroring how the ADC clips rather than drops; nothing is
    ever silently discarded, so counts always sum to len(samples). More
    bins than max(samples, 2**16) raise ValueError before anything is
    allocated.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptyDataError("cannot histogram zero samples")
    # a NaN propagates through min
    if math.isnan(x.min()):
        raise ValueError("samples contain NaN")
    bins = _checked_bins(bins, x.size)
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
    # (x - lo) * scale, clipped in float before the integer cast, so huge
    # or infinite samples saturate instead of overflowing into the wrong
    # bin; the cast truncates, which is floor on the clipped range. Blocks
    # reuse one float and one int64 scratch buffer, and integer counts
    # sum exactly. A block holds at least ``bins`` values, so each block's
    # bins-long bincount costs no more than the block itself.
    step = max(_BLOCK, bins)
    counts = np.zeros(bins, np.int64)
    pos = np.empty(min(x.size, step))
    idx = np.empty(pos.size, np.int64)
    for start in range(0, x.size, step):
        block = x[start : start + step]
        p, i = pos[: block.size], idx[: block.size]
        with np.errstate(over="ignore"):
            np.subtract(block, lo, out=p)
            p *= scale
        np.clip(p, 0, bins - 1, out=i, casting="unsafe")
        counts += np.bincount(i, minlength=bins)
    return Histogram(edges=np.linspace(lo, hi, bins + 1), counts=counts)


def fit_gaussian(samples) -> FitResult:
    """ML Gaussian fit: sample mean and biased (1/n) standard deviation.

    Needs at least two samples; a sample set with zero spread has no
    Gaussian MLE and raises DegenerateDataError. Deviations so small that
    their squares underflow are summed again scaled by 2**600, which is
    exact, so a tiny spread is fit instead of refused; a sigma that still
    underflows to 0 raises ValueError.
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
    scratch = np.empty(min(x.size, _BLOCK))
    # finite samples whose deviations overflow when squared give inf,
    # which GaussianSpec rejects
    with np.errstate(over="ignore"):
        squares = _squared_deviations(x, mean, scratch)
    sigma = math.sqrt(squares / x.size)
    # constant samples leave as spread only a few ulp of their mean, whose
    # squares may also underflow or overflow; only then do min and max decide
    underflow = squares < sys.float_info.min
    if underflow or not abs(mean) * 2.0**-40 < sigma < math.inf:
        if x.min() == x.max():
            raise DegenerateDataError("samples have zero spread; no gaussian fit exists")
        if underflow:
            # every deviation is below 2**-511; scaled by 2**600 none underflows or overflows
            sigma = math.sqrt(_squared_deviations(x, mean, scratch, 2.0**600) / x.size) / 2.0**600
    return FitResult(mean=mean, sigma=sigma, n=int(x.size))


def _squared_deviations(x, mean: float, scratch, scale: float = 1.0) -> float:
    """Sum of ((x - mean) * scale)**2 in the order ``np.add.reduce`` sums it.

    numpy sums a contiguous float64 array pairwise, splitting at n // 2
    rounded down to a multiple of 8. Following that tree down to pieces
    that fit ``scratch`` and reducing each piece there gives the sum
    ``x.std()`` takes, bit for bit, without an n-sized temporary.
    """
    if x.size <= scratch.size:
        d = np.subtract(x, mean, out=scratch[: x.size])
        if scale != 1.0:
            d *= scale
        np.multiply(d, d, out=d)
        return float(np.add.reduce(d))
    half = x.size // 2
    half -= half % 8
    return _squared_deviations(x[:half], mean, scratch, scale) + _squared_deviations(
        x[half:], mean, scratch, scale
    )


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


def kl_divergence(hist: Histogram, target: GaussianSpec) -> float:
    """KL(P || Q) in nats between a histogram and a Gaussian reference.

    P is the histogram's bin-mass vector. Q is the Gaussian's exact CDF
    difference over the same edges, renormalized to sum to one over the
    histogram range, so a histogram of a correctly truncated Gaussian
    scores near zero instead of paying for the missing tails. Bins where
    P is zero contribute nothing; a bin where P > 0 but Q underflows to
    zero raises AbsoluteContinuityError. ``target`` may be a FitResult,
    which is a GaussianSpec.

    The result is clipped at zero: by Gibbs' inequality the exact value
    cannot be negative, so any tiny negative is rounding residue.
    """
    total = hist.total
    if total == 0:
        raise EmptyDataError("histogram is empty")
    q = np.diff(gaussian_cdf(hist.edges, target))
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
    """Histogram of bins one unit wide spanning the observed sample range.

    The bin count is the sample span rounded to the nearest integer (at
    least 2), so each bin is about one unit of the data wide: one code
    only for data in raw code units. ``prva kl --trace`` passes the codes'
    bin centers in sensor units, where a bin holds 1/``adc.width`` codes,
    about 67.5 at the default ADC.

    A NaN or infinite sample, or a span past float64's range, has no
    whole number of bins and raises ``ValueError``. So does a span that
    asks :func:`histogram` for more bins than it accepts.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptyDataError("cannot histogram zero samples")
    lo, hi = float(x.min()), float(x.max())
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"unit-code binning needs finite samples with a finite span, "
            f"got min {lo!r} and max {hi!r}"
        )
    if hi == lo:
        raise DegenerateDataError("samples have zero span")
    return histogram(x, max(2, int(round(hi - lo))), (lo, hi))


def unit_code_kl(samples) -> tuple:
    """Sensor-native score: unit-width histogram, binned fit, KL against it.

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
    counts were given. A bin count :func:`histogram` would refuse for
    ``n`` samples raises ValueError before any batch is drawn.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    bin_counts = [_checked_bins(b, n) for b in bin_counts]
    lo = spec.mean - 4.0 * spec.sigma
    hi = spec.mean + 4.0 * spec.sigma
    out = []
    for bi, b in enumerate(bin_counts):
        kls = np.empty(repetitions)
        for rep in range(repetitions):
            stream = SeededStream(derive_seed(seed, bi, rep))
            x = reference_gaussian_sample(stream, spec, n)
            hist = histogram(x, b, (lo, hi))
            fit = fit_gaussian_binned(hist)
            kls[rep] = kl_divergence(hist, fit)
        out.append((b, float(kls.mean())))
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
