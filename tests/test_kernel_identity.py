"""Bit-identity of the in-place kernels against their expression forms.

The polar sampler, ``AdcModel.quantize``/``value``,
``dequantize_with_jitter``, ``gaussian_pdf``, ``mc_integrate``,
``inversion_sample``, ``apply`` and ``histogram`` work in place on
buffers they own. The functions below spell out the same IEEE
operations as plain numpy expressions, one temporary per step, and
serve as the reference: every output bit and every ``OpCounter``
charge, draws included, of the library kernels must equal theirs. The
blocked ``fit_gaussian`` must give ``x.std(ddof=0)`` to the last bit.
``quantize``, ``value`` and ``gaussian_pdf`` return arrays for every
input, so a scalar input comes back as a 0-d array, and ``quantize``'s
codes come in the smallest unsigned dtype that holds ``bin_count - 1``.
The ``tracemalloc`` checks at the end bound how many n-sized buffers
the scoring kernels, the uniform inverter and the cache drain allocate.
"""

import math
import tracemalloc

import numpy as np
import pytest

from prva.distributions import GaussianSpec, UniformSpec, gaussian_pdf
from prva.montecarlo import mc_integrate
from prva.samplers import (
    OpCounter,
    SeededStream,
    inversion_sample,
    reference_gaussian_sample,
)
from prva.sensor import (
    AdcModel,
    default_adc,
    default_grid,
    dequantize_with_jitter,
    generate_trace,
)
from prva.stats import fit_gaussian, histogram
from prva.transform import VariateCache, apply, fill_cache, make_coeffs

SPEC = GaussianSpec(980.794, 7.178)
SIZES = (None, 1, 2, 3, 17, 100, 10**5, 10**6)


def polar_expression(stream, spec, n):
    out = np.empty(n, dtype=float)
    filled = 0
    counter = stream.counter
    while filled < n:
        pairs = first_round_pairs(n - filled)
        x = 2.0 * stream.uniforms(pairs) - 1.0
        y = 2.0 * stream.uniforms(pairs) - 1.0
        s = x * x + y * y
        ok = (s > 0.0) & (s < 1.0)
        counter.multiplications += 4 * pairs
        counter.additions += 3 * pairs
        counter.comparisons += pairs
        kept = int(ok.sum())
        counter.rejections += pairs - kept
        if kept == 0:
            continue
        sk = s[ok]
        m = np.sqrt(-2.0 * np.log(sk) / sk)
        counter.transcendental_evals += 2 * kept
        counter.multiplications += 3 * kept
        counter.divisions += kept
        z = np.column_stack((x[ok] * m, y[ok] * m)).ravel()
        take = min(z.size, n - filled)
        out[filled : filled + take] = z[:take]
        filled += take
    out = spec.mean + spec.sigma * out
    counter.multiplications += n
    counter.additions += n
    return out


def first_round_pairs(remaining):
    """Candidate pairs the polar sampler draws for ``remaining`` variates."""
    return max(16, int(remaining * 0.64) + 8)


def quantize_expression(adc, values):
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    with np.errstate(over="ignore"):
        idx = np.floor((x - adc.range_lo) / adc.width, out=np.empty_like(x))
    # codes come in the smallest unsigned dtype that holds bin_count - 1
    codes = np.clip(idx, 0, adc.bin_count - 1, out=idx)
    return codes.astype(np.min_scalar_type(adc.bin_count - 1))


def value_expression(adc, codes):
    c = np.asarray(codes)
    if np.any(c < 0) or np.any(c >= adc.bin_count):
        raise ValueError(f"codes must lie in [0, {adc.bin_count})")
    # a 0-d c gives a numpy scalar here, and value returns a 0-d array
    return np.asarray(adc.range_lo + (c.astype(float) + 0.5) * adc.width)


def dequantize_expression(trace, stream):
    n = trace.codes.size
    u = stream.uniforms(n)
    out = trace.adc.range_lo + (trace.codes + u) * trace.adc.width
    stream.counter.multiplications += n
    stream.counter.additions += 2 * n
    return out


def assert_identical(got, want):
    # equal bytes is the check; equal values (NaN equal to NaN) makes a
    # failure readable
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_same_streams(got, want):
    assert got.counter.as_dict() == want.counter.as_dict()


@pytest.mark.parametrize("size", [s for s in SIZES if s is not None])
@pytest.mark.parametrize("seed", [0, 2024])
def test_polar_sampler_matches_expression_form(seed, size):
    got_stream, want_stream = SeededStream(seed), SeededStream(seed)
    got = reference_gaussian_sample(got_stream, SPEC, size)
    want = polar_expression(want_stream, SPEC, size)
    assert_identical(got, want)
    assert_same_streams(got_stream, want_stream)


@pytest.mark.parametrize("n", [17, 100])
def test_polar_sampler_matches_when_first_round_falls_short(n):
    # a first round of candidate pairs that keeps fewer than n/2 pairs
    # makes the sampler draw again; search for a seed where that happens
    short = None
    for seed in range(2000):
        stream = SeededStream(seed)
        polar_expression(stream, SPEC, n)
        if stream.counter.uniform_draws > 2 * first_round_pairs(n):
            short = seed
            break
    assert short is not None, f"no seed in 0..1999 gives a short first round at n={n}"
    got_stream, want_stream = SeededStream(short), SeededStream(short)
    got = reference_gaussian_sample(got_stream, SPEC, n)
    want = polar_expression(want_stream, SPEC, n)
    assert_identical(got, want)
    assert_same_streams(got_stream, want_stream)


def bin_edges_and_neighbours(lo, hi, bins):
    """Every bin edge, the floats either side of it, ±0.0 and ±1e300.

    Clipping to [0, bins - 1] and casting truncates; these are the inputs
    where that could part from flooring first.
    """
    edges = np.append(lo + np.arange(bins + 1) * ((hi - lo) / bins), hi)
    return np.concatenate(
        (edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, -0.0, 1e300, -1e300])
    )


def test_quantize_matches_expression_form():
    for adc in (AdcModel(16, 0.0, 1.0), AdcModel(16, -1.0, 0.0)):
        edges = bin_edges_and_neighbours(adc.range_lo, adc.range_hi, adc.bin_count)
        assert_identical(adc.quantize(edges), quantize_expression(adc, edges))
    adc = AdcModel(4096, 951.2, 1010.3)
    raw = polar_expression(SeededStream(3), SPEC, 10**5)
    edges = bin_edges_and_neighbours(adc.range_lo, adc.range_hi, adc.bin_count)
    for values in (
        raw,
        np.array(edges),
        raw[:12].reshape(3, 4),
        np.array([], dtype=float),
        980.0,
        1e300,
        -1e300,
        [980.0, 955.5],
    ):
        assert_identical(adc.quantize(values), quantize_expression(adc, values))


def test_value_matches_expression_form():
    adc = AdcModel(4096, 951.2, 1010.3)
    codes = np.arange(4096, dtype=np.int64)
    for c in (codes, codes[::-1].reshape(64, 64), np.array([], dtype=np.int64), 0, 4095, 2048):
        assert_identical(adc.value(c), value_expression(adc, c))
    small = np.arange(16, dtype=np.int32)
    assert_identical(adc.value(small), value_expression(adc, small))


@pytest.mark.parametrize("n", [s for s in SIZES if s is not None])
def test_dequantize_matches_expression_form(n):
    grid = default_grid()
    adc = default_adc(grid)
    trace = generate_trace(SeededStream(n), grid, 10.0, 2.6, adc, n)
    got_stream, want_stream = SeededStream(n + 1), SeededStream(n + 1)
    got = dequantize_with_jitter(trace, got_stream)
    want = dequantize_expression(trace, want_stream)
    assert_identical(got, want)
    assert_same_streams(got_stream, want_stream)


@pytest.mark.parametrize("n", [1, 17, 10**5])
def test_generate_trace_codes_match_expression_form(n):
    grid = default_grid()
    adc = default_adc(grid)
    got_stream, want_stream = SeededStream(9), SeededStream(9)
    trace = generate_trace(got_stream, grid, 10.0, 2.6, adc, n)
    raw = polar_expression(want_stream, grid.noise_params(10.0, 2.6), n)
    assert_identical(trace.codes, quantize_expression(adc, raw))
    assert_same_streams(got_stream, want_stream)


# --- the kernels on the benchmark path: gaussian_pdf, mc_integrate,
# inversion_sample, apply, histogram --------------------------------------

STANDARD = GaussianSpec(0.0, 1.0)


def gaussian_pdf_expression(x, spec):
    # squaring a |z| beyond ~1.9e154 overflows to -inf and exp gives 0.0
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=float) - spec.mean) / spec.sigma
        out = np.exp(-0.5 * z * z) / (spec.sigma * math.sqrt(2.0 * math.pi))
    return np.asarray(out)


def mc_integrate_area_expression(samples, target):
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    f = gaussian_pdf_expression(x, target)
    return float(np.sum((x[1:] - x[:-1]) * (f[1:] + f[:-1])) * 0.5)


def inversion_expression(stream, spec, n):
    u = stream.uniforms(n)
    out = spec.lo + u * spec.width
    stream.counter.multiplications += n
    stream.counter.additions += n
    return out


class FixedStream:
    """Stream double whose one draw is ``values``, charged as a real draw is."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.counter = OpCounter()

    def uniforms(self, size):
        assert size == self.values.size
        self.counter.uniform_draws += size
        return self.values.copy()


def apply_expression(coeffs, x):
    return coeffs.scale * np.asarray(x, dtype=float) + coeffs.offset


def histogram_counts_expression(samples, bins, lo, hi):
    x = np.asarray(samples, dtype=float).ravel()
    with np.errstate(over="ignore"):
        idx = np.floor((x - lo) * (bins / (hi - lo)))
    idx = np.clip(idx, 0, bins - 1, out=idx).astype(np.int64)
    return np.bincount(idx, minlength=bins)


def drawn(draw, size):
    """``draw(size)``, or the float ``draw(1)[0]`` when ``size`` is None."""
    return float(draw(1)[0]) if size is None else draw(size)


def scoring_inputs(seed, size):
    """Named samples of ``size`` (a float for None) scored against N(0, 1).

    ``gaussian`` is the polar baseline; ``uniform_1000`` spans ±1000 sigma,
    so the density underflows to 0 over most of it; ``duplicates`` is
    rounded to 0.25 so sorted neighbours repeat and trapezoids have zero
    width; ``huge`` has |z| > 1e154, whose square overflows; ``subnormal``
    has subnormal z.
    """
    g = drawn(lambda k: reference_gaussian_sample(SeededStream(seed), STANDARD, k), size)
    u = drawn(lambda k: inversion_sample(SeededStream(seed + 1), UniformSpec(-1000.0, 1000.0), k), size)
    return {
        "gaussian": g,
        "uniform_1000": u,
        "duplicates": np.round(np.asarray(g) * 4.0) / 4.0 if size else round(g * 4.0) / 4.0,
        "huge": g * 3e154,
        "subnormal": g * 1e-310,
    }


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", [0, 2024])
def test_gaussian_pdf_matches_expression_form(seed, size):
    for x in scoring_inputs(seed, size).values():
        for spec in (STANDARD, GaussianSpec(-0.3, 0.01), SPEC):
            assert_identical(gaussian_pdf(x, spec), gaussian_pdf_expression(x, spec))


def test_gaussian_pdf_matches_expression_form_at_the_edges():
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.3e154, -1.4e154, 1.9e154, 1e308, math.inf, -math.inf, math.nan]
    for x in (np.array(edges), np.array(edges).reshape(1, 11), np.array([]), 5e-324, math.inf, math.nan):
        assert_identical(gaussian_pdf(x, STANDARD), gaussian_pdf_expression(x, STANDARD))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", [0, 2024])
def test_mc_integrate_matches_expression_form(seed, size):
    if size is None or size < 2:
        for x in scoring_inputs(seed, size).values():
            with pytest.raises(ValueError, match="at least 2 samples"):
                mc_integrate(x, STANDARD)
        return
    for x in scoring_inputs(seed, size).values():
        for spec in (STANDARD, SPEC):
            got = mc_integrate(x, spec)
            want = mc_integrate_area_expression(x, spec)
            assert_identical(got.area, want)
            assert_identical(got.error, abs(1.0 - want))
            assert got.n == size
    # a 2-D input is flattened, and an input already sorted is not modified
    x = scoring_inputs(seed, size)["duplicates"]
    ordered = np.sort(x)
    before = ordered.copy()
    assert_identical(mc_integrate(ordered, STANDARD).area, mc_integrate_area_expression(x, STANDARD))
    assert ordered.tobytes() == before.tobytes()
    if size % 2 == 0:
        flat = mc_integrate(x, STANDARD).area
        assert_identical(mc_integrate(x.reshape(2, -1), STANDARD).area, flat)


# inversion_sample evaluates the uniform inverse CDF, lo + u * width

UNIFORMS = (UniformSpec(-3.0, 3.0), UniformSpec(1e-3, 7e5))


@pytest.mark.parametrize("size", [s for s in SIZES if s is not None])
@pytest.mark.parametrize("seed", [0, 2024])
def test_inverse_cdf_matches_expression_form(seed, size):
    for spec in UNIFORMS:
        got_stream, want_stream = SeededStream(seed), SeededStream(seed)
        got = inversion_sample(got_stream, spec, size)
        want = inversion_expression(want_stream, spec, size)
        assert_identical(got, want)
        assert_same_streams(got_stream, want_stream)


def test_inverse_cdf_matches_expression_form_at_the_edges():
    edges = [0.0, -0.0, 5e-324, 0.5, 1.0 - 2**-53]
    for values in (edges, []):
        for spec in UNIFORMS:
            got_stream, want_stream = FixedStream(values), FixedStream(values)
            got = inversion_sample(got_stream, spec, len(values))
            want = inversion_expression(want_stream, spec, len(values))
            assert_identical(got, want)
            assert_same_streams(got_stream, want_stream)


@pytest.mark.parametrize("size", [s for s in SIZES if s is not None])
@pytest.mark.parametrize("seed", [0, 2024])
def test_apply_matches_expression_form(seed, size):
    coeffs = (
        make_coeffs(STANDARD, GaussianSpec(5.0, 2.0)),
        make_coeffs(SPEC, STANDARD),
        make_coeffs(STANDARD, GaussianSpec(-1e-300, 1e-300)),
    )
    for x in scoring_inputs(seed, size).values():
        for c in coeffs:
            assert_identical(apply(c, x), apply_expression(c, x))


@pytest.mark.parametrize("size", SIZES + (2**16 - 1, 2**16 + 1))
@pytest.mark.parametrize("seed", [0, 2024])
def test_histogram_matches_expression_form(seed, size):
    for x in scoring_inputs(seed, size).values():
        for bins, lo, hi in ((256, -4.0, 4.0), (7, -1e-300, 3e-300), (4096, -1000.0, 999.0)):
            h = histogram(x, bins, (lo, hi))
            assert_identical(h.counts, histogram_counts_expression(x, bins, lo, hi))
            assert_identical(h.edges, np.linspace(lo, hi, bins + 1))


def test_histogram_matches_expression_form_at_bin_edges():
    # more bins than a 2**16 block widens the block; 3 * 2**17 edges and
    # neighbours still span several of them
    for bins, lo, hi in ((256, -4.0, 4.0), (16, 0.0, 1.0), (4096, -1000.0, 999.0), (2**17 + 3, -4.0, 4.0)):
        x = bin_edges_and_neighbours(lo, hi, bins)
        assert_identical(histogram(x, bins, (lo, hi)).counts, histogram_counts_expression(x, bins, lo, hi))


@pytest.mark.parametrize("n", [2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 8, 10**6, 3 * 10**6 + 5])
def test_fit_gaussian_sigma_matches_numpy_std(n):
    # the blocked sum of squares follows numpy's pairwise tree, so sigma
    # is x.std(ddof=0) to the last bit, not just close to it
    x = reference_gaussian_sample(SeededStream(n), SPEC, n)
    fit = fit_gaussian(x)
    assert_identical(fit.sigma, float(x.std(ddof=0)))
    assert_identical(fit.mean, float(x.mean()))
    if n == 2**17 + 8:
        # a strided or 2-D input is flattened into one contiguous copy first
        assert_identical(fit_gaussian(x[::3]).sigma, float(x[::3].std(ddof=0)))
        assert_identical(fit_gaussian(x.reshape(8, -1)).sigma, fit.sigma)


def traced_peak_bytes(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# allocations other than the n-sized buffers: Python objects and numpy
# scratch, a few kB in practice
SLACK = 64 * 1024


def test_gaussian_pdf_allocates_only_its_output():
    n = 10**5
    x = reference_gaussian_sample(SeededStream(1), STANDARD, n)
    # 1 buffer (the returned density); the expression form takes 3
    assert traced_peak_bytes(gaussian_pdf, x, STANDARD) <= 1 * 8 * n + SLACK


def test_inversion_sample_allocates_only_its_draw():
    n = 10**6
    # 1 buffer (the draw, mapped in place); a separate output takes 2
    peak = traced_peak_bytes(inversion_sample, SeededStream(1), UNIFORMS[0], n)
    assert peak <= 1 * 8 * n + SLACK


def test_mc_integrate_allocates_two_buffers():
    n = 10**5
    x = reference_gaussian_sample(SeededStream(1), STANDARD, n)
    # 2 buffers (sorted copy, density); the expression form takes 4
    assert traced_peak_bytes(mc_integrate, x, STANDARD) <= 2 * 8 * n + SLACK


def test_polar_sampler_temporaries_do_not_grow_with_n():
    n = 10**6
    pairs = first_round_pairs(n)
    # 2 n-sized buffers (the draw of 2 * pairs uniforms and the output)
    # plus blocked temporaries of a fixed size; unblocked, the kept-pair
    # temporaries add about 2.7 more n-sized buffers
    peak = traced_peak_bytes(reference_gaussian_sample, SeededStream(1), STANDARD, n)
    assert peak <= 8 * n + 8 * 2 * pairs + 2 * 1024 * 1024


# fixed-size scratch of the blocked kernels, whatever n is
SCRATCH = 2 * 1024 * 1024


def test_histogram_scratch_does_not_grow_with_n():
    n = 10**6
    x = reference_gaussian_sample(SeededStream(1), STANDARD, n)
    # one float and one int64 block of 2**16 values; unblocked, the
    # bin positions and indices take 2 n-sized buffers
    assert traced_peak_bytes(histogram, x, 256, (-4.0, 4.0)) <= SCRATCH + SLACK


def test_fit_gaussian_scratch_does_not_grow_with_n():
    n = 10**6
    x = reference_gaussian_sample(SeededStream(1), STANDARD, n)
    # one float block of 2**16 values; x.std() takes an n-sized buffer
    assert traced_peak_bytes(fit_gaussian, x) <= SCRATCH + SLACK


def test_get_many_fills_one_buffer():
    n, capacity = 10**6, 4096
    x = reference_gaussian_sample(SeededStream(1), STANDARD, n)
    coeffs = make_coeffs(STANDARD, SPEC)

    def drain():
        cache = VariateCache(capacity, SPEC)
        worker = fill_cache(cache, x, coeffs, background=True)
        try:
            out = cache.get_many(n)
        finally:
            worker.join()
        assert out.size == n

    # the result, plus the cached values and the producer's chunks in
    # flight; views of every popped chunk kept until a final concatenate
    # take a second n-sized buffer
    cache_bytes = 8 * (capacity + 3 * 8192)
    assert traced_peak_bytes(drain) <= 8 * n + cache_bytes + SLACK
