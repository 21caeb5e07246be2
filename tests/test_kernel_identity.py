"""Bit-identity of the acquisition kernels against their expression forms.

The polar sampler, ``AdcModel.quantize``/``value`` and
``dequantize_with_jitter`` work in place on buffers they own. The
functions below spell out the same IEEE operations as plain numpy
expressions, one temporary per step, and serve as the reference: every
output bit, every ``OpCounter`` charge and every ``draws_taken`` of the
library kernels must equal theirs.
"""

import numpy as np
import pytest

from prva.distributions import GaussianSpec
from prva.samplers import SeededStream, reference_gaussian_sample
from prva.sensor import (
    AdcModel,
    default_adc,
    default_grid,
    dequantize_with_jitter,
    generate_trace,
)

SPEC = GaussianSpec(980.794, 7.178)
SIZES = (None, 1, 2, 3, 17, 100, 10**5, 10**6)


def polar_expression(stream, spec, size=None):
    n = 1 if size is None else int(size)
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
    return float(out[0]) if size is None else out


def first_round_pairs(remaining):
    """Candidate pairs the polar sampler draws for ``remaining`` variates."""
    return max(16, int(remaining * 0.64) + 8)


def quantize_expression(adc, values):
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    with np.errstate(over="ignore"):
        idx = np.floor((x - adc.range_lo) / adc.width, out=np.empty_like(x))
    idx = np.clip(idx, 0, adc.bin_count - 1, out=idx).astype(np.int64)
    return idx if idx.ndim else int(idx)


def value_expression(adc, codes):
    c = np.asarray(codes)
    if np.any(c < 0) or np.any(c >= adc.bin_count):
        raise ValueError(f"codes must lie in [0, {adc.bin_count})")
    out = adc.range_lo + (c.astype(float) + 0.5) * adc.width
    return out if out.ndim else float(out)


def dequantize_expression(trace, stream):
    centers = value_expression(trace.adc, trace.codes)
    n = trace.codes.size
    u = stream.uniforms(n)
    half = trace.adc.width / 2.0
    out = centers + (2.0 * u - 1.0) * half
    stream.counter.multiplications += 2 * n
    stream.counter.additions += 2 * n
    return out


def assert_identical(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_same_streams(got, want):
    assert got.draws_taken == want.draws_taken
    assert got.counter.as_dict() == want.counter.as_dict()


@pytest.mark.parametrize("size", SIZES)
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
        if stream.draws_taken > 2 * first_round_pairs(n):
            short = seed
            break
    assert short is not None, f"no seed in 0..1999 gives a short first round at n={n}"
    got_stream, want_stream = SeededStream(short), SeededStream(short)
    got = reference_gaussian_sample(got_stream, SPEC, n)
    want = polar_expression(want_stream, SPEC, n)
    assert_identical(got, want)
    assert_same_streams(got_stream, want_stream)


def test_quantize_matches_expression_form():
    adc = AdcModel(4096, 951.2, 1010.3)
    raw = polar_expression(SeededStream(3), SPEC, 10**5)
    lo, hi = adc.range_lo, adc.range_hi
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 1e300, -1e300]
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
    mean, sigma = grid.noise_params(10.0, 2.6)
    raw = polar_expression(want_stream, GaussianSpec(mean, sigma), n)
    assert_identical(trace.codes, quantize_expression(adc, raw))
    assert_same_streams(got_stream, want_stream)
