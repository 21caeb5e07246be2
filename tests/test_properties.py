"""Property tests: saturation, cache order, trace round trip and kernel contracts."""

import math
import os
import tempfile
from collections import deque

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prva.distributions import (  # noqa: E402
    GaussianSpec,
    UniformSpec,
    gaussian_cdf,
    gaussian_pdf,
)
from prva.montecarlo import mc_integrate  # noqa: E402
from prva.samplers import SeededStream  # noqa: E402
from prva.sensor import (  # noqa: E402
    AdcModel,
    SampleTrace,
    dequantize_with_jitter,
    load_trace,
    store_trace,
)
from prva.stats import histogram  # noqa: E402
from prva.transform import TransformCoeffs, VariateCache, apply  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
# converter and histogram geometries whose width is a normal float
lows = st.floats(min_value=-1e6, max_value=1e6)
spans = st.floats(min_value=1e-3, max_value=1e6)


@given(
    x=st.lists(finite, min_size=1, max_size=50),
    bins=st.integers(2, 4096),
    lo=lows,
    span=spans,
)
def test_adc_quantize_saturates_any_finite_input(x, bins, lo, span):
    adc = AdcModel(bins, lo, lo + span)
    codes = adc.quantize(np.array(x))
    assert codes.dtype == np.min_scalar_type(bins - 1)
    assert np.all((codes >= 0) & (codes < bins))
    for value, code in zip(x, codes):
        assert adc.quantize(value) == code  # scalar and array paths agree
        if value <= adc.range_lo:
            assert code == 0
        elif value >= adc.range_hi:
            assert code == bins - 1
        else:
            # in range: the code's bin holds the value, up to rounding
            slack = 1e-9 * adc.width + 8 * np.spacing(abs(lo) + span)
            assert adc.range_lo + code * adc.width <= value + slack
            assert value < adc.range_lo + (code + 1) * adc.width + slack


@given(
    x=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50),
    bins=st.integers(1, 1024),
    lo=lows,
    span=spans,
)
def test_histogram_saturates_any_float(x, bins, lo, span):
    hi = lo + span
    counts = histogram(x, bins, (lo, hi)).counts
    assert counts.sum() == len(x)
    # an out-of-range sample counts exactly like the range edge it passed
    edged = np.clip(x, lo, np.nextafter(hi, lo))
    np.testing.assert_array_equal(counts, histogram(edged, bins, (lo, hi)).counts)


# one step: ("put", k) appends k fresh values, ("get", k) reads k; each is
# clipped to what fits or what is buffered, so no step blocks
steps = st.lists(
    st.tuples(st.sampled_from(("put", "get")), st.integers(1, 12)), max_size=60
)


@given(capacity=st.integers(1, 16), script=steps)
def test_cache_fifo_order_without_loss(capacity, script):
    cache = VariateCache(capacity, GaussianSpec(0.0, 1.0))
    model = deque()
    produced = 0
    for op, k in script:
        if op == "put":
            k = min(k, capacity - cache.occupancy)  # a fuller put would block
            if k == 0:
                continue
            values = np.arange(produced, produced + k, dtype=float)
            cache.put_many(values)
            model.extend(values)
            produced += k
        else:
            k = min(k, len(model))
            if k == 0:
                continue
            expect = [model.popleft() for _ in range(k)]
            assert cache.get_many(k).tolist() == expect
        assert cache.occupancy == len(model)
    cache.close()
    if model:
        # a closed cache returns what is left to a longer read
        assert cache.get_many(len(model) + 1).tolist() == list(model)
    assert cache.total_produced == produced
    assert cache.total_consumed == produced


# header text must stay on its line: no control, line or paragraph separators
header_text = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20
)


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    bins=st.integers(2, 1 << 16),
    ends=st.tuples(finite, finite),
    temperature=st.floats(),
    voltage=st.floats(),
    rate=st.floats(min_value=1e-300, max_value=1e300),
    source=header_text,
)
def test_trace_store_load_round_trip(data, bins, ends, temperature, voltage, rate, source):
    lo, hi = sorted(ends)
    # a converter needs a bin width that is a finite positive float
    hypothesis.assume(lo < hi and math.isfinite(hi - lo) and (hi - lo) / bins > 0.0)
    codes = data.draw(st.lists(st.integers(0, bins - 1), min_size=1, max_size=200))
    trace = SampleTrace(
        codes=np.array(codes, dtype=np.int64),
        adc=AdcModel(bins, lo, hi),
        temperature_c=temperature,
        voltage_v=voltage,
        sample_rate_hz=rate,
        source=source,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        store_trace(trace, path)
        back = load_trace(path)
    np.testing.assert_array_equal(back.codes, trace.codes)
    assert back.adc == trace.adc
    # repr compares NaN headers equal and keeps the sign of zero
    for field in ("temperature_c", "voltage_v", "sample_rate_hz"):
        assert repr(getattr(back, field)) == repr(getattr(trace, field))
    assert back.source == source


# the kernels below compute in place on buffers they own; what they are
# given must come back untouched, and gaussian_pdf and gaussian_cdf give
# a 0-d array for a scalar
moderate = st.floats(min_value=-1e6, max_value=1e6)
SPEC = GaussianSpec(0.5, 2.0)
COEFFS = TransformCoeffs(scale=1.5, offset=-3.0)


@given(x=st.lists(moderate, min_size=2, max_size=50), seed=st.integers(0, 2**64 - 1))
def test_kernels_leave_their_inputs_unmodified(x, seed):
    x = np.array(x)
    before = x.copy()
    adc = AdcModel(16, -1.0, 1.0)
    codes = adc.quantize(x)
    codes_before = codes.copy()
    adc.value(codes)
    trace = SampleTrace(codes, adc, 10.0, 2.6)
    dequantize_with_jitter(trace, SeededStream(seed))
    apply(COEFFS, x)
    histogram(x, 8, (-1.0, 1.0))
    gaussian_pdf(x, SPEC)
    mc_integrate(x, SPEC)
    assert x.tobytes() == before.tobytes()
    assert codes.tobytes() == codes_before.tobytes()
    np.testing.assert_array_equal(trace.codes, codes_before)


@given(v=moderate, wrap=st.sampled_from((float, np.float64, np.array)))
def test_kernels_return_python_scalars_for_scalar_input(v, wrap):
    # a Python scalar, numpy scalar or 0-d array goes in; what comes out is
    # a 0-d float64 array, not a Python float, as quantize, value and apply
    # give (test_kernel_identity and test_transform check those)
    for kernel in (gaussian_pdf, gaussian_cdf):
        got = kernel(wrap(v), SPEC)
        assert type(got) is np.ndarray
        assert got.shape == () and got.dtype == np.float64
        # the scalar and array paths agree bit for bit
        assert got.tobytes() == kernel(np.array([v]), SPEC).tobytes()


@given(
    mean=st.floats(min_value=-1e3, max_value=1e3),
    sigma=st.floats(min_value=1e-3, max_value=1e3),
    edge=st.floats(min_value=-8.0, max_value=8.0),
    width=st.floats(min_value=1e-3, max_value=30.0),
    edge_is_lo=st.booleans(),
)
def test_envelope_dominates_target_on_any_support_within_reach(
    mean, sigma, edge, width, edge_is_lo
):
    # the density is unimodal: on any support, the flat envelope at the
    # density of the point nearest the mean bounds it; one end of the
    # support lies within 8 sigma of the mean, so that bound is not 0
    lo = edge if edge_is_lo else edge - width
    target = GaussianSpec(mean, sigma)
    support = UniformSpec(mean + lo * sigma, mean + (lo + width) * sigma)
    peak = gaussian_pdf(np.clip(mean, support.lo, support.hi), target)
    assert peak > 0.0
    grid = np.linspace(support.lo, support.hi, 10_001)
    assert gaussian_pdf(grid, target).max() <= peak * (1.0 + 1e-12)
