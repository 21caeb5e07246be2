import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from prva.distributions import GaussianSpec
from prva.samplers import SeededStream
from prva.sensor import (
    AdcModel,
    CalibrationFormatError,
    CalibrationGrid,
    GridRangeError,
    SampleTrace,
    TraceBodyError,
    TraceCodeError,
    TraceHeaderError,
    default_adc,
    default_grid,
    dequantize_with_jitter,
    generate_trace,
    load_calibration,
    load_trace,
    store_calibration,
    store_trace,
)
from prva.stats import fit_gaussian, histogram, kl_divergence


# --- ADC ---------------------------------------------------------------


def test_adc_validation():
    with pytest.raises(ValueError):
        AdcModel(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        AdcModel(16, 2.0, 2.0)
    with pytest.raises(ValueError):
        AdcModel(16, 3.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 5e-324)])
def test_adc_rejects_range_whose_bin_width_overflows_or_underflows(lo, hi):
    # a width of inf or 0 made quantize([1e308]) return INT64_MIN
    with pytest.raises(ValueError, match="bin width"):
        AdcModel(4, lo, hi)


@pytest.mark.parametrize("bins", [2**53 + 1, 2**63, 2**64, 2**100])
def test_adc_rejects_bin_count_whose_codes_are_not_exact_in_float64(bins):
    # 2**63 bins quantized [0.5, 2.0] to [2**62, INT64_MIN]
    with pytest.raises(ValueError, match="bin_count"):
        AdcModel(bins, 0.0, 1.0)
    # the largest accepted count still quantizes exactly
    edge = AdcModel(2**53, 0.0, 1.0).quantize([0.5, 2.0])
    assert edge.tolist() == [2**52, 2**53 - 1]


@pytest.mark.parametrize(
    "bins", [4096.0, np.float64(4096), np.int64(4096)], ids=["float", "float64", "int64"]
)
def test_adc_integral_count_of_any_type_quantizes_as_an_int(bins):
    # an integral float count once gave float16 codes, and 0.99999 -> 4096.0
    x = [0.99999, 0.5, 0.49999]
    want = AdcModel(4096, 0.0, 1.0).quantize(x)
    adc = AdcModel(bins, 0.0, 1.0)
    assert type(adc.bin_count) is int
    got = adc.quantize(x)
    assert got.dtype == np.uint16 and want.dtype == np.uint16
    np.testing.assert_array_equal(got, want)
    assert got.tolist() == [4095, 2048, 2047]


@pytest.mark.parametrize("bins", [math.inf, -math.inf, math.nan])
def test_adc_rejects_non_finite_bin_count(bins):
    # the documented ValueError, not int()'s OverflowError on inf
    with pytest.raises(ValueError, match="bin_count"):
        AdcModel(bins, 0.0, 1.0)


def test_adc_quantize_and_centers():
    adc = AdcModel(4, 0.0, 4.0)
    assert adc.width == 1.0
    np.testing.assert_array_equal(adc.quantize(np.array([0.5, 1.0, 3.999])), [0, 1, 3])
    assert adc.value(0) == 0.5
    assert adc.value(3) == 3.5
    assert adc.quantize(2.5) == 2


def test_adc_saturates_out_of_range():
    adc = AdcModel(4096, 951.0, 1011.0)
    assert adc.quantize(-1e9) == 0
    assert adc.quantize(1e9) == 4095
    assert adc.quantize(951.0) == 0
    assert adc.quantize(1011.0) == 4095  # the top edge clips into the last bin


@pytest.mark.parametrize(
    "x, code",
    [
        (1e300, 4095),
        (-1e300, 0),
        (np.finfo(float).max, 4095),
        (-np.finfo(float).max, 0),
    ],
)
def test_adc_saturates_extreme_inputs(x, code):
    adc = AdcModel(4096, 951.2, 1010.3)
    assert adc.quantize(x) == code
    in_range = adc.quantize(980.0)
    np.testing.assert_array_equal(adc.quantize(np.array([x, 980.0])), [code, in_range])


def test_adc_roundtrip_error_bounded_by_half_width():
    adc = AdcModel(4096, 951.0, 1011.0)
    x = np.linspace(951.0, 1011.0 - 1e-9, 10_000)
    err = np.abs(adc.value(adc.quantize(x)) - x)
    assert err.max() <= adc.width / 2.0 + 1e-12


def test_adc_value_rejects_bad_codes():
    adc = AdcModel(16, 0.0, 1.0)
    with pytest.raises(ValueError):
        adc.value(-1)
    with pytest.raises(ValueError):
        adc.value(16)
    with pytest.raises(ValueError):
        adc.value(np.array([0.5]))


def test_adc_rejects_non_finite_input():
    adc = AdcModel(16, 0.0, 1.0)
    with pytest.raises(ValueError):
        adc.quantize(math.nan)


# --- calibration grid ---------------------------------------------------


def test_default_grid_shape_and_anchor():
    grid = default_grid()
    assert len(grid.temperatures) == 7
    assert len(grid.voltages) == 12
    assert grid.means.shape == (7, 12)
    # the acquisition anchor is exact
    assert grid.noise_params(20.0, 3.0) == GaussianSpec(980.794, 7.178)


def test_default_grid_is_pinned_bit_for_bit():
    # every synthesized trace and every compensation reads this surface,
    # so a change to how its node offsets are drawn shows here first
    grid = default_grid()
    digest = hashlib.sha256()
    for cells in (grid.temperatures, grid.voltages, grid.means, grid.sigmas):
        digest.update(np.asarray(cells, dtype=float).tobytes())
    assert digest.hexdigest() == (
        "2f288a5f66da2982e97cf43bc59d7b79500c167202f3e280cbcd9bb8271f98d0"
    )


def test_grid_exact_at_every_node():
    grid = default_grid()
    for ti, t in enumerate(grid.temperatures):
        for vi, v in enumerate(grid.voltages):
            noise = grid.noise_params(t, v)
            assert noise.mean == grid.means[ti, vi]
            assert noise.sigma == grid.sigmas[ti, vi]


def test_grid_monotone_trends():
    grid = default_grid()
    # temperature up -> mean and sigma down, along every voltage line
    assert np.all(np.diff(grid.means, axis=0) < 0)
    assert np.all(np.diff(grid.sigmas, axis=0) < 0)
    # voltage up -> mean up, sigma down, along every temperature line
    assert np.all(np.diff(grid.means, axis=1) > 0)
    assert np.all(np.diff(grid.sigmas, axis=1) < 0)


def test_grid_cell_midpoint_is_corner_average():
    grid = default_grid()
    t_mid = 0.5 * (grid.temperatures[2] + grid.temperatures[3])
    v_mid = 0.5 * (grid.voltages[5] + grid.voltages[6])
    noise = grid.noise_params(t_mid, v_mid)
    corner_mean = grid.means[2:4, 5:7].mean()
    corner_sigma = grid.sigmas[2:4, 5:7].mean()
    assert math.isclose(noise.mean, corner_mean, rel_tol=1e-14)
    assert math.isclose(noise.sigma, corner_sigma, rel_tol=1e-14)


def test_grid_continuous_across_cell_boundaries():
    grid = default_grid()
    temps, volts = grid.temperatures, grid.voltages
    # a point just below an interior node is blended from the cell on its
    # left, the node itself from the cell on its right
    jumps = []
    for t in temps[1:-1]:
        for v in np.linspace(volts[0], volts[-1], 97):
            at = grid.noise_params(t, v)
            below = grid.noise_params(np.nextafter(t, -np.inf), v)
            jumps += [abs(at.mean - below.mean), abs(at.sigma - below.sigma)]
    for v in volts[1:-1]:
        for t in np.linspace(temps[0], temps[-1], 97):
            at = grid.noise_params(t, v)
            below = grid.noise_params(t, np.nextafter(v, -np.inf))
            jumps += [abs(at.mean - below.mean), abs(at.sigma - below.sigma)]
    assert max(jumps) <= 1e-12


def test_grid_out_of_range_names_the_axis():
    grid = default_grid()
    with pytest.raises(GridRangeError, match="temperature"):
        grid.noise_params(30.0, 2.6)
    with pytest.raises(GridRangeError, match="voltage"):
        grid.noise_params(10.0, 1.0)


def test_grid_rejects_descending_axes():
    # a hot-to-cold table is sorted by load_calibration, not by the grid
    ones = np.ones((2, 2))
    with pytest.raises(ValueError, match="temperature axis must be strictly increasing"):
        CalibrationGrid((10.0, 0.0), (1.0, 2.0), ones, ones)
    with pytest.raises(ValueError, match="voltage axis must be strictly increasing"):
        CalibrationGrid((0.0, 10.0), (2.0, 1.0), ones, ones)


def test_grid_validation():
    ones = np.ones((2, 2))
    with pytest.raises(ValueError):
        CalibrationGrid((0.0, 0.0), (1.0, 2.0), ones, ones)  # repeated node
    with pytest.raises(ValueError):
        CalibrationGrid((0.0, 1.0), (1.0, 2.0), np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        CalibrationGrid((0.0, 1.0), (1.0, 2.0), ones, np.zeros((2, 2)))  # sigma <= 0


# --- trace generation ----------------------------------------------------


def test_generate_trace_determinism():
    grid = default_grid()
    adc = default_adc(grid)
    a = generate_trace(SeededStream(7), grid, 10.0, 2.6, adc, 5_000)
    b = generate_trace(SeededStream(7), grid, 10.0, 2.6, adc, 5_000)
    np.testing.assert_array_equal(a.codes, b.codes)
    c = generate_trace(SeededStream(8), grid, 10.0, 2.6, adc, 5_000)
    assert not np.array_equal(a.codes, c.codes)


def test_generate_trace_distribution():
    grid = default_grid()
    adc = default_adc(grid)
    trace = generate_trace(SeededStream(3), grid, 10.0, 2.6, adc, 200_000)
    noise = grid.noise_params(10.0, 2.6)
    mean, sigma = noise.mean, noise.sigma
    centers = adc.value(trace.codes)
    fit = fit_gaussian(centers)
    assert abs(fit.mean - mean) < 5.0 * sigma / math.sqrt(200_000)
    assert abs(fit.sigma - sigma) < 5.0 * sigma / math.sqrt(2 * 200_000) + adc.width
    hist = histogram(centers, 256, (mean - 4 * sigma, mean + 4 * sigma))
    assert kl_divergence(hist, noise) < 0.01


def test_generate_trace_saturation_piles_at_edges():
    grid = default_grid()
    noise = grid.noise_params(10.0, 2.6)
    narrow = AdcModel(
        64, noise.mean - 0.5 * noise.sigma, noise.mean + 0.5 * noise.sigma
    )
    trace = generate_trace(SeededStream(4), grid, 10.0, 2.6, narrow, 20_000)
    counts = np.bincount(trace.codes, minlength=64)
    # ~31% of the mass clips to each rail
    assert counts[0] > 5_000
    assert counts[63] > 5_000


def test_degenerate_noise_gives_constant_codes():
    tiny = CalibrationGrid(
        (0.0, 1.0),
        (0.0, 1.0),
        np.full((2, 2), 100.0),
        np.full((2, 2), 1e-12),
    )
    adc = AdcModel(255, 90.0, 110.0)  # odd bin count puts the mean mid-bin
    trace = generate_trace(SeededStream(1), tiny, 0.5, 0.5, adc, 1_000)
    assert np.unique(trace.codes).size == 1


def test_sample_trace_validation():
    adc = AdcModel(16, 0.0, 1.0)
    with pytest.raises(ValueError):
        SampleTrace(np.array([0.5]), adc, 10.0, 2.6)  # non-integer codes
    with pytest.raises(ValueError):
        SampleTrace(np.array([16]), adc, 10.0, 2.6)  # out of range
    # checked before the cast to uint8, where -1 would wrap to 255 and 256 to 0
    for codes in (np.array([3, -1]), np.array([3, 256], dtype=np.int64)):
        with pytest.raises(ValueError, match="lie in"):
            SampleTrace(codes, AdcModel(256, 0.0, 1.0), 10.0, 2.6)
    with pytest.raises(ValueError):
        SampleTrace(np.array([], dtype=np.int64), adc, 10.0, 2.6)
    with pytest.raises(ValueError):
        SampleTrace(np.array([3]), adc, 10.0, 2.6, sample_rate_hz=0.0)


@pytest.mark.parametrize("codes", [np.int64(5), np.array([[1, 2], [3, 4]])])
def test_sample_trace_requires_1d_codes(codes):
    # store_trace could not write either: iteration over a 0-d array, and
    # int() of a row
    with pytest.raises(ValueError, match="codes"):
        SampleTrace(codes, AdcModel(16, 0.0, 1.0), 10.0, 2.6)


@pytest.mark.parametrize(
    "brk", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_sample_trace_rejects_line_break_in_source(brk):
    # store_trace wrote such a source unescaped, and load_trace could not
    # read the file back
    with pytest.raises(ValueError, match="source"):
        SampleTrace(np.array([3]), AdcModel(16, 0.0, 1.0), 10.0, 2.6, source=f"lab{brk}bench")


# --- dequantization ------------------------------------------------------


def test_dequantize_zero_jitter_hits_centers(scripted_stream):
    adc = AdcModel(8, 0.0, 8.0)
    trace = SampleTrace(np.arange(8), adc, 10.0, 2.6)
    out = dequantize_with_jitter(trace, scripted_stream(np.full(8, 0.5)))  # u = 0.5: bin centers
    np.testing.assert_allclose(out, adc.value(trace.codes), atol=1e-15)


def test_dequantize_reaches_the_closed_bins_upper_edge(scripted_stream):
    # 1 - 2**-53, the largest U[0, 1) draw, puts every code exactly on the
    # upper edge of its closed bin, and 2,126 of those values quantize to
    # the next code
    adc = default_adc(default_grid())
    codes = np.arange(adc.bin_count)
    trace = SampleTrace(codes, adc, 10.0, 2.6)
    out = dequantize_with_jitter(trace, scripted_stream(np.full(codes.size, 1.0 - 2.0**-53)))
    assert np.all(out >= codes * adc.width + adc.range_lo)
    np.testing.assert_array_equal(out, (codes + 1.0) * adc.width + adc.range_lo)
    assert np.count_nonzero(adc.quantize(out) == codes + 1) == 2_126


def test_dequantize_stays_inside_each_bin():
    grid = default_grid()
    adc = default_adc(grid)
    trace = generate_trace(SeededStream(5), grid, 10.0, 2.6, adc, 50_000)
    out = dequantize_with_jitter(trace, SeededStream(6))
    lo_edges = adc.range_lo + trace.codes * adc.width
    assert np.all(out >= lo_edges)
    # the bin is closed: a draw near 1 may land on its upper edge, as
    # test_dequantize_reaches_the_closed_bins_upper_edge checks
    assert np.all(out <= lo_edges + adc.width)


def test_dequantize_charges_draws_and_ops():
    adc = AdcModel(8, 0.0, 8.0)
    trace = SampleTrace(np.arange(8), adc, 10.0, 2.6)
    stream = SeededStream(1)
    dequantize_with_jitter(trace, stream)
    # range_lo + (c + u) * width: one raw draw, one add, then the affine map
    assert stream.counter.uniform_draws == 8
    assert stream.counter.multiplications == 8
    assert stream.counter.additions == 16


# --- code dtypes ------------------------------------------------------------


@pytest.mark.parametrize(
    "bins, dtype",
    [
        (256, np.uint8),
        (257, np.uint16),
        (2**16, np.uint16),
        (2**16 + 1, np.uint32),
        (2**32 + 1, np.uint64),
    ],
)
def test_codes_take_the_smallest_unsigned_dtype(bins, dtype):
    adc = AdcModel(bins, 0.0, float(bins))  # unit-width bins
    codes = adc.quantize([-1.0, 0.5, bins / 2, bins - 0.5, bins + 10.0])
    assert codes.dtype == dtype
    assert codes.tolist() == [0, 0, bins // 2, bins - 1, bins - 1]
    # value and the dequantizer read every such dtype
    np.testing.assert_array_equal(adc.value(codes), codes + 0.5)
    trace = SampleTrace(codes, adc, 10.0, 2.6)
    assert trace.codes.dtype == dtype
    out = dequantize_with_jitter(trace, SeededStream(3))
    assert out.dtype == np.float64
    assert np.all((out >= codes) & (out < codes + 1.0))


def test_store_trace_writes_compact_codes_as_int64_ones(tmp_path):
    codes = np.array([0, 1, 255, 256, 4095], dtype=np.int64)
    trace = SampleTrace(codes, AdcModel(4096, 0.0, 1.0), 10.0, 2.6)
    assert trace.codes.dtype == np.uint16
    wide = copy.copy(trace)
    object.__setattr__(wide, "codes", codes)  # what SampleTrace kept before
    store_trace(trace, tmp_path / "compact.trace")
    store_trace(wide, tmp_path / "wide.trace")
    assert (tmp_path / "compact.trace").read_bytes() == (tmp_path / "wide.trace").read_bytes()


# --- trace files ----------------------------------------------------------


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
def test_store_trace_writes_the_joined_text_across_blocks(tmp_path, n):
    codes = np.random.default_rng(n).integers(0, 4096, n)
    adc = AdcModel(4096, -1.5, 2.25)
    store_trace(SampleTrace(codes, adc, 10.0, 2.6, source="lab"), tmp_path / "t.trace")
    header = [
        "bins=4096",
        "range_lo=-1.5",
        "range_hi=2.25",
        "temperature_c=10.0",
        "voltage_v=2.6",
        "sample_rate_hz=1154.0",
        "source=lab",
        "",
    ]
    text = "\n".join(header + [str(c) for c in codes.tolist()]) + "\n"
    assert (tmp_path / "t.trace").read_bytes() == text.encode()


def test_store_trace_memory_does_not_grow_with_the_trace(tmp_path):
    # 2**19 codes: the whole body's ints, strs and text at once came to
    # about 50 MB, one 2**16-line block's to about 6.5 MB
    codes = np.random.default_rng(0).integers(0, 4096, 2**19)
    trace = SampleTrace(codes, AdcModel(4096, 0.0, 1.0), 10.0, 2.6)
    tracemalloc.start()
    try:
        store_trace(trace, tmp_path / "t.trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_trace_round_trip_bitwise(tmp_path):
    grid = default_grid()
    adc = default_adc(grid)
    trace = generate_trace(SeededStream(7), grid, 10.0, 2.6, adc, 2_000)
    path = tmp_path / "noise.trace"
    store_trace(trace, path)
    loaded = load_trace(path)
    np.testing.assert_array_equal(loaded.codes, trace.codes)
    assert loaded.codes.dtype == np.uint16  # 4,096 bins
    assert loaded.adc == trace.adc
    assert loaded.temperature_c == trace.temperature_c
    assert loaded.voltage_v == trace.voltage_v
    assert loaded.sample_rate_hz == trace.sample_rate_hz
    assert loaded.source == trace.source
    path2 = tmp_path / "again.trace"
    store_trace(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _trace_text(**overrides):
    fields = {
        "bins": "16",
        "range_lo": "0.0",
        "range_hi": "1.0",
        "temperature_c": "10.0",
        "voltage_v": "2.6",
        "sample_rate_hz": "1154.0",
        "source": "synthetic",
    }
    fields.update(overrides)
    header = "\n".join(f"{k}={v}" for k, v in fields.items() if v is not None)
    return header + "\n\n3\n5\n"


def test_trace_header_missing_field(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(_trace_text(voltage_v=None))
    with pytest.raises(TraceHeaderError, match="voltage_v"):
        load_trace(path)


def test_trace_header_unknown_and_duplicate_fields(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("extra=1\n" + _trace_text())
    with pytest.raises(TraceHeaderError, match="extra"):
        load_trace(path)
    path.write_text("bins=16\n" + _trace_text())
    with pytest.raises(TraceHeaderError, match="duplicate"):
        load_trace(path)


def test_trace_header_unparseable_value(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(_trace_text(range_lo="abc"))
    with pytest.raises(TraceHeaderError):
        load_trace(path)
    path.write_text(_trace_text(range_hi="-1.0"))  # inconsistent geometry
    with pytest.raises(TraceHeaderError):
        load_trace(path)
    for rate in ("0", "-5", "inf", "nan"):  # parses, but no sample rate
        path.write_text(_trace_text(sample_rate_hz=rate))
        with pytest.raises(TraceHeaderError, match="sample_rate_hz"):
            load_trace(path)


def test_trace_code_out_of_range(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(_trace_text() + "16\n")
    with pytest.raises(TraceCodeError, match="16"):
        load_trace(path)


def test_trace_body_errors(tmp_path):
    path = tmp_path / "t.trace"
    header_only = _trace_text().split("\n\n")[0] + "\n\n"
    path.write_text(header_only)
    with pytest.raises(TraceBodyError):
        load_trace(path)
    path.write_text(_trace_text() + "3.5\n")
    with pytest.raises(TraceBodyError):
        load_trace(path)


# --- calibration files ----------------------------------------------------


def test_calibration_round_trip_bitwise(tmp_path):
    grid = default_grid()
    path = tmp_path / "cal.csv"
    store_calibration(grid, path)
    loaded = load_calibration(path)
    assert loaded.temperatures == grid.temperatures
    assert loaded.voltages == grid.voltages
    np.testing.assert_array_equal(loaded.means, grid.means)
    np.testing.assert_array_equal(loaded.sigmas, grid.sigmas)
    path2 = tmp_path / "cal2.csv"
    store_calibration(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # rows may come in any order, hot-to-cold included: the loader sorts them
    header, *rows = path.read_text().splitlines()
    path2.write_text("\n".join([header] + rows[::-1]) + "\n")
    reordered = load_calibration(path2)
    assert reordered.temperatures == grid.temperatures
    np.testing.assert_array_equal(reordered.means, grid.means)
    np.testing.assert_array_equal(reordered.sigmas, grid.sigmas)


def test_calibration_header_required(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("temp,volt,mean,sigma\n0,1,2,3\n")
    with pytest.raises(CalibrationFormatError, match="header"):
        load_calibration(path)


def test_calibration_incomplete_rectangle(tmp_path):
    grid = default_grid()
    path = tmp_path / "cal.csv"
    store_calibration(grid, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
    with pytest.raises(CalibrationFormatError, match="missing cell"):
        load_calibration(path)


def test_calibration_bad_rows(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("temperature_c,voltage_v,mean,sigma\n0,1,abc,3\n")
    with pytest.raises(CalibrationFormatError):
        load_calibration(path)
    path.write_text(
        "temperature_c,voltage_v,mean,sigma\n0,1,2,3\n0,1,2,3\n"
    )
    with pytest.raises(CalibrationFormatError, match="duplicate"):
        load_calibration(path)
    path.write_text("temperature_c,voltage_v,mean,sigma\n0,1,2\n")
    with pytest.raises(CalibrationFormatError):
        load_calibration(path)
