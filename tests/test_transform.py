import math
import threading
import time

import numpy as np
import pytest

from prva.distributions import GaussianSpec
from prva.samplers import OpCounter, SeededStream
from prva.sensor import (
    CalibrationGrid,
    GridRangeError,
    SampleTrace,
    default_adc,
    default_grid,
    generate_trace,
)
from prva.stats import fit_gaussian
from prva.transform import (
    CacheClosed,
    CoeffsMismatchError,
    TransformCoeffs,
    VariateCache,
    apply,
    compensate,
    fill_cache,
    make_coeffs,
)


def test_make_coeffs_identity():
    spec = GaussianSpec(3.0, 2.0)
    coeffs = make_coeffs(spec, spec)
    assert coeffs.scale == 1.0
    assert coeffs.offset == 0.0


def test_make_coeffs_standardize_and_back():
    sensor = GaussianSpec(980.794, 7.178)
    unit = GaussianSpec(0.0, 1.0)
    up = make_coeffs(unit, sensor)
    assert up.scale == 7.178
    assert up.offset == 980.794
    down = make_coeffs(sensor, unit)
    # the map must carry the source mean exactly onto the target mean
    assert down.scale * sensor.mean + down.offset == 0.0
    assert up.scale * 0.0 + up.offset == sensor.mean


def test_coeffs_validation():
    with pytest.raises(ValueError):
        TransformCoeffs(0.0, 1.0)
    with pytest.raises(ValueError):
        TransformCoeffs(-2.0, 1.0)
    with pytest.raises(ValueError):
        TransformCoeffs(math.inf, 1.0)


def test_apply_values_and_op_charges():
    coeffs = TransformCoeffs(2.0, -1.0)
    assert apply(coeffs, 3.0) == 5.0
    counter = OpCounter()
    out = apply(coeffs, np.array([0.0, 1.0, 2.0]), counter)
    np.testing.assert_array_equal(out, [-1.0, 1.0, 3.0])
    # exactly one multiply and one add per variate, nothing else
    assert counter.multiplications == 3
    assert counter.additions == 3
    assert counter.total_ops == 6


def test_apply_moment_law():
    x = SeededStream(2).uniforms(50_000)
    coeffs = TransformCoeffs(3.0, 10.0)
    y = apply(coeffs, x)
    assert math.isclose(y.mean(), 3.0 * x.mean() + 10.0, rel_tol=1e-12)
    assert math.isclose(y.std(), 3.0 * x.std(), rel_tol=1e-12)


def test_compensate_standardizes_corner_cell():
    grid = default_grid()
    adc = default_adc(grid, 25.0, 3.6)
    stream = SeededStream(11)
    trace = generate_trace(stream, grid, 25.0, 3.6, adc, 100_000)
    out = compensate(trace, grid, stream=stream)
    fit = fit_gaussian(out)
    assert abs(fit.mean) < 0.02
    assert 0.98 < fit.sigma < 1.02


def test_compensate_requires_grid_or_self_calibration():
    grid = default_grid()
    adc = default_adc(grid)
    stream = SeededStream(1)
    trace = generate_trace(stream, grid, 10.0, 2.6, adc, 1_000)
    # the grid is a required argument: self-calibration is an explicit None
    with pytest.raises(TypeError, match="grid"):
        compensate(trace, stream=stream)


def test_compensate_off_grid_raises_before_drawing_jitter():
    grid = default_grid()
    adc = default_adc(grid)
    codes = generate_trace(SeededStream(2), grid, 10.0, 2.6, adc, 1_000).codes
    hot = SampleTrace(codes=codes, adc=adc, temperature_c=55.0, voltage_v=2.6)
    stream = SeededStream(3)
    with pytest.raises(GridRangeError):
        compensate(hot, grid, stream=stream)
    assert stream.draws_taken == 0


def test_compensate_self_calibration_centers_exactly():
    grid = default_grid()
    adc = default_adc(grid)
    stream = SeededStream(9)
    trace = generate_trace(stream, grid, 10.0, 2.6, adc, 20_000)
    out = compensate(trace, None, stream=stream)
    # standardizing against the sample's own fit nails the moments
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_compensate_constant_grid_is_a_fixed_affine():
    flat = CalibrationGrid(
        (0.0, 50.0),
        (1.0, 4.0),
        np.full((2, 2), 100.0),
        np.full((2, 2), 5.0),
    )
    adc = default_adc(flat, 10.0, 2.0)
    t1 = generate_trace(SeededStream(3), flat, 10.0, 2.0, adc, 5_000)
    t2 = generate_trace(SeededStream(3), flat, 40.0, 3.5, adc, 5_000)
    np.testing.assert_array_equal(t1.codes, t2.codes)  # same noise params
    out1 = compensate(t1, flat, stream=SeededStream(4))
    out2 = compensate(t2, flat, stream=SeededStream(4))
    np.testing.assert_array_equal(out1, out2)


def test_compensation_removes_operating_point_drift():
    grid = default_grid()
    adc = default_adc(grid)  # one fixed converter for both operating points
    cold = generate_trace(SeededStream(21), grid, -5.0, 1.4, adc, 50_000)
    hot = generate_trace(SeededStream(22), grid, 25.0, 3.6, adc, 50_000)
    raw_cold = fit_gaussian(adc.value(cold.codes))
    raw_hot = fit_gaussian(adc.value(hot.codes))
    comp_cold = fit_gaussian(compensate(cold, grid, stream=SeededStream(23)))
    comp_hot = fit_gaussian(compensate(hot, grid, stream=SeededStream(24)))
    raw_gap = abs(raw_cold.mean - raw_hot.mean)
    comp_gap = abs(comp_cold.mean - comp_hot.mean)
    assert raw_gap > 1.0  # the drift is plainly visible before compensation
    assert comp_gap < raw_gap / 10.0


def test_retarget_distribution_through_cache():
    grid = default_grid()
    adc = default_adc(grid)
    stream = SeededStream(31)
    trace = generate_trace(stream, grid, 10.0, 2.6, adc, 100_000)
    standardized = compensate(trace, grid, stream=stream)
    target = GaussianSpec(5.0, 2.0)
    cache = VariateCache(4096, target)
    fill_cache(
        cache,
        standardized,
        make_coeffs(GaussianSpec(0.0, 1.0), target),
        counter=stream.counter,
        background=True,
    )
    out = cache.get_many(standardized.size)
    fit = fit_gaussian(out)
    assert abs(fit.mean - 5.0) < 5.0 * 2.0 / math.sqrt(1e5)
    assert abs(fit.sigma - 2.0) < 5.0 * 2.0 / math.sqrt(2e5)


# --- cache mechanics -----------------------------------------------------


def test_cache_fifo_order_and_counters():
    cache = VariateCache(64, GaussianSpec(0.0, 1.0))
    cache.put_many(np.arange(10.0))
    cache.put_many([10.0])
    got = [cache.get() for _ in range(11)]
    assert got == list(range(11))
    assert cache.total_produced == 11
    assert cache.total_consumed == 11
    assert cache.occupancy == 0


def test_cache_scalar_get_matches_get_many_across_chunks():
    values = SeededStream(3).uniforms(50)
    pieces = (values[:7], values[7:8], values[8:30], values[30:])
    a, b = (VariateCache(64, GaussianSpec(0.0, 1.0)) for _ in range(2))
    for cache in (a, b):
        for piece in pieces:
            cache.put_many(piece)
    got = []
    for i in range(50):
        # mix scalar reads with batched ones on the same cache
        got.append(a.get() if i % 5 else float(a.get_many(1)[0]))
    assert all(type(v) is float for v in got)
    assert got == [float(v) for v in b.get_many(50)] == values.tolist()
    assert a.occupancy == 0 and a.total_consumed == 50


def test_cache_scalar_get_empty_and_closed():
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    cache.put_many([4.0])
    assert cache.get() == 4.0
    cache.put_many([5.0])
    cache.close()
    assert cache.get() == 5.0
    with pytest.raises(CacheClosed, match="closed and drained"):
        cache.get()
    assert cache.total_consumed == 2


def test_cache_scalar_get_waits_for_the_producer():
    cache = VariateCache(4, GaussianSpec(0.0, 1.0))
    got = []

    def consume():
        got.extend(cache.get() for _ in range(10))

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    cache.put_many(np.arange(10.0))
    reader.join(timeout=5.0)
    assert not reader.is_alive(), "scalar get did not wake for the producer"
    assert got == list(range(10))


def test_cache_scalar_get_raises_the_producer_error():
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    cache.put_many(np.array([1.0, 2.0]))
    cache.close(RuntimeError("sensor fault"))
    # values produced before the failure are still delivered
    assert [cache.get(), cache.get()] == [1.0, 2.0]
    with pytest.raises(RuntimeError, match="sensor fault"):
        cache.get()
    # a reader blocked on an empty cache wakes to the error
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    raised = []

    def consume():
        try:
            cache.get()
        except RuntimeError as exc:
            raised.append(exc)

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    time.sleep(0.05)
    cache.close(RuntimeError("sensor fault"))
    reader.join(timeout=5.0)
    assert not reader.is_alive()
    assert len(raised) == 1 and "sensor fault" in str(raised[0])


def test_cache_close_then_drain():
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    cache.put_many(np.array([1.0, 2.0]))
    cache.close()
    np.testing.assert_array_equal(cache.get_many(2), [1.0, 2.0])
    with pytest.raises(CacheClosed):
        cache.get()
    with pytest.raises(CacheClosed):
        cache.put_many([3.0])


def test_cache_partial_delivery_on_close():
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    cache.put_many(np.array([1.0, 2.0, 3.0]))
    cache.close()
    out = cache.get_many(10)
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_cache_bounded_capacity_with_threaded_producer():
    spec = GaussianSpec(0.0, 1.0)
    cache = VariateCache(32, spec)
    values = np.arange(1000.0)

    def produce():
        cache.put_many(values)
        cache.close()

    worker = threading.Thread(target=produce)
    worker.start()
    time.sleep(0.05)  # let the producer hit the capacity wall
    assert cache.occupancy <= 32
    out = cache.get_many(1000)
    worker.join()
    np.testing.assert_array_equal(out, values)
    assert cache.high_water <= 32
    assert cache.total_produced == 1000
    assert cache.total_consumed == 1000


def test_fill_cache_background_round_trip():
    spec = GaussianSpec(-2.0, 0.5)
    coeffs = make_coeffs(GaussianSpec(0.0, 1.0), spec)
    values = SeededStream(5).uniforms(200_000) - 0.5
    cache = VariateCache(1024, spec)
    counter = OpCounter()
    worker = fill_cache(cache, values, coeffs, counter=counter, background=True)
    out = cache.get_many(values.size)
    worker.join()
    np.testing.assert_array_equal(out, coeffs.scale * values + coeffs.offset)
    assert counter.multiplications == values.size
    assert counter.additions == values.size
    with pytest.raises(CacheClosed):
        cache.get()


def test_fill_cache_inline_needs_enough_capacity():
    spec = GaussianSpec(1.0, 2.0)
    coeffs = make_coeffs(GaussianSpec(0.0, 1.0), spec)
    values = np.linspace(-3, 3, 500)
    cache = VariateCache(500, spec)
    assert fill_cache(cache, values, coeffs) is None
    assert cache.occupancy == 500


def test_fill_cache_inline_overflow_raises_instead_of_blocking():
    spec = GaussianSpec(0.0, 1.0)
    cache = VariateCache(4, spec)
    raised = []

    def fill():
        try:
            fill_cache(cache, np.arange(10.0), make_coeffs(spec, spec))
        except ValueError as exc:
            raised.append(exc)

    # on a daemon thread, so a fill that blocks fails here instead of hanging
    worker = threading.Thread(target=fill, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "inline fill blocked on a full cache"
    assert len(raised) == 1 and "room for 4" in str(raised[0])
    assert cache.occupancy == 0 and not cache.closed


def test_fill_cache_producer_error_reaches_the_reader():
    spec = GaussianSpec(0.0, 1.0)

    def failing_values():
        yield from (0.1, 0.2, 0.3, 0.4)
        raise RuntimeError("sensor fault")

    cache = VariateCache(16, spec)
    worker = fill_cache(
        cache, failing_values(), make_coeffs(spec, spec), background=True
    )
    with pytest.raises(RuntimeError, match="sensor fault"):
        cache.get_many(10)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    # inline, the error reaches the caller directly and still closes the cache
    cache = VariateCache(16, spec)
    with pytest.raises(RuntimeError, match="sensor fault"):
        fill_cache(cache, failing_values(), make_coeffs(spec, spec))
    assert cache.closed
    with pytest.raises(RuntimeError, match="sensor fault"):
        cache.get_many(10)


def test_fill_cache_rejects_mislabeled_coeffs():
    cache = VariateCache(16, GaussianSpec(0.0, 1.0))
    wrong = make_coeffs(GaussianSpec(0.0, 1.0), GaussianSpec(5.0, 2.0))
    with pytest.raises(CoeffsMismatchError, match="labeled"):
        fill_cache(cache, np.zeros(4), wrong)


def test_cache_validation():
    with pytest.raises(ValueError):
        VariateCache(0, GaussianSpec(0.0, 1.0))
    with pytest.raises(ValueError):
        VariateCache(8, "not a spec")
