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
from prva.stats import FitResult, fit_gaussian
from prva import transform
from prva.transform import (
    CacheClosed,
    VariateCache,
    apply,
    compensate,
    fill_cache,
    make_coeffs,
)


def test_make_coeffs_identity():
    spec = GaussianSpec(3.0, 2.0)
    coeffs = make_coeffs(spec, spec)
    assert coeffs.sigma == 1.0
    assert coeffs.mean == 0.0


def test_make_coeffs_standardize_and_back():
    sensor = GaussianSpec(980.794, 7.178)
    unit = GaussianSpec(0.0, 1.0)
    up = make_coeffs(unit, sensor)
    assert up == sensor
    down = make_coeffs(sensor, unit)
    # the map must carry the source mean exactly onto the target mean
    assert down.sigma * sensor.mean + down.mean == 0.0
    assert up.sigma * 0.0 + up.mean == sensor.mean


def test_coeffs_validation():
    # a map whose scale or offset leaves the finite positive floats is
    # refused as the GaussianSpec it would make of N(0, 1)
    for src, dst in (
        (GaussianSpec(0.0, 1e-300), GaussianSpec(0.0, 1e300)),  # scale inf
        (GaussianSpec(0.0, 1e300), GaussianSpec(0.0, 1e-300)),  # scale 0
        (GaussianSpec(1e300, 1e-10), GaussianSpec(0.0, 1.0)),  # offset -inf
    ):
        with pytest.raises(ValueError, match="gaussian"):
            make_coeffs(src, dst)


def test_apply_values_and_op_charges():
    coeffs = GaussianSpec(-1.0, 2.0)
    scalar = apply(coeffs, 3.0)
    assert isinstance(scalar, np.ndarray) and scalar.shape == () and scalar == 5.0
    counter = OpCounter()
    out = apply(coeffs, np.array([0.0, 1.0, 2.0]), counter)
    np.testing.assert_array_equal(out, [-1.0, 1.0, 3.0])
    # exactly one multiply and one add per variate, nothing else
    assert counter.multiplications == 3
    assert counter.additions == 3
    assert counter.total_ops == 6


def test_apply_moment_law():
    x = SeededStream(2).uniforms(50_000)
    coeffs = GaussianSpec(10.0, 3.0)
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
    assert stream.counter.uniform_draws == 0


@pytest.mark.parametrize(
    "mean, sigma, shown",
    [
        (980.0, 1e-310, "mean 980.0 and sigma 1e-310"),
        (1e300, 1e-10, "mean 1e+300 and sigma 1e-10"),
    ],
)
def test_compensate_names_a_grid_gaussian_float64_cannot_standardize(mean, sigma, shown):
    # 1/sigma, or mean/sigma, overflows float64
    grid = default_grid()
    trace = generate_trace(SeededStream(1), grid, 10.0, 2.6, default_adc(grid), 100)
    flat = CalibrationGrid(
        (0.0, 50.0), (1.0, 4.0), np.full((2, 2), mean), np.full((2, 2), sigma)
    )
    with pytest.raises(ValueError) as exc:
        compensate(trace, flat, stream=SeededStream(2))
    assert str(exc.value) == (
        f"cannot standardize in float64: the calibration grid gives {shown} "
        f"at temperature_c=10.0, voltage_v=2.6"
    )


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
    fill_cache(cache, standardized, target, counter=stream.counter, background=True)
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


def test_cache_put_many_keeps_its_own_copy():
    # a producer that reuses its buffer must not change queued variates
    cache = VariateCache(8, GaussianSpec(0.0, 1.0))
    buf = np.arange(4.0)
    cache.put_many(buf)
    buf[:] = -1.0
    np.testing.assert_array_equal(cache.get_many(4), [0.0, 1.0, 2.0, 3.0])


def test_fill_cache_queues_apply_output_without_copying(monkeypatch):
    # apply returns a fresh chunk; copying it again into the cache was waste
    returned = []
    real_apply = transform.apply

    def recording_apply(*args, **kwargs):
        returned.append(real_apply(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(transform, "apply", recording_apply)
    cache = VariateCache(100, GaussianSpec(5.0, 2.0))
    fill_cache(cache, np.arange(100.0), GaussianSpec(5.0, 2.0), chunk_size=32)
    chunks = list(cache._chunks)
    assert len(chunks) == len(returned) == 4
    for chunk, fresh in zip(chunks, returned):
        assert np.shares_memory(chunk, fresh)
    np.testing.assert_array_equal(cache.get_many(100), 2.0 * np.arange(100.0) + 5.0)


def test_cache_partial_delivery_on_close():
    # a closed cache holds all it will give, so a count far beyond that
    # allocates only what is there
    for count in (10, 10**12):
        cache = VariateCache(8, GaussianSpec(0.0, 1.0))
        cache.put_many(np.array([1.0, 2.0, 3.0]))
        cache.close()
        out = cache.get_many(count)
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
    values = SeededStream(5).uniforms(200_000) - 0.5
    cache = VariateCache(1024, spec)
    counter = OpCounter()
    worker = fill_cache(cache, values, spec, counter=counter, background=True)
    out = cache.get_many(values.size)
    worker.join()
    np.testing.assert_array_equal(out, spec.sigma * values + spec.mean)
    assert counter.multiplications == values.size
    assert counter.additions == values.size
    with pytest.raises(CacheClosed):
        cache.get()


def test_fill_cache_inline_needs_enough_capacity():
    spec = GaussianSpec(1.0, 2.0)
    values = np.linspace(-3, 3, 500)
    cache = VariateCache(500, spec)
    assert fill_cache(cache, values, spec) is None
    assert cache.occupancy == 500


def test_fill_cache_inline_overflow_raises_instead_of_blocking():
    spec = GaussianSpec(0.0, 1.0)

    def fill(cache, values, raised):
        try:
            fill_cache(cache, values, spec)
        except ValueError as exc:
            raised.append(exc)

    # an array, and a list of arrays that np.asarray flattens to one
    for values in (np.arange(10.0), [np.arange(10.0)]):
        cache = VariateCache(4, spec)
        raised = []
        # on a daemon thread, so a fill that blocks fails here instead of hanging
        worker = threading.Thread(
            target=fill, args=(cache, values, raised), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "inline fill blocked on a full cache"
        assert len(raised) == 1 and "room for 4" in str(raised[0])
        assert cache.occupancy == 0 and not cache.closed


def test_fill_cache_producer_error_reaches_the_reader(monkeypatch):
    spec = GaussianSpec(0.0, 1.0)
    real_apply = transform.apply
    calls = []

    def apply_failing_on_second_chunk(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("sensor fault")
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(transform, "apply", apply_failing_on_second_chunk)
    values = np.arange(10.0)
    cache = VariateCache(16, spec)
    worker = fill_cache(cache, values, spec, background=True, chunk_size=4)
    with pytest.raises(RuntimeError, match="sensor fault"):
        cache.get_many(10)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    # inline, the error reaches the caller directly and still closes the cache
    calls.clear()
    cache = VariateCache(16, spec)
    with pytest.raises(RuntimeError, match="sensor fault"):
        fill_cache(cache, values, spec, chunk_size=4)
    assert cache.closed
    # the first chunk was produced before the failure and is still delivered
    np.testing.assert_array_equal(cache.get_many(4), values[:4])
    with pytest.raises(RuntimeError, match="sensor fault"):
        cache.get_many(10)


def test_fill_cache_rejects_a_generator_when_called():
    # values are one array: a generator fails at the call, not in the producer
    spec = GaussianSpec(0.0, 1.0)
    cache = VariateCache(16, spec)
    gen = (np.full(4, v) for v in (0.1, 0.2))
    with pytest.raises(TypeError):
        fill_cache(cache, gen, spec, background=True)
    assert cache.occupancy == 0 and not cache.closed


@pytest.mark.parametrize("chunk_size", [-1, 0])
def test_fill_cache_rejects_nonpositive_chunk_size(chunk_size):
    spec = GaussianSpec(0.0, 1.0)
    cache = VariateCache(16, spec)
    for background in (False, True):
        with pytest.raises(ValueError, match="chunk_size"):
            fill_cache(
                cache,
                np.arange(10.0),
                spec,
                background=background,
                chunk_size=chunk_size,
            )
    assert cache.occupancy == 0 and not cache.closed
    assert cache.total_produced == 0


def test_fill_cache_rejects_mislabeled_coeffs():
    cache = VariateCache(16, GaussianSpec(0.0, 1.0))
    wrong = make_coeffs(GaussianSpec(0.0, 1.0), GaussianSpec(5.0, 2.0))
    with pytest.raises(ValueError, match="coefficients deliver .* into a cache labeled"):
        fill_cache(cache, np.zeros(4), wrong)
    # the check is exact: one ulp off in either coefficient is refused
    cache = VariateCache(16, GaussianSpec(5.0, 2.0))
    for mean, sigma in (
        (5.0, np.nextafter(2.0, 3.0)),
        (np.nextafter(5.0, 6.0), 2.0),
        (np.nextafter(5.0, 4.0), np.nextafter(2.0, 1.0)),
    ):
        with pytest.raises(ValueError, match="coefficients deliver .* into a cache labeled"):
            fill_cache(cache, np.zeros(4), GaussianSpec(mean, sigma))
    assert cache.occupancy == 0 and not cache.closed


def test_fill_cache_matches_a_fit_label_by_its_mean_and_sigma():
    # a FitResult label and a GaussianSpec argument, or the other way round,
    # are the same Gaussian though the dataclasses differ
    fit = FitResult(5.0, 2.0, n=100)
    for label, target in ((fit, GaussianSpec(5.0, 2.0)), (GaussianSpec(5.0, 2.0), fit)):
        cache = VariateCache(4, label)
        fill_cache(cache, np.array([0.0, 1.0]), target)
        np.testing.assert_array_equal(cache.get_many(2), [5.0, 7.0])


def test_cache_validation():
    with pytest.raises(ValueError):
        VariateCache(0, GaussianSpec(0.0, 1.0))
    with pytest.raises(ValueError):
        VariateCache(8, "not a spec")
