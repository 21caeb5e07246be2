"""Gaussian-to-Gaussian retargeting and the bounded variate cache.

A Gaussian source is carried to any other Gaussian by a single affine
map, so once a code stream has been dequantized its per-variate cost is
exactly one multiply and one add regardless of the target. From N(0, 1)
that map is the target itself, y = sigma * x + mean, so a
``GaussianSpec`` is the retarget's whole program. This module applies
it under op accounting, undoes operating-point drift by standardizing
against the calibration grid (:func:`compensate`), and buffers finished
variates in a bounded FIFO (:class:`VariateCache`) so production and
consumption can proceed on separate threads.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .distributions import GaussianSpec
from .samplers import OpCounter, SeededStream, affine
from .sensor import CalibrationGrid, SampleTrace, dequantize_with_jitter
from .stats import fit_gaussian


class CacheClosed(Exception):
    """Read from a cache that is closed and fully drained."""


def make_coeffs(src: GaussianSpec, dst: GaussianSpec) -> GaussianSpec:
    """The Gaussian that the map carrying ``src`` onto ``dst`` makes of N(0, 1).

    Its sigma is the map's scale s = dst.sigma / src.sigma and its mean the
    offset dst.mean - s * src.mean. From N(0, 1) both are exact, so the
    result has ``dst``'s mean and sigma bit for bit.
    """
    scale = dst.sigma / src.sigma
    return GaussianSpec(dst.mean - scale * src.mean, scale)


def apply(spec: GaussianSpec, x, counter: OpCounter | None = None):
    """New array of spec.sigma * x + spec.mean: N(0, 1) values carried onto ``spec``.

    Written by :func:`~prva.samplers.affine`, which charges ``counter``
    one multiply and one add per value.
    """
    arr = np.asarray(x, dtype=float)
    return affine(arr, spec.sigma, spec.mean, counter, out=np.empty_like(arr))


def compensate(
    trace: SampleTrace, grid: CalibrationGrid | None, *, stream: SeededStream
) -> np.ndarray:
    """Standardize a trace: dequantize, then map its Gaussian onto N(0, 1).

    The source parameters are taken from the calibration grid at the
    trace's recorded operating point, which is what removes temperature
    and supply drift: two traces captured at different (T, V) standardize
    to the same distribution. With ``grid=None`` the source parameters
    are instead fit from the dequantized samples themselves, allowing
    grid-free operation at the price of estimation error.

    Jitter uniforms are drawn from ``stream`` and all arithmetic is
    charged to its counter: three ops per code to dequantize and two to
    standardize, in place on the dequantized array. The grid is
    consulted before any jitter is drawn, so an off-grid trace raises
    GridRangeError with the stream untouched. A source Gaussian that
    float64 cannot standardize, because 1/sigma or mean/sigma overflows,
    raises ValueError naming it and the operating point.
    """
    if grid is not None:
        src = grid.noise_params(trace.temperature_c, trace.voltage_v)
    values = dequantize_with_jitter(trace, stream)
    if grid is None:
        src = fit_gaussian(values)
    try:
        standardize = make_coeffs(src, GaussianSpec(0.0, 1.0))
    except ValueError:
        # 1/sigma or mean/sigma overflows: a subnormal sigma, or a mean
        # too many sigmas from zero
        where = "trace's own fit" if grid is None else "calibration grid"
        raise ValueError(
            f"cannot standardize in float64: the {where} gives mean {src.mean!r} "
            f"and sigma {src.sigma!r} at temperature_c={trace.temperature_c!r}, "
            f"voltage_v={trace.voltage_v!r}"
        ) from None
    return affine(values, standardize.sigma, standardize.mean, stream.counter)


class VariateCache:
    """Bounded FIFO of finished variates, one producer and one consumer.

    The cache is labeled with the Gaussian its contents are supposed to
    follow (``requested_spec``); :func:`fill_cache` refuses to retarget
    onto any other Gaussian. Writes block while the cache is full and
    reads block while it is empty, so a slow consumer throttles the
    producer instead of growing memory. ``close()`` marks the end of
    production: readers drain what remains and then see CacheClosed, or,
    when production failed (``close(error)``), the producer's exception.

    Values are stored in chunks internally; occupancy and the high-water
    mark are counted in variates; occupancy is produced minus consumed.
    """

    def __init__(self, capacity: int, requested_spec: GaussianSpec):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if not isinstance(requested_spec, GaussianSpec):
            raise ValueError("cache must be labeled with a GaussianSpec")
        self.capacity = capacity
        self.requested_spec = requested_spec
        self._chunks: deque = deque()
        self._head = 0  # read offset into the first chunk
        self._closed = False
        self._error: BaseException | None = None
        self._cond = threading.Condition()
        self.high_water = 0
        self.total_produced = 0
        self.total_consumed = 0

    @property
    def occupancy(self) -> int:
        """Variates currently buffered: produced minus consumed."""
        return self.total_produced - self.total_consumed

    @property
    def closed(self) -> bool:
        return self._closed

    def put_many(self, values) -> None:
        """Append a copy of ``values`` in order, blocking while the cache is full."""
        arr = np.array(values, dtype=float).ravel()
        offset = 0
        while offset < arr.size:
            with self._cond:
                while self.occupancy >= self.capacity and not self._closed:
                    self._cond.wait()
                if self._closed:
                    raise CacheClosed("cannot put into a closed cache")
                take = min(arr.size - offset, self.capacity - self.occupancy)
                self._chunks.append(arr[offset : offset + take])
                self.total_produced += take
                self.high_water = max(self.high_water, self.occupancy)
                self._cond.notify_all()
            offset += take

    def get_many(self, count: int) -> np.ndarray:
        """Pop up to ``count`` variates in FIFO order.

        Blocks until ``count`` are available (or production closes, in
        which case whatever remains is returned — possibly fewer — unless
        production failed, which re-raises the producer's exception). A
        closed, fully drained cache raises CacheClosed. Each popped piece
        is copied into one result, allocated for ``count`` values, or for
        what remains when the cache is already closed; a short read
        returns a copy of just the values it got.
        """
        count = int(count)
        if count < 1:
            raise ValueError("count must be >= 1")
        # read without the lock: once closed, occupancy only falls, so it
        # bounds what this read can get. Allocating before the wait, while
        # the producer's chunks are still few, also keeps peak RSS lower.
        out = np.empty(min(count, self.occupancy) if self._closed else count)
        got = 0
        with self._cond:
            while got < count:
                if not self._wait_for_values():
                    if got == 0:
                        raise CacheClosed("cache is closed and drained")
                    break
                chunk = self._chunks[0]
                take = min(chunk.size - self._head, count - got)
                out[got : got + take] = chunk[self._head : self._head + take]
                self._consume(take)
                got += take
        return out if got == out.size else out[:got].copy()

    def get(self) -> float:
        """Pop one variate: ``float(get_many(1)[0])``, without the arrays.

        The accelerator is read one variate at a time, so this pops the
        float under the lock instead of building and copying a view.
        """
        with self._cond:
            if self.occupancy == 0 and not self._wait_for_values():
                raise CacheClosed("cache is closed and drained")
            value = float(self._chunks[0][self._head])
            self._consume(1)
        return value

    def _consume(self, take: int) -> None:
        """With the lock held, pop ``take`` values, at most the front chunk's rest."""
        self._head += take
        if self._head == self._chunks[0].size:
            self._chunks.popleft()
            self._head = 0
        self.total_consumed += take
        self._cond.notify_all()

    def _wait_for_values(self) -> bool:
        """With the lock held, wait for a variate; False once closed and drained.

        When production failed, its error is raised instead of returning False.
        """
        while self.occupancy == 0 and not self._closed:
            self._cond.wait()
        if self.occupancy == 0:
            if self._error is not None:
                raise self._error
            return False
        return True

    def close(self, error: BaseException | None = None) -> None:
        """End production; blocked readers wake and drain what remains.

        ``error`` marks production as failed: a read the remaining
        values cannot fill raises it instead of returning short.
        """
        with self._cond:
            if self._error is None:
                self._error = error
            self._closed = True
            self._cond.notify_all()


def fill_cache(
    cache: VariateCache,
    values,
    coeffs: GaussianSpec,
    *,
    counter: OpCounter | None = None,
    background: bool = False,
    chunk_size: int = 8192,
):
    """Retarget standardized values onto the Gaussian ``coeffs`` into ``cache``.

    ``values`` is the N(0, 1) stream from :func:`compensate`, read as one
    flat float array (in place, so it must not change while a background
    fill runs) ``chunk_size`` values at a time; each chunk goes through
    :func:`apply` and the cache keeps a copy of the result. Before anything
    is produced, ValueError is raised for a ``chunk_size`` below 1 ("chunk_size
    must be >= 1") and for a ``coeffs`` whose mean and sigma are not exactly
    those of ``cache.requested_spec`` ("coefficients deliver ... into a cache
    labeled ...").
    With ``background=True`` production runs on a daemon thread and the
    started thread is returned, which is the producer/consumer arrangement
    the cache exists for; an exception in production is kept on the cache
    and re-raised to its reader. Otherwise the cache is filled inline and
    None is returned; more values than the free room would block forever,
    so they raise ValueError up front.
    Either way the cache is closed when production ends.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    spec = cache.requested_spec
    # the pairs, not the dataclasses: a FitResult label equals its GaussianSpec
    if (coeffs.mean, coeffs.sigma) != (spec.mean, spec.sigma):
        raise ValueError(
            f"coefficients deliver N({coeffs.mean}, {coeffs.sigma}) into a "
            f"cache labeled N({spec.mean}, {spec.sigma})"
        )
    arr = np.asarray(values, dtype=float).ravel()
    room = cache.capacity - cache.occupancy
    if not background and arr.size > room:
        raise ValueError(
            f"inline fill of {arr.size} values into a cache with room for {room}"
        )

    def produce():
        try:
            for i in range(0, arr.size, chunk_size):
                cache.put_many(apply(coeffs, arr[i : i + chunk_size], counter))
        except Exception as exc:
            cache.close(exc)
            if not background:
                raise
        finally:
            cache.close()

    if background:
        worker = threading.Thread(target=produce, name="prva-cache-fill", daemon=True)
        worker.start()
        return worker
    produce()
    return None
