"""Gaussian-to-Gaussian retargeting and the bounded variate cache.

A Gaussian source is carried to any other Gaussian by a single affine
map, so once a code stream has been dequantized its per-variate cost is
exactly one multiply and one add regardless of the target. This module
computes those coefficients, applies them under op accounting, undoes
operating-point drift by standardizing against the calibration grid
(:func:`compensate`), and buffers finished variates in a bounded FIFO
(:class:`VariateCache`) so production and consumption can proceed on
separate threads.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianSpec
from .samplers import OpCounter, SeededStream
from .sensor import CalibrationGrid, SampleTrace, dequantize_with_jitter
from .stats import fit_gaussian


class CacheClosed(Exception):
    """Read from a cache that is closed and fully drained."""


class CoeffsMismatchError(ValueError):
    """Coefficients deliver a different Gaussian than the cache is labeled with."""


@dataclass(frozen=True)
class TransformCoeffs:
    """Affine map y = scale * x + offset between two Gaussians."""

    scale: float
    offset: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and math.isfinite(self.offset)):
            raise ValueError("transform coefficients must be finite")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def make_coeffs(src: GaussianSpec, dst: GaussianSpec) -> TransformCoeffs:
    """Coefficients carrying N(src.mean, src.sigma) onto N(dst.mean, dst.sigma).

    scale = dst.sigma / src.sigma and offset = dst.mean - scale * src.mean,
    so scale * src.mean + offset reproduces dst.mean exactly.
    """
    scale = dst.sigma / src.sigma
    return TransformCoeffs(scale=scale, offset=dst.mean - scale * src.mean)


def apply(coeffs: TransformCoeffs, x, counter: OpCounter | None = None):
    """Evaluate the affine map; charges one multiply and one add per value."""
    arr = np.asarray(x, dtype=float)
    out = np.multiply(arr, coeffs.scale)
    out += coeffs.offset
    if counter is not None:
        n = arr.size
        counter.multiplications += n
        counter.additions += n
    return out if out.ndim else float(out)


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
    charged to its counter. The grid is consulted before any jitter is
    drawn, so an off-grid trace raises GridRangeError with the stream
    untouched.
    """
    if grid is not None:
        src = GaussianSpec(*grid.noise_params(trace.temperature_c, trace.voltage_v))
    values = dequantize_with_jitter(trace, stream)
    if grid is None:
        fit = fit_gaussian(values)
        src = GaussianSpec(fit.mean, fit.sigma)
    coeffs = make_coeffs(src, GaussianSpec(0.0, 1.0))
    return apply(coeffs, values, stream.counter)


class VariateCache:
    """Bounded FIFO of finished variates, one producer and one consumer.

    The cache is labeled with the Gaussian its contents are supposed to
    follow (``requested_spec``); :func:`fill_cache` refuses coefficients
    that would deliver anything else. Writes block while the cache is
    full and reads block while it is empty, so a slow consumer throttles
    the producer instead of growing memory. ``close()`` marks the end of
    production: readers drain what remains and then see CacheClosed, or,
    when production failed (``close(error)``), the producer's exception.

    Values are stored in chunks internally; occupancy and the high-water
    mark are counted in variates.
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
        self._count = 0
        self._closed = False
        self._error: BaseException | None = None
        self._cond = threading.Condition()
        self.high_water = 0
        self.total_produced = 0
        self.total_consumed = 0

    @property
    def occupancy(self) -> int:
        """Variates currently buffered."""
        return self._count

    @property
    def closed(self) -> bool:
        return self._closed

    def put_many(self, values) -> None:
        """Append variates in order, blocking whenever the cache is full."""
        arr = np.asarray(values, dtype=float).ravel()
        offset = 0
        while offset < arr.size:
            with self._cond:
                while self._count >= self.capacity and not self._closed:
                    self._cond.wait()
                if self._closed:
                    raise CacheClosed("cannot put into a closed cache")
                take = min(arr.size - offset, self.capacity - self._count)
                self._chunks.append(arr[offset : offset + take])
                self._count += take
                self.total_produced += take
                self.high_water = max(self.high_water, self._count)
                self._cond.notify_all()
            offset += take

    def get_many(self, count: int) -> np.ndarray:
        """Pop up to ``count`` variates in FIFO order.

        Blocks until ``count`` are available (or production closes, in
        which case whatever remains is returned — possibly fewer — unless
        production failed, which re-raises the producer's exception). A
        closed, fully drained cache raises CacheClosed.
        """
        count = int(count)
        if count < 1:
            raise ValueError("count must be >= 1")
        parts = []
        got = 0
        with self._cond:
            while got < count:
                if not self._wait_for_values():
                    if got == 0:
                        raise CacheClosed("cache is closed and drained")
                    break
                chunk = self._chunks[0]
                avail = chunk.size - self._head
                take = min(avail, count - got)
                parts.append(chunk[self._head : self._head + take])
                self._head += take
                if self._head == chunk.size:
                    self._chunks.popleft()
                    self._head = 0
                self._count -= take
                self.total_consumed += take
                got += take
                self._cond.notify_all()
        return np.concatenate(parts) if len(parts) != 1 else np.array(parts[0])

    def get(self) -> float:
        """Pop one variate: ``float(get_many(1)[0])``, without the arrays.

        The accelerator is read one variate at a time, so this pops the
        float under the lock instead of building and copying a view.
        """
        with self._cond:
            if self._count == 0 and not self._wait_for_values():
                raise CacheClosed("cache is closed and drained")
            chunk = self._chunks[0]
            value = float(chunk[self._head])
            self._head += 1
            if self._head == chunk.size:
                self._chunks.popleft()
                self._head = 0
            self._count -= 1
            self.total_consumed += 1
            self._cond.notify_all()
        return value

    def _wait_for_values(self) -> bool:
        """With the lock held, wait for a variate; False once closed and drained.

        When production failed, its error is raised instead of returning False.
        """
        while self._count == 0 and not self._closed:
            self._cond.wait()
        if self._count == 0:
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
    coeffs: TransformCoeffs,
    *,
    counter: OpCounter | None = None,
    background: bool = False,
    chunk_size: int = 8192,
):
    """Retarget standardized values through ``coeffs`` into ``cache``.

    ``values`` is the N(0, 1) stream from :func:`compensate` (an array,
    or any iterable of arrays). Before anything is produced the
    coefficients are checked against the cache label: coefficients that
    map N(0, 1) to some other Gaussian than ``cache.requested_spec``
    raise CoeffsMismatchError. With ``background=True`` production runs
    on a daemon thread and the started thread is returned, which is the
    producer/consumer arrangement the cache exists for; an exception in
    production is kept on the cache and re-raised to its reader. Otherwise
    the cache is filled inline and None is returned; an array larger than
    the free room would block forever, so it raises ValueError up front.
    Either way the cache is closed when production ends.
    """
    spec = cache.requested_spec
    want = make_coeffs(GaussianSpec(0.0, 1.0), spec)
    if not (
        math.isclose(coeffs.scale, want.scale, rel_tol=1e-9, abs_tol=1e-9)
        and math.isclose(coeffs.offset, want.offset, rel_tol=1e-9, abs_tol=1e-9)
    ):
        delivered_sigma = coeffs.scale
        delivered_mean = coeffs.offset
        raise CoeffsMismatchError(
            f"coefficients deliver N({delivered_mean}, {delivered_sigma}) into a "
            f"cache labeled N({spec.mean}, {spec.sigma})"
        )
    if isinstance(values, np.ndarray):
        arr = values.ravel()
        room = cache.capacity - cache.occupancy
        if not background and arr.size > room:
            raise ValueError(
                f"inline fill of {arr.size} values into a cache with room for {room}"
            )
        pieces = (arr[i : i + chunk_size] for i in range(0, arr.size, chunk_size))
    else:
        pieces = (np.asarray(p, dtype=float).ravel() for p in values)

    def produce():
        try:
            for piece in pieces:
                if piece.size:
                    cache.put_many(apply(coeffs, piece, counter))
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
