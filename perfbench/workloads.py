"""The four benchmark workloads: generated inputs, one job each, output checks.

A job is a fixed amount of work that a closed-loop client issues and
waits for. Its inputs derive from (seed, job index) alone, so the same
seed gives the same inputs and the same delivered variates. ``run``
does the work and is what the benchmark times; ``check`` inspects the
output afterwards and raises JobCheckError when it is wrong.

The library is called through its module attributes
(``sensor.generate_trace``, not a name imported from the module), so
the wrappers that the traced run installs see every call made here.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from prva import distributions, montecarlo, samplers, sensor, stats, transform

TEMPERATURE_C = 10.0
VOLTAGE_V = 2.6
TARGET = distributions.GaussianSpec(5.0, 2.0)
STANDARD = distributions.GaussianSpec(0.0, 1.0)
HIST_BINS = 256
CACHE_CAPACITY = 65_536  # the `prva transform` default
DRAIN_CHUNK = 8192
# Fitted mean and sigma must lie within this many standard errors of the
# target. A correct pipeline exceeds 6 SE with probability ~2e-9 per check.
FIT_SE_LIMIT = 6.0
# Stream keys: job streams are derived from (seed, JOB_KEY, job index),
# set-up inputs from (seed, INPUT_KEY, input index).
JOB_KEY = 0
INPUT_KEY = 1
INPUT_POOL = 4  # distinct pre-generated inputs that jobs cycle through


class JobCheckError(Exception):
    """A job's output failed one of the benchmark's checks."""


@dataclass
class JobOutput:
    """What one job delivered to its consumer."""

    variates: int
    first_ns: int  # perf_counter_ns when the first variate reached the consumer
    payload: object  # delivered variates, or the report text, for the digest
    fit: object = None
    kl: float = float("nan")
    trace: object = None  # trace as loaded back from disk (trace-roundtrip)
    report: object = None  # benchmark report (mc-compare)


def kl_bound(n: int) -> float:
    """Fixed bound on the 256-bin KL of n correct variates.

    2n * KL of a correct sample is close to chi-squared with 255 degrees
    of freedom (mean 255, sd 23), so (bins - 1) / n sits about 11 sd
    above it; 1e-3 more covers the mass that the ADC and the histogram
    pile into their edge bins.
    """
    return (HIST_BINS - 1) / n + 1e-3


def check_variates(out: JobOutput, n: int) -> None:
    """The four checks every pipeline job passes."""
    values = out.payload
    if values.size != n:
        raise JobCheckError(f"consumer received {values.size} of {n} variates")
    if not np.all(np.isfinite(values)):
        raise JobCheckError("delivered variates are not all finite")
    se_mean = TARGET.sigma / math.sqrt(n)
    se_sigma = TARGET.sigma / math.sqrt(2 * n)
    if abs(out.fit.mean - TARGET.mean) > FIT_SE_LIMIT * se_mean:
        raise JobCheckError(f"fitted mean {out.fit.mean!r} is off target {TARGET.mean}")
    if abs(out.fit.sigma - TARGET.sigma) > FIT_SE_LIMIT * se_sigma:
        raise JobCheckError(f"fitted sigma {out.fit.sigma!r} is off target {TARGET.sigma}")
    if not out.kl < kl_bound(n):
        raise JobCheckError(f"256-bin KL {out.kl!r} exceeds {kl_bound(n)!r}")


def score(values):
    """Fit, 256-bin histogram and KL, as `prva transform` reports them."""
    fit = stats.fit_gaussian(values)
    lo, hi = TARGET.mean - 4 * TARGET.sigma, TARGET.mean + 4 * TARGET.sigma
    hist = stats.histogram(values, HIST_BINS, (lo, hi))
    return fit, stats.kl_divergence(hist, TARGET)


class Workload:
    """Shared set-up: the calibration grid, the ADC and the retarget map."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = sensor.default_grid()
        self.adc = sensor.default_adc(self.grid, TEMPERATURE_C, VOLTAGE_V)
        self.coeffs = transform.make_coeffs(STANDARD, TARGET)

    def job_stream(self, i: int) -> samplers.SeededStream:
        return samplers.SeededStream(samplers.derive_seed(self.seed, JOB_KEY, i))

    def input_trace(self, k: int, n: int) -> sensor.SampleTrace:
        stream = samplers.SeededStream(samplers.derive_seed(self.seed, INPUT_KEY, k))
        return sensor.generate_trace(
            stream, self.grid, TEMPERATURE_C, VOLTAGE_V, self.adc, n
        )

    @property
    def working_set_bytes(self) -> int:
        """Computed bytes of one float64 array of a job (n x 8 B), not measured."""
        return self.n * 8

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for out in outputs:
            if isinstance(out.payload, np.ndarray):
                h.update(np.ascontiguousarray(out.payload).tobytes())
            else:
                h.update(str(out.payload).encode())
        return h.hexdigest()[:16]

    def drain(self, values, counter) -> JobOutput:
        """Retarget into a bounded cache on a producer thread; drain 8192 at a time."""
        n = values.size
        cache = transform.VariateCache(CACHE_CAPACITY, TARGET)
        worker = transform.fill_cache(
            cache, values, self.coeffs, counter=counter, background=True
        )
        parts = []
        got = 0
        first_ns = None
        try:
            while got < n:
                part = cache.get_many(min(DRAIN_CHUNK, n - got))
                if first_ns is None:
                    first_ns = time.perf_counter_ns()
                parts.append(part)
                got += part.size
        except transform.CacheClosed:
            pass  # production ended early: the short array fails the check
        except BaseException:
            cache.close()  # unblock the producer before joining it
            raise
        finally:
            worker.join()
        out = np.concatenate(parts) if parts else np.empty(0)
        fit, kl = score(out)
        return JobOutput(
            variates=out.size,
            first_ns=first_ns if first_ns is not None else time.perf_counter_ns(),
            payload=out,
            fit=fit,
            kl=kl,
        )

    def run(self, i: int) -> JobOutput:
        raise NotImplementedError

    def check(self, i: int, out: JobOutput) -> None:
        check_variates(out, self.n)


class SynthStream(Workload):
    """`prva transform` with no file I/O: acquire, compensate, cache, score.

    Polar acquisition is about half of each job and the bounded cache
    really blocks; nothing reaches the consumer until the whole array is
    compensated, which streaming should change.
    """

    name = "synth-stream"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed)
        self.n = 20_000 if tiny else 1_000_000

    def run(self, i):
        stream = self.job_stream(i)
        trace = sensor.generate_trace(
            stream, self.grid, TEMPERATURE_C, VOLTAGE_V, self.adc, self.n
        )
        values = transform.compensate(trace, self.grid, stream=stream)
        return self.drain(values, stream.counter)


class TraceRoundtrip(Workload):
    """`prva generate` then `prva transform --trace`: store, load, compensate, drain.

    Trace I/O is most of each job, with writes beside reads, so a faster
    parser that slows the writer shows. The traces are generated in
    set-up, so a timed job does no acquisition.
    """

    name = "trace-roundtrip"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed)
        self.n = 5_000 if tiny else 100_000
        self.traces = [self.input_trace(k, self.n) for k in range(INPUT_POOL)]
        self.path = os.path.join(workdir, "trace.txt")

    def run(self, i):
        sensor.store_trace(self.traces[i % INPUT_POOL], self.path)
        trace = sensor.load_trace(self.path)
        stream = self.job_stream(i)
        values = transform.compensate(trace, self.grid, stream=stream)
        out = self.drain(values, stream.counter)
        out.trace = trace
        return out

    def check(self, i, out):
        stored = self.traces[i % INPUT_POOL]
        loaded = out.trace
        if not (
            np.array_equal(loaded.codes, stored.codes)
            and loaded.adc == stored.adc
            and loaded.temperature_c == stored.temperature_c
            and loaded.voltage_v == stored.voltage_v
        ):
            raise JobCheckError("trace read back differs from the trace stored")
        check_variates(out, self.n)


SCALAR_CAPACITY = 256
SCALAR_CHUNK = 32


class ScalarDrain(Workload):
    """A producer fills a small cache in small chunks; the consumer calls get().

    The cache is a few percent of every other workload. Here lock
    handoff and blocking on both sides are nearly all the work.
    """

    name = "scalar-drain"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed)
        self.n = 2_000 if tiny else 20_000
        self.inputs = []
        for k in range(INPUT_POOL):
            stream = samplers.SeededStream(
                samplers.derive_seed(self.seed, INPUT_KEY, INPUT_POOL + k)
            )
            trace = self.input_trace(k, self.n)
            self.inputs.append(transform.compensate(trace, self.grid, stream=stream))

    def run(self, i):
        values = self.inputs[i % INPUT_POOL]
        cache = transform.VariateCache(SCALAR_CAPACITY, TARGET)
        worker = transform.fill_cache(
            cache,
            values,
            self.coeffs,
            counter=samplers.OpCounter(),
            background=True,
            chunk_size=SCALAR_CHUNK,
        )
        out = np.empty(self.n)
        got = 0
        first_ns = None
        try:
            out[0] = cache.get()
            first_ns = time.perf_counter_ns()
            for got in range(1, self.n):
                out[got] = cache.get()
            got = self.n
        except transform.CacheClosed:
            pass  # production ended early: the short array fails the check
        except BaseException:
            cache.close()
            raise
        finally:
            worker.join()
        out = out[:got]
        fit, kl = score(out)
        return JobOutput(
            variates=out.size,
            first_ns=first_ns if first_ns is not None else time.perf_counter_ns(),
            payload=out,
            fit=fit,
            kl=kl,
        )


MC_SOURCES = ("uniform:3", "uniform:1000", "gaussian", "prva")
MC_THREADS = 2
# Fixed bounds on each source's mean |1 - area|. uniform:3 misses the
# 2.6998e-3 of Gaussian mass beyond 3 sigma, so its error sits in a
# window around that; the others cover the mass and stay far below 1e-3.
MC_ERROR_BOUNDS = {
    "uniform:3": (2.5e-3, 2.9e-3),
    "uniform:1000": (0.0, 1e-3),
    "gaussian": (0.0, 1e-3),
    "prva": (0.0, 1e-3),
}


class McCompare(Workload):
    """One `prva benchmark` comparison per job, on a two-thread pool.

    The paper's comparison: Monte Carlo integration, inversion sampling
    and the thread pool do most of the work here and none elsewhere.
    """

    name = "mc-compare"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed)
        self.n = 100_000
        self.repetitions = 1 if tiny else 4

    def run(self, i):
        report = montecarlo.run_benchmark(
            MC_SOURCES,
            STANDARD,
            self.n,
            self.repetitions,
            threads=MC_THREADS,
            seed=samplers.derive_seed(self.seed, JOB_KEY, i),
            grid=self.grid,
            adc=self.adc,
            temperature=TEMPERATURE_C,
            voltage=VOLTAGE_V,
        )
        # The client's first output is the whole report.
        return JobOutput(
            variates=sum(s.n * s.repetitions for s in report.sources),
            first_ns=time.perf_counter_ns(),
            payload="\n".join(report.summary_lines()),
            report=report,
        )

    def check(self, i, out):
        report = out.report
        if [s.source for s in report.sources] != list(MC_SOURCES):
            raise JobCheckError("report does not list the requested sources")
        for s in report.sources:
            lo, hi = MC_ERROR_BOUNDS[s.source]
            if not lo <= s.mean_error <= hi:
                raise JobCheckError(
                    f"{s.source}: mean_error {s.mean_error!r} outside [{lo}, {hi}]"
                )
            if s.n != self.n or s.repetitions != self.repetitions:
                raise JobCheckError(f"{s.source}: wrong n or repetitions in report")


WORKLOADS = {
    w.name: w for w in (SynthStream, TraceRoundtrip, ScalarDrain, McCompare)
}
