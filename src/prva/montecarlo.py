"""Monte Carlo integration benchmark over interchangeable variate sources.

The workload integrates a Gaussian density by the trapezoid rule over a
sorted sample of the integrand's own domain: with samples that actually
cover the mass, the area estimate approaches 1 and |1 - area| is the
figure of merit. Because the integrand is cheap, the benchmark isolates
the cost and quality of the variate source itself — a uniform inverter,
the polar Gaussian baseline, or the full sensor pipeline (simulated
acquisition, drift compensation, retargeting, cache drain).

Sources are named by compact strings: ``uniform:<k>`` integrates over
mean +/- k sigma, ``gaussian`` uses the polar baseline matched to the
target, ``prva`` runs the synthetic sensor pipeline, and
``prva:<path>`` replays a captured trace file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import lru_cache, partial

import numpy as np

from .distributions import GaussianSpec, UniformSpec, gaussian_pdf
from .samplers import (
    OpCounter,
    SeededStream,
    derive_seed,
    inversion_sample,
    merge_counters,
    reference_gaussian_sample,
)
from .sensor import (
    AdcModel,
    CalibrationGrid,
    GridRangeError,
    default_adc,
    default_grid,
    generate_trace,
    load_trace,
)
from .stats import confidence_interval_90
from .transform import VariateCache, compensate, fill_cache


class UnknownSourceError(ValueError):
    """Raised for a source string naming no known generator."""


@dataclass(frozen=True)
class IntegrationResult:
    """One integration run: trapezoid area and its error, |1 - area|."""

    area: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("integration needs at least 2 samples")

    @property
    def error(self) -> float:
        return abs(1.0 - self.area)


def mc_integrate(samples, target: GaussianSpec) -> IntegrationResult:
    """Trapezoid-rule integral of the target density over sorted samples.

    The samples are sorted, the density is evaluated at each, and
    adjacent pairs contribute (x[i] - x[i-1]) * (f[i] + f[i-1]) / 2.
    The result's ``error`` is exactly |1 - area|; density mass outside
    [min(samples), max(samples)] is invisible to the rule and shows up
    as error. A NaN or infinite sample, a span wider than float64 can
    represent, or an area that overflows (a target sigma far narrower
    than the span) raises ValueError.

    Only the sorted copy and the density are allocated. The differences
    overwrite the sorted copy and the pairwise sums the density, each
    from the front, so every slot is read before it is written; the
    product is then summed over the same contiguous n - 1 values as the
    expression above, in the same pairwise order.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"integration needs at least 2 samples, got {x.size}")
    x = np.sort(x)
    lo, hi = float(x[0]), float(x[-1])
    # sorted, so -inf is first and +inf, then NaN, last
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration samples must be finite")
    # every trapezoid width is at most the span, so one check covers them all
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"integration samples span [{lo!r}, {hi!r}], wider than a float64 holds"
        )
    f = gaussian_pdf(x, target)
    width = np.subtract(x[1:], x[:-1], out=x[:-1])
    # a density peak of 1/(sigma sqrt(2 pi)) times a wide span can
    # overflow, and a peak that is itself inf times a zero width between
    # repeated samples is NaN; the check below reports either in place of
    # a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        width *= np.add(f[1:], f[:-1], out=f[:-1])
        area = float(np.sum(width) * 0.5)
    if not math.isfinite(area):
        raise ValueError(
            f"integration of a target with sigma {target.sigma!r} over samples "
            f"spanning [{lo!r}, {hi!r}] overflows a float64"
        )
    return IntegrationResult(area=area, n=int(x.size))


@dataclass(frozen=True)
class SourceConfig:
    """Parsed form of a source string."""

    label: str
    kind: str  # "uniform" | "gaussian" | "prva"
    half_width_sigmas: float | None = None
    trace_path: str | None = None


def parse_source(text: str) -> SourceConfig:
    """Parse ``uniform:<k>`` / ``gaussian`` / ``prva`` / ``prva:<path>``."""
    label = text.strip()
    kind, sep, arg = label.partition(":")
    if kind == "uniform":
        if not sep or not arg:
            raise UnknownSourceError(
                f"source {label!r}: uniform needs a half-width multiple, e.g. uniform:10"
            )
        try:
            k = float(arg)
        except ValueError:
            raise UnknownSourceError(
                f"source {label!r}: half-width multiple {arg!r} is not a number"
            ) from None
        if not (math.isfinite(k) and k > 0):
            raise UnknownSourceError(
                f"source {label!r}: half-width multiple must be positive"
            )
        return SourceConfig(label=label, kind="uniform", half_width_sigmas=k)
    if kind == "gaussian":
        if sep:
            raise UnknownSourceError(f"source {label!r}: gaussian takes no argument")
        return SourceConfig(label=label, kind="gaussian")
    if kind == "prva":
        if sep and not arg:
            raise UnknownSourceError(
                f"source {label!r}: replay needs a trace path, e.g. prva:trace.txt"
            )
        return SourceConfig(label=label, kind="prva", trace_path=arg if sep else None)
    raise UnknownSourceError(f"unknown source {label!r}")


@dataclass(frozen=True)
class SourceResult:
    """Benchmark aggregate for one source across all repetitions."""

    source: str
    kind: str
    n: int
    repetitions: int
    mean_error: float
    error_ci90: tuple | None
    mean_time_s: float
    time_ci90: tuple | None
    ops: OpCounter


_CSV_COLUMNS = (
    "source",
    "kind",
    "n",
    "repetitions",
    "mean_error",
    "error_ci_lo",
    "error_ci_hi",
    "mean_time_s",
    "time_ci_lo",
    "time_ci_hi",
    *(f.name for f in fields(OpCounter)),
)


@dataclass(frozen=True)
class BenchmarkReport:
    """Full benchmark output: configuration plus per-source aggregates.

    Error and operation-count fields are bit-reproducible for a given
    configuration (same seed, sources, n, repetitions — on any thread
    count); the *_time_s fields are wall-clock measurements and vary
    from host to host and run to run.
    """

    target: GaussianSpec
    n: int
    repetitions: int
    threads: int
    seed: int
    sources: tuple

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            # csv writes a float as its repr and None as an empty cell
            for s in self.sources:
                writer.writerow(
                    [
                        s.source,
                        s.kind,
                        s.n,
                        s.repetitions,
                        s.mean_error,
                        *(s.error_ci90 or (None, None)),
                        s.mean_time_s,
                        *(s.time_ci90 or (None, None)),
                        *astuple(s.ops),
                    ]
                )

    def summary_lines(self) -> list:
        """Per-source text with deterministic fields only (no wall clock)."""
        lines = []
        for s in self.sources:
            lines.append(
                f"{s.source}: mean_error={s.mean_error!r} "
                f"ops={s.ops.total_ops} draws={s.ops.uniform_draws} "
                f"rejections={s.ops.rejections}"
            )
        return lines


@lru_cache(maxsize=1)
def _pool(executor, threads: int):
    """The process's long-lived pool of ``threads`` workers of ``executor``.

    Reusing the workers across calls keeps their malloc arenas warm, where
    a fresh pool per call faults the arenas' pages in again on every call.
    Only a process that calls ``run_benchmark`` more than once gains. A
    call with another thread count or executor replaces the one kept pool,
    and the replaced pool's idle workers exit.
    """
    return executor(max_workers=threads)


# a forked child inherits the pool but not its threads: work submitted
# there would queue forever, so the child starts without cached pools
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def run_benchmark(
    sources,
    target: GaussianSpec,
    n: int,
    repetitions: int,
    *,
    threads: int = 1,
    seed: int = 0,
    grid: CalibrationGrid | None = None,
    adc: AdcModel | None = None,
    temperature: float = 10.0,
    voltage: float = 2.6,
) -> BenchmarkReport:
    """Benchmark every source on the same integration workload.

    Each (source, repetition) job runs on its own stream seeded from
    (seed, source index, repetition index), so the numbers a job
    produces are independent of scheduling; jobs are distributed over
    ``threads`` worker threads and reduced in repetition order, which
    keeps every non-timing field of the report identical across thread
    counts. The workers are long-lived: consecutive calls with the same
    thread count share one pool, which the next call with another count
    replaces, and a forked child starts a pool of its own.
    Per-source operation counters are merged over repetitions. A job's
    wall time is one clock window from the draw of its n samples
    to their integral; a ``prva`` job fills its cache before the window
    opens, so its draw is the cache drain. A ``prva:<path>`` job replays
    only the trace's first n codes, so it is charged for what it delivers.
    """
    if n < 2:
        raise ValueError("benchmark needs n >= 2")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    configs = [parse_source(s) for s in sources]
    if not configs:
        raise ValueError("no sources given")
    grid = grid if grid is not None else default_grid()
    adc = adc if adc is not None else default_adc(grid, temperature, voltage)
    replays = {}
    for cfg in configs:
        if cfg.kind == "prva" and cfg.trace_path is not None:
            trace = load_trace(cfg.trace_path)
            if len(trace) < n:
                raise ValueError(
                    f"trace {cfg.trace_path!r} holds {len(trace)} codes; "
                    f"benchmark needs {n}"
                )
            replays[cfg.label] = replace(trace, codes=trace.codes[:n])

    def job(si: int, ri: int):
        cfg = configs[si]
        counter = OpCounter()
        stream = SeededStream(derive_seed(seed, si, ri), counter)
        if cfg.kind == "uniform":
            half = cfg.half_width_sigmas * target.sigma
            spec = UniformSpec(target.mean - half, target.mean + half)
            draw = partial(inversion_sample, stream, spec, n)
        elif cfg.kind == "gaussian":
            draw = partial(reference_gaussian_sample, stream, target, n)
        else:
            # untimed: the pipeline fills the FIFO before the clock starts
            trace = replays.get(cfg.label)
            if trace is None:
                trace = generate_trace(stream, grid, temperature, voltage, adc, n)
            try:
                values = compensate(trace, grid, stream=stream)
            except GridRangeError:
                values = compensate(trace, None, stream=stream)
            cache = VariateCache(n, target)
            fill_cache(cache, values, target, counter=counter)
            # the cache holds the retargeted copy. Freed before the drain, the
            # inputs' memory is reused by its buffers, so the worker's malloc
            # arena stays below the trim threshold and is not faulted in anew
            del trace, values
            draw = partial(cache.get_many, n)
        t0 = time.perf_counter()
        result = mc_integrate(draw(), target)
        elapsed = time.perf_counter() - t0
        return result, elapsed, counter

    # looked up at call time, so a substituted executor class gets its own pool
    pool = _pool(ThreadPoolExecutor, threads)
    futures = {
        (si, ri): pool.submit(job, si, ri)
        for si in range(len(configs))
        for ri in range(repetitions)
    }
    # a raising job surfaces only after every job of the call has finished
    wait(futures.values())

    aggregates = []
    for si, cfg in enumerate(configs):
        reps = [futures[(si, ri)].result() for ri in range(repetitions)]
        errors = np.array([r.error for r, _, _ in reps])
        times = np.array([t for _, t, _ in reps])
        ops = merge_counters(c for _, _, c in reps)
        aggregates.append(
            SourceResult(
                source=cfg.label,
                kind=cfg.kind,
                n=n,
                repetitions=repetitions,
                mean_error=float(errors.mean()),
                error_ci90=confidence_interval_90(errors) if repetitions > 1 else None,
                mean_time_s=float(times.mean()),
                time_ci90=confidence_interval_90(times) if repetitions > 1 else None,
                ops=ops,
            )
        )
    return BenchmarkReport(
        target=target,
        n=n,
        repetitions=repetitions,
        threads=threads,
        seed=seed,
        sources=tuple(aggregates),
    )
