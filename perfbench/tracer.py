"""Span tracer for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` rebinds the library's public functions in the
namespace of every module that looks them up (``prva.sensor.generate_trace``
and ``prva.montecarlo.generate_trace`` are separate bindings), the cache
methods on ``VariateCache``, the thread that ``fill_cache`` starts and
the thread pool of ``run_benchmark``. Nothing under ``prva`` is edited;
``uninstall`` puts every original back.

Each call records a span: name, id, parent id, thread, start and end in
ns, the work it did (variates, codes or values) and, where the call
charges an ``OpCounter``, the counts it charged. Spans are kept in
memory for one job and folded into per-layer totals when the job ends,
so memory stays flat over a long run. A span's self time is its
duration minus that of its children on the same thread. Calls that
nest under a span of the same name (``get`` calling ``get_many``) are
counted once, as the outer call.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from prva import montecarlo, sensor, stats, transform


def _size(args, kwargs, result):
    return int(np.size(result))


def _length(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


def _no_work(args, kwargs, result):
    return 0


def _stream_counter(args, kwargs):
    return args[0].counter


def _apply_counter(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("counter")


def _trace_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, work, counter, extra). ``work`` maps a
# call to the units it processed; ``counter`` finds the OpCounter it
# charges, whose difference across the call is recorded; ``extra`` adds
# counts read after the call.
_WRAPS = (
    (sensor, "reference_gaussian_sample", "samplers.reference_gaussian_sample", _size, _stream_counter, None),
    (montecarlo, "reference_gaussian_sample", "samplers.reference_gaussian_sample", _size, _stream_counter, None),
    (montecarlo, "inversion_sample", "samplers.inversion_sample", _size, None, None),
    (sensor, "generate_trace", "sensor.generate_trace", _length, None, None),
    (montecarlo, "generate_trace", "sensor.generate_trace", _length, None, None),
    (transform, "dequantize_with_jitter", "sensor.dequantize_with_jitter", _size, None, None),
    (sensor, "store_trace", "sensor.store_trace", lambda a, k, r: len(a[0]), None, _trace_bytes),
    (sensor, "load_trace", "sensor.load_trace", _length, None, None),
    (transform, "compensate", "transform.compensate", _size, None, None),
    (montecarlo, "compensate", "transform.compensate", _size, None, None),
    (transform, "apply", "transform.apply", _size, _apply_counter, None),
    (transform, "fill_cache", "transform.fill_cache", _no_work, None, None),
    (montecarlo, "fill_cache", "transform.fill_cache", _no_work, None, None),
    (stats, "fit_gaussian", "stats.fit_gaussian", lambda a, k, r: r.n, None, None),
    (stats, "histogram", "stats.histogram", lambda a, k, r: r.total, None, None),
    (stats, "kl_divergence", "stats.kl_divergence", _one, None, None),
    (montecarlo, "mc_integrate", "montecarlo.mc_integrate", lambda a, k, r: r.n, None, None),
    (montecarlo, "gaussian_pdf", "distributions.gaussian_pdf", _size, None, None),
    (montecarlo, "run_benchmark", "montecarlo.run_benchmark", lambda a, k, r: r.threads, None, None),
    (transform.VariateCache, "put_many", "transform.cache.put", lambda a, k, r: int(np.size(a[1])), None, None),
    (transform.VariateCache, "get_many", "transform.cache.get", _size, None, None),
    (transform.VariateCache, "get", "transform.cache.get", _one, None, None),
    (transform.VariateCache, "close", "transform.cache.close", lambda a, k, r: a[0].high_water, None, None),
)

PRODUCER = "transform.fill_cache.producer"
POOL_JOB = "montecarlo.run_benchmark.job"


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    thread: int
    start: int
    end: int
    work: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Totals:
    """One layer's outer calls: how many, their time, self time and work."""

    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    work: int = 0
    work_max: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.ns += other.ns
        self.self_ns += other.self_ns
        self.work += other.work
        self.work_max = max(self.work_max, other.work_max)
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


class Tracer:
    """Spans of the current job, and per-layer totals of the jobs so far."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, Totals] = {}
        self.first_job: dict[str, Totals] | None = None
        self.jobs = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, work, counter=None, extra=None, parent=None):
        """``fn`` recording a span per call; ``parent`` is used on a fresh thread."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            span_parent = stack[-1] if stack else parent
            ops = counter(args, kwargs) if counter is not None else None
            before = ops.copy() if ops is not None else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            span = Span(name, sid, span_parent, threading.get_ident(), start, end)
            span.work = work(args, kwargs, result)
            if before is not None:
                span.counts = (ops - before).as_dict()
            if extra is not None:
                span.counts.update(extra(args, kwargs, result))
            tracer.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, work, counter, extra in _WRAPS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work, counter, extra))
        tracer = self

        class TracedThread(threading.Thread):
            def __init__(self, *args, target=None, **kwargs):
                target = tracer.wrap(PRODUCER, target, _no_work, parent=tracer.current())
                super().__init__(*args, target=target, **kwargs)

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                fn = tracer.wrap(POOL_JOB, fn, _no_work, parent=tracer.current())
                return super().submit(fn, *args, **kwargs)

        proxy = types.SimpleNamespace(
            **{k: getattr(threading, k) for k in dir(threading) if not k.startswith("__")}
        )
        proxy.Thread = TracedThread
        for owner, attr, value in (
            (transform, "threading", proxy),
            (montecarlo, "ThreadPoolExecutor", TracedPool),
        ):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_job(self) -> None:
        """Fold the finished job's spans into the per-layer totals."""
        spans, self.spans = self.spans, []
        by_id = {s.sid: s for s in spans}
        child_ns: dict[int, int] = {}
        for s in spans:
            p = by_id.get(s.parent)
            if p is not None and p.thread == s.thread:
                child_ns[p.sid] = child_ns.get(p.sid, 0) + (s.end - s.start)
        job: dict[str, Totals] = {}
        for s in spans:
            p = by_id.get(s.parent)
            if p is not None and p.name == s.name:
                continue  # nested call of the same layer: counted as the outer one
            dur = s.end - s.start
            t = Totals(1, dur, dur - child_ns.get(s.sid, 0), s.work, s.work, dict(s.counts))
            job.setdefault(s.name, Totals()).add(t)
        if self.first_job is None:
            self.first_job = job
        for name, t in job.items():
            self.totals.setdefault(name, Totals()).add(t)
        self.jobs += 1

    def metrics(self) -> dict:
        """Per-layer metrics of the traced jobs; 0 where a layer was not called.

        Times are over every traced job. Counts (accept ratio, ops per
        variate, call counts, trace bytes) come from the first traced
        job, whose inputs depend on the seed alone, so they repeat
        exactly for a seed.
        """
        first = self.first_job or {}
        jobs = max(self.jobs, 1)

        def t(name, table=self.totals) -> Totals:
            return table.get(name, Totals())

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        def per_unit(name) -> float:  # ns per variate, code or value
            return ratio(t(name).ns, t(name).work)

        def self_per_unit(name) -> float:
            return ratio(t(name).self_ns, t(name).work)

        def ms_per_job(name) -> float:
            return t(name).ns / jobs / 1e6

        polar = t("samplers.reference_gaussian_sample", first).counts
        applied = t("transform.apply", first)
        store = t("sensor.store_trace", first)
        rb = t("montecarlo.run_benchmark")
        return {
            "samplers.reference_gaussian_sample.ns_per_variate": per_unit("samplers.reference_gaussian_sample"),
            "samplers.polar.accept_ratio": ratio(
                polar.get("comparisons", 0) - polar.get("rejections", 0), polar.get("comparisons", 0)
            ),
            "samplers.inversion_sample.ns_per_variate": per_unit("samplers.inversion_sample"),
            "sensor.generate_trace.self_ns_per_variate": self_per_unit("sensor.generate_trace"),
            "sensor.dequantize_with_jitter.ns_per_variate": per_unit("sensor.dequantize_with_jitter"),
            "sensor.store_trace.ns_per_code": per_unit("sensor.store_trace"),
            "sensor.load_trace.ns_per_code": per_unit("sensor.load_trace"),
            "sensor.trace_bytes": ratio(store.counts.get("bytes", 0), store.calls),
            "transform.compensate.self_ns_per_variate": self_per_unit("transform.compensate"),
            "transform.apply.ns_per_variate": per_unit("transform.apply"),
            "transform.apply.ops_per_variate": ratio(
                applied.counts.get("multiplications", 0) + applied.counts.get("additions", 0), applied.work
            ),
            "transform.cache.put_ms": ms_per_job("transform.cache.put"),
            "transform.cache.get_ms": ms_per_job("transform.cache.get"),
            "transform.cache.get_calls": t("transform.cache.get", first).calls,
            "transform.cache.put_calls": t("transform.cache.put", first).calls,
            "transform.cache.high_water": t("transform.cache.close").work_max,
            "transform.fill_cache.producer_ms": ms_per_job(PRODUCER),
            "stats.fit_gaussian.ns_per_value": per_unit("stats.fit_gaussian"),
            "stats.histogram.ns_per_value": per_unit("stats.histogram"),
            "stats.kl_divergence.us_per_call": ratio(t("stats.kl_divergence").ns, t("stats.kl_divergence").calls) / 1e3,
            "montecarlo.mc_integrate.self_ns_per_variate": self_per_unit("montecarlo.mc_integrate"),
            "distributions.gaussian_pdf.ns_per_value": per_unit("distributions.gaussian_pdf"),
            # busy share of the pool: job spans / (run_benchmark wall x threads)
            "montecarlo.run_benchmark.pool_busy_ratio": ratio(t(POOL_JOB).ns, rb.ns * ratio(rb.work, rb.calls)),
        }
