"""Benchmark of the prva pipeline, driven from outside in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-stream --seed 1 --seconds 40 --trace 0

One client issues fixed-size jobs back to back (see workloads.py and
NOTES.md). Each run starts fresh interpreters with the checkout's
``src`` on PYTHONPATH: one that sets up, digests the first jobs and
runs the timed loop, with SETUP_SAMPLES - 1 before and after it that
only set up and digest. ``setup_s`` is the median set-up time over all
of them, and every digest must agree. The other timed metrics are
medians over BLOCKS runs of consecutive timed jobs. With ``--trace 1``
the timed loop runs untraced for half the time and traced for the
other half, and the run reports the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it say the same for a reader, with the machine facts.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
# BENCHMARK.json lists synth-stream and mc-compare. trace-roundtrip and
# scalar-drain are bound by Python loops, and their medians follow the
# host's CPU speed too closely to gate on; they run by hand (NOTES.md).
WORKLOADS = ("synth-stream", "trace-roundtrip", "scalar-drain", "mc-compare")
END_TO_END = (
    ("variates_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("first_variate_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# name, unit, better: the "per_layer" list of BENCHMARK.json, taken
# from Tracer.metrics in the traced child plus the three set here.
PER_LAYER = (
    ("samplers.reference_gaussian_sample.ns_per_variate", "ns", "lower"),
    ("samplers.polar.accept_ratio", "ratio", "higher"),
    ("samplers.inversion_sample.ns_per_variate", "ns", "lower"),
    ("sensor.generate_trace.self_ns_per_variate", "ns", "lower"),
    ("sensor.dequantize_with_jitter.ns_per_variate", "ns", "lower"),
    ("sensor.store_trace.ns_per_code", "ns", "lower"),
    ("sensor.load_trace.ns_per_code", "ns", "lower"),
    ("sensor.trace_bytes", "B", "lower"),
    ("transform.compensate.self_ns_per_variate", "ns", "lower"),
    ("transform.apply.ns_per_variate", "ns", "lower"),
    ("transform.apply.ops_per_variate", "count", "lower"),
    ("transform.cache.put_ms", "ms", "lower"),
    ("transform.cache.get_ms", "ms", "lower"),
    ("transform.cache.get_calls", "count", "lower"),
    ("transform.cache.put_calls", "count", "lower"),
    ("transform.cache.high_water", "count", "lower"),
    ("transform.fill_cache.producer_ms", "ms", "lower"),
    ("stats.fit_gaussian.ns_per_value", "ns", "lower"),
    ("stats.histogram.ns_per_value", "ns", "lower"),
    ("stats.kl_divergence.us_per_call", "us", "lower"),
    ("montecarlo.mc_integrate.self_ns_per_variate", "ns", "lower"),
    ("distributions.gaussian_pdf.ns_per_value", "ns", "lower"),
    ("montecarlo.run_benchmark.pool_busy_ratio", "ratio", "higher"),
    ("prva.import_s", "s", "lower"),
    ("prva.import_scipy_special_s", "s", "lower"),
    ("tracing.overhead_variates_per_s", "1/s", "lower"),
)
SETUP_SAMPLES = 9  # fresh interpreters whose set-up time is the median
BLOCKS = 10  # runs of consecutive timed jobs; timed metrics are medians over them
TINY_SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0  # the whole run, children included


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero, timed out or printed no result."""


def cache_sizes() -> dict:
    """Per-level data/unified cache size and instance count, read from sysfs."""
    out = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(index, "shared_cpu_list")) as fh:
                shared = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or not size.endswith("K"):
            continue
        entry = out.setdefault(f"l{level}", {"bytes_per_instance": int(size[:-1]) * 1024, "cpus": set()})
        entry["cpus"].add(shared)
    return {
        k: {"bytes_per_instance": v["bytes_per_instance"], "instances": len(v["cpus"])}
        for k, v in sorted(out.items())
    }


def machine_facts() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        **versions,
    }


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def block_figures(jobs: dict) -> list:
    """The timed figures of each of BLOCKS runs of consecutive timed jobs.

    run.py reports the median of each figure over the blocks, so a
    burst of load from elsewhere on the host that slows one or two
    blocks does not set the run's figure. Failed jobs are left out; a
    run with fewer passing jobs than BLOCKS has one block per job, and
    one with none reports zeros.
    """
    count = len(jobs["latency_ns"])
    if count == 0:
        return [dict.fromkeys(("variates_per_s", "job_ms_p50", "job_ms_p90", "first_variate_ms_p50"), 0.0)]
    parts = min(BLOCKS, count)
    bounds = [count * b // parts for b in range(parts + 1)]
    figures = []
    for lo, hi in zip(bounds, bounds[1:]):
        lat = jobs["latency_ns"][lo:hi]
        figures.append(
            {
                "variates_per_s": sum(jobs["delivered"][lo:hi]) / (sum(lat) / 1e9),
                "job_ms_p50": statistics.median(lat) / 1e6,
                "job_ms_p90": quantile(lat, 0.9) / 1e6,
                "first_variate_ms_p50": statistics.median(jobs["first_ns"][lo:hi]) / 1e6,
            }
        )
    return figures


def seed_arg(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny jobs and two set-up samples, for the harness smoke test; "
        "its figures are not comparable with full runs",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prva", "__init__.py")):
        print(f"perfbench: no src/prva under {root}; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    deadline = time.monotonic() + TIME_LIMIT_S
    tiny = ["--tiny"] if args.tiny else []

    def child(*child_args) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *map(str, child_args), *tiny]
        try:
            proc = subprocess.run(
                cmd,
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{' '.join(cmd[2:])} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(lines[-1])

    samples = TINY_SETUP_SAMPLES if args.tiny else SETUP_SAMPLES
    try:
        # Set-up samples sit on both sides of the timed child, so their
        # median spans the whole run rather than its first seconds.
        before = (samples - 1) // 2
        setups = [child("setup", args.workload, args.seed) for _ in range(before)]
        scipy = [child("scipy") for _ in range(samples)] if args.trace else []
        measured = child("measure", args.workload, args.seed, args.seconds, args.trace)
        setups += [child("setup", args.workload, args.seed) for _ in range(samples - 1 - before)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    children = setups + [measured]

    phases = [c["digest_jobs"] for c in children] + [measured["jobs"]]
    if args.trace:
        phases.append(measured["traced_jobs"])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    digests = {c["digest"] for c in children}
    foreign = [c["prva_file"] for c in children if not c["prva_file"].startswith(src + os.sep)]
    problems = [f for p in phases for f in p["failures"]]
    if len(digests) != 1:
        problems.append(f"digests differ across fresh interpreters: {sorted(digests)}")
    if foreign:
        problems.append(f"prva imported from outside the checkout: {foreign[0]}")
    correct = failed == 0 and not problems

    jobs = measured["jobs"]
    if args.trace:
        traced = measured["traced_jobs"]
        values = dict(measured["layers"])
        values["prva.import_s"] = statistics.median(c["import_s"] for c in children)
        values["prva.import_scipy_special_s"] = statistics.median(s["import_s"] for s in scipy)
        values["tracing.overhead_variates_per_s"] = jobs["variates_per_s"] - traced["variates_per_s"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        blocks = block_figures(jobs)
        values = {name: statistics.median(b[name] for b in blocks) for name in blocks[0]}
        values |= {
            "peak_rss_mb": measured["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(c["setup_s"] for c in children),
        }
        units = dict(END_TO_END)

    facts = machine_facts()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine: nproc={facts['nproc']} python={facts['python']} numpy={facts['numpy']} "
        f"scipy={facts['scipy']} caches={json.dumps(facts['caches'])}"
    )
    print(
        f"jobs: {len(jobs['latency_ns'])} timed, n={measured['job_n']} per job; "
        f"working set {measured['working_set_bytes']} B per float64 array (computed, not measured)"
    )
    print(f"digest: {sorted(digests)[0]} ({len(children)} fresh interpreters agree: {len(digests) == 1})")
    if args.trace:
        print(
            f"tracing overhead: {values['tracing.overhead_variates_per_s']:.6g} 1/s "
            f"(untraced {jobs['variates_per_s']:.6g}, traced {traced['variates_per_s']:.6g}, "
            f"{measured['traced_job_count']} traced jobs)"
        )
    for name, value in values.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<52} {failed / attempted:>16.6g} ({failed} of {attempted} jobs failed)")
    for problem in problems:
        print(f"problem: {problem}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
