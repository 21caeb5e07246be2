"""One fresh interpreter of a benchmark run; prints one JSON line.

    child.py setup   WORKLOAD SEED [--tiny]   time set-up, digest the first jobs
    child.py measure WORKLOAD SEED SECONDS TRACE [--tiny]
                                              set-up, digest, then the timed loop
    child.py scipy                            time `import scipy.special` alone

Only the standard library is imported before the set-up clock starts,
so ``setup_s`` covers the whole of ``import prva`` (numpy and scipy
included), the grid and ADC, and the workload's generated inputs. Run
with the checkout's ``src`` on PYTHONPATH; run.py does that.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

DIGEST_JOBS = 2  # untimed jobs run first; their output is digested and checked


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def set_up(name: str, seed: int, tiny: bool, workdir: str):
    t0 = time.perf_counter()
    import prva

    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, tiny, workdir)
    t2 = time.perf_counter()
    return wl, {"prva_file": prva.__file__, "import_s": t1 - t0, "setup_s": t2 - t0}


def run_jobs(wl, seconds: float, tracer=None) -> dict:
    """Closed loop: issue job i + 1 only once job i has returned.

    A job that raises or fails its check counts as failed and the loop
    goes on. Latency and first-variate times are kept for jobs that
    passed. Every phase starts at job 0, so a phase's first job has the
    same inputs on every run with this seed.
    """
    latency, first, delivered, failures = [], [], [], []
    variates = busy = attempted = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(i)
            t1 = time.perf_counter_ns()
            wl.check(i, out)
        except Exception as exc:  # a failed job is counted, the run goes on
            failures.append(f"job {i}: {type(exc).__name__}: {exc}")
        else:
            latency.append(t1 - t0)
            first.append(out.first_ns - t0)
            delivered.append(out.variates)
            variates += out.variates
            busy += t1 - t0
        if tracer is not None:
            tracer.end_job()
        i += 1
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "latency_ns": latency,
        "first_ns": first,
        "delivered": delivered,
        "variates": variates,
        "busy_ns": busy,
        "variates_per_s": variates / (busy / 1e9) if busy else 0.0,
    }


def digest_jobs(wl) -> tuple[str, dict]:
    outputs, failures = [], []
    for i in range(DIGEST_JOBS):
        try:
            out = wl.run(i)
            wl.check(i, out)
        except Exception as exc:  # a failed job is counted, the run goes on
            failures.append(f"digest job {i}: {type(exc).__name__}: {exc}")
        else:
            outputs.append(out)
    jobs = {"attempted": DIGEST_JOBS, "failed": len(failures), "failures": failures}
    return wl.digest(outputs), jobs


def main(argv) -> int:
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    mode = argv[0]
    if mode == "scipy":
        import numpy  # noqa: F401  (scipy's share excludes numpy, which prva imports first)

        t0 = time.perf_counter()
        import scipy.special  # noqa: F401

        emit({"import_s": time.perf_counter() - t0})
        return 0
    name, seed = argv[1], int(argv[2])
    workroot = os.path.join(os.getcwd(), ".perfbench_work")
    workdir = os.path.join(workroot, str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl, result = set_up(name, seed, tiny, workdir)
        result["digest"], result["digest_jobs"] = digest_jobs(wl)
        if mode == "measure":
            seconds, trace = float(argv[3]), argv[4] == "1"
            if not trace:
                result["jobs"] = run_jobs(wl, seconds)
            else:
                import tracer as tracing

                result["jobs"] = run_jobs(wl, seconds / 2)
                tr = tracing.Tracer()
                tr.install()
                try:
                    result["traced_jobs"] = run_jobs(wl, seconds / 2, tr)
                finally:
                    tr.uninstall()
                result["layers"] = tr.metrics()
                result["traced_job_count"] = tr.jobs
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["job_n"] = wl.n
            result["working_set_bytes"] = wl.working_set_bytes
        emit(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass  # another child still has its directory there
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
