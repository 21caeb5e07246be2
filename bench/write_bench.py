"""Write BENCH_<n>.json: perfbench's figures plus the CLI's wall time and peak RSS.

Run from the root of a checkout:

    python3 bench/write_bench.py

All pipeline timing stays in perfbench: this script runs
``perfbench/run.py`` as a child, untraced and traced, for each workload
BENCHMARK.json lists, plus a traced ``trace-roundtrip`` (trace
store/load throughput), each for the ``run_seconds`` BENCHMARK.json
sets, and keeps the JSON object each run prints as its last line. It
adds what perfbench does not measure:

* wall time and peak RSS of ``prva generate``, of ``prva transform``
  replaying the 10^6-code trace that generate writes and at n = 10^6
  and 10^7, and of ``prva benchmark``, each a fresh child
  whose usage is read with ``os.wait4``, with the checkout directory's
  name beside each peak RSS (glibc's mmap threshold makes it depend on
  the directory), and the ops and draws per variate ``prva benchmark``
  prints per source;
* the Tier-1 suite's wall time and ``import prva`` time;
* the git commit and the machine facts that run.py prints.

The file is BENCH_<n>.json at the root, n one past the highest there.
A full run takes about six minutes at 40 s per perfbench run.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 1
BENCHMARK_N, BENCHMARK_REPETITIONS = 10**5, 10  # `prva benchmark`'s defaults
IMPORT_SAMPLES = 5
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def waited(cmd, root: str, env: dict) -> dict:
    """Run ``cmd`` to completion; its wall time, peak RSS and stdout."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        # wait4 reaps the child itself, so its rusage is this child's alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, message = out.read(), err.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n{message}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "stdout": text}


def perfbench(root: str, env: dict, workload: str, trace: int, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    machine = next(line for line in lines if line.startswith("machine: "))
    return {"workload": workload, "trace": trace, "seed": seed, "seconds": seconds,
            "machine_line": machine[len("machine: "):], **result}


def cli_runs(root: str, env: dict, seed: int) -> list:
    prva = [sys.executable, "-m", "prva.cli"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.txt")
        commands = [
            ("generate", [*prva, "generate", "--n", "1000000", "--out", trace, "--seed", str(seed)]),
            # replays the trace just written: load_trace's memory at 10^6 codes
            ("transform_trace", [*prva, "transform", "--trace", trace, "--target-mean", "5",
                                 "--target-sigma", "2", "--seed", str(seed)]),
            *(
                (f"transform_n{n}", [*prva, "transform", "--n", str(n), "--target-mean", "5",
                                     "--target-sigma", "2", "--seed", str(seed)])
                for n in (10**6, 10**7)
            ),
            ("benchmark", [*prva, "benchmark", "--n", str(BENCHMARK_N),
                           "--repetitions", str(BENCHMARK_REPETITIONS), "--seed", str(seed)]),
        ]
        for name, cmd in commands:
            run = waited(cmd, root, env)
            stdout = run.pop("stdout")
            run.update(name=name, argv=[a.replace(tmp, "$TMP") for a in cmd[3:]],
                       checkout=os.path.basename(root))
            if name == "benchmark":
                run["per_variate"] = benchmark_per_variate(stdout, BENCHMARK_N * BENCHMARK_REPETITIONS)
            runs.append(run)
    return runs


def benchmark_per_variate(stdout: str, variates: int) -> dict:
    """Ops and draws per variate of each source in ``prva benchmark``'s summary."""
    out = {}
    for m in re.finditer(r"^(\S+): mean_error=\S+ ops=(\d+) draws=(\d+)", stdout, re.M):
        out[m.group(1)] = {"ops": int(m.group(2)) / variates, "draws": int(m.group(3)) / variates}
    return out


def import_seconds(root: str, env: dict) -> float:
    code = "import time; t = time.perf_counter(); import prva; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


def tier1(root: str, env: dict) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary}


def git_commit(root: str) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def next_path(root: str) -> str:
    taken = [int(m.group(1)) for p in glob.glob(os.path.join(root, "BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(p)))]
    return os.path.join(root, f"BENCH_{max(taken, default=0) + 1}.json")


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print("write_bench: run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    plan.append(("trace-roundtrip", 1))
    env = child_env(root)
    runs = []
    for workload, trace in plan:
        print(f"perfbench {workload} trace={trace} ...", file=sys.stderr, flush=True)
        runs.append(perfbench(root, env, workload, trace, SEED, spec["run_seconds"]))
    print("prva CLI runs ...", file=sys.stderr, flush=True)
    cli = cli_runs(root, env, SEED)
    print("import and Tier-1 ...", file=sys.stderr, flush=True)
    bench = {
        "commit": git_commit(root),
        "machine": runs[0]["machine_line"],
        "checkout": os.path.basename(root),
        "perfbench": runs,
        "cli": cli,
        "import_prva_s": import_seconds(root, env),
        "tier1": tier1(root, env),
    }
    path = next_path(root)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
