"""Smoke test of the benchmark harness: every workload at tiny n.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

It checks the harness, not the library's speed: each workload runs
with --tiny, and every metric BENCHMARK.json names must come out, with
its unit, from a run in which no job failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def invoke(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert "error_rate" in proc.stdout
    return result


def test_lists_match_benchmark_json():
    s = spec()
    assert {w["name"] for w in s["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(invoke(workload, 0))
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(invoke(workload, 1))
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # the paper's retarget cost: one multiply and one add per variate
    assert result["metrics"]["transform.apply.ops_per_variate"]["value"] == 2


def test_refuses_to_run_without_the_library():
    proc = invoke("synth-stream", 0, cwd=HERE)  # no src/prva below it
    assert proc.returncode != 0
    assert proc.stdout == ""
