"""Smoke run of the benchmark: each workload traced end to end, and the
output checker's self-test."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_smoke_run(workload):
    proc = run(
        "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
        "--smoke", "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing


def test_checker_selftest():
    proc = run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
