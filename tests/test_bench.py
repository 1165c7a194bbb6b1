"""Smoke run of the benchmark: each workload traced end to end, and the
output checker's self-test."""

import json
import os
import subprocess
import sys

import pytest

from conftest import bench_workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def smoke_problem(workload):
    """The one problem of a smoke run, rebuilt by ``bench/workloads.py``."""
    (record,) = bench_workloads().build(workload, 1, smoke=True)
    return record["problem"]


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
    # a hook that silently stops counting shows as a zero or a broken ratio
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    # only literals that reach b_i are solved, once per analysis of the problem
    problem = smoke_problem(workload)
    m, n = problem["m"], problem["n"]
    reaching = sum(
        b - a <= 1e-12
        for a_plus, a_minus, b in zip(problem["a_plus"], problem["a_minus"], problem["b"])
        for a in a_plus + a_minus
    )
    assert value["tnorms.calls"] * m * n == value["system.cells"] * reaching > 0
    assert value["resolution.boxes"] == value["resolution.assignments"] > 0
    assert value["optimize.candidates"] > 0
    assert value["oracle.points"] > 0


def test_checker_selftest():
    proc = run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
