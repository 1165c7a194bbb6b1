"""Smoke run of the benchmark: each workload traced end to end, the
tracer's box hooks on a library read of the boxes, and the output
checker's self-test."""

import json
import os
import subprocess
import sys

import pytest

from bfre.cli import problem_from_dict
from bfre.resolution import feasible_region
from conftest import bench_module, bench_workloads

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
    # feasible and solve write their boxes straight off the search DAG, so
    # the CLI lists no box; test_tracer_counts_listed_boxes keeps both hooks
    # checked
    assert value["resolution.boxes"] == value["resolution.assignments"] == 0
    assert value["optimize.candidates"] > 0
    assert value["oracle.points"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tracer_counts_listed_boxes(workload):
    # A library caller that reads region.boxes goes through
    # enumerate_admissible and solution_box, whose hooks count every box.
    system, _ = problem_from_dict(smoke_problem(workload))
    tracer = bench_module("layers").Tracer()
    tracer.install()
    try:
        region = feasible_region(system)
        listed = region.boxes
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert counts["resolution.boxes"] == counts["resolution.assignments"] == len(listed)
    assert len(listed) == region.dag.count > 0


def test_checker_selftest():
    proc = run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
