"""Self-test of the output checker.

    python3 bench/selftest.py

Runs ``bfre feasible`` and ``bfre solve`` in-process on one small seeded
problem of each workload, confirms the checker accepts the real reports,
and then confirms it rejects three mutated copies:

* every box containing the witness shrunk so that it no longer does;
* the best value raised;
* one box's factor widened so that its corner leaves the region.

Exits 0 when every real report passes and every mutation is caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import run  # sets up the import paths
import check
import workloads


def shrink_witness_boxes(report: dict, x0) -> dict | None:
    """Cut x0 out of every box that contains it, keeping the rest of the box."""
    out = copy.deepcopy(report)
    gap = 10 * check.TOL_X
    for box in out["boxes"]:
        if not check.in_box(box["factors"], x0):
            continue
        for j, pairs in enumerate(box["factors"]):
            above = [[max(lo, x0[j] + gap), hi] for lo, hi in pairs if hi >= x0[j] + gap]
            below = [[lo, min(hi, x0[j] - gap)] for lo, hi in pairs if lo <= x0[j] - gap]
            if above or below:
                box["factors"][j] = above or below
                break
        else:
            return None
    return out


def raise_best(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["best"]["value"] += 0.5
    return out


def move_corner(report: dict, problem: dict) -> dict | None:
    """Widen one factor of the first box until a corner violates an equation."""
    for j in range(problem["n"]):
        for lo, hi in ((0.0, None), (None, 1.0)):
            out = copy.deepcopy(report)
            pairs = out["boxes"][0]["factors"][j]
            if lo is not None:
                pairs[0][0] = lo
            else:
                pairs[-1][1] = hi
            low = [p[0][0] for p in out["boxes"][0]["factors"]]
            high = [p[-1][1] for p in out["boxes"][0]["factors"]]
            if check.equation_errors(problem, low) or check.equation_errors(problem, high):
                return out
    return None


def main() -> int:
    sys.path.insert(0, run.SRC)
    from bfre import cli

    failures = []
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_selftest_") as tmp:
        for name in workloads.WORKLOADS:
            records = workloads.write_workload(name, seed=0, out=os.path.join(tmp, name), smoke=True)
            record = records[0]
            results = {}
            for command in ("feasible", "solve"):
                code, out = run.invoke(cli, [command, record["path"]])
                report = json.loads(out)
                results[command] = report
                problems = check.CHECKS[command](record, code, report)
                if problems:
                    failures.append(f"{name}: real {command} report rejected: {problems}")
            cases = {
                "box shrunk to exclude x0": (
                    "feasible",
                    shrink_witness_boxes(results["feasible"], record["witness"]),
                ),
                "best value raised": ("solve", raise_best(results["solve"])),
                "corner moved off the region": (
                    "feasible",
                    move_corner(results["feasible"], record["problem"]),
                ),
            }
            for label, (command, mutated) in cases.items():
                if mutated is None:
                    failures.append(f"{name}: could not build the mutation '{label}'")
                    continue
                caught = check.CHECKS[command](record, 0, mutated)
                status = "caught" if caught else "MISSED"
                print(f"{name:15s} {label:28s} {status}: {caught[:1]}")
                if not caught:
                    failures.append(f"{name}: mutation '{label}' was not counted as failed")
    for line in failures:
        print("FAIL", line)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
