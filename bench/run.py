"""Benchmark runner: seeded workloads through ``bfre feasible``, ``solve``
and ``verify``, run in-process and checked by an independent checker.

    python3 bench/run.py --workload catalog-small --seed 1 --seconds 30 --trace 0

Set-up (a fresh interpreter importing ``bfre.cli``, then generating and
writing the problem files) is repeated and its median reported as
``setup_s``.  Then whole rounds run until ``--seconds`` have passed; a round
runs every command on every problem file.  The first round is a warm-up and
is left out of the medians.  The garbage collector is settled before every
command, outside the timed region, because a real ``bfre`` call starts with
a fresh process and should not pay for the previous call's garbage.  Every
time is scaled to a reference machine speed (see ``calibration``).  After
the timed rounds, one more untimed round parses and checks every output and
confirms it is byte-identical to what the timed rounds printed.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the same rounds run under the per-layer tracer and the last
line carries the per-layer metrics.  The line before it gives, per command,
the operations attempted and failed, and the raw wall time of every pass.
``--smoke`` runs one tiny problem of the workload for two rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5

#: Where problem files go, inside the checkout.
WORK = os.path.join(ROOT, ".bench_work")

#: Time `calibration()` takes at the reference speed.  Reported times are
#: wall times scaled to this speed (see `calibration`).
CALIBRATION_REF_S = 0.0003


def calibration() -> float:
    """Time of a fixed pure-Python integer loop: the median of three runs.

    On a shared 2-vCPU virtual machine the speed of Python code drifts in
    phases of seconds to minutes: a fixed loop ran in 0.12 s in some phases
    and 0.17 s in others, and a whole 30-second run can fall into a slow
    phase.  Every timed command is bracketed by this loop, and its wall time
    is scaled by CALIBRATION_REF_S / (mean of the two loop times).  That
    cancels the phase and keeps any change in the program's own speed.  The
    loop allocates no containers, so the state a command leaves the memory
    allocator in does not change its speed, and the median of three runs
    ignores a single preemption.
    """
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(5000):
            total += i * i % 7
        runs.append(time.perf_counter() - start)
    return sorted(runs)[1]


def scaled(elapsed: float, before: float, after: float) -> float:
    return elapsed * CALIBRATION_REF_S / (0.5 * (before + after))


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Run one ``bfre`` command in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="bfre")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash is a failed operation; keep the run going
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue()


def measure_setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Set-up times over SETUP_REPEATS (wall, scaled) and the last records."""
    env = dict(os.environ, PYTHONPATH=SRC)
    wall, times = [], []
    records = None
    for k in range(SETUP_REPEATS):
        out = os.path.join(workdir, f"setup{k}")
        before = calibration()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bfre.cli"], env=env, check=True)
        records = workloads.write_workload(workload, seed, out, smoke)
        elapsed = time.perf_counter() - start
        wall.append(elapsed)
        times.append(scaled(elapsed, before, calibration()))
    return wall, times, records


def operations(records, spec):
    """One round: every command on every problem, commands interleaved so
    that a slow phase of the machine does not fall on one command alone."""
    for record in records:
        for command in spec["commands"]:
            extra = list(spec["verify_args"]) if command == "verify" else []
            yield command, record, [command, record["path"], *extra]


def timed_rounds(cli, records, spec, seconds: float, tracer=None):
    """Run whole rounds until `seconds` pass; return per-round results and
    the peak resident set size (MB) after the first round.

    The first round warms the interpreter up (lazy imports, specialised
    bytecode): it is timed like the others but left out of every median.

    Per round: `passes` holds each command's wall time summed over the
    problems, `op_s` each command's scaled time per problem."""
    rounds = []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while True:
        begin = time.perf_counter()
        passes = dict.fromkeys(spec["commands"], 0.0)
        op_s = {}
        digests = {}
        report_bytes = dict.fromkeys(spec["commands"], 0)
        before = calibration()
        for command, record, argv in operations(records, spec):
            gc.collect()
            start = time.perf_counter()
            if tracer is None:
                code, out = invoke(cli, argv)
            else:
                code, out = tracer.run_command(lambda: invoke(cli, argv))
            elapsed = time.perf_counter() - start
            after = calibration()
            passes[command] += elapsed
            op_s[command, record["index"]] = scaled(elapsed, before, after)
            before = after
            digests[command, record["index"]] = (code, hashlib.blake2b(out.encode()).digest())
            report_bytes[command] += len(out.encode())
        layer = tracer.take() if tracer is not None else None
        rounds.append(
            {"passes": passes, "op_s": op_s, "digests": digests, "bytes": report_bytes, "layers": layer}
        )
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if len(rounds) >= 2 and now + (now - begin) > deadline:  # next round would overrun
            return rounds, peak_rss_mb


def check_round(cli, records, spec, digests):
    """Run every operation once more, check it, compare with the timed output."""
    outcome = []
    for command, record, argv in operations(records, spec):
        gc.collect()
        code, out = invoke(cli, argv)
        try:
            report = json.loads(out) if out.strip() else None
        except json.JSONDecodeError:
            report = None
        problems = check.CHECKS[command](record, code, report)
        stable = digests[command, record["index"]] == (code, hashlib.blake2b(out.encode()).digest())
        outcome.append((command, record, problems, stable))
    return outcome


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bfre benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny problem, two rounds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bfre", "cli.py")):
        print(f"error: no bfre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_wall, setup_scaled, records = measure_setup(args.workload, args.seed, args.smoke, workdir)
        from bfre import cli

        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
        seconds = 0.0 if args.smoke else args.seconds
        rounds, peak_rss_mb = timed_rounds(cli, records, spec, seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        outcome = check_round(cli, records, spec, rounds[0]["digests"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    unstable = any(r["digests"] != rounds[0]["digests"] for r in rounds)
    per_command = {c: {"attempted": 0, "failed": 0, "failures": []} for c in spec["commands"]}
    correct = not unstable
    for command, record, problems, stable in outcome:
        entry = per_command[command]
        entry["attempted"] += len(rounds)
        correct = correct and stable
        if problems:
            entry["failed"] += len(rounds)
            entry["failures"].append({"file": record["file"], "origin": record["origin"], "why": problems[:3]})
            if record["origin"] != "fault":
                correct = False
    passes = {c: [r["passes"][c] for r in rounds] for c in spec["commands"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "problems": len(records),
        "rounds": len(rounds),
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup_scaled,
        "pass_wall_s": passes,
        "pass_wall_spread": {c: spread(v) for c, v in passes.items()},
        "pass_scaled_s": {c: median_pass(rounds, c) for c in spec["commands"]},
        "operations": per_command,
    }
    print(json.dumps(detail))

    if args.trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            **{f"{c}_s": {"value": v, "unit": "s"} for c, v in detail["pass_scaled_s"].items()},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": correct,
        "attempted": sum(e["attempted"] for e in per_command.values()),
        "failed": sum(e["failed"] for e in per_command.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def median_pass(rounds, command: str) -> float:
    """One pass of a command: the sum over problems of each problem's median
    scaled command time across rounds."""
    keys = [k for k in rounds[0]["op_s"] if k[0] == command]
    timed = rounds[1:] or rounds
    return sum(statistics.median(r["op_s"][k] for r in timed) for k in keys)


def layer_metrics(rounds) -> dict:
    """Per-layer metrics: median per-round span time, first-round counts."""
    metrics = {}
    for name, span in layers.TIMES.items():
        values = [r["layers"][0].get(span, 0.0) for r in rounds[1:] or rounds]
        metrics[name] = {"value": statistics.median(values), "unit": "s"}
    counts = rounds[0]["layers"][1]
    for name in layers.COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    bound = counts.get("resolution.count_bound", 0)
    ratio = counts.get("resolution.assignments", 0) / bound if bound else 0.0
    metrics["resolution.assignments_per_bound"] = {"value": ratio, "unit": "ratio"}
    for command in ("feasible", "solve"):
        metrics[f"cli.{command}_report_bytes"] = {
            "value": rounds[0]["bytes"].get(command, 0),
            "unit": "bytes",
        }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
