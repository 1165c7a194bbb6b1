"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions of the ``bfre`` modules, at the names
the calling module looks them up by, with wrappers that time each call and
count its results.  Nothing inside the program changes.  Every time is a
self time: a span's duration minus the traced spans nested in it, so the
stage times of one command add up to the command's wall time.  The time a
command spends outside every library span (option parsing, report
building, JSON output) is ``cli.self_s``.
"""

from __future__ import annotations

import collections
import time


class Tracer:
    """Installs the wrappers and accumulates span times and counts."""

    def __init__(self) -> None:
        self.seconds: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._children = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                self.seconds[name] += elapsed - inner
                self._children[-1] += elapsed
            if on_result is not None:
                start = time.perf_counter()
                on_result(result, args)
                # bookkeeping is charged to no span, not to the caller's
                self._children[-1] += time.perf_counter() - start
            return result

        return wrapper

    def _patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self._span(name, original, on_result))

    def run_command(self, call):
        """Run one CLI invocation as the root span ``cli.self``."""
        self._children = [0.0]
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self.seconds["cli.self"] += elapsed - self._children[0]

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from bfre import cli, resolution, system
        from bfre.resolution import count_bound

        count = self.counts

        def on_solve(result, args):
            count["tnorms.calls"] += 1

        def on_analysis(result, args):
            count["system.cells"] += result.m * result.n

        def on_simplify(state, args):
            for event in state.log:
                count[f"simplify.rule{event.rule}_events"] += 1
            count["simplify.active_rows"] += len(state.active_rows)
            count["simplify.active_cols"] += len(state.active_cols)

        def on_enumerate(assignments, args):
            count["resolution.assignments"] += len(assignments)
            count["resolution.count_bound"] += count_bound(args[0], args[1])

        def on_box(box, args):
            count["resolution.boxes"] += 1

        def on_optimum(result, args):
            count["optimize.candidates"] += len(result[1])

        def on_membership(report, args):
            count["oracle.points"] += report.checked

        self._patch(system, "solve_scalar_eq", "tnorms.solve", on_solve)
        self._patch(resolution, "CellAnalysis", "system.analysis", on_analysis)
        self._patch(resolution, "necessary_feasibility", "system.analysis")
        self._patch(resolution, "simplify_to_fixpoint", "simplify.simplify", on_simplify)
        self._patch(resolution, "enumerate_admissible", "resolution.enumerate", on_enumerate)
        self._patch(resolution, "solution_box", "resolution.box", on_box)
        self._patch(cli, "global_optimum", "optimize.optimum", on_optimum)
        self._patch(cli, "breakpoint_grid", "oracle.grid")
        self._patch(cli, "grid_membership_check", "oracle.membership", on_membership)
        self._patch(cli, "brute_force_min", "oracle.brute_force")
        self._patch(cli, "parse_problem", "cli.parse")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Return and reset (seconds per span, counts) since the last take."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts


#: Per-layer time metrics: metric name -> span name.
TIMES = {
    "tnorms.solve_s": "tnorms.solve",
    "system.analysis_s": "system.analysis",
    "simplify.simplify_s": "simplify.simplify",
    "resolution.enumerate_s": "resolution.enumerate",
    "resolution.box_s": "resolution.box",
    "optimize.optimum_s": "optimize.optimum",
    "oracle.grid_s": "oracle.grid",
    "oracle.membership_s": "oracle.membership",
    "oracle.brute_force_s": "oracle.brute_force",
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli.self",
}

#: Per-layer count metrics, named as counted.
COUNTS = (
    "tnorms.calls",
    "system.cells",
    "simplify.rule1_events",
    "simplify.rule2_events",
    "simplify.rule3_events",
    "simplify.rule4_events",
    "simplify.rule5_events",
    "simplify.active_rows",
    "simplify.active_cols",
    "resolution.assignments",
    "resolution.count_bound",
    "resolution.boxes",
    "optimize.candidates",
    "oracle.points",
)
