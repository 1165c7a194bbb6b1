"""File-based front end: parse problem files, run the pipeline, emit reports.

Problem files are JSON with the fields

    m, n      -- dimensions
    a_plus    -- m x n row-major matrix of the positive coefficients
    a_minus   -- m x n row-major matrix of the negative coefficients
    b         -- length-m right-hand side
    tnorm     -- {"name": <catalog kind>, "param": <number, if parametric>}
    objective -- optional: {"name": ..., "params": {...},
                            "j_plus": [...], "j_minus": [...]}

All indices in files and reports are 0-based.  Reports are deterministic
JSON, one line of it with the separators of ``json.dumps``; numbers
round-trip exactly.  ``python -m json.tool`` pretty-prints a report.  Exit
codes: 0 success, 1 error, 2 infeasible problem.

click only parses the command line.  A report line is written to
``sys.stdout`` with one ``writelines`` and flushed.  One function,
``_region_report``, builds the ``feasible`` and ``solve`` reports as
pieces: the head (the text before the ``boxes`` array), one piece per box,
and the tail (the text after the array, with ``solve``'s ``best``).  The
boxes are never joined into one string.  Every other report is one
``json.dumps``.  When the reader closes the pipe before the last piece, a
later write fails and the command exits 1, whether or not stdout is
buffered.  ``--help`` is
written to ``sys.stdout`` and an error, one ``error:`` line, to
``sys.stderr``, each with one ``write`` and a flush.  click's usage errors (a
missing or unknown argument, option or command, a bad option type, a
PROBLEM path that does not exist) keep click's message on stderr but exit
1, like every other error.

The box texts come from one encoder and shared text.  Every box equals
the search's root (fixed singletons and column bounds) except on its
witness columns, so the root's factor texts are encoded once per report,
and a box costs a copy of that list plus one patch per witness column,
each distinct witness factor being encoded once.  The region's ``rows``
list is encoded once too.  ``solve`` reports the best corner that the
optimum search finds, not the corner of every box.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Callable, NoReturn

import click

from . import intervals
from .optimize import (
    Candidate,
    MonotoneObjective,
    check_monotone,
    global_optimum,
    objective_catalog,
)
from .oracle import DEFAULT_GRID_CAP, breakpoint_grid, grid_membership_check
from .oracle import brute_force_min  # noqa: F401  bench/layers.py patches this name
from .resolution import (
    DEFAULT_MAX_ASSIGNMENTS,
    RegionResult,
    ResourceLimitError,
    count_bound,
    feasible_region,
    reduce_system,
    root_factors,
)
from .simplify import ReductionState
from .system import BipolarSystem
from .tnorms import TNormSpec, solve_scalar_eq, solve_scalar_eq_numeric, tnorm_eval

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class ProblemFormatError(ValueError):
    """A problem file is malformed or fails validation."""


def parse_problem(path: str) -> tuple[BipolarSystem, MonotoneObjective | None]:
    """Load and validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    return problem_from_dict(data, origin=path)


def problem_from_dict(
    data: dict, origin: str = "<problem>"
) -> tuple[BipolarSystem, MonotoneObjective | None]:
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{origin}: top level must be an object")
    for key in ("m", "n", "a_plus", "a_minus", "b", "tnorm"):
        if key not in data:
            raise ProblemFormatError(f"{origin}: missing field {key!r}")
    m, n = data["m"], data["n"]
    if not (type(m) is int and type(n) is int and m >= 1 and n >= 1):
        raise ProblemFormatError(f"{origin}: m and n must be positive integers")
    tn = data["tnorm"]
    if not isinstance(tn, dict) or "name" not in tn:
        raise ProblemFormatError(f"{origin}: tnorm must be an object with a 'name'")
    try:
        tnorm = TNormSpec(tn["name"], tn.get("param"))
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{origin}: {exc}") from exc
    try:
        system = BipolarSystem(
            tuple(tuple(row) for row in data["a_plus"]),
            tuple(tuple(row) for row in data["a_minus"]),
            tuple(data["b"]),
            tnorm,
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{origin}: {exc}") from exc
    if system.m != m or system.n != n:
        raise ProblemFormatError(
            f"{origin}: declared {m}x{n} but matrices are {system.m}x{system.n}"
        )
    objective = None
    if data.get("objective") is not None:
        spec = data["objective"]
        if not isinstance(spec, dict) or "name" not in spec:
            raise ProblemFormatError(f"{origin}: objective must be an object with a 'name'")
        params = spec.get("params")
        if not isinstance(params, (dict, type(None))):
            raise ProblemFormatError(f"{origin}: objective 'params' must be an object")
        try:
            objective = objective_catalog(
                spec["name"],
                n,
                params,
                j_plus=spec.get("j_plus"),
                j_minus=spec.get("j_minus"),
            )
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"{origin}: {exc}") from exc
    return system, objective


# -- report building ---------------------------------------------------------


def _reduction_dict(state: ReductionState, explain: bool) -> dict:
    out = {
        "fixed": {str(j): v for j, v in sorted(state.fixed.items())},
        "active_rows": list(state.active_rows),
        "active_cols": list(state.active_cols),
    }
    if explain:
        out["log"] = [ev.to_dict() for ev in state.log]
    return out


def _region_report(result: RegionResult, best: Candidate | None = None) -> list[str]:
    """The report line of ``feasible``, and of ``solve`` with its ``best``
    corner, as the pieces ``_echo`` writes: the text before the ``boxes``
    array, each box's text with a separator piece between two, and the
    text after the array.

    A box differs from the search's root (``root_factors``: the fixed
    singletons and column bounds) only on its witness columns, so the root's
    n factor texts are encoded once per report, and each box copies that
    list and patches only the factors on its ``columns``.  Those factors are
    shared by many boxes, so each distinct object is encoded once; ``result``
    holds every box while this runs, so ``id`` tells them apart.  The
    ``rows`` list, the region's active rows, is the same for every box and
    is encoded once too, and column indices come from a table of their
    texts.
    """
    verdict = result.verdict
    status = verdict.status if result.boxes or not verdict.ok else "no_admissible_assignment"
    head: dict[str, Any] = {
        "status": "feasible" if result.is_feasible else "infeasible",
        "verdict": {"status": status, "index": verdict.index},
    }
    state = result.reduction
    if state is not None:
        head["reduction"] = _reduction_dict(state, explain=False)
        head["count_bound"] = count_bound(result.analysis, state)
    head["column_bounds"] = [c.to_pairs() for c in result.analysis.col_bounds]
    pieces = [f'{json.dumps(head)[:-1]}, "boxes": [']
    if result.boxes:
        root = [json.dumps(f.to_pairs()) for f in root_factors(result.analysis, state)]
        index = [str(j) for j in range(len(root))]
        text: dict[int, str] = {}
        rows = json.dumps(sorted(state.active_rows))
        for box in result.boxes:
            texts = root.copy()
            factors = box.factors
            for j in box.columns:
                f = factors[j]
                t = text.get(id(f))
                if t is None:
                    t = text[id(f)] = json.dumps(f.to_pairs())
                texts[j] = t
            pieces += (
                f'{{"rows": {rows}, '
                f'"columns": [{", ".join(map(index.__getitem__, box.columns))}], '
                f'"factors": [{", ".join(texts)}]}}',
                ", ",
            )
        pieces.pop()  # the separator after the last box
    tail = "]"
    if best is not None:
        point = {"columns": list(best.columns), "point": list(best.point), "value": best.value}
        tail += f', "best": {json.dumps(point)}'
    pieces.append(f"{tail}}}\n")
    return pieces


def _echo(report: dict | list[str]) -> None:
    """Print a report line: ``json.dumps`` of a dict, or the pieces of a
    list, each written as it is, so the boxes are never joined into one
    string.  The flush here makes a closed pipe raise inside the command,
    where click turns it into exit 1.
    """
    if isinstance(report, dict):
        sys.stdout.write(f"{json.dumps(report)}\n")
    else:
        sys.stdout.writelines(report)
    sys.stdout.flush()


def _fail(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    sys.stderr.flush()
    sys.exit(EXIT_ERROR)


def _require(ok: bool, message: str) -> None:
    """Reject a bad option value with exit 1 (exit 2 means infeasible)."""
    if not ok:
        _fail(message)


_tol_option = click.option(
    "--tol", type=float, default=None, help="Interval comparison tolerance override."
)


def _check_max_e(ctx: click.Context, param: click.Parameter, value: int) -> int:
    _require(value >= 1, "--max-e must be at least 1")
    return value


def _common_options(fn):
    fn = _tol_option(fn)
    fn = click.option(
        "--max-e",
        type=int,
        default=DEFAULT_MAX_ASSIGNMENTS,
        show_default=True,
        help="Cap on the enumerated assignments, and on the leaves the optimum "
        "search compares.",
        callback=_check_max_e,
    )(fn)
    fn = click.option(
        "--no-simplify", is_flag=True, help="Skip the reduction rules before enumeration."
    )(fn)
    return fn


def _run(
    problem: str,
    tol: float | None,
    command: Callable[
        [BipolarSystem, MonotoneObjective | None], tuple[dict | list[str], int]
    ],
) -> NoReturn:
    """Run one pipeline command and exit.

    Parses PROBLEM and runs ``command(system, objective)`` with --tol in effect
    for this command only, then prints the report and exits with the code it
    returns.  A ``ProblemFormatError``, from the file or the command, a
    resource cap or a bad --tol prints an ``error:`` line and exits 1.
    """
    _require(tol is None or 0.0 < tol < math.inf, "--tol must be positive and finite")
    try:
        system, objective = parse_problem(problem)
        with intervals.tolerance(intervals.EPS if tol is None else tol):
            out, code = command(system, objective)
    except (ProblemFormatError, ResourceLimitError) as exc:
        _fail(str(exc))
    _echo(out)
    sys.exit(code)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's ``--help`` callback, printing through ``sys.stdout``."""
    if value and not ctx.resilient_parsing:
        sys.stdout.write(f"{ctx.get_help()}\n")
        sys.stdout.flush()
        ctx.exit()


class _Command(click.Command):
    """A command whose ``--help`` is written like a report: straight to
    ``sys.stdout`` and flushed, not through ``click.echo``."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    """click's group, with every click error exiting 1: exit 2 means
    infeasible.  ``--help`` still exits 0."""

    command_class = _Command

    def main(self, *args: Any, **kwargs: Any) -> NoReturn:
        kwargs["standalone_mode"] = False
        try:
            code = super().main(*args, **kwargs)
        except click.ClickException as exc:
            exc.show()
            code = EXIT_ERROR
        except click.Abort:
            sys.stderr.write("Aborted!\n")
            code = EXIT_ERROR
        sys.exit(code)


@click.group(cls=_Group)
def main() -> None:
    """Solver for systems of bipolar fuzzy relational equations.

    Resolves the complete feasible region as a union of boxes under any
    catalog t-norm and globally minimizes coordinate-monotone objectives.
    """


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_common_options
def feasible(problem, tol, max_e, no_simplify) -> None:
    """Resolve the feasible region of PROBLEM and report its boxes."""

    def command(system, objective):
        result = feasible_region(system, simplify=not no_simplify, max_count=max_e)
        return _region_report(result), EXIT_OK if result.is_feasible else EXIT_INFEASIBLE

    _run(problem, tol, command)


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--explain", is_flag=True, help="Include the rule audit log.")
@_tol_option
def simplify(problem, explain, tol) -> None:
    """Apply the reduction rules to PROBLEM and report the outcome."""

    def command(system, objective):
        analysis, verdict, state = reduce_system(system)
        if not verdict.ok:
            out = {"status": verdict.status, "index": verdict.index}
            return {"status": "infeasible", "verdict": out}, EXIT_INFEASIBLE
        return {
            "status": "ok",
            "reduction": _reduction_dict(state, explain),
            "count_bound_before": count_bound(analysis, ReductionState.initial(analysis)),
            "count_bound_after": count_bound(analysis, state),
        }, EXIT_OK

    _run(problem, tol, command)


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_common_options
def solve(problem, tol, max_e, no_simplify) -> None:
    """Resolve PROBLEM and minimize its objective over the region."""

    def command(system, objective):
        if objective is None:
            raise ProblemFormatError("problem file has no objective; 'solve' needs one")
        result = feasible_region(system, simplify=not no_simplify, max_count=max_e)
        if not result.is_feasible:
            return _region_report(result), EXIT_INFEASIBLE
        best, _ = global_optimum(result.analysis, result.reduction, objective, max_e)
        return _region_report(result, best), EXIT_OK

    _run(problem, tol, command)


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--step", type=float, default=0.1, show_default=True, help="Grid step size.")
@click.option("--seed", type=int, default=0, show_default=True, help="Subsampling seed.")
@click.option(
    "--cap", type=int, default=DEFAULT_GRID_CAP, show_default=True, help="Grid point cap."
)
@_common_options
def verify(problem, step, seed, cap, tol, max_e, no_simplify) -> None:
    """Cross-check the resolved region (and optimum) by brute force."""
    _require(step > 0.0, "--step must be positive")
    _require(cap >= 1, "--cap must be at least 1")

    def command(system, objective):
        result = feasible_region(system, simplify=not no_simplify, max_count=max_e)
        grid = breakpoint_grid(result.analysis, step)
        membership = grid_membership_check(
            result.analysis, result.boxes, grid, cap=cap, seed=seed, objective=objective
        )
        out: dict[str, Any] = {
            "status": "verified" if membership.ok else "mismatch",
            "grid": {
                "total_points": membership.total_points,
                "checked": membership.checked,
                "sampled": membership.sampled,
            },
            "membership_mismatches": [
                {"point": list(x), "feasible": f, "in_boxes": b}
                for x, f, b in membership.mismatches[:50]
            ],
        }
        if objective is not None:
            probe = check_monotone(objective, seed=seed)
            out["monotonicity_violations"] = len(probe)
            point, value = membership.best_point, membership.best_value
            out["brute_force"] = {
                "point": None if point is None else list(point),
                "value": value,
            }
            if result.is_feasible:
                best, _ = global_optimum(
                    result.analysis, result.reduction, objective, max_e
                )
                out["pipeline_value"] = best.value
                # a sample certifies only the lower test, which reads snapped points
                out["objective_check"] = "lower_bound" if membership.sampled else "exact"
                agree = value is None or membership.snapped_value >= best.value - 1e-9
                if not membership.sampled:
                    agree = agree and value is not None and value <= best.value + 1e-9
                out["objective_agreement"] = agree
                if not agree:
                    out["status"] = "mismatch"
        return out, EXIT_OK if out["status"] == "verified" else EXIT_ERROR

    _run(problem, tol, command)


@main.command("tnorm-eval")
@click.argument("kind")
@click.argument("x", type=float)
@click.argument("y", type=float)
@click.option("--param", type=float, default=None, help="Family parameter, if any.")
@click.option(
    "--solve",
    "solve_eq",
    is_flag=True,
    help="Treat (X, Y) as (a, b) and solve phi(a, t) = b for t instead.",
)
def tnorm_eval_cmd(kind, x, y, param, solve_eq) -> None:
    """Evaluate phi(X, Y), or solve the scalar equation with --solve."""
    try:
        spec = TNormSpec(kind, param)
        if solve_eq:
            sol = solve_scalar_eq(spec, x, y)
            num = solve_scalar_eq_numeric(spec, x, y) if x >= y else sol
            _echo(
                {
                    "solution_set": sol.solution_set.to_pairs(),
                    "relaxed_set": sol.relaxed_set.to_pairs(),
                    "l": sol.l,
                    "u": sol.u,
                    "l_bisect": num.l,
                    "u_bisect": num.u,
                }
            )
        else:
            _echo({"value": tnorm_eval(spec, x, y)})
    except ValueError as exc:
        _fail(str(exc))
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
