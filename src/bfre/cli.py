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
JSON for a given Python version, one line of it with the separators of
``json.dumps``; from 3.12 on ``sum`` compensates rounding, which can move
the last digits of an objective value.  Numbers round-trip exactly, and
an objective value that is not finite (the ``perspective`` objective where
its last coordinate is 0) prints as ``null``, since JSON has no
``Infinity``.  ``python -m json.tool`` pretty-prints a report.  Exit
codes: 0 success, 1 error, 2 infeasible problem.

One ``argparse`` parser, built at import, reads the command line, and
``_run`` takes each of ``feasible``, ``simplify``, ``solve`` and ``verify``
from there to the report: it parses PROBLEM, calls the command, a plain
function ``(args, system, objective) -> (report, exit code)``, and prints
what it returns.  One rule sorts the errors.  A value that the parser can
judge is a usage error: a missing or unknown argument, option or command, a
non-number, an out-of-range option value (``--max-e`` or ``--cap`` below 1,
a ``--step`` that is not positive, a ``--tol`` that is not positive and
finite), or a PROBLEM path that does not exist or is a directory.  It
prints argparse's usage and message on stderr and exits 1, like every other
error, since 2 means infeasible.  What the run finds is one ``error:``
line: a malformed file, a PROBLEM that cannot be read, a resource cap, or a
``--step`` finer than 1/2,000,000.

A report line is written to ``sys.stdout`` with one ``writelines`` and
flushed.  One function, ``_region_report``, builds the ``feasible`` and
``solve`` reports as pieces: the head (the text before the ``boxes``
array), one piece per box, and the tail (the text after the array, with
``solve``'s ``best``).  The boxes are never joined into one string.
Every other report is one ``json.dumps``.  When the reader closes the
pipe before the last piece, a later write fails and the command exits 1,
whether or not stdout is buffered; what is still buffered then goes to
``os.devnull``, so the flush at exit does not fail again.  ``--help`` is
written to ``sys.stdout`` and flushed, and an error, one ``error:``
line, to ``sys.stderr`` with one ``write`` and a flush.  An interrupt
prints ``Aborted!`` and exits 1.

The boxes are written straight off the region's search DAG, and never
listed.  The DAG is mapped once to the same DAG over factor texts, each
distinct factor being encoded once, and the one depth-first walk,
``resolution.walk_admissible``, runs over that: it patches one column's
text per edge, so each leaf holds its box's texts, and a box costs one
join.  The region's ``rows`` list is encoded once too.  ``solve`` reports
the best corner that the optimum search finds, not the corner of every
box.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from typing import Any, Callable, NoReturn, Sequence

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
    DagNode,
    RegionResult,
    ResourceLimitError,
    SearchDag,
    count_bound,
    feasible_region,
    reduce_system,
    walk_admissible,
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
    except (ValueError, RecursionError) as exc:
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    return problem_from_dict(data, origin=path)


def problem_from_dict(
    data: dict, origin: str = "<problem>"
) -> tuple[BipolarSystem, MonotoneObjective | None]:
    """Build the system and objective of a decoded problem file."""
    try:
        if not isinstance(data, dict):
            raise ValueError("top level must be an object")
        for key in ("m", "n", "a_plus", "a_minus", "b", "tnorm"):
            if key not in data:
                raise ValueError(f"missing field {key!r}")
        m, n = data["m"], data["n"]
        if not (type(m) is int and type(n) is int and m >= 1 and n >= 1):
            raise ValueError("m and n must be positive integers")
        tn = data["tnorm"]
        if not isinstance(tn, dict) or "name" not in tn:
            raise ValueError("tnorm must be an object with a 'name'")
        tnorm = TNormSpec(tn["name"], tn.get("param"))
        system = BipolarSystem(
            tuple(tuple(row) for row in data["a_plus"]),
            tuple(tuple(row) for row in data["a_minus"]),
            tuple(data["b"]),
            tnorm,
        )
        if system.m != m or system.n != n:
            raise ValueError(f"declared {m}x{n} but matrices are {system.m}x{system.n}")
        spec = data.get("objective")
        if spec is None:
            return system, None
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValueError("objective must be an object with a 'name'")
        params = spec.get("params")
        if not isinstance(params, (dict, type(None))):
            raise ValueError("objective 'params' must be an object")
        objective = objective_catalog(
            spec["name"], n, params, j_plus=spec.get("j_plus"), j_minus=spec.get("j_minus")
        )
    except (TypeError, ValueError, OverflowError) as exc:
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

    The boxes are written straight off the region's DAG, and never listed.
    ``_text_dag`` maps it once to the same DAG over factor texts, and
    ``walk_admissible`` walks that, so a leaf's ``factors`` are its box's
    texts and the box is one join of them.  The ``rows`` list, the region's
    active rows, is the same for every box and is encoded once, and column
    indices come from a table of their texts.
    """
    head: dict[str, Any] = {
        "status": "feasible" if result.is_feasible else "infeasible",
        "verdict": result.verdict._asdict(),
    }
    state = result.reduction
    if state is not None:
        head["reduction"] = _reduction_dict(state, explain=False)
        head["count_bound"] = count_bound(result.analysis, state)
    head["column_bounds"] = [c.pieces for c in result.analysis.col_bounds]
    pieces = [f'{json.dumps(head)[:-1]}, "boxes": [']
    if result.dag.count:
        index = [str(j) for j in range(len(result.dag.base))]
        rows = json.dumps(sorted(state.active_rows))

        def leaf(columns: tuple[int, ...], texts: list[str]) -> None:
            pieces.extend((
                f'{{"rows": {rows}, '
                f'"columns": [{", ".join(map(index.__getitem__, columns))}], '
                f'"factors": [{", ".join(texts)}]}}',
                ", ",
            ))

        walk_admissible(_text_dag(result.dag), leaf)
        pieces.pop()  # the separator after the last box
    tail = "]"
    if best is not None:
        point = {
            "columns": list(best.columns),
            "point": list(best.point),
            "value": _value(best.value),
        }
        tail += f', "best": {json.dumps(point)}'
    pieces.append(f"{tail}}}\n")
    return pieces


def _text_dag(dag: SearchDag) -> SearchDag:
    """The DAG with every factor replaced by its JSON text: the same
    columns, children and counts.  The DAG shares its factor objects, and
    each distinct one is encoded once; each node is mapped once.  The DAG
    holds both while this runs, so ``id`` tells them apart."""
    texts: dict[int, str] = {}
    nodes: dict[int, DagNode] = {}

    def text(factor: intervals.IntervalUnion) -> str:
        t = texts.get(id(factor))
        if t is None:
            t = texts[id(factor)] = _pieces_text(factor.pieces)
        return t

    def node_text(node: DagNode) -> DagNode:
        mapped = nodes.get(id(node))
        if mapped is None:
            edges = tuple([(j, text(joint), node_text(child)) for j, joint, child in node.edges])
            mapped = nodes[id(node)] = DagNode(edges, node.count)
        return mapped

    return dag._replace(root=node_text(dag.root), base=tuple(map(text, dag.base)))


def _pieces_text(pieces: tuple[tuple[float, float], ...]) -> str:
    """``json.dumps(pieces)`` for a factor's pieces, without its per-call
    set-up: JSON writes a finite float as its ``repr``, and every end lies
    in [0, 1]."""
    return f"[{', '.join([f'[{lo!r}, {hi!r}]' for lo, hi in pieces])}]"


def _value(value: float | None) -> float | None:
    """An objective value as a report prints it: ``None`` (``null``) when
    it is not finite, since JSON has no ``Infinity``."""
    return value if value is None or math.isfinite(value) else None


def _echo(report: dict | list[str]) -> None:
    """Print a report line: ``json.dumps`` of a dict, or the pieces of a
    list, each written as it is, so the boxes are never joined into one
    string.  The flush here makes a closed pipe raise inside the command,
    where ``main`` turns it into exit 1.
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


def _run(args: argparse.Namespace) -> NoReturn:
    """Run one pipeline command and exit.

    Parses PROBLEM and runs ``args.command(args, system, objective)`` with
    --tol in effect for this command only, then prints the report and exits
    with the code it returns.  A ``ProblemFormatError``, from the file or the
    command, a resource cap or a PROBLEM that cannot be read prints an
    ``error:`` line and exits 1.
    """
    tol = args.tol
    try:
        system, objective = parse_problem(args.problem)
        with intervals.tolerance(intervals.EPS if tol is None else tol):
            out, code = args.command(args, system, objective)
    except (ProblemFormatError, ResourceLimitError) as exc:
        _fail(str(exc))
    except OSError as exc:  # reading PROBLEM is the only I/O before ``_echo``
        _fail(f"{args.problem}: cannot read ({exc.strerror})")
    _echo(out)
    sys.exit(code)


def _region(args: argparse.Namespace, system: BipolarSystem) -> RegionResult:
    return feasible_region(system, simplify=not args.no_simplify, max_count=args.max_e)


def feasible(
    args: argparse.Namespace, system: BipolarSystem, objective: MonotoneObjective | None
) -> tuple[list[str], int]:
    """Resolve the feasible region of PROBLEM and report its boxes."""
    result = _region(args, system)
    return _region_report(result), EXIT_OK if result.is_feasible else EXIT_INFEASIBLE


def simplify(
    args: argparse.Namespace, system: BipolarSystem, objective: MonotoneObjective | None
) -> tuple[dict, int]:
    """Apply the reduction rules to PROBLEM and report the outcome."""
    analysis, verdict, state = reduce_system(system)
    if not verdict.ok:
        return {"status": "infeasible", "verdict": verdict._asdict()}, EXIT_INFEASIBLE
    return {
        "status": "ok",
        "reduction": _reduction_dict(state, args.explain),
        "count_bound_before": count_bound(analysis, ReductionState.initial(analysis)),
        "count_bound_after": count_bound(analysis, state),
    }, EXIT_OK


def solve(
    args: argparse.Namespace, system: BipolarSystem, objective: MonotoneObjective | None
) -> tuple[list[str], int]:
    """Resolve PROBLEM and minimize its objective over the region."""
    if objective is None:
        raise ProblemFormatError("problem file has no objective; 'solve' needs one")
    result = _region(args, system)
    best = None
    if result.is_feasible:
        best, _ = global_optimum(
            result.analysis, result.reduction, objective, args.max_e, dag=result.dag
        )
    return _region_report(result, best), EXIT_INFEASIBLE if best is None else EXIT_OK


def verify(
    args: argparse.Namespace, system: BipolarSystem, objective: MonotoneObjective | None
) -> tuple[dict, int]:
    """Cross-check the resolved region (and optimum) by brute force."""
    result = _region(args, system)
    grid = breakpoint_grid(result.analysis, args.step)
    membership = grid_membership_check(
        result, grid, cap=args.cap, seed=args.seed, objective=objective
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
            for x, f, b in membership.mismatches
        ],
    }
    if objective is not None:
        probe = check_monotone(objective, seed=args.seed)
        out["monotonicity_violations"] = len(probe)
        point, value = membership.best_point, membership.best_value
        out["brute_force"] = {
            "point": None if point is None else list(point),
            "value": _value(value),
        }
        if result.is_feasible:
            best, _ = global_optimum(
                result.analysis, result.reduction, objective, args.max_e, dag=result.dag
            )
            out["pipeline_value"] = _value(best.value)
            # a sample certifies only the lower test, which reads snapped points
            out["objective_check"] = "lower_bound" if membership.sampled else "exact"
            agree = value is None or membership.snapped_value >= best.value - 1e-9
            if not membership.sampled:
                agree = agree and value is not None and value <= best.value + 1e-9
            out["objective_agreement"] = agree
            if not agree:
                out["status"] = "mismatch"
    return out, EXIT_OK if out["status"] == "verified" else EXIT_ERROR


def tnorm_eval_cmd(args: argparse.Namespace) -> NoReturn:
    """Evaluate phi(X, Y), or solve the scalar equation with --solve."""
    x, y = args.x, args.y
    try:
        spec = TNormSpec(args.kind, args.param)
        if args.solve:
            sol = solve_scalar_eq(spec, x, y)
            num = solve_scalar_eq_numeric(spec, x, y) if x >= y else sol
            _echo(
                {
                    "solution_set": sol.solution_set.pieces,
                    "relaxed_set": sol.relaxed_set.pieces,
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


# -- command line ----------------------------------------------------------------


#: What argparse reads as a negative number, not an option: "-0.5", and
#: "-1e-17" too, which its own pattern takes for an option.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with every usage error exiting 1 (exit 2 means
    infeasible), no abbreviated options and no ``-h``.  ``--help`` exits 0."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        # so that "--param -1e-17" passes a value
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        # flushed here, a closed pipe fails --help inside ``main``
        sys.stdout.flush()
        super().exit(EXIT_ERROR if status else EXIT_OK, message)


def _problem_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable:
    """An option type: ``convert`` the text, then reject a value that is not
    ``ok`` with a usage error.  It keeps ``convert``'s name, so that a
    non-number still reads ``invalid int value: 'x'``."""

    def check(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
        return value

    check.__name__ = convert.__name__
    return check


_COUNT = _checked(int, lambda v: v >= 1, "at least 1")
_STEP = _checked(float, lambda v: v > 0.0, "positive")
_TOL = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")


def _parser() -> _Parser:
    parser = _Parser(
        prog="bfre",
        description="Solver for systems of bipolar fuzzy relational equations.  Resolves "
        "the complete feasible region as a union of boxes under any catalog t-norm and "
        "globally minimizes coordinate-monotone objectives.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for name, func in (
        ("feasible", feasible),
        ("simplify", simplify),
        ("solve", solve),
        ("verify", verify),
        ("tnorm-eval", tnorm_eval_cmd),
    ):
        sub[name] = commands.add_parser(name, help=func.__doc__, description=func.__doc__)
        sub[name].set_defaults(run=_run, command=func)
    sub["tnorm-eval"].set_defaults(run=tnorm_eval_cmd)
    for name in ("feasible", "simplify", "solve", "verify"):
        sub[name].add_argument("problem", metavar="PROBLEM", type=_problem_file)
        sub[name].add_argument("--tol", type=_TOL, help="Interval comparison tolerance override.")
    for name in ("feasible", "solve", "verify"):
        sub[name].add_argument(
            "--max-e",
            type=_COUNT,
            default=DEFAULT_MAX_ASSIGNMENTS,
            help="Cap on the enumerated assignments, and on the leaves the optimum "
            "search compares (default: %(default)s).",
        )
        sub[name].add_argument(
            "--no-simplify",
            action="store_true",
            help="Skip the reduction rules before enumeration.",
        )
    sub["simplify"].add_argument(
        "--explain", action="store_true", help="Include the rule audit log."
    )
    add = sub["verify"].add_argument
    add("--step", type=_STEP, default=0.1, help="Grid step size (default: %(default)s).")
    add("--seed", type=int, default=0, help="Subsampling seed (default: %(default)s).")
    add("--cap", type=_COUNT, default=DEFAULT_GRID_CAP, help="Grid point cap (default: %(default)s).")
    add = sub["tnorm-eval"].add_argument
    add("kind", metavar="KIND")
    add("x", metavar="X", type=float)
    add("y", metavar="Y", type=float)
    add("--param", type=float, help="Family parameter, if any.")
    add(
        "--solve",
        action="store_true",
        help="Treat (X, Y) as (a, b) and solve phi(a, t) = b for t instead.",
    )
    return parser


_PARSER = _parser()


def main(args: Sequence[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """The ``bfre`` command: parse ``args`` (``sys.argv[1:]`` by default),
    run the command and exit with its code.

    ``main.main`` is this function too, so callers of the click-style
    ``main.main(args=..., prog_name=...)`` keep working; usage and help text
    always name the program ``bfre``, whatever ``prog_name`` says.
    """
    try:
        namespace = _PARSER.parse_args(args)
        namespace.run(namespace)
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        sys.stderr.flush()
        sys.exit(EXIT_ERROR)
    except BrokenPipeError:
        # The reader left.  What is still buffered goes to os.devnull, so
        # that the flush at exit neither fails nor turns exit 1 into 120.
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(OSError, ValueError):
                os.dup2(devnull, stream.fileno())
        sys.exit(EXIT_ERROR)


main.main = main  # type: ignore[attr-defined]


if __name__ == "__main__":
    main()
