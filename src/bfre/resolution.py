"""Resolution of the feasible region as a finite union of boxes.

An admissible function assigns one witness column to every active equation
such that equations sharing a column keep a jointly non-empty restricted set.
Each admissible function generates a box: the Cartesian product of the joint
restricted sets on assigned columns, the column bounds on unassigned columns,
and the fixed-variable singletons.  The union of the boxes over all
admissible functions is exactly the feasible region; the boxes may overlap
and are emitted without deduplication.  The active equations are the same
for every box of a region, so a box names its admissible function by the
witness columns alone, in ascending order of the active rows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .intervals import IntervalUnion
from .simplify import ReductionState, simplify_to_fixpoint
from .system import (
    BipolarSystem,
    CellAnalysis,
    FeasibilityVerdict,
    necessary_feasibility,
)

__all__ = [
    "FeasibleBox",
    "RegionResult",
    "ResourceLimitError",
    "root_factors",
    "walk_admissible",
    "enumerate_admissible",
    "count_bound",
    "solution_box",
    "reduce_system",
    "feasible_region",
    "COUNT_BOUND_CAP",
    "DEFAULT_MAX_ASSIGNMENTS",
]

#: Saturation sentinel for the admissible-count upper bound.
COUNT_BOUND_CAP = 10 ** 18

#: Default cap on the number of enumerated assignments.
DEFAULT_MAX_ASSIGNMENTS = 10 ** 6


class ResourceLimitError(RuntimeError):
    """Raised when enumeration or grid evaluation would exceed its cap."""


class FeasibleBox(NamedTuple):
    """One product box of the feasible region, named by its witness columns.

    factors[j] is the admissible set for x_j: the joint restricted set on
    the witness columns, and ``root_factors(...)[j]`` (a fixed singleton or
    the column bound) on every other column.  Every factor is non-empty.
    columns[k] is the witness column of the k-th active row in ascending
    order; indices refer to the original system.  The boxes of one search
    share factor objects: one per root factor, one per cell's restricted set
    and one per distinct (earlier factor, cell) intersection.
    """

    factors: tuple[IntervalUnion, ...]
    columns: tuple[int, ...]


def root_factors(analysis: CellAnalysis, state: ReductionState) -> list[IntervalUnion]:
    """The root of the assignment search: the factor every box keeps on the
    columns its assignment leaves alone, the fixed singleton on fixed columns
    and the column bound elsewhere."""
    fixed = state.fixed
    return [
        IntervalUnion.interval(fixed[j], fixed[j]) if j in fixed else bound
        for j, bound in enumerate(analysis.col_bounds)
    ]


def walk_admissible(
    analysis: CellAnalysis,
    state: ReductionState,
    leaf: Callable[[tuple[int, ...], list[IntervalUnion]], None],
    prune: Callable[[int, list[IntervalUnion]], bool] | None = None,
) -> None:
    """The depth-first search over the admissible functions of the (reduced)
    problem, which enumeration and the optimum search share.

    Active rows are assigned in ascending order, each to its candidate
    columns in ascending order, so leaves come in lexicographic order of
    their assignments.  The search state is the current partial box,
    ``factors``: it starts as ``root_factors``, and assigning row i to
    column j narrows ``factors[j]`` to its intersection with the restricted
    set of cell (i, j).  A branch extends only while that intersection is
    non-empty, which is exactly the admissibility condition, so every
    admissible function is reached.  A column no row is assigned keeps its
    root factor.  The first row on a column takes the restricted set
    itself, which lies inside the column bound, and each later row's
    intersection is computed once per walk for each distinct (earlier
    factor, cell) pair and then shared, so the partial boxes of different
    leaves share factor objects.

    ``leaf(columns, factors)`` runs at each leaf with its witness columns,
    one per active row in ascending row order, and the partial box as it
    stands, which is that assignment's box; ``factors`` is the search's own
    list, so a leaf copies what it keeps.  With no active row the only leaf
    is ``leaf((), factors)``.
    ``prune(remaining, factors)`` runs on every child that still has
    ``remaining > 0`` rows to assign; when it returns True the child's
    subtree is skipped.
    """
    rows = tuple(sorted(state.active_rows))
    candidates = [state.row_candidates(analysis, i) for i in rows]
    base = root_factors(analysis, state)
    factors = list(base)
    chosen: list[int] = []
    depth = len(rows)
    # before & cell per (id(before), id(cell)): both stay alive, in the
    # analysis or as a value of this dict, so no id is reused
    joints: dict[tuple[int, int], IntervalUnion] = {}

    def walk(k: int) -> None:
        restricted = analysis.restricted[rows[k]]
        remaining = depth - k - 1
        for j in candidates[k]:
            before, cell = factors[j], restricted[j]
            if before is base[j]:
                joint = cell
            else:
                key = (id(before), id(cell))
                joint = joints.get(key)
                if joint is None:
                    joint = joints[key] = before & cell
            if joint.is_empty:
                continue
            factors[j] = joint
            chosen.append(j)
            if not remaining:  # from the last row's loop: one call per leaf
                leaf(tuple(chosen), factors)
            elif prune is None or not prune(remaining, factors):
                walk(k + 1)
            chosen.pop()
            factors[j] = before

    if depth:
        walk(0)
    else:
        leaf((), factors)


def enumerate_admissible(
    analysis: CellAnalysis,
    state: ReductionState,
    max_count: int = DEFAULT_MAX_ASSIGNMENTS,
) -> list[FeasibleBox]:
    """The boxes of all admissible functions of the (reduced) problem, in
    lexicographic order of their witness ``columns``.

    ``walk_admissible`` without pruning; each leaf's box is its partial box
    as it stands.  Passing ``max_count`` boxes raises ``ResourceLimitError``,
    whose message says how many boxes were found: any box proves the system
    feasible.
    """
    out: list[FeasibleBox] = []

    def leaf(columns: tuple[int, ...], factors: list[IntervalUnion]) -> None:
        if len(out) >= max_count:
            raise ResourceLimitError(
                f"more than {max_count} admissible assignments; {len(out)} boxes "
                "found, so the system is feasible; raise the cap"
            )
        out.append(solution_box(columns, factors))

    walk_admissible(analysis, state, leaf)
    return out


def count_bound(analysis: CellAnalysis, state: ReductionState) -> int:
    """Upper bound on the number of admissible functions: the product of the
    active rows' candidate counts, saturated at COUNT_BOUND_CAP."""
    bound = 1
    for i in state.active_rows:
        bound *= len(state.row_candidates(analysis, i))
        if bound >= COUNT_BOUND_CAP:
            return COUNT_BOUND_CAP
    return bound


def solution_box(
    columns: tuple[int, ...], factors: Sequence[IntervalUnion]
) -> FeasibleBox:
    """The box generated by an admissible function, from its witness columns
    and the partial box the search holds at its leaf: the joint restricted
    set on each assigned column, the fixed singleton or column bound
    elsewhere."""
    return FeasibleBox(tuple(factors), columns)


class RegionResult(NamedTuple):
    """Full pipeline output: verdict, reduction and boxes.  Each box's
    ``columns`` are the witnesses of ``reduction.active_rows`` in ascending
    row order."""

    verdict: FeasibilityVerdict
    analysis: CellAnalysis
    reduction: ReductionState | None
    boxes: tuple[FeasibleBox, ...]

    @property
    def is_feasible(self) -> bool:
        return self.verdict.ok


def reduce_system(
    system: BipolarSystem, *, simplify: bool = True
) -> tuple[CellAnalysis, FeasibilityVerdict, ReductionState | None]:
    """First half of the pipeline: analysis, necessary feasibility checks and
    reduction to fixpoint (the initial state when simplify is off).

    The state is None when the necessary checks already fail.
    """
    analysis = CellAnalysis(system)
    verdict = necessary_feasibility(analysis)
    if not verdict.ok:
        return analysis, verdict, None
    state = (
        simplify_to_fixpoint(analysis) if simplify else ReductionState.initial(analysis)
    )
    return analysis, verdict, state


def feasible_region(
    system: BipolarSystem,
    *,
    simplify: bool = True,
    max_count: int = DEFAULT_MAX_ASSIGNMENTS,
) -> RegionResult:
    """Resolve the feasible region of a system end to end.

    The first half (``reduce_system``), then assignment enumeration and box
    assembly.  The verdict decides: a failed necessary check, or
    "no_admissible_assignment" when the checks pass but the search finds no
    box (possible, since they are necessary only); "ok" means at least one
    box.
    """
    analysis, verdict, state = reduce_system(system, simplify=simplify)
    if state is None:
        return RegionResult(verdict, analysis, None, ())
    boxes = tuple(enumerate_admissible(analysis, state, max_count))
    verdict = verdict if boxes else FeasibilityVerdict("no_admissible_assignment")
    return RegionResult(verdict, analysis, state, boxes)
