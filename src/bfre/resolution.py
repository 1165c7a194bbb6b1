"""Resolution of the feasible region as a finite union of boxes.

An admissible function assigns one witness column to every active equation
such that equations sharing a column keep a jointly non-empty restricted set.
Each admissible function generates a box: the Cartesian product of the joint
restricted sets on assigned columns, the column bounds on unassigned columns,
and the fixed-variable singletons.  The union of the boxes over all
admissible functions is exactly the feasible region; the boxes may overlap
and are emitted without deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intervals import IntervalUnion
from .simplify import ReductionState, simplify_to_fixpoint
from .system import (
    BipolarSystem,
    CellAnalysis,
    FeasibilityVerdict,
    necessary_feasibility,
)

__all__ = [
    "AdmissibleFunction",
    "FeasibleBox",
    "RegionResult",
    "ResourceLimitError",
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


@dataclass(frozen=True)
class AdmissibleFunction:
    """A witness-column assignment, one column per active row.

    columns[k] is the column assigned to rows[k]; indices refer to the
    original system.  For every column used by several rows, the intersection
    of their restricted sets is non-empty.
    """

    rows: tuple[int, ...]
    columns: tuple[int, ...]


@dataclass(frozen=True)
class FeasibleBox:
    """One product box of the feasible region, tagged with its source.

    factors[j] is the admissible set for x_j: a singleton for fixed
    variables, the joint restricted set for assigned columns and the column
    bound otherwise.  Every factor is non-empty.
    """

    factors: tuple[IntervalUnion, ...]
    source: AdmissibleFunction

    def contains(self, x: Sequence[float]) -> bool:
        return all(f.contains(x[j]) for j, f in enumerate(self.factors))


def enumerate_admissible(
    analysis: CellAnalysis,
    state: ReductionState,
    max_count: int = DEFAULT_MAX_ASSIGNMENTS,
) -> list[FeasibleBox]:
    """The boxes of all admissible functions of the (reduced) problem, in
    lexicographic order of their ``source`` assignments.

    Depth-first search over active rows in ascending order, candidate
    columns in ascending order.  The search state is the current partial
    box, ``factors``: it starts as the fixed singletons and column bounds,
    and assigning row i to column j narrows ``factors[j]`` to its
    intersection with the restricted set of cell (i, j).  A branch extends
    only while that intersection is non-empty, which is exactly the
    admissibility condition, so the output is complete.  Each leaf's box is
    the partial box as it stands.  The first row on a column takes the
    restricted set itself, which lies inside the column bound, so boxes
    share factor objects.
    """
    rows = tuple(sorted(state.active_rows))
    candidates = [state.row_candidates(analysis, i) for i in rows]
    base = [
        IntervalUnion.point(state.fixed[j]) if j in state.fixed else bound
        for j, bound in enumerate(analysis.col_bounds)
    ]
    factors = list(base)
    out: list[FeasibleBox] = []
    chosen: list[int] = []

    def walk(k: int) -> None:
        if k == len(rows):
            if len(out) >= max_count:
                raise ResourceLimitError(
                    f"more than {max_count} admissible assignments; raise the cap"
                )
            out.append(solution_box(AdmissibleFunction(rows, tuple(chosen)), factors))
            return
        restricted = analysis.restricted[rows[k]]
        for j in candidates[k]:
            before = factors[j]
            joint = restricted[j] if before is base[j] else before & restricted[j]
            if joint.is_empty:
                continue
            factors[j] = joint
            chosen.append(j)
            walk(k + 1)
            chosen.pop()
            factors[j] = before

    walk(0)
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
    e: AdmissibleFunction, factors: Sequence[IntervalUnion]
) -> FeasibleBox:
    """The box generated by an admissible function, from the partial box the
    search holds at its leaf: the joint restricted set on each assigned
    column, the fixed singleton or column bound elsewhere."""
    return FeasibleBox(tuple(factors), e)


@dataclass
class RegionResult:
    """Full pipeline output: verdict, reduction and boxes (each box's
    ``source`` is its admissible function)."""

    verdict: FeasibilityVerdict
    analysis: CellAnalysis
    reduction: ReductionState | None
    boxes: tuple[FeasibleBox, ...]

    @property
    def is_feasible(self) -> bool:
        return self.verdict.ok and bool(self.boxes)


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
    assembly.  Infeasibility found by the necessary checks is reported in
    the verdict; an empty assignment set (possible for systems passing the
    necessary checks) yields no boxes, which also means infeasible.
    """
    analysis, verdict, state = reduce_system(system, simplify=simplify)
    if state is None:
        return RegionResult(verdict, analysis, None, ())
    boxes = tuple(enumerate_admissible(analysis, state, max_count))
    return RegionResult(verdict, analysis, state, boxes)
