"""Brute-force verification of the resolution pipeline.

Regions and optima are re-derived by exhaustive evaluation over a breakpoint
grid, but the point membership test reads the same ``CellAnalysis`` as the
pipeline, so a fault in the closed-form cell sets reaches both sides and
goes unseen: ``bfre verify`` prints ``verified`` on systems whose region
lost their float witness (ROADMAP item 2 moves the oracle onto ``residual``).

The grid contains every interval endpoint appearing in the analysis, so every
corner candidate the optimizer can produce is itself a grid point.

Box-union membership runs through a per-column index of the distinct box
factors, so its cost grows with the distinct factors rather than with
boxes x points.

``bfre verify`` walks its grid once: ``grid_membership_check`` draws each
point once, tests it once with ``is_feasible_point`` and, given an
objective, takes the brute-force minimum in the same loop.
``brute_force_min`` is the same minimum as a walk of its own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .optimize import MonotoneObjective
from .resolution import FeasibleBox, ResourceLimitError
from .simplify import is_feasible_point
from .system import CellAnalysis

__all__ = [
    "GridReport",
    "breakpoint_grid",
    "grid_membership_check",
    "brute_force_min",
    "DEFAULT_GRID_CAP",
]

#: Default cap on the number of evaluated grid points.
DEFAULT_GRID_CAP = 2_000_000


def _dedup_sorted(values: list[float], tol: float = 1e-12) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def breakpoint_grid(analysis: CellAnalysis, step: float) -> list[list[float]]:
    """Per-column sorted value lists: every endpoint of every set touching
    the column, plus multiples of step in [0, 1].  A step below
    1 / DEFAULT_GRID_CAP raises ``ResourceLimitError``."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if 1.0 / step > DEFAULT_GRID_CAP:
        raise ResourceLimitError(f"grid step {step!r} is finer than 1/{DEFAULT_GRID_CAP}")
    ticks = [k * step for k in range(int(1.0 / step) + 1)] + [1.0]
    grid = []
    for j in range(analysis.n):
        values = list(ticks)
        values.extend(analysis.col_bounds[j].endpoints())
        for i in range(analysis.m):
            values.extend(analysis.relaxed[i][j].endpoints())
            values.extend(analysis.exact[i][j].endpoints())
            values.extend(analysis.restricted[i][j].endpoints())
        grid.append(_dedup_sorted([min(1.0, max(0.0, v)) for v in values]))
    return grid


def _iter_grid(grid: Sequence[Sequence[float]], cap: int, seed: int):
    """Deterministic iterator over the grid: exhaustive when the Cartesian
    size fits the cap, seeded uniform subsampling otherwise."""
    total = 1
    for col in grid:
        total *= len(col)
    if total <= cap:
        return total, False, itertools.product(*grid)
    choice = random.Random(seed).choice
    points = (tuple(map(choice, grid)) for _ in range(cap))
    return total, True, points


@dataclass
class GridReport:
    """Outcome of a grid sweep comparing two membership definitions.

    ``best_point`` and ``best_value`` are the objective's minimum over the
    feasible points of the sweep, as ``brute_force_min`` finds it; both are
    None without an objective or without a feasible point.
    """

    total_points: int
    checked: int
    sampled: bool
    mismatches: list[tuple[tuple[float, ...], bool, bool]]
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def grid_membership_check(
    analysis: CellAnalysis,
    boxes: Sequence[FeasibleBox],
    grid: Sequence[Sequence[float]],
    cap: int = DEFAULT_GRID_CAP,
    seed: int = 0,
    objective: MonotoneObjective | None = None,
) -> GridReport:
    """Compare direct point feasibility against box-union membership on every
    grid point (a seeded sample of ``cap`` points when the grid is larger).
    A correct resolution produces zero mismatches.

    Given an objective, the same walk also takes its minimum over the
    feasible points, by ``brute_force_min``'s rule: the first strictly
    smaller value wins.  No feasible point is kept besides the best one.

    The union test runs through a per-column factor index: ``index[j]``
    maps each distinct factor value of column j to the bitmask of the boxes
    that have it there.  A point's surviving boxes are the AND over columns of
    the OR of the masks of the factors containing ``x[j]``, so the cost per
    point grows with the distinct factors, not with the boxes.
    """
    # Keyed by value through the pieces tuple, whose hash runs in C.
    index: list[dict[tuple, list]] = [{} for _ in grid]
    for k, box in enumerate(boxes):
        bit = 1 << k
        for column, f in zip(index, box.factors):
            entry = column.get(f.pieces)
            if entry is None:
                column[f.pieces] = [f, bit]
            else:
                entry[1] |= bit
    everyone = (1 << len(boxes)) - 1
    total, sampled, points = _iter_grid(grid, cap, seed)
    mismatches = []
    checked = 0
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None
    for x in points:
        checked += 1
        feasible = is_feasible_point(analysis, x)
        if feasible and objective is not None:
            value = objective(x)
            if best_value is None or value < best_value:
                best_point, best_value = x, value
        alive = everyone
        for v, column in zip(x, index):
            if not alive:
                break
            hit = 0
            for f, mask in column.values():
                if f.contains(v):
                    hit |= mask
            alive &= hit
        in_union = bool(alive)
        if feasible != in_union:
            mismatches.append((x, feasible, in_union))
    return GridReport(total, checked, sampled, mismatches, best_point, best_value)


def brute_force_min(
    analysis: CellAnalysis,
    objective: MonotoneObjective,
    grid: Sequence[Sequence[float]],
    cap: int = DEFAULT_GRID_CAP,
    seed: int = 0,
) -> tuple[tuple[float, ...] | None, float | None]:
    """Minimum of the objective over feasible grid points.

    Returns (None, None) when no grid point is feasible.  Because the
    breakpoint grid contains every factor endpoint, the result equals the
    pipeline's global optimum whenever the corner-candidate selection is
    correct.
    """
    _, _, points = _iter_grid(grid, cap, seed)
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None
    for x in points:
        if not is_feasible_point(analysis, x):
            continue
        v = objective(x)
        if best_value is None or v < best_value:
            best_point, best_value = tuple(x), v
    return best_point, best_value
