"""Brute-force verification of the resolution pipeline.

Regions and optima are re-derived by exhaustive evaluation over a breakpoint
grid, but the point membership test reads the same ``CellAnalysis`` as the
pipeline, so a fault in the closed-form cell sets reaches both sides and
goes unseen: ``bfre verify`` prints ``verified`` on systems whose region
lost their float witness (ROADMAP item 2 moves the oracle onto ``residual``).

The grid contains every interval endpoint appearing in the analysis, so every
corner candidate the optimizer can produce is itself a grid point.

Long grid columns are lazy: such a column keeps runs of tick indices and
its few explicit values, and answers ``len`` and indexing by bisection, so
a fine step costs no memory until the grid is walked.  Columns with at
most _LIST_MAX ticks are plain lists.

The walk moves over column indices, not values.  A point is a tuple of
indices, taken from ``itertools.product`` of the index ranges or drawn one
per column from a seeded stream, and its values are read only when the
point is reported or handed to the objective.  No column is copied.

Per-column tables make the cost of a walk follow the distinct values of
each column rather than points x columns.  For each index of a list column
the walk keeps the value's ``witness_mask`` (-1 outside the column bound,
else the rows it witnesses), and on a column no row takes, whether the
value lies in the factor every box keeps there.  A point is feasible when
no witness mask is -1 and their OR covers every row, which is how
``is_feasible_point`` is defined.  It lies in the box union when some path
of the region's search DAG reaches the sink with each coordinate in its
column's final factor, so ``verify`` never lists the boxes, and a node
from which no path gets there is searched once per point.  A lazy column
gets no table and is tested on every draw, so no table holds more than
_LIST_MAX ticks plus a column's endpoints, whatever ``cap`` and the step.

``bfre verify`` walks its grid once: ``grid_membership_check`` draws each
point once, tests it through the tables and, given an objective, takes the
brute-force minimum in the same loop.  ``brute_force_min`` is the same
minimum as a walk of its own that calls ``is_feasible_point`` on every
point, and the tests keep it as the reference.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections.abc import Sequence
from operator import getitem
from typing import NamedTuple

from .intervals import IntervalUnion
from .optimize import MonotoneObjective
from .resolution import DagNode, RegionResult, ResourceLimitError, SearchDag
from .system import CellAnalysis, is_feasible_point, witness_mask

__all__ = [
    "GridReport",
    "breakpoint_grid",
    "grid_membership_check",
    "brute_force_min",
    "DEFAULT_GRID_CAP",
]

#: Default cap on the number of evaluated grid points.
DEFAULT_GRID_CAP = 2_000_000


#: A grid value at most this far above the previous kept one is dropped.
_MERGE_TOL = 1e-12

#: A walk keeps the first this many mismatching points it meets, and
#: counts them all.
_KEPT_MISMATCHES = 50

#: Columns with at most this many ticks are lists, which are cheaper to
#: index and which the walk tabulates per index; finer columns are lazy.
_LIST_MAX = 4096


class _GridColumn(Sequence[float]):
    """The sorted values of one grid column, without a list of its ticks.

    ``parts`` are runs of tick indices (a ``range``; the value of index k is
    ``k * step``) and tuples of values, in ascending order.  Length and
    indexing cost a bisection over the parts, never a tick list, so a fine
    step costs no memory until the grid is walked.
    """

    __slots__ = ("_step", "_parts", "_starts", "_len")

    def __init__(self, step: float, parts: Sequence[range | tuple[float, ...]]) -> None:
        self._step = step
        self._parts = tuple(parts)
        self._starts = list(itertools.accumulate(map(len, self._parts), initial=0))
        self._len = self._starts.pop()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> float:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("grid column index out of range")
        p = bisect.bisect_right(self._starts, i) - 1
        part = self._parts[p]
        value = part[i - self._starts[p]]
        return value * self._step if isinstance(part, range) else value


def _column(endpoints: list[float], step: float, last: int) -> Sequence[float]:
    """The sorted ticks ``k * step`` (k = 0 .. last) and 1.0 merged with the
    endpoints, all clipped to [0, 1]; a value within _MERGE_TOL above the
    previous kept one is dropped.

    The merge builds the column's parts.  Ticks below ``last`` lie in
    [0, 1) and more than _MERGE_TOL apart, so between two explicit values
    they form one run, of which only the first can fall within the
    tolerance.  Tick ``last`` and 1.0 are clipped and may coincide, so they
    join the explicit values.  With more than _LIST_MAX ticks the column is
    a lazy ``_GridColumn`` over the parts, else the list of their values.
    """
    explicit = [min(1.0, max(0.0, v)) for v in endpoints]
    explicit += [min(1.0, max(0.0, last * step)), 1.0]
    ticks = range(last)
    parts: list[range | tuple[float, ...]] = []
    kept: float | None = None
    k = 0
    # each value once: every one is clipped, so no -0.0 stands beside 0.0,
    # and a repeat of the kept value never passes the tolerance test
    for v in sorted(set(explicit)):
        # the ticks below v come first in the merged order
        j = bisect.bisect_left(ticks, v, lo=k, key=step.__rmul__)
        if k < j and kept is not None and k * step - kept <= _MERGE_TOL:
            k += 1
        if k < j:
            parts.append(range(k, j))
            kept = (j - 1) * step
        k = j
        if kept is None or v - kept > _MERGE_TOL:
            parts.append((v,))
            kept = v
    if last > _LIST_MAX:
        return _GridColumn(step, parts)
    return [v * step if isinstance(part, range) else v for part in parts for v in part]


def breakpoint_grid(analysis: CellAnalysis, step: float) -> list[Sequence[float]]:
    """Per-column sorted values: every endpoint of every set touching the
    column, plus multiples of step in [0, 1], merged within 1e-12.  A
    column with more than _LIST_MAX ticks is a lazy ``_GridColumn``, any
    other a list.  A step below 1 / DEFAULT_GRID_CAP raises
    ``ResourceLimitError``.

    Endpoints are read from the column bounds and the reached cells only.
    A cell no literal reaches has relaxed set [0, 1] and empty exact and
    restricted sets, so it adds only 0.0 and 1.0, and every column holds
    both already: 0.0 is tick 0 (or ``last * step`` when step > 1) and 1.0
    is always explicit.  Skipping those cells leaves every value, and its
    ``repr``, unchanged."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if 1.0 / step > DEFAULT_GRID_CAP:
        raise ResourceLimitError(f"grid step {step!r} is finer than 1/{DEFAULT_GRID_CAP}")
    last = int(1.0 / step)
    values = [bound.endpoints() for bound in analysis.col_bounds]
    for i, reached in enumerate(analysis.reached):
        relaxed, exact, restricted = analysis.relaxed[i], analysis.exact[i], analysis.restricted[i]
        for j in reached:
            values[j] += relaxed[j].endpoints()
            values[j] += exact[j].endpoints()
            values[j] += restricted[j].endpoints()
    return [_column(column, step, last) for column in values]


def _walk(grid: Sequence[Sequence[float]], cap: int, seed: int):
    """Deterministic walk over the grid as tuples of column indices:
    ``itertools.product`` of the index ranges when the Cartesian size fits
    the cap, else ``cap`` seeded draws, one index per column.

    The sampling contract is this rule: a draw for a column of length n
    repeats ``getrandbits(n.bit_length())`` until the value is below n.  It
    happens to be how ``random.Random(seed).choice`` picks an index, so a
    sample holds the points that ``choice`` drew, at one C call per
    coordinate instead of ``choice``'s two Python frames.
    """
    lengths = [len(col) for col in grid]
    total = 1
    for length in lengths:
        total *= length
    if total <= cap:
        return total, False, itertools.product(*map(range, lengths))
    return total, True, _draws(lengths, cap, random.Random(seed).getrandbits)


def _draws(lengths: list[int], cap: int, getrandbits):
    sizes = [(n, n.bit_length()) for n in lengths]
    for _ in range(cap):
        point = []
        for n, k in sizes:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            point.append(r)
        yield tuple(point)


class _NoTable:
    """The memo of a lazy column: it keeps nothing, so every draw is tested
    again, and the walk's memory does not grow with the points drawn."""

    __slots__ = ()

    def __getitem__(self, i: int) -> None:
        return None

    def __setitem__(self, i: int, value: int) -> None:
        pass


_NO_TABLE = _NoTable()


def _table(column: Sequence[float]) -> list | _NoTable:
    """A per-index memo for one column: a list of None as long as a list
    column, at most _LIST_MAX ticks plus its endpoints, and ``_NO_TABLE``
    for any other column, so no table grows with ``cap``."""
    return [None] * len(column) if isinstance(column, list) else _NO_TABLE


class GridReport(NamedTuple):
    """Outcome of a grid sweep comparing two membership definitions.

    ``best_point`` and ``best_value`` are the objective's minimum over the
    feasible points of the sweep, as ``brute_force_min`` finds it; both are
    None without an objective or without a feasible point.  ``snapped_value``
    is that minimum over the points snapped into a box, as the walk does it.
    ``mismatch_count`` counts the points whose two memberships differ, and
    ``mismatches`` keeps the first 50 of them in walk order, as
    ``(point, feasible, in_boxes)``.
    """

    total_points: int
    checked: int
    sampled: bool
    mismatch_count: int
    mismatches: list[tuple[tuple[float, ...], bool, bool]]
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None
    snapped_value: float | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatch_count


def grid_membership_check(
    region: RegionResult,
    grid: Sequence[Sequence[float]],
    cap: int = DEFAULT_GRID_CAP,
    seed: int = 0,
    objective: MonotoneObjective | None = None,
) -> GridReport:
    """Compare direct point feasibility against membership in the union of
    the region's boxes on every grid point (a seeded sample of ``cap``
    points when the grid is larger), without listing the boxes.  A correct
    resolution produces zero mismatches.  All of them are counted, but only
    the first 50 are kept, so a failing walk holds no more than that
    whatever ``cap`` is.

    Given an objective, the same walk also takes its minimum over the
    feasible points, by ``brute_force_min``'s rule: the first strictly
    smaller value wins.  No feasible point is kept besides the best one.
    For ``snapped_value`` each point moves to the nearest point of the first
    box that holds it, the one of lowest rank: one within the tolerance
    outside a box beats no corner.

    Feasibility is ``is_feasible_point`` taken apart by column: the
    ``witness_mask`` of each coordinate, remembered per (column, index) in
    a list column's table.  Union membership is reachability on the search
    DAG: the point must lie in the base factor of each column no row takes,
    remembered the same way, and ``_first_box`` must find a path to the
    sink that keeps every other coordinate in its column's final factor.
    """
    analysis, dag = region.analysis, region.dag
    rows = (1 << analysis.m) - 1
    witness = [_table(col) for col in grid]
    # every box keeps the base factor of a column no row takes
    kept = [(j, dag.base[j], _table(grid[j])) for j, k in enumerate(dag.last) if k < 0]
    closing = [[j for j, k in enumerate(dag.last) if k == row] for row in range(dag.depth)]
    total, sampled, points = _walk(grid, cap, seed)
    mismatches, mismatch_count = [], 0
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None
    snapped_value = best_value
    for point in points:
        covered = 0
        for j, r in enumerate(point):
            mask = witness[j][r]
            if mask is None:
                mask = witness[j][r] = witness_mask(analysis, j, grid[j][r])
            if mask < 0:
                covered = -1
                break
            covered |= mask
        feasible = covered == rows
        box = None
        for j, f, table in kept:
            r = point[j]
            hit = table[r]
            if hit is None:
                hit = table[r] = f.contains(grid[j][r])
            if not hit:
                break
        else:
            box = _first_box(dag, closing, grid, point)
        in_union = box is not None
        if feasible and objective is not None:
            x = tuple(map(getitem, grid, point))
            value = objective(x)
            if best_value is None or value < best_value:
                best_point, best_value = x, value
            if in_union:
                value = objective(tuple(map(_nearest, box, x)))
            if snapped_value is None or value < snapped_value:
                snapped_value = value
        if feasible != in_union:
            mismatch_count += 1
            if mismatch_count <= _KEPT_MISMATCHES:
                mismatches.append((tuple(map(getitem, grid, point)), feasible, in_union))
    checked = cap if sampled else total
    return GridReport(
        total, checked, sampled, mismatch_count, mismatches, best_point, best_value, snapped_value
    )


def _first_box(
    dag: SearchDag,
    closing: list[list[int]],
    grid: Sequence[Sequence[float]],
    point: tuple[int, ...],
) -> list[IntervalUnion] | None:
    """The factors of the first box in edge order, the one of lowest rank,
    that holds the point on the columns some row takes; None when no box
    does.

    The search goes depth first, edges in order, and keeps the partial box
    of its path.  ``closing[k]`` lists the columns whose last row is row k:
    an edge from depth k fixes their final factors, its joint on the column
    it takes and the factor its node holds on the others, and is followed
    only when each holds the point's value there.  Whether a node reaches
    the sink depends on the node alone, since the factors it holds on the
    columns that close below it are its key, so a node that does not is
    dead for the rest of the point and each node is searched at most once.
    """
    factors = list(dag.base)
    dead: set[int] = set()

    def reach(node: DagNode, k: int) -> bool:
        if not node.edges:  # the sink, or the root of a DAG without a path
            return node.count > 0
        here = closing[k]
        for c, joint, child in node.edges:
            if id(child) in dead:
                continue
            before = factors[c]
            factors[c] = joint
            for j in here:
                if not factors[j].contains(grid[j][point[j]]):
                    break
            else:
                if reach(child, k + 1):
                    return True
                dead.add(id(child))
            factors[c] = before
        return False

    return factors if reach(dag.root, 0) else None


def _nearest(factor: IntervalUnion, v: float) -> float:
    """The point of ``factor`` nearest to v, the first one on a tie."""
    return min((min(max(v, lo), hi) for lo, hi in factor.pieces), key=lambda y: abs(y - v))


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
    _, _, points = _walk(grid, cap, seed)
    best_point: tuple[float, ...] | None = None
    best_value: float | None = None
    for point in points:
        x = tuple(map(getitem, grid, point))
        if not is_feasible_point(analysis, x):
            continue
        v = objective(x)
        if best_value is None or v < best_value:
            best_point, best_value = x, v
    return best_point, best_value
