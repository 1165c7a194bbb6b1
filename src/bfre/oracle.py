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
each column rather than points x columns.  For each index of a list
column the walk keeps two answers, each computed the first time the index
is drawn: the value's ``witness_mask`` (-1 outside the column bound, else
the rows it witnesses) and the bitmask of the boxes whose factor contains
it, bit k standing for the box of rank k in the region's search DAG.  A
point is feasible when no witness mask is -1 and their OR covers every
row, which is how ``is_feasible_point`` is defined, and it lies in the box
union when the AND of its box masks is non-zero.  The box masks come from a
per-column index of the distinct box factors, which is computed on the DAG
by path rank, so ``verify`` never lists the boxes: below the last row that
may take column j, that column's factor is final, and the boxes through a
node there are one contiguous range of ranks.  A column's index is built
the first time the union test reaches the column; that test stops at the
first column where no box is left, so a walk whose points leave the region
early indexes a few columns, not all n.  A value's box mask then costs the
distinct factors of its column, not the boxes.  A lazy column gets no
table and is tested on every draw, so no table holds more than _LIST_MAX
ticks plus a column's endpoints, whatever ``cap`` and the step.

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
from .resolution import RegionResult, ResourceLimitError, SearchDag
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


def _ranks(dag: SearchDag) -> list[list[list]]:
    """The DAG's nodes by depth, each as ``[node, held, starts]``.

    A node's boxes are, for each path from the root to it, a contiguous
    range of ``node.count`` ranks, and each edge's child takes the next
    ``child.count`` ranks of every such range.  Bit r of ``starts`` is set
    when one of the ranges begins at rank r; the ranges do not overlap.
    ``held[j]`` is the factor the node holds on column j, which every path
    to it agrees on while j is on its frontier, since the factors there are
    its key.
    """
    levels = []
    level = [[dag.root, list(dag.base), 1]]
    for k in range(dag.depth):
        levels.append(level)
        if k + 1 == dag.depth:
            break
        below: dict[int, list] = {}
        for node, held, starts in level:
            offset = 0
            for c, joint, child in node.edges:
                entry = below.get(id(child))
                if entry is None:
                    held_below = held.copy()
                    held_below[c] = joint
                    below[id(child)] = [child, held_below, starts << offset]
                else:
                    entry[2] |= starts << offset
                offset += child.count
        level = list(below.values())
    return levels


def _factor_index(dag: SearchDag, levels: list[list[list]], j: int) -> dict[tuple, list]:
    """Column j's factor index: each distinct factor of the boxes there,
    keyed by its pieces (a tuple, hashed in C), mapped to
    ``[factor, bitmask of the boxes that have it]``, bit k standing for the
    box of rank k.

    It is read off the nodes of depth ``dag.last[j]``, the last row that
    may take column j (``levels`` is ``_ranks(dag)``), so no box is
    listed.  Each edge there fixes the column's factor for the ranks it
    covers: the edge's joint factor when the edge takes j, else the factor
    its node holds on j.  An edge covers ``child.count`` ranks from its
    offset in each of its node's ranges, and with ``span`` the first of
    them, ``(span << child.count) - span`` sets exactly those bits, since
    the ranges do not overlap.
    """
    top = dag.last[j]
    if top < 0:  # no row takes column j: every box keeps its root factor
        f = dag.base[j]
        return {f.pieces: [f, (1 << dag.count) - 1]}
    index: dict[tuple, list] = {}
    for node, held, starts in levels[top]:
        offset = 0
        for c, joint, child in node.edges:
            f = joint if c == j else held[j]
            span = starts << offset
            bits = (span << child.count) - span
            entry = index.get(f.pieces)
            if entry is None:
                index[f.pieces] = [f, bits]
            else:
                entry[1] |= bits
            offset += child.count
    return index


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
    box left to it, the one of lowest rank, whose factors come from
    descending the DAG's counts: one within the tolerance outside a box
    beats no corner.

    Feasibility is ``is_feasible_point`` taken apart by column: the
    ``witness_mask`` of each coordinate, remembered per (column, index) in
    a list column's table.  The union test runs through a per-column factor
    index: ``index[j]`` maps each distinct factor value of column j to the
    bitmask of the ranks of the boxes that have it there, and it is built
    by ``_factor_index`` the first time a point's union test reaches column
    j.  A point's surviving boxes are the AND over columns of the OR of the
    masks of the factors containing ``x[j]``, also remembered per (column,
    index).  Both loops stop early, at the first coordinate outside its
    column bound and once no box is left, so a column no point reaches
    with a box left is never indexed.
    """
    analysis, dag = region.analysis, region.dag
    index: list[dict[tuple, list] | None] = [None] * len(grid)
    everyone = (1 << dag.count) - 1
    rows = (1 << analysis.m) - 1
    witness = [_table(col) for col in grid]
    in_boxes = [_table(col) for col in grid]
    levels = _ranks(dag)
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
        alive = everyone
        for j, r in enumerate(point):
            if not alive:
                break
            hit = in_boxes[j][r]
            if hit is None:
                factors = index[j]
                if factors is None:
                    factors = index[j] = _factor_index(dag, levels, j)
                v = grid[j][r]
                hit = 0
                for f, bits in factors.values():
                    if f.contains(v):
                        hit |= bits
                in_boxes[j][r] = hit
            alive &= hit
        in_union = bool(alive)
        if feasible and objective is not None:
            x = tuple(map(getitem, grid, point))
            value = objective(x)
            if best_value is None or value < best_value:
                best_point, best_value = x, value
            if in_union:
                box = dag.factors_at((alive & -alive).bit_length() - 1)
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
