"""Bipolar fuzzy relational equation systems and their solution-set analysis.

A system couples an m x n positive matrix A+ and negative matrix A- with a
right-hand side b under a continuous t-norm phi; equation i reads

    max_j  max( phi(a+_ij, x_j), phi(a-_ij, 1 - x_j) )  =  b_i .

``CellAnalysis`` eagerly computes, for every cell (i, j), the set of x_j
values keeping the cell at or below b_i (the relaxed set) and the set hitting
b_i exactly (the exact set); every downstream stage -- reduction rules,
assignment enumeration, box assembly, the membership test -- reads these
cached sets.  They are cut out by the endpoints of the cell's two literals:
phi(a+, x) = b_i holds on [l+, u+], and phi(a-, 1 - x) = b_i on
[1 - u-, 1 - l-], so one scalar solver serves both polarities.

Only literals that reach b_i are solved.  phi(a, x) <= a, so a literal with
b_i - a > 1e-12 (the drift tolerance of ``solve_scalar_eq``) never equals
b_i and bounds nothing.  Most cells have no reaching literal: they share
one full set [0, 1] as their relaxed set and one empty set as their exact
and restricted set, and ``CellAnalysis.reached[i]`` lists the other columns
of row i.  Column bounds, restricted sets and supports are built from the
reached cells alone, and only non-empty exact sets are clipped to their
column bound.

``is_feasible_point`` is the one point-membership test, up to
``intervals.EPS``.  It always tests the whole system: the reduction rules
preserve the feasible region, so a reduction shows only in the boxes it
leads to.  It is built from ``witness_mask``, which answers for one
coordinate at a time: -1 when x_j leaves its column bound, else the rows
x_j witnesses.  A point is feasible when no coordinate answers -1 and the
answers together cover every row, so a caller that meets the same x_j
many times (the ``verify`` grid walk) can ask once and keep the answer.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .intervals import IntervalUnion, _Record
from .tnorms import _EQ_DRIFT, TNormSpec, solve_scalar_eq, tnorm_eval

__all__ = [
    "BipolarSystem",
    "CellAnalysis",
    "FeasibilityVerdict",
    "is_feasible_point",
    "necessary_feasibility",
    "residual",
    "witness_mask",
]


def _unit_floats(values: Sequence[float], name: str) -> tuple[float, ...]:
    """``values`` as floats, each checked to be a number in [0, 1];
    ``name`` is what an error calls the sequence (``a_plus[i]``, ``b``)."""
    for j, v in enumerate(values):
        # exact types: a bool is an int in Python, and float() reads strings
        if type(v) not in (int, float) or not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}[{j}] = {v!r} is no number or outside [0, 1]")
    return tuple(map(float, values))


def _as_matrix(rows: Sequence[Sequence[float]], name: str, m: int, n: int):
    if len(rows) != m:
        raise ValueError(f"{name} must have {m} rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{name} row {i} must have {n} entries, got {len(row)}")
        out.append(_unit_floats(row, f"{name}[{i}]"))
    return tuple(out)


class BipolarSystem(_Record):
    """Problem data: matrices A+, A-, right-hand side b and the t-norm.

    Immutable, with the matrices and b stored as tuples of floats.  A
    record over all four fields: equal data make equal systems, with equal
    hashes, whatever sequences they were built from.
    """

    __slots__ = ("a_plus", "a_minus", "b", "tnorm")
    _fields = __slots__

    def __init__(
        self,
        a_plus: Sequence[Sequence[float]],
        a_minus: Sequence[Sequence[float]],
        b: Sequence[float],
        tnorm: TNormSpec,
    ) -> None:
        m = len(a_plus)
        if m < 1:
            raise ValueError("system needs at least one equation")
        n = len(a_plus[0])
        if n < 1:
            raise ValueError("system needs at least one variable")
        plus = _as_matrix(a_plus, "a_plus", m, n)
        minus = _as_matrix(a_minus, "a_minus", m, n)
        if len(b) != m:
            raise ValueError(f"b must have {m} entries, got {len(b)}")
        self._init(plus, minus, _unit_floats(b, "b"), tnorm)

    @property
    def m(self) -> int:
        return len(self.a_plus)

    @property
    def n(self) -> int:
        return len(self.a_plus[0])

    @classmethod
    def from_fre(
        cls, a: Sequence[Sequence[float]], b: Sequence[float], tnorm: TNormSpec
    ) -> "BipolarSystem":
        """Embed a classic relational system A phi x = b (negative side zero).

        phi(0, 1 - x_j) = 0 for every x_j, so the negative literals never
        contribute and solving the bipolar system solves the original one.
        """
        zeros = tuple(tuple(0.0 for _ in row) for row in a)
        return cls(tuple(tuple(row) for row in a), zeros, tuple(b), tnorm)


class FeasibilityVerdict(NamedTuple):
    """Outcome of the feasibility checks, with the column or row it names.

    status is "ok", "empty_column" (some variable has no admissible value),
    "empty_row" (some equation has no witness column) or
    "no_admissible_assignment" (the necessary checks pass, but the search
    finds no admissible assignment, so the region has no box).  The first
    three come from ``necessary_feasibility``, whose "ok" does NOT certify
    feasibility: the conditions are necessary only.  The verdict of a
    ``RegionResult`` is "ok" exactly when the region has at least one box.
    """

    status: str
    index: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: The relaxed set of every cell that no literal reaches.
_FULL = IntervalUnion.interval(0.0, 1.0)

#: The exact set of every cell that no literal reaches, and the restricted
#: set of every cell whose exact set is empty.
_EMPTY = IntervalUnion()


class CellAnalysis:
    """All per-cell and per-column sets of a system, computed eagerly.

    Attributes
    ----------
    relaxed[i][j]    : values of x_j keeping cell (i, j) at or below b_i
    exact[i][j]      : values of x_j making cell (i, j) hit b_i exactly
    col_bounds[j]    : single interval every feasible x_j must lie in
    restricted[i][j] : exact[i][j] clipped to col_bounds[j]
    row_support[i]   : columns whose restricted set is non-empty (witnesses)
    reached[i]       : ascending tuple of the columns j where a literal
                       reaches b_i (b_i - a <= _EQ_DRIFT for a = a+_ij or
                       a-_ij); every other cell of row i has the shared
                       [0, 1] as its relaxed set and the shared empty set as
                       its exact and restricted set
    column_witnesses[j] : pairs (1 << i, restricted[i][j]) of the rows i
                       with j in row_support[i], built on first use

    Immutable after construction, apart from ``column_witnesses`` being
    filled in once, and freely shareable.
    """

    def __init__(self, system: BipolarSystem) -> None:
        self.system = system
        t, n = system.tnorm, system.n
        # A literal with b_i - a > _EQ_DRIFT is exactly one solve_scalar_eq
        # finds no solution for (BipolarSystem rejects NaN), so it is not solved.
        # Cell (i, j) stays at or below b_i on [lo, hi] = [1 - u-, u+] (0 or 1
        # where a literal never reaches b_i); its exact set is the hit intervals
        # [l+, u+] and [1 - u-, 1 - l-] clipped to it.  Column bound: [max lo, min hi].
        self.relaxed, self.exact, self.reached = [], [], []
        lows, highs = [0.0] * n, [1.0] * n
        for a_plus, a_minus, b in zip(system.a_plus, system.a_minus, system.b):
            reached = tuple(
                j
                for j in range(n)
                if b - a_plus[j] <= _EQ_DRIFT or b - a_minus[j] <= _EQ_DRIFT
            )
            relaxed, exact = [_FULL] * n, [_EMPTY] * n
            for j in reached:
                p = solve_scalar_eq(t, a_plus[j], b) if b - a_plus[j] <= _EQ_DRIFT else None
                q = solve_scalar_eq(t, a_minus[j], b) if b - a_minus[j] <= _EQ_DRIFT else None
                lo = 0.0 if q is None else 1.0 - q.u
                hi = 1.0 if p is None else p.u
                relaxed[j] = IntervalUnion.interval(lo, hi)
                hits = []
                if p is not None:
                    hits.append((max(lo, p.l), hi))
                if q is not None:
                    hits.append((lo, min(hi, 1.0 - q.l)))
                exact[j] = IntervalUnion.from_pairs(hits)
                if lo > lows[j]:
                    lows[j] = lo
                if hi < highs[j]:
                    highs[j] = hi
            self.reached.append(reached)
            self.relaxed.append(relaxed)
            self.exact.append(exact)
        self.col_bounds = [IntervalUnion.interval(lo, hi) for lo, hi in zip(lows, highs)]
        self.restricted, self.row_support = [], []
        for exact, reached in zip(self.exact, self.reached):
            restricted = [_EMPTY] * n
            for j in reached:
                if exact[j].pieces:
                    restricted[j] = exact[j] & self.col_bounds[j]
            self.restricted.append(restricted)
            self.row_support.append(tuple(j for j in reached if restricted[j].pieces))

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def n(self) -> int:
        return self.system.n

    @cached_property
    def column_witnesses(self) -> list[tuple[tuple[int, IntervalUnion], ...]]:
        """Per column j, the pairs (1 << i, restricted[i][j]) of the rows i
        with j in row_support[i], in row order.  Built on first use: only
        ``witness_mask`` reads them."""
        out: list[list[tuple[int, IntervalUnion]]] = [[] for _ in range(self.n)]
        for i, (restricted, support) in enumerate(zip(self.restricted, self.row_support)):
            for j in support:
                out[j].append((1 << i, restricted[j]))
        return [tuple(pairs) for pairs in out]


def necessary_feasibility(analysis: CellAnalysis) -> FeasibilityVerdict:
    """Necessary checks: every column bound and every row support non-empty."""
    for j, col in enumerate(analysis.col_bounds):
        if col.is_empty:
            return FeasibilityVerdict("empty_column", j)
    for i, support in enumerate(analysis.row_support):
        if not support:
            return FeasibilityVerdict("empty_row", i)
    return FeasibilityVerdict("ok")


def witness_mask(analysis: CellAnalysis, j: int, v: float) -> int:
    """-1 when v lies outside col_bounds[j]; otherwise the bitmask of the
    rows i with j in row_support[i] and v in restricted[i][j]."""
    if not analysis.col_bounds[j].contains(v):
        return -1
    mask = 0
    for bit, restricted in analysis.column_witnesses[j]:
        if restricted.contains(v):
            mask |= bit
    return mask


def _check_length(x: Sequence[float], n: int) -> None:
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates, system has {n}")


def is_feasible_point(analysis: CellAnalysis, x: Sequence[float]) -> bool:
    """Exact membership test: x solves every equation of the system iff

    (I)  x_j lies in every column bound, and
    (II) every equation has a witness column j with x_j in restricted[i][j],

    that is, iff no ``witness_mask`` of x is -1 and their OR covers every row.
    """
    _check_length(x, analysis.n)
    covered = 0
    for j, v in enumerate(x):
        mask = witness_mask(analysis, j, v)
        if mask < 0:
            return False
        covered |= mask
    return covered == (1 << analysis.m) - 1


def residual(system: BipolarSystem, x: Sequence[float], i: int) -> float:
    """Absolute deviation of equation i's left-hand side from b_i at x in [0, 1]^n."""
    _check_length(x, system.n)
    t = system.tnorm
    lhs = 0.0
    for j, xj in enumerate(x):
        if not 0.0 <= xj <= 1.0:
            raise ValueError(f"x[{j}] = {xj!r} is no number or outside [0, 1]")
        v = max(
            tnorm_eval(t, system.a_plus[i][j], xj),
            tnorm_eval(t, system.a_minus[i][j], 1.0 - xj),
        )
        if v > lhs:
            lhs = v
    return abs(lhs - system.b[i])
