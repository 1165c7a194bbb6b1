"""Bipolar fuzzy relational equation systems and their solution-set analysis.

A system couples an m x n positive matrix A+ and negative matrix A- with a
right-hand side b under a continuous t-norm phi; equation i reads

    max_j  max( phi(a+_ij, x_j), phi(a-_ij, 1 - x_j) )  =  b_i .

``CellAnalysis`` eagerly computes, for every cell (i, j), the set of x_j
values keeping the cell at or below b_i (the relaxed set) and the set hitting
b_i exactly (the exact set); every downstream stage -- reduction rules,
assignment enumeration, box assembly, the membership test -- reads these
cached sets.  Negative-side sets come from solving phi(a-, y) = b in y and
reflecting through x = 1 - y, so one scalar solver serves both polarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intervals import IntervalUnion
from .tnorms import ScalarEqSolution, TNormSpec, solve_scalar_eq, tnorm_eval

__all__ = [
    "BipolarSystem",
    "CellAnalysis",
    "FeasibilityVerdict",
    "column_bounds",
    "restricted_sets",
    "necessary_feasibility",
    "residual",
]


def _as_matrix(rows: Sequence[Sequence[float]], name: str, m: int, n: int):
    if len(rows) != m:
        raise ValueError(f"{name} must have {m} rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{name} row {i} must have {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"{name}[{i}][{j}] = {v!r} outside [0, 1]")
        out.append(tuple(float(v) for v in row))
    return tuple(out)


@dataclass(frozen=True)
class BipolarSystem:
    """Problem data: matrices A+, A-, right-hand side b and the t-norm."""

    a_plus: tuple[tuple[float, ...], ...]
    a_minus: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    tnorm: TNormSpec

    def __post_init__(self) -> None:
        m = len(self.a_plus)
        if m < 1:
            raise ValueError("system needs at least one equation")
        n = len(self.a_plus[0]) if self.a_plus[0:] else 0
        if n < 1:
            raise ValueError("system needs at least one variable")
        object.__setattr__(self, "a_plus", _as_matrix(self.a_plus, "a_plus", m, n))
        object.__setattr__(self, "a_minus", _as_matrix(self.a_minus, "a_minus", m, n))
        if len(self.b) != m:
            raise ValueError(f"b must have {m} entries, got {len(self.b)}")
        for i, v in enumerate(self.b):
            if not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"b[{i}] = {v!r} outside [0, 1]")
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))

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


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the necessary feasibility checks.

    status is "ok", "empty_column" (some variable has no admissible value) or
    "empty_row" (some equation has no witness column).  "ok" does NOT certify
    feasibility; the conditions are necessary only.
    """

    status: str
    index: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _assemble_cell(
    pos: ScalarEqSolution, neg: ScalarEqSolution
) -> tuple[IntervalUnion, IntervalUnion]:
    """Combine the two scalar solutions of one cell.

    The relaxed set is the intersection of both literals' relaxations; the
    exact set additionally requires at least one literal to hit b exactly.
    """
    relaxed = pos.relaxed_set & neg.relaxed_set.reflected()
    exact = relaxed & (pos.solution_set | neg.solution_set.reflected())
    return relaxed, exact


def column_bounds(
    system: BipolarSystem,
    pos: Sequence[Sequence[ScalarEqSolution]],
    neg: Sequence[Sequence[ScalarEqSolution]],
) -> list[IntervalUnion]:
    """Per-column interval [L_j, U_j] every solution must respect.

    L_j is the largest lower cut 1 - u over rows whose negative entry reaches
    b_i, U_j the smallest upper cut u over rows whose positive entry does;
    the column is empty when they cross.  Equals the intersection of the
    column's relaxed cell sets.
    """
    out = []
    for j in range(system.n):
        lows = [1.0 - neg[i][j].u for i in range(system.m) if neg[i][j].u is not None]
        highs = [pos[i][j].u for i in range(system.m) if pos[i][j].u is not None]
        lo = max(lows, default=0.0)
        hi = min(highs, default=1.0)
        out.append(IntervalUnion.interval(lo, hi))
    return out


def restricted_sets(
    exact: Sequence[Sequence[IntervalUnion]], col_bounds: Sequence[IntervalUnion]
) -> list[list[IntervalUnion]]:
    """Exact cell sets clipped to their column bound."""
    return [[cell & col_bounds[j] for j, cell in enumerate(row)] for row in exact]


class CellAnalysis:
    """All per-cell and per-column sets of a system, computed eagerly.

    Attributes
    ----------
    relaxed[i][j]    : values of x_j keeping cell (i, j) at or below b_i
    exact[i][j]      : values of x_j making cell (i, j) hit b_i exactly
    col_bounds[j]    : single interval every feasible x_j must lie in
    restricted[i][j] : exact[i][j] clipped to col_bounds[j]
    row_support[i]   : columns whose restricted set is non-empty (witnesses)
    col_support[j]   : rows whose restricted set at j is non-empty

    Immutable after construction and freely shareable.
    """

    def __init__(self, system: BipolarSystem) -> None:
        self.system = system
        t = system.tnorm
        self.pos = [
            [solve_scalar_eq(t, system.a_plus[i][j], system.b[i]) for j in range(system.n)]
            for i in range(system.m)
        ]
        self.neg = [
            [solve_scalar_eq(t, system.a_minus[i][j], system.b[i]) for j in range(system.n)]
            for i in range(system.m)
        ]
        cells = [
            [_assemble_cell(self.pos[i][j], self.neg[i][j]) for j in range(system.n)]
            for i in range(system.m)
        ]
        self.relaxed = [[c[0] for c in row] for row in cells]
        self.exact = [[c[1] for c in row] for row in cells]
        self.col_bounds = column_bounds(system, self.pos, self.neg)
        self.restricted = restricted_sets(self.exact, self.col_bounds)
        self.row_support = [
            tuple(j for j in range(system.n) if not self.restricted[i][j].is_empty)
            for i in range(system.m)
        ]
        self.col_support = [
            tuple(i for i in range(system.m) if not self.restricted[i][j].is_empty)
            for j in range(system.n)
        ]

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def n(self) -> int:
        return self.system.n


def necessary_feasibility(analysis: CellAnalysis) -> FeasibilityVerdict:
    """Necessary checks: every column bound and every row support non-empty."""
    for j, col in enumerate(analysis.col_bounds):
        if col.is_empty:
            return FeasibilityVerdict("empty_column", j)
    for i, support in enumerate(analysis.row_support):
        if not support:
            return FeasibilityVerdict("empty_row", i)
    return FeasibilityVerdict("ok")


def residual(system: BipolarSystem, x: Sequence[float], i: int) -> float:
    """Absolute deviation of equation i's left-hand side from b_i at x."""
    if len(x) != system.n:
        raise ValueError(f"point has {len(x)} coordinates, system has {system.n}")
    t = system.tnorm
    lhs = 0.0
    for j in range(system.n):
        xj = min(1.0, max(0.0, x[j]))
        v = max(
            tnorm_eval(t, system.a_plus[i][j], xj),
            tnorm_eval(t, system.a_minus[i][j], 1.0 - xj),
        )
        if v > lhs:
            lhs = v
    return abs(lhs - system.b[i])
