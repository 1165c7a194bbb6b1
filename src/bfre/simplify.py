"""Region-preserving reduction of a system before enumeration.

Five rules fix variables, delete redundant equations and remove resolved
columns.  Each rule preserves the feasible region of the original system, so
they are applied in a fixed cycle (1 through 5) until a full cycle changes
nothing.

All rule predicates read the solution sets of the ORIGINAL analysis; deleting
a row or column only removes its index from the active sets.  Rebuilding the
sets from a physically reduced matrix would loosen the column bounds and
admit points that violate the deleted equations, so it is never done.  For
the same reason a deleted column is never cited by a later rule application:
witness columns are always drawn from the currently active set.

Rules 3 and 5 look only at each row's support, its active columns with a
non-empty restricted set.  Off the support a row's sets are empty, which
decides domination and column-bound equality without comparing sets.

The audit log is the only record of change: a rule changes the state
exactly when it deletes a row or fixes a column, and both append an event.
"""

from __future__ import annotations

from typing import NamedTuple

from .system import CellAnalysis

__all__ = [
    "RuleEvent",
    "ReductionState",
    "apply_rule1",
    "apply_rule2",
    "apply_rule3",
    "apply_rule4",
    "apply_rule5",
    "simplify_to_fixpoint",
]


class RuleEvent(NamedTuple):
    """One audit-log entry: which rule did what, and why."""

    rule: int
    action: str  # "fix" | "drop_row"
    row: int | None = None
    col: int | None = None
    value: float | None = None
    why: str = ""

    def to_dict(self) -> dict:
        """The fields in declaration order, without the unset ones."""
        return {name: v for name, v in zip(self._fields, self) if v not in (None, "")}


class ReductionState:
    """Active row/column index sets, fixed variables and the audit log.

    Indices always refer to the original system.  Fixed columns are exactly
    the deleted columns; their keys are disjoint from active_cols.
    """

    __slots__ = ("active_rows", "active_cols", "fixed", "log")

    def __init__(
        self,
        active_rows: list[int],
        active_cols: list[int],
        fixed: dict[int, float],
        log: list[RuleEvent],
    ) -> None:
        self.active_rows = active_rows
        self.active_cols = active_cols
        self.fixed = fixed
        self.log = log

    @classmethod
    def initial(cls, analysis: CellAnalysis) -> "ReductionState":
        return cls(list(range(analysis.m)), list(range(analysis.n)), {}, [])

    def row_candidates(self, analysis: CellAnalysis, i: int) -> list[int]:
        """Active columns that can witness equation i: its support columns
        that are not fixed, since the fixed columns are the deleted ones."""
        fixed = self.fixed
        return [j for j in analysis.row_support[i] if j not in fixed]

    def drop_row(self, i: int, rule: int, why: str) -> None:
        self.active_rows.remove(i)
        self.log.append(RuleEvent(rule, "drop_row", row=i, why=why))

    def fix_col(
        self, analysis: CellAnalysis, j: int, value: float, rule: int, why: str
    ) -> None:
        """Fix x_j = value, then drop every active row it witnesses."""
        self.active_cols.remove(j)
        self.fixed[j] = value
        self.log.append(RuleEvent(rule, "fix", col=j, value=value, why=why))
        for i in list(self.active_rows):
            cell = analysis.restricted[i][j]
            if cell.pieces and cell.contains(value):
                self.drop_row(i, rule, f"x[{j}] = {value:.12g} witnesses equation {i}")


def apply_rule1(state: ReductionState, analysis: CellAnalysis) -> None:
    """Equations with zero right-hand side are redundant: delete them."""
    for i in list(state.active_rows):
        if analysis.system.b[i] == 0.0:
            state.drop_row(i, 1, f"b[{i}] = 0")


def apply_rule2(state: ReductionState, analysis: CellAnalysis) -> None:
    """Singleton column bounds pin their variable.

    When a column bound collapses to a point k, every feasible solution has
    x_j = k; the column is resolved, and every equation whose restricted set
    at j contains k is already satisfied and can be deleted.
    """
    for j in list(state.active_cols):
        k = analysis.col_bounds[j].singleton()
        if k is None:
            continue
        state.fix_col(
            analysis, j, k, 2, f"column bound {j} is the single point {k:.12g}"
        )


def _dominating_row(
    state: ReductionState, analysis: CellAnalysis, supports: dict[int, frozenset[int]], i0: int
) -> int | None:
    """First active row whose restricted sets are contained in row i0's on
    every active column.

    Off its support a row's sets are empty, hence contained in anything;
    on it they are non-empty, hence contained in no empty set.  So row i
    can dominate row i0 only if its support lies inside i0's, and then only
    the cells on its support need comparing.  Identical rows, those with
    equal supports and equal sets on them, tie-break by keeping the smaller
    index.
    """
    restricted = analysis.restricted
    row0, support0 = restricted[i0], supports[i0]
    for i in state.active_rows:
        support = supports[i]
        if i == i0 or not support <= support0:
            continue
        row = restricted[i]
        if not all(row[j].issubset(row0[j]) for j in support):
            continue
        identical = support == support0 and all(
            row[j].approx_equals(row0[j]) for j in support
        )
        if identical and i > i0:
            continue
        return i
    return None


def apply_rule3(state: ReductionState, analysis: CellAnalysis) -> None:
    """Delete equations dominated by another equation.

    If some row i has restricted sets contained in row i0's everywhere, any
    point satisfying i also satisfies i0, so i0 is redundant.  Rows are
    deleted one at a time so the witness row always survives its target.

    One pass in row order suffices: the rule leaves the active columns
    alone and a deletion only removes candidate witnesses, so a row not
    dominated when visited cannot become dominated later.  For the same
    reason each row's support over the active columns is computed once per
    pass.
    """
    supports = {i: frozenset(state.row_candidates(analysis, i)) for i in state.active_rows}
    for i0 in list(state.active_rows):
        i = _dominating_row(state, analysis, supports, i0)
        if i is not None:
            state.drop_row(i0, 3, f"restricted sets of row {i} contained in row {i0}'s")


def apply_rule4(state: ReductionState, analysis: CellAnalysis) -> None:
    """Equations with a single witness column holding a single point pin it.

    If equation i0 can only be witnessed at column j0 and the restricted set
    there is the point k, feasibility forces x_j0 = k; fix it, resolve the
    column, and delete every equation witnessed by k at j0.
    """
    for i0 in list(state.active_rows):
        if i0 not in state.active_rows:
            continue
        candidates = state.row_candidates(analysis, i0)
        if len(candidates) != 1:
            continue
        j0 = candidates[0]
        k = analysis.restricted[i0][j0].singleton()
        if k is None:
            continue
        state.fix_col(
            analysis, j0, k, 4, f"equation {i0} forces x[{j0}] = {k:.12g} (only witness)"
        )


def apply_rule5(state: ReductionState, analysis: CellAnalysis) -> None:
    """Delete equations whose restricted set fills an entire column bound.

    Such an equation is witnessed by every admissible value of that variable
    and constrains nothing.  Only support columns can qualify: elsewhere the
    restricted set is empty, and a column with an empty bound is in no
    row's support.
    """
    for i0 in list(state.active_rows):
        row = analysis.restricted[i0]
        for j0 in state.row_candidates(analysis, i0):
            if row[j0].approx_equals(analysis.col_bounds[j0]):
                state.drop_row(
                    i0, 5, f"restricted set at ({i0}, {j0}) equals column bound {j0}"
                )
                break


_RULES = (apply_rule1, apply_rule2, apply_rule3, apply_rule4, apply_rule5)


def simplify_to_fixpoint(analysis: CellAnalysis) -> ReductionState:
    """Apply the rules in the cycle 1..5 until a full cycle appends nothing
    to the log.

    Every change strictly shrinks the active index sets, so the loop runs at
    most m + n cycles.  The log is deterministic for a given input.
    """
    state = ReductionState.initial(analysis)
    while True:
        logged = len(state.log)
        for rule in _RULES:
            rule(state, analysis)
        if len(state.log) == logged:
            return state
