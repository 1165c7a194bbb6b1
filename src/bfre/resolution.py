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

The search over the admissible functions is a DAG, not a tree (the
frontier-based construction of decision diagrams: Knuth, TAOCP 4A §7.1.4;
Iwashita & Minato, TCS-TR-A-13-69, 2013).  Rows are assigned in ascending
order.  The *frontier* of depth k is the set of columns that rows k, k+1,
... can still take; a factor off the frontier is final.  Two search states
at depth k that hold the same factor objects on the frontier have the same
subtree, so ``search_dag`` builds each once, keyed on ``(k, ids of the
frontier factors)``.  A node's edges ``(column, joint factor, child)`` come
in candidate order, a child with no path below it is dropped, and every
node carries the exact number of paths below it.  A box is a root-to-sink
path, its rank is its place in lexicographic order of the witness columns,
and the root's count is the exact number of admissible functions.

No pass over the DAG recurses: the DAG is as deep as the number of active
rows, and a system with a thousand of them (an unreduced one, say) would
pass the interpreter's frame limit.  The walk is a loop over a stack of
edge iterators.  The other passes (the build here, the optimum's exact
bound, ``verify``'s union test and the CLI's text DAG) are written as
recursive generators that yield each call's frame, and ``_drive`` keeps
the frames on a list.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Generator, NamedTuple, NoReturn, Sequence

from .intervals import IntervalUnion
from .simplify import ReductionState, simplify_to_fixpoint
from .system import (
    BipolarSystem,
    CellAnalysis,
    FeasibilityVerdict,
    necessary_feasibility,
)

__all__ = [
    "DagNode",
    "FeasibleBox",
    "RegionResult",
    "ResourceLimitError",
    "SearchDag",
    "root_factors",
    "search_dag",
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


#: A record built by position, without the Python-level ``__new__`` of
#: ``NamedTuple``: the search makes one per node and one per box.
_new = tuple.__new__


def _drive(frame: Generator) -> Any:
    """The result of ``frame``, run with its calls on a list instead of the
    Python stack.  A pass written as a recursive function, with each call
    ``f(x)`` to itself written ``(yield f(x))``, runs here to any depth: a
    yielded frame is run next, and its result is sent to the frame that
    yielded it."""
    stack, value = [frame], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


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


class DagNode(NamedTuple):
    """A node of the search DAG: ``edges`` are ``(column, joint factor,
    child)`` in candidate order, and ``count`` is the number of paths from
    here to the sink.  The sink has no edge and count 1."""

    edges: tuple[tuple[int, IntervalUnion, DagNode], ...]
    count: int


#: The end of every path.
_SINK = DagNode((), 1)


class SearchDag(NamedTuple):
    """The admissible functions of a (reduced) problem as a DAG.

    ``root`` has ``depth`` edges on each path to the sink, one per active
    row.  ``base`` is ``root_factors``, the factor of every column before
    any edge narrows it.  ``last[j]`` is the depth of the last row that may
    take column j, -1 when none may: below it the factor of column j is
    final.
    """

    root: DagNode
    base: tuple[IntervalUnion, ...]
    last: tuple[int, ...]
    depth: int

    @property
    def count(self) -> int:
        """The exact number of boxes: the paths from the root."""
        return self.root.count


#: The DAG of a region whose necessary checks fail: no path.
_EMPTY = SearchDag(DagNode((), 0), (), (), 0)


def root_factors(analysis: CellAnalysis, state: ReductionState) -> list[IntervalUnion]:
    """The root of the assignment search: the factor every box keeps on the
    columns its assignment leaves alone, the fixed singleton on fixed columns
    and the column bound elsewhere."""
    fixed = state.fixed
    return [
        IntervalUnion.interval(fixed[j], fixed[j]) if j in fixed else bound
        for j, bound in enumerate(analysis.col_bounds)
    ]


def search_dag(
    analysis: CellAnalysis, state: ReductionState, max_count: int | None = None
) -> SearchDag:
    """The depth-first search over the admissible functions of the (reduced)
    problem, built whole as a DAG.

    Active rows are assigned in ascending order, each to its candidate
    columns in ascending order.  The search state is the current partial
    box, ``factors``: it starts as ``root_factors``, and assigning row i to
    column j narrows ``factors[j]`` to its intersection with the restricted
    set of cell (i, j).  An edge exists only while that intersection is
    non-empty, which is exactly the admissibility condition, so every
    admissible function is a path.  The first row on a column takes the
    restricted set itself, which lies inside the column bound, and each
    later row's intersection is computed once per build for each distinct
    (earlier factor, cell) pair and then shared, so the boxes of different
    paths share factor objects.

    A node at depth k is built once per ``(k, ids of the factors on the
    frontier)``.  The ids are stable: every factor stays alive in the
    analysis, in ``base`` or as a value of the intersection memo.

    With ``max_count``, the build raises ``ResourceLimitError`` as soon as
    a node's count so far exceeds it.  Every path below a kept node is a
    path below the root, so this happens exactly when the root's count
    would exceed ``max_count``, and the build stops there.
    """
    rows = sorted(state.active_rows)
    cells = [analysis.restricted[i] for i in rows]
    candidates = [state.row_candidates(analysis, i) for i in rows]
    base = root_factors(analysis, state)
    depth = len(rows)
    last = [-1] * len(base)
    for k, columns in enumerate(candidates):
        for j in columns:
            last[j] = k
    if not all(candidates):
        return SearchDag(_EMPTY.root, tuple(base), tuple(last), depth)
    # keys[k] picks the frontier of depth k from ids, where ids[j] is
    # id(factors[j])
    frontier: set[int] = set()
    keys = []
    for columns in reversed(candidates):
        frontier.update(columns)
        keys.append(itemgetter(*frontier))
    keys.reverse()
    factors = list(base)
    ids = list(map(id, base))
    # before & cell per (id(before), id(cell)): both stay alive, in the
    # analysis or as a value of this dict, so no id is reused
    joints: dict[tuple[int, int], IntervalUnion] = {}
    nodes: list[dict] = [{} for _ in range(depth)]

    def build(k: int, key: Any) -> Generator:
        restricted = cells[k]
        final = k + 1 == depth
        edges = []
        count = 0
        for j in candidates[k]:
            before, cell = factors[j], restricted[j]
            if before is base[j]:
                joint = cell
            else:
                pair = (id(before), id(cell))
                joint = joints.get(pair)
                if joint is None:
                    joint = joints[pair] = before & cell
            if not joint.pieces:  # empty
                continue
            if final:
                child = _SINK
            else:
                factors[j], ids[j] = joint, id(joint)
                below = keys[k + 1](ids)
                child = nodes[k + 1].get(below)
                if child is None:
                    child = yield build(k + 1, below)
                factors[j], ids[j] = before, id(before)
                if not child.count:
                    continue
            edges.append((j, joint, child))
            count += child.count
            if max_count is not None and count > max_count:
                _raise_cap(max_count)
        node = nodes[k][key] = _new(DagNode, (tuple(edges), count))
        return node

    root = _drive(build(0, keys[0](ids))) if depth else _SINK
    if max_count is not None and root.count > max_count:  # no row: one path
        _raise_cap(max_count)
    return _new(SearchDag, (root, tuple(base), tuple(last), depth))


def walk_admissible(
    dag: SearchDag,
    leaf: Callable[[tuple[int, ...], list[IntervalUnion]], None],
    prune: Callable[[int, list[IntervalUnion], DagNode], bool] | None = None,
) -> None:
    """Walk the paths of the DAG depth first, edges in order, so leaves come
    in lexicographic order of their assignments; enumeration, the optimum
    search and the CLI's box report share it.  The walk only moves the
    edges' factors into place, so the CLI walks the same DAG with each
    factor replaced by its text.

    ``leaf(columns, factors)`` runs at each leaf with its witness columns,
    one per active row in ascending row order, and the partial box as it
    stands, which is that assignment's box; ``factors`` is the walk's own
    list, so a leaf copies what it keeps.  With no active row the only leaf
    is ``leaf((), factors)``, and a DAG without a path has no leaf.
    ``prune(remaining, factors, child)`` runs on every edge as the walk
    takes it, the last row's included: ``factors`` holds the edge's joint
    factor, ``child`` is the node it leads to (the sink from the last row)
    and ``remaining`` is the number of rows below ``child``.  When it
    returns True the child's paths are skipped, and from the last row that
    is the one leaf.  A child with no path is not in the DAG, so it is
    never offered.

    The walk keeps its path in lists indexed by depth, with an iterator
    over the edges left at each of its nodes, rather than on ``_drive``: it
    runs on every command, once per path prefix, and a loop makes no frame
    per node.
    """
    factors = list(dag.base)
    depth = dag.depth
    if not depth and dag.count:  # no active row: one box, no edge
        leaf((), factors)
    chosen = [0] * depth  # the column of the path's edge from each depth
    kept: list = [None] * depth  # the factor that edge replaced
    edges = [iter(dag.root.edges)] + [None] * depth  # the edges left at each depth
    d = 0
    while True:
        remaining = depth - 1 - d
        for j, joint, child in edges[d]:
            kept[d], factors[j] = factors[j], joint
            chosen[d] = j
            if prune is None or not prune(remaining, factors, child):
                if remaining:
                    d += 1
                    edges[d] = iter(child.edges)
                    break
                leaf(tuple(chosen), factors)  # from the last row's edges
            factors[j] = kept[d]
        else:
            if not d:
                return
            d -= 1
            factors[chosen[d]] = kept[d]


def _raise_cap(max_count: int) -> NoReturn:
    """Raise the ``ResourceLimitError`` of a region with more than
    ``max_count`` paths.  Any path proves the system feasible, so the
    message says so."""
    raise ResourceLimitError(
        f"more than {max_count} admissible assignments; {max_count} boxes "
        "found, so the system is feasible; raise the cap"
    )


def enumerate_admissible(
    analysis: CellAnalysis,
    state: ReductionState,
    max_count: int = DEFAULT_MAX_ASSIGNMENTS,
    *,
    dag: SearchDag | None = None,
) -> list[FeasibleBox]:
    """The boxes of all admissible functions of the (reduced) problem, in
    lexicographic order of their witness ``columns``.

    ``walk_admissible`` without pruning on ``dag``, by default
    ``search_dag(analysis, state, max_count)``; each leaf's box is its
    partial box as it stands.  More than ``max_count`` boxes raises
    ``ResourceLimitError`` before any box is listed: while the DAG is built,
    or from the count of the DAG given.
    """
    if dag is None:
        dag = search_dag(analysis, state, max_count)
    elif dag.count > max_count:
        _raise_cap(max_count)
    out: list[FeasibleBox] = []
    walk_admissible(dag, lambda columns, factors: out.append(solution_box(columns, factors)))
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
    and the partial box the walk holds at its leaf: the joint restricted
    set on each assigned column, the fixed singleton or column bound
    elsewhere."""
    return _new(FeasibleBox, (tuple(factors), columns))


class RegionResult(NamedTuple):
    """Full pipeline output: verdict, reduction and the search DAG, whose
    count is the exact number of boxes.  ``reduction`` is None, and the DAG
    has no path, when the necessary checks fail."""

    verdict: FeasibilityVerdict
    analysis: CellAnalysis
    reduction: ReductionState | None
    dag: SearchDag

    @property
    def is_feasible(self) -> bool:
        return self.verdict.ok

    @property
    def boxes(self) -> tuple[FeasibleBox, ...]:
        """The boxes, for library callers and tests, in lexicographic order
        of their ``columns``: the witnesses of ``reduction.active_rows`` in
        ascending row order.  Each read expands the DAG again, so a caller
        that needs them more than once keeps the tuple.  The CLI never reads
        them: ``feasible`` and ``solve`` write the boxes straight off the
        DAG, and ``verify`` tests membership on it.  The cap was judged when
        the region was resolved."""
        if self.reduction is None:
            return ()
        dag = self.dag
        return tuple(enumerate_admissible(self.analysis, self.reduction, dag.count, dag=dag))


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

    The first half (``reduce_system``), then the search DAG.  The verdict
    decides: a failed necessary check, or "no_admissible_assignment" when
    the checks pass but the DAG has no path (possible, since they are
    necessary only); "ok" means at least one box.  More than ``max_count``
    boxes raises ``ResourceLimitError`` as soon as the DAG's build counts
    more paths than that.
    """
    analysis, verdict, state = reduce_system(system, simplify=simplify)
    if state is None:
        return RegionResult(verdict, analysis, None, _EMPTY)
    dag = search_dag(analysis, state, max_count)
    verdict = verdict if dag.count else FeasibilityVerdict("no_admissible_assignment")
    return RegionResult(verdict, analysis, state, dag)
