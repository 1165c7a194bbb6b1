"""Coordinate-monotone objectives and global optimization over box unions.

An objective partitions the variables into a non-decreasing set and a
non-increasing set.  On a single box the optimum is then attained at a
closed-form corner point: the factor minimum on non-decreasing coordinates
and the factor maximum on non-increasing ones.  The global optimum over the
whole region is the best such corner over all boxes.  ``global_optimum``
finds it by a depth-first branch-and-bound over the witness assignments
(in the spirit of Fang & Li, Fuzzy Sets Syst. 103 (1999)), so most leaves
are never scored.  A separable objective (``linear``, ``sum_log``) gets an
exact bound: dynamic programming over the search DAG gives every node the
least sum its completions reach (Algorithm B on a decision diagram,
Knuth, TAOCP 4A §7.1.4), and only leaves within a rounding slack of the
optimum are scored.  Every other objective is bounded by the corner of the
partial box, which bounds every box below it.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Callable, NamedTuple, Sequence

from . import intervals
from .intervals import IntervalUnion, _Frozen
from .resolution import (
    DEFAULT_MAX_ASSIGNMENTS,
    DagNode,
    ResourceLimitError,
    SearchDag,
    search_dag,
    walk_admissible,
)
from .simplify import ReductionState
from .system import CellAnalysis

__all__ = [
    "MonotoneObjective",
    "Candidate",
    "InfeasibleError",
    "ProbeViolation",
    "global_optimum",
    "objective_catalog",
    "check_monotone",
    "OBJECTIVE_NAMES",
]


class InfeasibleError(ValueError):
    """Raised when optimization is attempted over an empty region."""


class MonotoneObjective(_Frozen):
    """A total evaluator on [0, 1]^n with a declared monotonicity partition.

    j_plus holds the coordinates the evaluator is non-decreasing in, j_minus
    the non-increasing ones; together they cover all n coordinates.  The
    declaration is trusted by the optimizer; ``check_monotone`` probes it.
    Immutable; two objectives are equal only when they are the same object.
    """

    __slots__ = ("name", "n", "j_plus", "j_minus", "fn")

    def __init__(
        self,
        name: str,
        n: int,
        j_plus: frozenset[int],
        j_minus: frozenset[int],
        fn: Callable[[Sequence[float]], float],
    ) -> None:
        if j_plus & j_minus:
            raise ValueError("j_plus and j_minus must be disjoint")
        if j_plus | j_minus != frozenset(range(n)):
            raise ValueError("j_plus and j_minus must cover all coordinates")
        if not all(type(j) is int for j in j_plus | j_minus):
            raise ValueError("j_plus and j_minus must hold integers")
        self._init(name, n, j_plus, j_minus, fn)

    def __call__(self, x: Sequence[float]) -> float:
        return self.fn(x)


class Candidate(NamedTuple):
    """The optimal corner of one box, named by the box's witness columns
    (one per active row, in ascending row order), with its objective
    value."""

    columns: tuple[int, ...]
    point: tuple[float, ...]
    value: float


def _corner_ends(objective: MonotoneObjective) -> tuple[int, ...]:
    """The end of its factor each coordinate of an optimal corner takes.

    Entry j is an index e with ``f.pieces[e][e]`` the coordinate: 0, the
    factor minimum, on non-decreasing coordinates and -1, the factor
    maximum, on non-increasing ones.
    """
    return tuple(0 if j in objective.j_plus else -1 for j in range(objective.n))


def global_optimum(
    analysis: CellAnalysis,
    state: ReductionState,
    objective: MonotoneObjective,
    max_count: int = DEFAULT_MAX_ASSIGNMENTS,
    *,
    dag: SearchDag | None = None,
) -> tuple[Candidate, list[Candidate]]:
    """The best corner over the region of the (reduced) problem, and every
    leaf corner the search compared, in the order it compared them.

    The search walks ``dag``, the region's search DAG, which it builds with
    ``search_dag(analysis, state)`` when none is given.
    ``walk_admissible`` visits the assignments in lexicographic order and
    scores each leaf it reaches by ``fn`` at its box's declared corner.  A
    leaf whose value is below the incumbent's becomes the incumbent.  The
    prune hook skips only children none of whose leaves can be strictly
    below the best corner value, so the result is that of scoring every
    box with ties broken toward the lexicographically smallest
    ``columns``, bit for bit.  Only ``compared`` depends on the bound.

    A separable objective (``linear``, ``sum_log``) is bounded exactly:
    ``_exact_prune`` finds the least sum of terms over the declared corners
    of all boxes by dynamic programming over the DAG and skips a child
    whose least completion exceeds it by more than the rounding of the
    sums.  It minimizes ``fn`` over the declared corners whether or not
    the declared partition is true, so under a false one the result is
    still the exhaustive corner scan's, though no longer the optimum over
    the region.

    Every other objective is bounded by the corner of the partial box:
    each later row only narrows the factors, and the objective is
    monotone, so that corner bounds every box below it from below.  A child
    whose bound is at least the incumbent's value is pruned.  The bound is
    made sound for floats.  Canonicalization collapses a piece of width in
    [-EPS, 0) to its midpoint, so each later intersection can move a factor
    end outward by up to EPS/2.  A child is pruned only when the corner
    widened outward by EPS per unassigned row, clamped to [0, 1], is still
    at least the incumbent.  This bound trusts the declared partition:
    under a false one the search may return another corner than scoring
    every box would.

    Comparing more than ``max_count`` leaves raises ``ResourceLimitError``,
    whose message gives the incumbent's value; a region without a leaf
    raises ``InfeasibleError``.
    """
    if dag is None:
        dag = search_dag(analysis, state)
    ends, fn, eps = _corner_ends(objective), objective.fn, intervals.EPS
    compared: list[Candidate] = []
    best: Candidate | None = None

    def corner_prune(remaining: int, factors: list[IntervalUnion], child: DagNode) -> bool:
        if best is None or not remaining:  # the last row's leaves are all scored
            return False
        w = eps * remaining
        top = 1.0 - w
        wide = [
            (v - w if v > w else 0.0) if e == 0 else (v + w if v < top else 1.0)
            for f, e in zip(factors, ends)
            for v in (f.pieces[e][e],)
        ]
        return fn(wide) >= best.value

    def leaf(columns: tuple[int, ...], factors: list[IntervalUnion]) -> None:
        nonlocal best
        point = tuple([f.pieces[e][e] for f, e in zip(factors, ends)])
        candidate = Candidate(columns, point, fn(point))
        compared.append(candidate)
        if best is None or candidate.value < best.value:
            best = candidate
        if len(compared) > max_count:
            raise ResourceLimitError(
                f"the optimum search compared {len(compared)} leaves, more than "
                f"{max_count}, without finishing; best value so far "
                f"{best.value!r}; raise the cap"
            )

    exact = _exact_prune(dag, fn, ends) if isinstance(fn, _Separable) else None
    walk_admissible(dag, leaf, exact or corner_prune)
    if best is None:
        raise InfeasibleError("no admissible assignment: the region is empty")
    return best, compared


def _exact_prune(
    dag: SearchDag, fn: _Separable, ends: tuple[int, ...]
) -> Callable[[int, list[IntervalUnion], DagNode], bool] | None:
    """The prune hook of the exact bound for a separable ``fn``, or None
    when a partial sum could overflow.

    Column j's factor is final below depth ``last[j]`` and is on the
    frontier of that depth, so the terms of the columns that close at depth
    k (``last[j] == k``) are a function of the node and the edge taken, and
    the columns with ``last[j] == -1`` add a constant from ``base``.  Hence
    ``v(node) = min over edges (closed(edge) + v(child))``, with v(sink) =
    0, is the least sum of terms over the node's completions (Algorithm B
    on a decision diagram: Knuth, TAOCP 4A §7.1.4).  One pass fills it,
    memoized on ``id(node)``: a node is reached first by some path, which
    holds its frontier factors.

    The walk then keeps the sum of closed terms along its path and skips a
    child, or a last-row leaf, when that sum plus ``v(child)``, less
    ``slack``, exceeds ``const + v(root)`` plus ``slack``.  The slack is a
    bound on rounding.  Each value compared adds at most n of the float
    terms that ``fn`` adds, by at most n + depth + 1 additions in some
    order, so it lies within E = (n + depth + 2) u T of the exact sum of
    its terms, with u = 2^-53 and T the sum over j of term j's largest
    magnitude on [0, 1].  ``fn`` itself lies within E of its exact sum,
    whether ``sum`` adds left to right (CPython 3.11 and before) or
    compensates (3.12 on).  So the first leaf of least ``fn`` has an exact
    sum within 2E of the least one, and a child on its path is compared
    within 4E of the target.  ``slack`` = 4E, so the test allows 8E:
    twice that, which also covers the rounding of the comparison itself.
    """
    term, depth = fn.term, dag.depth
    total = sum(max(abs(term(cj, 0.0)), abs(term(cj, 1.0))) for cj in fn.c)
    if not math.isfinite(2.0 * total):
        return None
    closing: list[list[tuple[int, float, int]]] = [[] for _ in range(depth)]
    const = 0.0
    for j, (k, f, cj, e) in enumerate(zip(dag.last, dag.base, fn.c, ends)):
        if k < 0:
            const += term(cj, f.pieces[e][e])
        else:
            closing[k].append((j, cj, e))

    def closed(k: int, factors: list[IntervalUnion]) -> float:
        s = 0.0
        for j, cj, e in closing[k]:
            s += term(cj, factors[j].pieces[e][e])
        return s

    factors = list(dag.base)
    least: dict[int, float] = {}  # id(node) -> v(node)

    def fill(node: DagNode, k: int) -> float:
        v = math.inf if node.edges else 0.0
        for j, joint, child in node.edges:
            before, factors[j] = factors[j], joint
            below = least.get(id(child))
            if below is None:
                below = least[id(child)] = fill(child, k + 1)
            v = min(v, closed(k, factors) + below)
            factors[j] = before
        return v

    slack = 4 * (len(fn.c) + depth + 2) * 2.0 ** -53 * total
    limit = const + fill(dag.root, 0) + 2 * slack
    sums = [const] * (depth + 1)  # sums[k]: the closed terms above depth k

    def prune(remaining: int, factors: list[IntervalUnion], child: DagNode) -> bool:
        k = depth - 1 - remaining
        s = sums[k + 1] = sums[k] + closed(k, factors)
        return s + least[id(child)] > limit

    return prune


# -- small symmetric eigenproblem -------------------------------------------


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Sweeps plane rotations over all off-diagonal positions until their norm
    is at most 1e-12, for at most 64 sweeps.  Ascending order.
    """
    n = len(matrix)
    a = [[float(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-12:
                raise ValueError("matrix is not symmetric")
    for _ in range(64):
        off = math.sqrt(
            sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        )
        if off <= 1e-12:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p][q], a[q][q] - a[p][p])
                c, s = math.cos(theta), math.sin(theta)
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                a[p][p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q][q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
    return tuple(sorted(a[i][i] for i in range(n)))


# -- objective catalog -------------------------------------------------------


def _require(params: dict, key: str, objective: str, many: bool):
    """Parameter ``key`` of ``objective``: a finite number, or a list of them."""
    if key not in params:
        raise ValueError(f"objective {objective!r} requires parameter {key!r}")
    value = params[key]
    values = value if many else [value]
    if many != isinstance(value, (list, tuple)) or {type(v) for v in values} - {int, float}:
        shape = "a list of numbers" if many else "a number"
        raise ValueError(f"objective {objective!r} parameter {key!r} must be {shape}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"objective {objective!r} parameter {key!r} must be finite")
    return value


class _Separable(NamedTuple):
    """The evaluator x -> sum_j term(c_j, x_j), added by ``sum``.

    ``term`` is monotone in x_j on [0, 1], so a term's largest magnitude
    there is at x_j = 0 or 1.  ``global_optimum`` reads the terms for its
    exact bound, and ``check_monotone`` reads c when ``term`` is the
    product.
    """

    c: tuple[float, ...]
    term: Callable[[float, float], float]

    def __call__(self, x: Sequence[float]) -> float:
        return sum(map(self.term, self.c, x))


def _build_linear(n: int, c: list):
    c = tuple(float(v) for v in c)
    if len(c) != n:
        raise ValueError(f"coefficient vector must have {n} entries, got {len(c)}")
    return _Separable(c, operator.mul), frozenset(j for j, cj in enumerate(c) if cj < 0.0)


def _build_simplex_support(n: int):
    # Support function of {y >= 0, sum y <= 1}: sup x.y = max(0, max_j x_j).
    def fn(x):
        return max(0.0, max(x))

    return fn, frozenset()


def _build_perspective(n: int, p: float):
    p = float(p)
    if p < 1.0:
        raise ValueError("perspective requires p >= 1")
    if n < 2:
        raise ValueError("perspective requires at least two variables")

    def fn(x):
        num = sum(abs(xj) ** p for xj in x[: n - 1])
        den = x[n - 1] ** (p - 1.0)
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den

    return fn, frozenset({n - 1})


def _build_geometric_mean(n: int):
    def fn(x):
        prod = 1.0
        for xj in x:
            prod *= xj
        return prod ** (1.0 / n)

    return fn, frozenset()


def _build_log_sum_exp(n: int):
    def fn(x):
        return math.log(sum(math.exp(xj) for xj in x))

    return fn, frozenset()


def _build_p_norm(n: int, p: float):
    p = float(p)
    if p < 1.0:
        raise ValueError("p_norm requires p >= 1")

    def fn(x):
        return sum(abs(xj) ** p for xj in x) ** (1.0 / p)

    return fn, frozenset()


def _build_frobenius(n: int):
    if n != 9:
        raise ValueError("frobenius reshapes x into 3x3 and requires n = 9")

    def fn(x):
        return math.sqrt(sum(xj * xj for xj in x))

    return fn, frozenset()


def _build_sum_largest(n: int, value: float):
    r = int(value)
    if r != value or not 1 <= r <= n:
        raise ValueError(f"sum_largest requires an integer r with 1 <= r <= {n}")

    def fn(x):
        return sum(sorted(x, reverse=True)[:r])

    return fn, frozenset()


def _build_max_eigenvalue(n: int):
    if n != 9:
        raise ValueError("max_eigenvalue embeds x into a symmetric 3x3 and requires n = 9")

    def fn(x):
        m = [
            [x[5], x[0], x[1]],
            [x[0], x[7], x[2]],
            [x[1], x[2], x[8]],
        ]
        return jacobi_eigenvalues(m)[-1]

    return fn, frozenset()


def _log_shift(a: float, x: float) -> float:
    return math.log(a + x)


def _build_sum_log(n: int, alpha: list):
    alpha = tuple(float(v) for v in alpha)
    if len(alpha) != n:
        raise ValueError(f"alpha must have {n} entries, got {len(alpha)}")
    if any(a <= 0.0 for a in alpha):
        raise ValueError("sum_log requires every alpha > 0")
    return _Separable(alpha, _log_shift), frozenset()


#: Each objective's builder and the parameters it reads, as (key, is_list).
#: ``objective_catalog`` reads them in this order and passes their values to
#: the builder after n; the builder returns the evaluator and the
#: coordinates it is non-increasing in.
_OBJECTIVES = {
    "linear": (_build_linear, (("c", True),)),
    "simplex_support": (_build_simplex_support, ()),
    "perspective": (_build_perspective, (("p", False),)),
    "max": (lambda n: (max, frozenset()), ()),
    "geometric_mean": (_build_geometric_mean, ()),
    "log_sum_exp": (_build_log_sum_exp, ()),
    "p_norm": (_build_p_norm, (("p", False),)),
    "frobenius": (_build_frobenius, ()),
    "sum_largest": (_build_sum_largest, (("r", False),)),
    "max_eigenvalue": (_build_max_eigenvalue, ()),
    "sum_log": (_build_sum_log, (("alpha", True),)),
}

OBJECTIVE_NAMES = tuple(sorted(_OBJECTIVES))


def objective_catalog(
    name: str,
    n: int,
    params: dict | None = None,
    j_plus: Sequence[int] | None = None,
    j_minus: Sequence[int] | None = None,
) -> MonotoneObjective:
    """Build a catalog objective for n variables.

    The monotonicity partition defaults to the catalog declaration; passing
    j_plus/j_minus overrides it (both must be given together).  A parameter
    the objective does not read is rejected, so a misspelt or misplaced key
    cannot pass silently.
    """
    if name not in _OBJECTIVES:
        raise ValueError(
            f"unknown objective {name!r}; expected one of {', '.join(OBJECTIVE_NAMES)}"
        )
    build, declared = _OBJECTIVES[name]
    keys = [key for key, _ in declared]
    params = params or {}
    unknown = [key for key in params if key not in keys]
    if unknown:
        takes = f"only {', '.join(map(repr, keys))}" if keys else "no parameters"
        raise ValueError(
            f"objective {name!r} takes {takes}; unknown parameter(s) "
            f"{', '.join(map(repr, unknown))}"
        )
    fn, minus = build(n, *(_require(params, key, name, many) for key, many in declared))
    plus = frozenset(range(n)) - minus
    if (j_plus is None) != (j_minus is None):
        raise ValueError("override j_plus and j_minus together or not at all")
    if j_plus is not None:
        plus, minus = frozenset(j_plus), frozenset(j_minus)
    return MonotoneObjective(name, n, plus, minus, fn)


# -- monotonicity probing ----------------------------------------------------


class ProbeViolation(NamedTuple):
    """A sampled contradiction of the declared monotonicity."""

    index: int
    point: tuple[float, ...]
    delta: float
    before: float
    after: float


def check_monotone(objective: MonotoneObjective, seed: int = 0) -> list[ProbeViolation]:
    """Randomized directional probing of the declared partition.

    Samples 256 points and single-coordinate increases and records every
    violation beyond 1e-9.  Advisory only: an empty report is evidence, not
    a proof.  Each probe bumps one coordinate of its point in place and puts
    it back, so the evaluator must not keep the list it is given.

    A ``linear`` objective whose declared coordinates all agree with the
    signs of their coefficients (a zero agrees with both sides) returns []
    without probing, because no probe could find anything.  Rounding to
    nearest is monotone, so raising x_j never lowers fl(c_j x_j) when
    c_j >= 0 and never raises it when c_j <= 0; and ``sum`` on CPython 3.10
    and 3.11 adds its float terms left to right, each addition again
    monotone in both arguments.  So the evaluated sum never moves against a
    sign-consistent declaration, not even by rounding.  (From CPython 3.12
    ``sum`` compensates rounding; its result then stays within a few ulps
    of the exact sum, which is monotone, so a probe could move the wrong
    way only by that much, below 1e-9 unless sum |c_j| exceeds about 1e6.)
    An inconsistent declaration is probed with the usual draws.
    """
    fn, n = objective.fn, objective.n
    if isinstance(fn, _Separable) and fn.term is operator.mul and all(
        cj >= 0.0 if j in objective.j_plus else cj <= 0.0 for j, cj in enumerate(fn.c)
    ):
        return []
    rng = random.Random(seed)
    draw = rng.random
    violations = []
    for _ in range(256):
        x = [draw() for _ in range(n)]
        j = rng.randrange(n)
        xj = x[j]
        delta = rng.uniform(0.01, 0.5) * (1.0 - xj)
        before = fn(x)
        x[j] = xj + delta
        after = fn(x)
        x[j] = xj
        bad_plus = j in objective.j_plus and after < before - 1e-9
        bad_minus = j in objective.j_minus and after > before + 1e-9
        if bad_plus or bad_minus:
            violations.append(ProbeViolation(j, tuple(x), delta, before, after))
    return violations
