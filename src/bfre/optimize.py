"""Coordinate-monotone objectives and global optimization over box unions.

An objective partitions the variables into a non-decreasing set and a
non-increasing set.  On a single box the optimum is then attained at a
closed-form corner point: the factor minimum on non-decreasing coordinates
and the factor maximum on non-increasing ones.  The global optimum over the
whole region is the best such corner over all boxes.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .resolution import AdmissibleFunction, FeasibleBox

__all__ = [
    "MonotoneObjective",
    "Candidate",
    "InfeasibleError",
    "ProbeViolation",
    "local_candidate",
    "global_optimum",
    "objective_catalog",
    "check_monotone",
    "jacobi_eigenvalues",
    "OBJECTIVE_NAMES",
]


class InfeasibleError(ValueError):
    """Raised when optimization is attempted over an empty region."""


@dataclass(frozen=True, eq=False)
class MonotoneObjective:
    """A total evaluator on [0, 1]^n with a declared monotonicity partition.

    j_plus holds the coordinates the evaluator is non-decreasing in, j_minus
    the non-increasing ones; together they cover all n coordinates.  The
    declaration is trusted by the optimizer; ``check_monotone`` probes it.
    """

    name: str
    n: int
    j_plus: frozenset[int]
    j_minus: frozenset[int]
    fn: Callable[[Sequence[float]], float]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        everything = frozenset(range(self.n))
        if self.j_plus & self.j_minus:
            raise ValueError("j_plus and j_minus must be disjoint")
        if self.j_plus | self.j_minus != everything:
            raise ValueError("j_plus and j_minus must cover all coordinates")
        if not all(type(j) is int for j in self.j_plus | self.j_minus):
            raise ValueError("j_plus and j_minus must hold integers")

    def __call__(self, x: Sequence[float]) -> float:
        return self.fn(x)


@dataclass(frozen=True)
class Candidate:
    """A per-box optimal corner point with its objective value."""

    source: AdmissibleFunction
    point: tuple[float, ...]
    value: float


def local_candidate(box: FeasibleBox, objective: MonotoneObjective) -> Candidate:
    """Optimal corner of one box: factor minimum on non-decreasing
    coordinates, factor maximum on non-increasing ones."""
    point = tuple(
        f.min_elem() if j in objective.j_plus else f.max_elem()
        for j, f in enumerate(box.factors)
    )
    return Candidate(box.source, point, objective(point))


def global_optimum(
    boxes: Sequence[FeasibleBox], objective: MonotoneObjective
) -> tuple[Candidate, list[Candidate]]:
    """Best corner candidate over all boxes, plus every candidate.

    Each candidate is optimal on its own box, so the smallest value is the
    global optimum of the whole region.  Ties break toward the
    lexicographically smallest generating assignment.
    """
    if not boxes:
        raise InfeasibleError("no boxes: the region is empty")
    candidates = [local_candidate(box, objective) for box in boxes]
    best = min(candidates, key=lambda c: (c.value, c.source.columns))
    return best, candidates


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


def _require(params: dict, key: str, objective: str, many: bool = False):
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


def _build_linear(n: int, params: dict):
    c = [float(v) for v in _require(params, "c", "linear", many=True)]
    if len(c) != n:
        raise ValueError(f"coefficient vector must have {n} entries, got {len(c)}")

    def fn(x):
        return sum(map(operator.mul, c, x))

    j_plus = frozenset(j for j, cj in enumerate(c) if cj >= 0.0)
    return fn, j_plus, frozenset(range(n)) - j_plus, {"c": c}


def _build_simplex_support(n: int, params: dict):
    # Support function of {y >= 0, sum y <= 1}: sup x.y = max(0, max_j x_j).
    def fn(x):
        return max(0.0, max(x))

    return fn, frozenset(range(n)), frozenset(), {}


def _build_perspective(n: int, params: dict):
    p = float(_require(params, "p", "perspective"))
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

    return fn, frozenset(range(n - 1)), frozenset({n - 1}), {"p": p}


def _build_max(n: int, params: dict):
    def fn(x):
        return max(x)

    return fn, frozenset(range(n)), frozenset(), {}


def _build_geometric_mean(n: int, params: dict):
    def fn(x):
        prod = 1.0
        for xj in x:
            prod *= xj
        return prod ** (1.0 / n)

    return fn, frozenset(range(n)), frozenset(), {}


def _build_log_sum_exp(n: int, params: dict):
    def fn(x):
        return math.log(sum(math.exp(xj) for xj in x))

    return fn, frozenset(range(n)), frozenset(), {}


def _build_p_norm(n: int, params: dict):
    p = float(_require(params, "p", "p_norm"))
    if p < 1.0:
        raise ValueError("p_norm requires p >= 1")

    def fn(x):
        return sum(abs(xj) ** p for xj in x) ** (1.0 / p)

    return fn, frozenset(range(n)), frozenset(), {"p": p}


def _build_frobenius(n: int, params: dict):
    if n != 9:
        raise ValueError("frobenius reshapes x into 3x3 and requires n = 9")

    def fn(x):
        return math.sqrt(sum(xj * xj for xj in x))

    return fn, frozenset(range(n)), frozenset(), {}


def _build_sum_largest(n: int, params: dict):
    r = int(_require(params, "r", "sum_largest"))
    if r != params["r"] or not 1 <= r <= n:
        raise ValueError(f"sum_largest requires an integer r with 1 <= r <= {n}")

    def fn(x):
        return sum(sorted(x, reverse=True)[:r])

    return fn, frozenset(range(n)), frozenset(), {"r": r}


def _build_max_eigenvalue(n: int, params: dict):
    if n != 9:
        raise ValueError("max_eigenvalue embeds x into a symmetric 3x3 and requires n = 9")

    def fn(x):
        m = [
            [x[5], x[0], x[1]],
            [x[0], x[7], x[2]],
            [x[1], x[2], x[8]],
        ]
        return jacobi_eigenvalues(m)[-1]

    return fn, frozenset(range(n)), frozenset(), {}


def _build_sum_log(n: int, params: dict):
    alpha = [float(v) for v in _require(params, "alpha", "sum_log", many=True)]
    if len(alpha) != n:
        raise ValueError(f"alpha must have {n} entries, got {len(alpha)}")
    if any(a <= 0.0 for a in alpha):
        raise ValueError("sum_log requires every alpha > 0")

    def fn(x):
        return sum(math.log(aj + xj) for aj, xj in zip(alpha, x))

    return fn, frozenset(range(n)), frozenset(), {"alpha": alpha}


_BUILDERS = {
    "linear": _build_linear,
    "simplex_support": _build_simplex_support,
    "perspective": _build_perspective,
    "max": _build_max,
    "geometric_mean": _build_geometric_mean,
    "log_sum_exp": _build_log_sum_exp,
    "p_norm": _build_p_norm,
    "frobenius": _build_frobenius,
    "sum_largest": _build_sum_largest,
    "max_eigenvalue": _build_max_eigenvalue,
    "sum_log": _build_sum_log,
}

OBJECTIVE_NAMES = tuple(sorted(_BUILDERS))


def objective_catalog(
    name: str,
    n: int,
    params: dict | None = None,
    j_plus: Sequence[int] | None = None,
    j_minus: Sequence[int] | None = None,
) -> MonotoneObjective:
    """Build a catalog objective for n variables.

    The monotonicity partition defaults to the catalog declaration; passing
    j_plus/j_minus overrides it (both must be given together).
    """
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown objective {name!r}; expected one of {', '.join(OBJECTIVE_NAMES)}"
        )
    fn, plus, minus, kept = _BUILDERS[name](n, params or {})
    if (j_plus is None) != (j_minus is None):
        raise ValueError("override j_plus and j_minus together or not at all")
    if j_plus is not None and j_minus is not None:
        plus, minus = frozenset(j_plus), frozenset(j_minus)
    return MonotoneObjective(name, n, plus, minus, fn, kept)


# -- monotonicity probing ----------------------------------------------------


@dataclass(frozen=True)
class ProbeViolation:
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
    a proof.
    """
    rng = random.Random(seed)
    violations = []
    for _ in range(256):
        x = [rng.random() for _ in range(objective.n)]
        j = rng.randrange(objective.n)
        delta = rng.uniform(0.01, 0.5) * (1.0 - x[j])
        if delta <= 0.0:
            continue
        bumped = list(x)
        bumped[j] = x[j] + delta
        before, after = objective(x), objective(bumped)
        bad_plus = j in objective.j_plus and after < before - 1e-9
        bad_minus = j in objective.j_minus and after > before + 1e-9
        if bad_plus or bad_minus:
            violations.append(ProbeViolation(j, tuple(x), delta, before, after))
    return violations
