"""Continuous t-norms and the scalar equation phi(a, x) = b.

Every continuous t-norm is an ordinal sum of continuous Archimedean
summands, and each summand is fixed by an additive generator f: a
continuous, strictly decreasing map from [0, 1] onto [0, f(0)] with
f(1) = 0, nilpotent when f(0) is finite and strict when it is infinite
(Mostert & Shields, Ann. Math. 65, 1957; Klement, Mesiar & Pap,
Triangular Norms, 2000, ch. 3 and 5).  Each of the thirteen catalog
families is one summand on [0, e]^2, so one table maps every family to
its parameter rule and to (e, f, f_inv, f(0)):

- ``minimum`` is the product summand with e = 0: the square [0, 0]^2 is
  empty, so phi is min everywhere (it is ``dubois_prade`` at gamma 0);
- ``dubois_prade`` is the product summand on [0, gamma]^2;
- ``mayor_torrence`` is the Lukasiewicz summand on [0, lambda]^2;
- the other ten are one summand with e = 1, under their textbook
  generators (``einstein_product`` is ``hamacher`` with alpha 2, and
  ``sugeno_weber`` with lambda 0 is ``lukasiewicz``).

Two rules then serve every family.  Evaluation: phi(x, y) = min(x, y)
unless x, y < e, and e * f_inv(f(x/e) + f(y/e)) there, which is 0 once the
sum reaches f(0).  Scalar solve: for a >= b the solution set of
phi(a, x) = b is a closed interval [l, u] (empty when a < b) with
l = u = b when a >= e and l = u = e * f_inv(f(b/e) - f(a/e)) otherwise,
f(0) standing in for f(b/e) when b = 0.  Two universal endpoint rules take
precedence: l = 0 whenever b = 0, and u = 1 whenever a = b.

A float sum that overflows reads as f(0).  So a parameter under which
2 f(x/e) overflows at x = 1e-12 is rejected, and the sum then reaches f(0)
only where phi is below 1e-12.  At the other end, a ``yager`` or
``aczel_alsina`` generator that underflows to f(1) = 0 at x = 1 - 1e-12
would make phi 1 there, so such a parameter is rejected too.  So is any
nonzero parameter below ``sys.float_info.min`` in magnitude, for every
family: products such as alpha * (1 - x) / x lose its digits.

A bisection fallback exploits continuity and monotonicity of x -> phi(a, x)
and is used to cross-check the inverse.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .intervals import IntervalUnion, _Record

__all__ = [
    "TNORM_KINDS",
    "TNormSpec",
    "ScalarEqSolution",
    "tnorm_eval",
    "solve_scalar_eq",
    "solve_scalar_eq_numeric",
]


def _pow(base: float, exp: float) -> float:
    """Float power that saturates instead of raising on overflow."""
    try:
        return base ** exp
    except OverflowError:
        return math.inf


# -- additive generators ----------------------------------------------------
#
# Each returns (f, f_inv, f(0)).  f is called only on (0, 1] and f_inv only
# on [0, f(0)], where f(0) may be infinite.


def _product():
    return (lambda x: -math.log(x)), (lambda s: math.exp(-s)), math.inf


def _lukasiewicz():
    return (lambda x: 1.0 - x), (lambda s: 1.0 - s), 1.0


def _frank(s):
    ln_s, c = math.log(s), s - 1.0

    def f(x):
        # -log((s^x - 1) / (s - 1)); the quotient underflows only for tiny x,
        # where it is x ln(s) / (s - 1) to double precision
        q = math.expm1(x * ln_s) / c
        return -math.log(q) if q > 0.0 else -math.log(x) - math.log(ln_s / c)

    return f, (lambda t: math.log1p(c * math.exp(-t)) / ln_s), math.inf


def _yager(p):
    return (lambda x: (1.0 - x) ** p), (lambda s: 1.0 - s ** (1.0 / p)), 1.0


def _hamacher(alpha):
    if alpha == 0.0:
        return (lambda x: (1.0 - x) / x), (lambda s: 1.0 / (1.0 + s)), math.inf

    def f_inv(s):  # alpha / (e^s - 1 + alpha), written to stay finite
        v = alpha * math.exp(-s)
        return v / (v - math.expm1(-s))

    return (lambda x: math.log1p(alpha * (1.0 - x) / x)), f_inv, math.inf


def _dombi(lam):
    return (
        (lambda x: _pow((1.0 - x) / x, lam)),
        (lambda s: 1.0 / (1.0 + _pow(s, 1.0 / lam))),
        math.inf,
    )


def _schweizer_sklar(p):
    # (1 - x^p) / p and (1 - p s)^(1/p), written through expm1 and log1p so
    # that neither cancels for small |p|, where they tend to -ln x and e^-s

    def f(x):
        try:
            return -math.expm1(p * math.log(x)) / p
        except OverflowError:  # p < 0 and a tiny x
            return math.inf

    def f_inv(s):
        t = p * s
        return 0.0 if t >= 1.0 else math.exp(math.log1p(-t) / p)

    return f, f_inv, 1.0 / p if p > 0.0 else math.inf


def _sugeno_weber(lam):
    if lam == 0.0:
        return _lukasiewicz()
    ln = math.log1p(lam)
    return (
        (lambda x: 1.0 - math.log1p(lam * x) / ln),
        (lambda s: math.expm1((1.0 - s) * ln) / lam),
        1.0,
    )


def _aczel_alsina(lam):
    return (
        (lambda x: _pow(-math.log(x), lam)),
        (lambda s: math.exp(-_pow(s, 1.0 / lam))),
        math.inf,
    )


#: kind -> (parameter rule, summand).  The rule is None for a family without
#: a parameter, else (check, legend).  The summand maps the parameter to
#: (e, f, f_inv, f(0)).
_TABLE: dict[str, tuple] = {
    "minimum": (None, lambda _: (0.0, *_product())),
    "product": (None, lambda _: (1.0, *_product())),
    "einstein_product": (None, lambda _: (1.0, *_hamacher(2.0))),
    "lukasiewicz": (None, lambda _: (1.0, *_lukasiewicz())),
    "frank": (
        # at or below 2**-54, s - 1 rounds to -1: f is 0 short of x = 1 and
        # f_inv(0) is log1p(-1)
        (lambda s: s > 2.0**-54 and s != 1.0, "s > 2**-54 and s != 1"),
        lambda s: (1.0, *_frank(s)),
    ),
    "yager": ((lambda p: p > 0.0, "p > 0"), lambda p: (1.0, *_yager(p))),
    "hamacher": ((lambda a: a >= 0.0, "alpha >= 0"), lambda a: (1.0, *_hamacher(a))),
    "dombi": ((lambda v: v > 0.0, "lambda > 0"), lambda v: (1.0, *_dombi(v))),
    "schweizer_sklar": (
        (lambda p: p != 0.0, "p != 0"),
        lambda p: (1.0, *_schweizer_sklar(p)),
    ),
    "sugeno_weber": (
        (lambda v: v > -1.0, "lambda > -1"),
        lambda v: (1.0, *_sugeno_weber(v)),
    ),
    "aczel_alsina": (
        (lambda v: v > 0.0, "lambda > 0"),
        lambda v: (1.0, *_aczel_alsina(v)),
    ),
    "dubois_prade": (
        (lambda g: 0.0 <= g <= 1.0, "0 <= gamma <= 1"),
        lambda g: (g, *_product()),
    ),
    "mayor_torrence": (
        (lambda v: 0.0 <= v <= 1.0, "0 <= lambda <= 1"),
        lambda v: (v, *_lukasiewicz()),
    ),
}

TNORM_KINDS = tuple(_TABLE)

#: Right-hand sides computed as phi(a, x) in floats can drift a few ulps
#: above a; differences at or below this are treated as a = b.
_EQ_DRIFT = 1e-12


class TNormSpec(_Record):
    """A continuous t-norm selected from the catalog, with its parameter.

    Immutable.  A record over ``kind`` and ``param``: equality, hash and
    repr read those two, never the ``_summand`` derived from them.
    """

    __slots__ = ("kind", "param", "_summand")
    _fields = ("kind", "param")

    def __init__(self, kind: str, param: float | None = None) -> None:
        if kind not in _TABLE:
            raise ValueError(
                f"unknown t-norm {kind!r}; expected one of {', '.join(TNORM_KINDS)}"
            )
        rule, summand = _TABLE[kind]
        if rule is None:
            if param is not None:
                raise ValueError(f"t-norm {kind!r} takes no parameter")
        else:
            check, legend = rule
            if param is None:
                raise ValueError(f"t-norm {kind!r} requires a parameter ({legend})")
            valid = type(param) in (int, float) and math.isfinite(param) and check(param)
            if not valid or 0 < abs(param) < sys.float_info.min:
                raise ValueError(f"parameter {param!r} out of range for {kind!r} ({legend})")
        summand = summand(param)
        # an overflowing f(x/e) + f(y/e) reads as f(0), so phi as 0 (see the
        # module docstring); with e <= _EQ_DRIFT, phi never exceeds it anyway
        if summand[0] > _EQ_DRIFT:
            e, f = summand[:2]
            if not math.isfinite(2.0 * f(_EQ_DRIFT / e)):
                raise ValueError(
                    f"parameter {param!r} out of range for {kind!r} "
                    f"(its generator overflows at x = {_EQ_DRIFT:g})"
                )
        # an f(1 - 1e-12) that underflows to f(1) = 0 reads as x = 1, so phi
        # as 1; these two raise a small base to the parameter (frank's zero
        # there for tiny s comes from cancellation, not underflow)
        if kind in ("yager", "aczel_alsina") and summand[1](1.0 - _EQ_DRIFT) == 0.0:
            raise ValueError(
                f"parameter {param!r} out of range for {kind!r} "
                f"(its generator underflows at x = 1 - {_EQ_DRIFT:g})"
            )
        # _summand is (e, f, f_inv, f(0)) of the family's summand
        self._init(kind, param, summand)


class ScalarEqSolution(NamedTuple):
    """phi(a, x) = b holds on [l, u] and phi(a, x) <= b on [0, u]; l and u
    are None when a < b, where no x solves it and every x relaxes it."""

    l: float | None
    u: float | None

    @property
    def solution_set(self) -> IntervalUnion:
        return IntervalUnion() if self.u is None else IntervalUnion.interval(self.l, self.u)

    @property
    def relaxed_set(self) -> IntervalUnion:
        return IntervalUnion.interval(0.0, 1.0 if self.u is None else self.u)


def _check_unit(v: float, name: str) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} = {v!r} outside [0, 1]")


def tnorm_eval(t: TNormSpec, x: float, y: float) -> float:
    """Evaluate phi(x, y) for the given t-norm; arguments must lie in [0, 1]."""
    _check_unit(x, "x")
    _check_unit(y, "y")
    summand = t._summand
    if x >= summand[0] or y >= summand[0]:
        return min(x, y) + 0.0  # a -0.0 argument gives 0.0, as the other paths do
    e, f, f_inv, f0 = summand
    if x == 0.0 or y == 0.0:
        return 0.0
    s = f(x / e) + f(y / e)
    return 0.0 if s >= f0 else min(1.0, e * f_inv(s))


def _solution(l: float, u: float) -> ScalarEqSolution:
    l = min(1.0, max(0.0, l))
    u = min(1.0, max(0.0, u))
    return ScalarEqSolution(min(l, u), u)


_NO_SOLUTION = ScalarEqSolution(None, None)


def _drift_clamped(a: float, b: float) -> float | None:
    """Check a and b; return b with upward drift absorbed, None when b > a."""
    _check_unit(a, "a")
    _check_unit(b, "b")
    if a < b:
        return a if b - a <= _EQ_DRIFT else None
    return b


def solve_scalar_eq(t: TNormSpec, a: float, b: float) -> ScalarEqSolution:
    """Closed-form solution set of phi(a, x) = b and of phi(a, x) <= b.

    When a < b no x solves the equation and every x satisfies the inequality;
    otherwise the equality set is [l, u] and the inequality set is [0, u].
    """
    b = _drift_clamped(a, b)
    if b is None:
        return _NO_SOLUTION
    if a >= t._summand[0]:
        x = b
    elif a == 0.0:  # then b = 0 too, and both universal rules apply
        x = 0.0
    else:
        e, f, f_inv, f0 = t._summand
        fb = f0 if b == 0.0 else f(b / e)
        # rounding can leave f(b/e) a hair below f(a/e), or both infinite
        x = e * f_inv(max(0.0, fb - f(a / e)))
    return _solution(0.0 if b == 0.0 else x, 1.0 if a == b else x)


#: Safety cap on bisection steps per endpoint; it is never reached.  The loop
#: stops after about 54 steps, once the bracket is 1e-16 wide or, where
#: adjacent floats are farther apart (1.1e-16 in [0.5, 1)), once its midpoint
#: rounds to an endpoint: from there on no endpoint can change.
_BISECT_STEPS = 200


def solve_scalar_eq_numeric(t: TNormSpec, a: float, b: float) -> ScalarEqSolution:
    """Bisection fallback for phi(a, x) = b.

    It evaluates phi through ``tnorm_eval``, so it shares the family's
    generator with ``solve_scalar_eq`` and is independent only of the
    inverse f_inv.  x -> phi(a, x) is continuous and non-decreasing with
    phi(a, 0) = 0 and phi(a, 1) = a, so for a >= b the solution set is the
    preimage plateau [l, u]; each endpoint is bracketed by plain bisection.
    """
    b = _drift_clamped(a, b)
    if b is None:
        return _NO_SOLUTION

    def bracket(turns_true) -> tuple[float, float]:
        """Bisect [0, 1] to a bracket (lo, hi) of the x where
        turns_true(phi(a, x)) turns true."""
        lo, hi = 0.0, 1.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-16 or mid == lo or mid == hi:
                break
            if turns_true(tnorm_eval(t, a, mid)):
                hi = mid
            else:
                lo = mid
        return lo, hi

    # phi(a, 0) = 0 < b <= phi(a, 1) for l, and 0 <= b < a = phi(a, 1) for u
    l = 0.0 if b == 0.0 else bracket(lambda y: y >= b)[1]
    u = 1.0 if a == b else bracket(lambda y: y > b)[0]
    return _solution(l, u)
