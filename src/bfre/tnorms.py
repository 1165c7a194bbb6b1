"""Continuous t-norms and the scalar equation phi(a, x) = b.

Thirteen catalog families are supported, each continuous on [0, 1]^2 and
including the non-Archimedean Dubois-Prade and Mayor-Torrence families.  For
every family the solution set of ``phi(a, x) = b`` in x is a closed interval
[l, u] when a >= b (empty when a < b), and both endpoints have closed forms.
A bisection fallback exploits continuity and monotonicity of x -> phi(a, x)
and is used to cross-check the closed forms.

Two universal endpoint rules take precedence over the per-family formulas,
which are valid only on their stated subdomains: l = 0 whenever b = 0, and
u = 1 whenever a = b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import IntervalUnion

__all__ = [
    "TNORM_KINDS",
    "TNormSpec",
    "ScalarEqSolution",
    "tnorm_eval",
    "solve_scalar_eq",
    "solve_scalar_eq_numeric",
]

#: Families with no parameter.
_PARAMETERLESS = ("minimum", "product", "einstein_product", "lukasiewicz")

#: Parameter validation per parametric family.
_PARAM_RULES: dict[str, tuple] = {
    "frank": (lambda s: s > 0.0 and s != 1.0, "s > 0 and s != 1"),
    "yager": (lambda p: p > 0.0, "p > 0"),
    "hamacher": (lambda a: a >= 0.0, "alpha >= 0"),
    "dombi": (lambda v: v > 0.0, "lambda > 0"),
    "schweizer_sklar": (lambda p: p != 0.0, "p != 0"),
    "sugeno_weber": (lambda v: v > -1.0, "lambda > -1"),
    "aczel_alsina": (lambda v: v > 0.0, "lambda > 0"),
    "dubois_prade": (lambda g: 0.0 <= g <= 1.0, "0 <= gamma <= 1"),
    "mayor_torrence": (lambda v: 0.0 <= v <= 1.0, "0 <= lambda <= 1"),
}

TNORM_KINDS = _PARAMETERLESS + tuple(_PARAM_RULES)


@dataclass(frozen=True)
class TNormSpec:
    """A continuous t-norm selected from the catalog, with its parameter."""

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in TNORM_KINDS:
            raise ValueError(
                f"unknown t-norm {self.kind!r}; expected one of {', '.join(TNORM_KINDS)}"
            )
        if self.kind in _PARAMETERLESS:
            if self.param is not None:
                raise ValueError(f"t-norm {self.kind!r} takes no parameter")
            return
        check, legend = _PARAM_RULES[self.kind]
        if self.param is None:
            raise ValueError(f"t-norm {self.kind!r} requires a parameter ({legend})")
        if not check(self.param):
            raise ValueError(
                f"parameter {self.param!r} out of range for {self.kind!r} ({legend})"
            )


@dataclass(frozen=True)
class ScalarEqSolution:
    """Solution of phi(a, x) = b: the equality set and its relaxation phi <= b."""

    solution_set: IntervalUnion
    relaxed_set: IntervalUnion
    l: float | None
    u: float | None


def _check_unit(v: float, name: str) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} = {v!r} outside [0, 1]")


def _pow(base: float, exp: float) -> float:
    """Float power that saturates instead of raising on overflow."""
    try:
        return base ** exp
    except OverflowError:
        return math.inf
    except ZeroDivisionError:  # 0 ** negative
        return math.inf


# -- evaluation -----------------------------------------------------------


def _t_minimum(x, y, _):
    return min(x, y)


def _t_product(x, y, _):
    return x * y


def _t_einstein(x, y, _):
    return x * y / (2.0 - (x + y - x * y))


def _t_lukasiewicz(x, y, _):
    return max(0.0, x + y - 1.0)


def _t_frank(x, y, s):
    return math.log1p((s ** x - 1.0) * (s ** y - 1.0) / (s - 1.0)) / math.log(s)


def _t_yager(x, y, p):
    return max(0.0, 1.0 - _pow(_pow(1.0 - x, p) + _pow(1.0 - y, p), 1.0 / p))


def _t_hamacher(x, y, alpha):
    if alpha == 0.0 and x == 0.0 and y == 0.0:
        return 0.0
    return x * y / (alpha + (1.0 - alpha) * (x + y - x * y))


def _t_dombi(x, y, lam):
    if x == 0.0 or y == 0.0:
        return 0.0
    s = _pow((1.0 - x) / x, lam) + _pow((1.0 - y) / y, lam)
    return 1.0 / (1.0 + _pow(s, 1.0 / lam))


def _t_schweizer_sklar(x, y, p):
    if p > 0.0:
        return max(0.0, x ** p + y ** p - 1.0) ** (1.0 / p)
    if x == 0.0 or y == 0.0:
        return 0.0
    return _pow(_pow(x, p) + _pow(y, p) - 1.0, 1.0 / p)


def _t_sugeno_weber(x, y, lam):
    return max(0.0, (x + y - 1.0 + lam * x * y) / (1.0 + lam))


def _t_aczel_alsina(x, y, lam):
    if x == 0.0 or y == 0.0:
        return 0.0
    s = _pow(max(0.0, -math.log(x)), lam) + _pow(max(0.0, -math.log(y)), lam)
    return math.exp(-_pow(s, 1.0 / lam))


def _t_dubois_prade(x, y, gamma):
    d = max(x, y, gamma)
    if d == 0.0:
        return 0.0
    return x * y / d


def _t_mayor_torrence(x, y, lam):
    # Nilpotent block on [0, lam]^2, minimum elsewhere (lam = 0 gives minimum).
    if lam > 0.0 and x <= lam and y <= lam:
        return max(0.0, x + y - lam)
    return min(x, y)


_EVAL = {
    "minimum": _t_minimum,
    "product": _t_product,
    "einstein_product": _t_einstein,
    "lukasiewicz": _t_lukasiewicz,
    "frank": _t_frank,
    "yager": _t_yager,
    "hamacher": _t_hamacher,
    "dombi": _t_dombi,
    "schweizer_sklar": _t_schweizer_sklar,
    "sugeno_weber": _t_sugeno_weber,
    "aczel_alsina": _t_aczel_alsina,
    "dubois_prade": _t_dubois_prade,
    "mayor_torrence": _t_mayor_torrence,
}


def tnorm_eval(t: TNormSpec, x: float, y: float) -> float:
    """Evaluate phi(x, y) for the given t-norm; arguments must lie in [0, 1]."""
    _check_unit(x, "x")
    _check_unit(y, "y")
    v = _EVAL[t.kind](x, y, t.param)
    return min(1.0, max(0.0, v))


# -- closed-form endpoints -------------------------------------------------
#
# Each l-row is evaluated only under a >= b > 0 and each u-row only under
# a > b >= 0; the universal rules (b = 0 -> l = 0, a = b -> u = 1) are applied
# before dispatching.


def _v_minimum(a, b, _):
    return b


def _v_product(a, b, _):
    return b / a


def _v_einstein(a, b, _):
    return (2.0 - a) * b / (a + b - a * b)


def _v_lukasiewicz(a, b, _):
    return 1.0 + b - a


def _v_frank(a, b, s):
    return math.log1p((s ** b - 1.0) * (s - 1.0) / (s ** a - 1.0)) / math.log(s)


def _v_yager(a, b, p):
    return 1.0 - max(0.0, _pow(1.0 - b, p) - _pow(1.0 - a, p)) ** (1.0 / p)


def _v_hamacher(a, b, alpha):
    return (alpha + (1.0 - alpha) * a) * b / (a - (1.0 - alpha) * (1.0 - a) * b)


def _v_sugeno_weber(a, b, lam):
    return ((1.0 + lam) * b + 1.0 - a) / (1.0 + lam * a)


def _v_dombi(a, b, lam):
    d = max(0.0, _pow((1.0 - b) / b, lam) - _pow((1.0 - a) / a, lam))
    return 1.0 / (1.0 + _pow(d, 1.0 / lam))


def _u_dombi(a, b, lam):
    return 0.0 if b == 0.0 else _v_dombi(a, b, lam)


def _v_schweizer_sklar(a, b, p):
    s = 1.0 + _pow(b, p) - _pow(a, p)
    if math.isinf(s):  # b ** p overflowed (p < 0, b tiny): x ~= b
        return b
    return _pow(max(0.0, s), 1.0 / p)


def _u_schweizer_sklar(a, b, p):
    return 0.0 if (b == 0.0 and p < 0.0) else _v_schweizer_sklar(a, b, p)


def _v_aczel_alsina(a, b, lam):
    d = max(0.0, _pow(max(0.0, -math.log(b)), lam) - _pow(max(0.0, -math.log(a)), lam))
    return math.exp(-_pow(d, 1.0 / lam))


def _u_aczel_alsina(a, b, lam):
    return 0.0 if b == 0.0 else _v_aczel_alsina(a, b, lam)


def _l_dubois_prade(a, b, gamma):
    if a == b:
        return max(b, gamma)
    if a < gamma:  # b < a < gamma
        return gamma * b / a
    return b  # a > b, a >= gamma


def _u_dubois_prade(a, b, gamma):
    if a < gamma:
        return gamma * b / a
    return b


def _l_mayor_torrence(a, b, lam):
    if a == b:
        return lam if a <= lam else b
    return b + lam - a if a <= lam else b


def _u_mayor_torrence(a, b, lam):
    return b + lam - a if a <= lam else b


_LU = {
    "minimum": (_v_minimum, _v_minimum),
    "product": (_v_product, _v_product),
    "einstein_product": (_v_einstein, _v_einstein),
    "lukasiewicz": (_v_lukasiewicz, _v_lukasiewicz),
    "frank": (_v_frank, _v_frank),
    "yager": (_v_yager, _v_yager),
    "hamacher": (_v_hamacher, _v_hamacher),
    "dombi": (_v_dombi, _u_dombi),
    "schweizer_sklar": (_v_schweizer_sklar, _u_schweizer_sklar),
    "sugeno_weber": (_v_sugeno_weber, _v_sugeno_weber),
    "aczel_alsina": (_v_aczel_alsina, _u_aczel_alsina),
    "dubois_prade": (_l_dubois_prade, _u_dubois_prade),
    "mayor_torrence": (_l_mayor_torrence, _u_mayor_torrence),
}


def _solution(l: float, u: float) -> ScalarEqSolution:
    l = min(1.0, max(0.0, l))
    u = min(1.0, max(0.0, u))
    if l > u:
        l = u
    return ScalarEqSolution(
        IntervalUnion.interval(l, u), IntervalUnion.interval(0.0, u), l, u
    )


#: Right-hand sides computed as phi(a, x) in floats can drift a few ulps
#: above a; differences at or below this are treated as a = b.
_EQ_DRIFT = 1e-12


def solve_scalar_eq(t: TNormSpec, a: float, b: float) -> ScalarEqSolution:
    """Closed-form solution set of phi(a, x) = b and of phi(a, x) <= b.

    When a < b no x solves the equation and every x satisfies the inequality;
    otherwise the equality set is [l, u] and the inequality set is [0, u].
    """
    _check_unit(a, "a")
    _check_unit(b, "b")
    if a < b:
        if b - a > _EQ_DRIFT:
            return ScalarEqSolution(
                IntervalUnion.empty(), IntervalUnion.full(), None, None
            )
        b = a
    l_row, u_row = _LU[t.kind]
    l = 0.0 if b == 0.0 else l_row(a, b, t.param)
    u = 1.0 if a == b else u_row(a, b, t.param)
    return _solution(l, u)


#: Safety cap on bisection steps per endpoint; it is never reached.  The loop
#: stops after about 54 steps, once the bracket is 1e-16 wide or, where
#: adjacent floats are farther apart (1.1e-16 in [0.5, 1)), once its midpoint
#: rounds to an endpoint: from there on no endpoint can change.
_BISECT_STEPS = 200


def solve_scalar_eq_numeric(t: TNormSpec, a: float, b: float) -> ScalarEqSolution:
    """Bisection fallback for phi(a, x) = b, independent of the closed forms.

    x -> phi(a, x) is continuous and non-decreasing with phi(a, 0) = 0 and
    phi(a, 1) = a, so for a >= b the solution set is the preimage plateau
    [l, u]; each endpoint is bracketed by plain bisection.
    """
    _check_unit(a, "a")
    _check_unit(b, "b")
    if a < b:
        if b - a > _EQ_DRIFT:
            return ScalarEqSolution(
                IntervalUnion.empty(), IntervalUnion.full(), None, None
            )
        b = a

    def g(x: float) -> float:
        return tnorm_eval(t, a, x)

    if b == 0.0:
        l = 0.0
    else:  # g(0) = 0 < b <= g(1)
        lo, hi = 0.0, 1.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-16 or mid == lo or mid == hi:
                break
            if g(mid) >= b:
                hi = mid
            else:
                lo = mid
        l = hi

    if a == b:
        u = 1.0
    else:  # g(0) = 0 <= b < a = g(1)
        lo, hi = 0.0, 1.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-16 or mid == lo or mid == hi:
                break
            if g(mid) <= b:
                lo = mid
            else:
                hi = mid
        u = lo

    return _solution(l, u)
