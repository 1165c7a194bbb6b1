"""Exact values of the rational t-norm families, in ``fractions.Fraction``.

``minimum``, ``product``, ``lukasiewicz``, ``einstein_product``,
``hamacher``, ``sugeno_weber``, ``dubois_prade`` and ``mayor_torrence`` use
only + - * / and max/min, so their published definitions evaluate exactly
from the float inputs (Klement, Mesiar & Pap, Triangular Norms, 2000).
This module imports nothing from ``bfre``: it shares no generator, inverse
or rounding with the code it checks.  ``frank``, ``yager``, ``dombi``,
``schweizer_sklar`` and ``aczel_alsina`` need exp, log or roots, so they
have no exact reference here; the bisection cross-check covers them.
"""

from __future__ import annotations

from fractions import Fraction


def _hamacher(alpha: Fraction, x: Fraction, y: Fraction) -> Fraction:
    if alpha == x == y == 0:
        return Fraction(0)
    return x * y / (alpha + (1 - alpha) * (x + y - x * y))


def _sugeno_weber(lam: Fraction, x: Fraction, y: Fraction) -> Fraction:
    return max(Fraction(0), (x + y - 1 + lam * x * y) / (1 + lam))


def _dubois_prade(gamma: Fraction, x: Fraction, y: Fraction) -> Fraction:
    return Fraction(0) if x * y == 0 else x * y / max(x, y, gamma)


def _mayor_torrence(lam: Fraction, x: Fraction, y: Fraction) -> Fraction:
    if lam > 0 and x <= lam and y <= lam:
        return max(Fraction(0), x + y - lam)
    return min(x, y)


#: kind -> phi(param, x, y) over fractions; the parameter is ignored by the
#: families that take none.
_DEFINITIONS = {
    "minimum": lambda _, x, y: min(x, y),
    "product": lambda _, x, y: x * y,
    "lukasiewicz": lambda _, x, y: max(Fraction(0), x + y - 1),
    "einstein_product": lambda _, x, y: x * y / (2 - (x + y - x * y)),
    "hamacher": _hamacher,
    "sugeno_weber": _sugeno_weber,
    "dubois_prade": _dubois_prade,
    "mayor_torrence": _mayor_torrence,
}

RATIONAL_KINDS = tuple(_DEFINITIONS)


def exact_tnorm(
    kind: str, param: float | None, x: float | Fraction, y: float | Fraction
) -> Fraction:
    """phi(x, y) of the family ``kind`` with ``param``, exactly, for floats
    or fractions x and y in [0, 1]."""
    p = None if param is None else Fraction(param)
    return _DEFINITIONS[kind](p, Fraction(x), Fraction(y))
