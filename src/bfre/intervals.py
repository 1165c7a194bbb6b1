"""Canonical finite unions of closed subintervals of [0, 1].

Every set this package manipulates -- scalar equation solution sets, per-cell
sets, column bounds, restricted sets, box factors -- is a finite union of
closed intervals inside the unit interval.  Singletons are first-class
(degenerate pieces with lo == hi), and the empty union is a valid value.

Endpoints are stored exactly as given; floating error is absorbed by the
comparisons, never by rounding the representation.

The invariant: a union's pieces are sorted, more than EPS apart, and have
ends in [0, 1], unless the union was built directly from its pieces
(``IntervalUnion(pieces)``).  Nearly every set has one piece -- a cell's
set under a continuous t-norm is one closed interval, and a set splits only
where both literals of a bipolar cell reach b_i or a joint factor does --
so ``contains``, ``issubset`` and ``approx_equals`` compare the one pair
directly when each operand has one piece, and ``from_pairs`` and ``&`` hand
a lone pair to ``interval``, which keeps a canonical pair as given.  Each
path evaluates the general loop's own expressions and returns what the loop
and ``_canonical`` return, bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

#: Absolute tolerance for membership, emptiness and equality comparisons,
#: and the gap below which adjacent pieces merge during canonicalization.
EPS = 1e-9


@contextmanager
def tolerance(eps: float) -> Iterator[None]:
    """Use ``eps`` as the tolerance inside the block (the CLI ``--tol``).

    The previous tolerance comes back however the block exits, exceptions
    and ``SystemExit`` included.
    """
    global EPS
    if not 0.0 < eps < math.inf:
        raise ValueError("tolerance must be positive and finite")
    previous, EPS = EPS, eps
    try:
        yield
    finally:
        EPS = previous


def _canonical(pieces: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort, clamp and merge raw (lo, hi) pairs into canonical form.

    Pieces with width below -EPS are dropped (empty after tolerance), widths
    in [-EPS, 0) collapse to their midpoint singleton, and pieces separated
    by a gap of at most EPS merge.
    """
    cleaned: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if hi - lo < -EPS:
            continue
        if hi < lo:
            lo = hi = 0.5 * (lo + hi)
        lo = min(1.0, max(0.0, lo))
        hi = min(1.0, max(0.0, hi))
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[float]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1] + EPS:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class _Frozen:
    """Base of the package's immutable classes.  ``__init__`` sets every
    field once, through ``_init`` (``IntervalUnion``, built on every
    intersection, sets its one field directly); no field is assigned or
    deleted after.  Equality is identity, unless the class is a ``_Record``."""

    __slots__ = ()

    def _init(self, *values: object) -> None:
        """Set the fields named in ``__slots__`` to ``values``, in order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """A frozen class with value semantics: equality, hash and repr read the
    fields named in ``_fields``.  Records of different classes are never
    equal, and the hash is the hash of the tuple of field values."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class IntervalUnion(_Record):
    """An ordered union of pairwise-disjoint closed intervals in [0, 1].

    Instances are immutable; all operations return new values, so they are
    safe to share freely (including across threads).  Their comparisons
    read the module's one ``EPS``, which ``tolerance()`` sets for the whole
    process, not per thread.  A record over ``pieces``: equal pieces make
    equal values, with equal hashes.
    """

    __slots__ = ("pieces",)
    _fields = ("pieces",)

    def __init__(self, pieces: tuple[tuple[float, float], ...] = ()) -> None:
        # set directly, not through ``_init``: every intersection builds one
        object.__setattr__(self, "pieces", pieces)

    # -- construction ----------------------------------------------------

    @staticmethod
    def interval(lo: float, hi: float) -> "IntervalUnion":
        """The one constructor of a single closed interval [lo, hi], a point
        when lo == hi; empty when hi < lo beyond tolerance.

        A canonical pair, 0 <= lo <= hi <= 1, is kept as given (a -0.0 end
        becomes 0.0, as the clamp makes it); any other is canonicalized.
        """
        if 0.0 <= lo <= hi <= 1.0:
            return IntervalUnion(((lo + 0.0, hi + 0.0),))
        return IntervalUnion(_canonical([(lo, hi)]))

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence[float]]) -> "IntervalUnion":
        return _union([(p[0], p[1]) for p in pairs])

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def singleton(self) -> float | None:
        """The point when the set is a single point up to tolerance (the
        midpoint of its one piece), else None."""
        if len(self.pieces) != 1:
            return None
        lo, hi = self.pieces[0]
        return 0.5 * (lo + hi) if hi - lo <= EPS else None

    def contains(self, x: float) -> bool:
        pieces = self.pieces
        if len(pieces) == 1:
            lo, hi = pieces[0]
            return lo - EPS <= x <= hi + EPS
        return any(lo - EPS <= x <= hi + EPS for lo, hi in pieces)

    def endpoints(self) -> list[float]:
        out: list[float] = []
        for lo, hi in self.pieces:
            out.append(lo)
            out.append(hi)
        return out

    def issubset(self, other: "IntervalUnion") -> bool:
        """True when every piece of self sits inside one piece of other."""
        if len(self.pieces) == 1 and len(other.pieces) == 1:
            (lo, hi), (olo, ohi) = self.pieces[0], other.pieces[0]
            return olo - EPS <= lo and hi <= ohi + EPS
        return all(
            any(olo - EPS <= lo and hi <= ohi + EPS for olo, ohi in other.pieces)
            for lo, hi in self.pieces
        )

    def approx_equals(self, other: "IntervalUnion") -> bool:
        """Piecewise endpoint equality within tolerance."""
        if len(self.pieces) != len(other.pieces):
            return False
        if len(self.pieces) == 1:
            (lo, hi), (olo, ohi) = self.pieces[0], other.pieces[0]
            return abs(lo - olo) <= EPS and abs(hi - ohi) <= EPS
        return all(
            abs(lo - olo) <= EPS and abs(hi - ohi) <= EPS
            for (lo, hi), (olo, ohi) in zip(self.pieces, other.pieces)
        )

    # -- algebra ----------------------------------------------------------

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        """The intersection, always a new object: the search DAG's memo keys
        on ``id``, so an operand is never returned as the result."""
        raw = []
        for lo, hi in self.pieces:
            for olo, ohi in other.pieces:
                if olo > hi + EPS:
                    break
                raw.append((max(lo, olo), min(hi, ohi)))
        return _union(raw)

    # -- serialization ----------------------------------------------------

    def __str__(self) -> str:
        if not self.pieces:
            return "{}"
        parts = [
            f"{{{lo:g}}}" if lo == hi else f"[{lo:g}, {hi:g}]" for lo, hi in self.pieces
        ]
        return " U ".join(parts)


def _union(raw: list[tuple[float, float]]) -> IntervalUnion:
    """The union of raw (lo, hi) pairs.  One pair goes through ``interval``,
    which keeps a canonical pair as given and skips ``_canonical``'s sort
    and merge; any other count goes through ``_canonical``."""
    if len(raw) == 1:
        return IntervalUnion.interval(*raw[0])
    return IntervalUnion(_canonical(raw))
