"""Canonical finite unions of closed subintervals of [0, 1].

Every set this package manipulates -- scalar equation solution sets, per-cell
sets, column bounds, restricted sets, box factors -- is a finite union of
closed intervals inside the unit interval.  Singletons are first-class
(degenerate pieces with lo == hi), and the empty union is a valid value.

Endpoints are stored exactly as given; floating error is absorbed by the
comparisons, never by rounding the representation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
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


@dataclass(frozen=True)
class IntervalUnion:
    """An ordered union of pairwise-disjoint closed intervals in [0, 1].

    Instances are immutable; all operations return new values, so they are
    safe to share freely (including across threads).
    """

    pieces: tuple[tuple[float, float], ...] = ()

    # -- construction ----------------------------------------------------

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def full() -> "IntervalUnion":
        return IntervalUnion(((0.0, 1.0),))

    @staticmethod
    def interval(lo: float, hi: float) -> "IntervalUnion":
        """Single closed interval [lo, hi]; empty when hi < lo beyond tolerance."""
        return IntervalUnion(_canonical([(lo, hi)]))

    @staticmethod
    def point(x: float) -> "IntervalUnion":
        return IntervalUnion(_canonical([(x, x)]))

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence[float]]) -> "IntervalUnion":
        return IntervalUnion(_canonical([(p[0], p[1]) for p in pairs]))

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __bool__(self) -> bool:
        return bool(self.pieces)

    @property
    def is_singleton(self) -> bool:
        """True when the set is a single point up to tolerance."""
        return len(self.pieces) == 1 and self.pieces[0][1] - self.pieces[0][0] <= EPS

    @property
    def singleton_value(self) -> float:
        if not self.is_singleton:
            raise ValueError(f"{self} is not a singleton")
        lo, hi = self.pieces[0]
        return 0.5 * (lo + hi)

    def contains(self, x: float) -> bool:
        return any(lo - EPS <= x <= hi + EPS for lo, hi in self.pieces)

    def endpoints(self) -> list[float]:
        out: list[float] = []
        for lo, hi in self.pieces:
            out.append(lo)
            out.append(hi)
        return out

    def issubset(self, other: "IntervalUnion") -> bool:
        """True when every piece of self sits inside one piece of other."""
        return all(
            any(olo - EPS <= lo and hi <= ohi + EPS for olo, ohi in other.pieces)
            for lo, hi in self.pieces
        )

    def approx_equals(self, other: "IntervalUnion") -> bool:
        """Piecewise endpoint equality within tolerance."""
        if len(self.pieces) != len(other.pieces):
            return False
        return all(
            abs(lo - olo) <= EPS and abs(hi - ohi) <= EPS
            for (lo, hi), (olo, ohi) in zip(self.pieces, other.pieces)
        )

    # -- algebra ----------------------------------------------------------

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        raw = []
        for lo, hi in self.pieces:
            for olo, ohi in other.pieces:
                if olo > hi + EPS:
                    break
                raw.append((max(lo, olo), min(hi, ohi)))
        return IntervalUnion(_canonical(raw))

    # -- serialization ----------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        return [[lo, hi] for lo, hi in self.pieces]

    def __str__(self) -> str:
        if not self.pieces:
            return "{}"
        parts = [
            f"{{{lo:g}}}" if lo == hi else f"[{lo:g}, {hi:g}]" for lo, hi in self.pieces
        ]
        return " U ".join(parts)

