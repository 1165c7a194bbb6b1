"""Interval-union algebra: canonical form, set operations, membership."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfre import breakpoint_grid, feasible_region, global_optimum, grid_membership_check, intervals
from bfre.cli import problem_from_dict
from bfre.intervals import EPS, IntervalUnion, tolerance
from conftest import bench_workloads


def iu(*pairs):
    return IntervalUnion.from_pairs(pairs)


# -- canonical form -----------------------------------------------------------


def test_from_pairs_sorts_and_merges():
    u = iu((0.8, 1.0), (0.0, 0.2), (0.15, 0.3))
    assert u.pieces == ((0.0, 0.3), (0.8, 1.0))


def test_touching_pieces_merge():
    assert iu((0.0, 0.5), (0.5, 1.0)).pieces == ((0.0, 1.0),)


def test_negative_width_beyond_tolerance_dropped():
    assert iu((0.5, 0.4)).is_empty


def test_tiny_negative_width_collapses_to_singleton():
    u = iu((0.5 + 4e-10, 0.5))
    assert abs(u.singleton() - 0.5) <= 1e-9
    assert iu((0.5, 0.6)).singleton() is None


@pytest.mark.parametrize(
    "pairs,expected",
    [
        pytest.param([(0.3, 0.3)], 0.3, id="point"),
        # widths that are powers of 2, so every sum is exact
        pytest.param([(0.25, 0.25 + 2**-31)], 0.25 + 2**-32, id="within-eps"),
        pytest.param([(0.25, 0.25 + 2**-29)], None, id="wider"),
        pytest.param([(0.1, 0.1), (0.6, 0.6)], None, id="two-pieces"),
        pytest.param([], None, id="empty"),
    ],
)
def test_singleton(pairs, expected):
    # the midpoint of the one piece when it is a point within EPS, else None
    assert iu(*pairs).singleton() == expected


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(0, 5)):
            a, b = sorted((rng.random(), rng.random()))
            pairs.append((a, b))
        u = IntervalUnion.from_pairs(pairs)
        again = IntervalUnion.from_pairs(u.pieces)
        assert again.pieces == u.pieces


def test_endpoints_clamped_to_unit_interval():
    assert iu((-0.5, 1.5)).pieces == ((0.0, 1.0),)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.2, 0.7),  # in range
        (0.0, 1.0),
        (0.3, 0.3),  # a point
        (0.5 + 4e-10, 0.5),  # reversed within EPS
        (0.6, 0.4),  # reversed beyond EPS
        (-0.5, 1.5),  # ends outside [0, 1]
        (-0.5, 0.5),
        (0.5, 1.5),
        (1.2, 1.3),
        (-0.0, 0.5),  # -0.0 ends
        (-0.0, -0.0),
        (0.0, -0.0),
    ],
)
def test_interval_matches_canonical_form(lo, hi):
    # repr tells -0.0 from 0.0, which == does not
    got = IntervalUnion.interval(lo, hi)
    assert repr(got) == repr(IntervalUnion(intervals._canonical([(lo, hi)])))


# -- queries -------------------------------------------------------------------


def test_contains_examples():
    assert iu((0.0, 0.2), (0.8, 1.0)).contains(0.8)
    assert not IntervalUnion().contains(0.5)
    assert not iu((0.1, 0.3), (0.7, 0.7)).contains(0.5)


def test_contains_uses_tolerance():
    u = iu((0.2, 0.4))
    assert u.contains(0.4 + 0.5e-9)
    assert not u.contains(0.4 + 1e-6)


def test_tolerance_is_scoped():
    u = iu((0.2, 0.4))
    with pytest.raises(SystemExit):
        with tolerance(1e-5):
            assert u.contains(0.4 + 1e-6)
            # one tolerance also sets the gap below which pieces merge
            assert len(iu((0.2, 0.4), (0.4 + 1e-6, 0.5)).pieces) == 1
            raise SystemExit(2)
    assert not u.contains(0.4 + 1e-6)
    assert len(iu((0.2, 0.4), (0.4 + 1e-6, 0.5)).pieces) == 2
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            with tolerance(bad):
                pass


def test_min_max_elems():
    # the pieces are sorted, so a union's least and greatest elements are
    # the first piece's lower end and the last piece's upper end
    assert iu((0.8, 1.0)).pieces[0][0] == 0.8
    assert iu((0.8, 1.0), (0.0, 0.2)).pieces[-1][1] == 1.0
    assert iu((0.75, 0.75)).pieces[0][0] == 0.75
    assert IntervalUnion().is_empty
    assert IntervalUnion().pieces == ()


def test_issubset_and_approx_equals():
    assert iu((0.1, 0.2)).issubset(iu((0.0, 0.3), (0.5, 1.0)))
    assert not iu((0.1, 0.4)).issubset(iu((0.0, 0.3), (0.5, 1.0)))
    assert iu((0.1, 0.2)).approx_equals(iu((0.1 + 1e-12, 0.2 - 1e-12)))
    assert not iu((0.1, 0.2)).approx_equals(iu((0.1, 0.2), (0.5, 0.5)))


# -- algebra -------------------------------------------------------------------


def test_intersect_examples():
    assert (iu((0.0, 0.2), (0.8, 1.0)) & iu((0.5, 1.0))).pieces == ((0.8, 1.0),)
    x = iu((0.05, 0.15), (0.3, 0.6))
    assert (x & IntervalUnion.interval(0.0, 1.0)) == x
    got = iu((0.0, 0.3), (0.7, 0.7)) & iu((0.1, 0.7))
    assert got.pieces == ((0.1, 0.3), (0.7, 0.7))


# Lattice endpoints keep all gaps far above the comparison tolerance, so the
# pointwise semantics of the algebra is exact for arbitrary probe points.
lattice = st.integers(min_value=0, max_value=100).map(lambda k: k / 100)


@st.composite
def lattice_unions(draw):
    pairs = draw(st.lists(st.tuples(lattice, lattice), max_size=4))
    return IntervalUnion.from_pairs([tuple(sorted(p)) for p in pairs])


@given(lattice_unions(), lattice_unions(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_pointwise_semantics(a, b, x):
    assert (a & b).contains(x) == (a.contains(x) and b.contains(x))


@given(lattice_unions(), lattice_unions(), lattice_unions())
@settings(max_examples=200, deadline=None)
def test_algebra_commutes_and_associates(a, b, c):
    assert (a & b).pieces == (b & a).pieces
    assert ((a & b) & c).pieces == (a & (b & c)).pieces


@given(lattice_unions())
@settings(max_examples=100, deadline=None)
def test_universe_identities(a):
    assert (a & IntervalUnion.interval(0.0, 1.0)) == a
    assert (a & IntervalUnion()).is_empty


def test_serialization_roundtrip():
    u = iu((0.1, 0.3), (0.7, 0.7))
    assert IntervalUnion.from_pairs(u.pieces) == u
    assert str(u) == "[0.1, 0.3] U {0.7}"
    assert str(IntervalUnion()) == "{}"


# -- one-piece direct paths ----------------------------------------------------
#
# The general bodies of the five operations, kept here as the reference; EPS
# is read off the module at call time, as the methods read it.  Multi-piece
# operands still take these loops, and ``&`` and ``from_pairs`` send a lone
# raw pair through ``interval`` instead of ``_canonical``.  Each path must
# return what these return, bit for bit.


def _general_from_pairs(pairs):
    return IntervalUnion(intervals._canonical([(p[0], p[1]) for p in pairs]))


def _general_contains(self, x):
    EPS = intervals.EPS
    return any(lo - EPS <= x <= hi + EPS for lo, hi in self.pieces)


def _general_issubset(self, other):
    EPS = intervals.EPS
    return all(
        any(olo - EPS <= lo and hi <= ohi + EPS for olo, ohi in other.pieces)
        for lo, hi in self.pieces
    )


def _general_approx_equals(self, other):
    EPS = intervals.EPS
    if len(self.pieces) != len(other.pieces):
        return False
    return all(
        abs(lo - olo) <= EPS and abs(hi - ohi) <= EPS
        for (lo, hi), (olo, ohi) in zip(self.pieces, other.pieces)
    )


def _general_and(self, other):
    EPS = intervals.EPS
    raw = []
    for lo, hi in self.pieces:
        for olo, ohi in other.pieces:
            if olo > hi + EPS:
                break
            raw.append((max(lo, olo), min(hi, ohi)))
    return IntervalUnion(intervals._canonical(raw))


def _ulps(x, k):
    """x moved k ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _end(rng, near):
    """An end: a special value, a uniform draw, or a few ulps or a width in
    [-EPS, 0) away from ``near``."""
    eps = intervals.EPS
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0.0, -0.0, 0, 1, 1.0, -0.25, 1.5])
    if kind == 1:
        return rng.random()
    if kind == 2:
        return _ulps(near + eps, rng.randint(-3, 3))
    if kind == 3:
        return _ulps(near - eps, rng.randint(-3, 3))
    if kind == 4:
        return near - rng.random() * eps
    return _ulps(near, rng.randint(-3, 3))


def _pair(rng):
    lo = _end(rng, rng.random())
    return lo, _end(rng, lo)


def _one_piece(rng):
    """A one-piece set: through ``interval`` (canonical), or built directly
    from a pair whose ends may lie outside [0, 1] or be reversed."""
    while True:
        lo, hi = _pair(rng)
        u = IntervalUnion(((lo, hi),)) if rng.random() < 0.3 else IntervalUnion.interval(lo, hi)
        if len(u.pieces) == 1:
            return u


def _near(rng, a):
    """A one-piece set whose ends lie near a's, so that the tolerance tests
    of ``&``, ``issubset`` and ``approx_equals`` go either way."""
    (lo, hi), = a.pieces
    olo = _end(rng, rng.choice([lo, hi]))
    ohi = _end(rng, rng.choice([hi, olo]))
    if rng.random() < 0.3:
        return IntervalUnion(((olo, ohi),))
    b = IntervalUnion.interval(olo, ohi)
    return b if len(b.pieces) == 1 else a


@pytest.mark.parametrize("eps", [None, 1e-7, 0.25], ids=["default", "1e-7", "0.25"])
def test_one_piece_paths_match_the_general_bodies(eps):
    rng = random.Random(f"one-piece/{eps}")
    with tolerance(EPS if eps is None else eps):
        for _ in range(4000):
            pair = _pair(rng)
            assert repr(IntervalUnion.from_pairs([pair])) == repr(_general_from_pairs([pair]))
            a = _one_piece(rng)
            b = _near(rng, a) if rng.random() < 0.8 else _one_piece(rng)
            for x, y in ((a, b), (b, a), (a, a)):
                got = x & y
                assert got is not x and got is not y
                assert repr(got) == repr(_general_and(x, y))
                assert x.issubset(y) is _general_issubset(x, y)
                assert x.approx_equals(y) is _general_approx_equals(x, y)
            m = IntervalUnion.from_pairs([_pair(rng) for _ in range(rng.randint(2, 3))])
            for x, y in ((m, a), (a, m), (m, m)):
                got = x & y
                assert got is not x and got is not y
                assert repr(got) == repr(_general_and(x, y))
            (lo, hi), = a.pieces
            for v in (lo, hi, _end(rng, lo), _end(rng, hi), rng.random()):
                assert a.contains(v) is _general_contains(a, v)


def test_canonical_never_sees_one_canonical_pair(monkeypatch):
    # Every stage runs on one-piece sets; none of them should pay for a
    # sort and merge of one pair that is already in canonical form.
    general = intervals._canonical
    calls = []

    def counting(pieces):
        pieces = list(pieces)
        calls.append(pieces)
        return general(pieces)

    monkeypatch.setattr(intervals, "_canonical", counting)
    workloads = bench_workloads()
    _, step, _, cap, _, seed = workloads.WORKLOADS["tall-reduction"]["verify_args"]
    for record in workloads.build("tall-reduction", 1):
        system, objective = problem_from_dict(record["problem"])
        region = feasible_region(system)
        if not region.is_feasible:
            continue
        global_optimum(region.analysis, region.reduction, objective, dag=region.dag)
        grid = breakpoint_grid(region.analysis, float(step))
        grid_membership_check(region, grid, cap=int(cap), seed=int(seed), objective=objective)
    assert calls
    canonical_pairs = [p for p in calls if len(p) == 1 and 0.0 <= p[0][0] <= p[0][1] <= 1.0]
    assert canonical_pairs == []
