"""Interval-union algebra: canonical form, set operations, membership."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfre import intervals
from bfre.intervals import EPS, IntervalUnion, tolerance


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
