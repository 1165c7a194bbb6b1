"""System analysis: per-cell sets, column bounds, membership tests."""

import random

import pytest

import tables
from bfre import (
    BipolarSystem,
    CellAnalysis,
    IntervalUnion,
    TNormSpec,
    feasible_region,
    is_feasible_point,
    necessary_feasibility,
    residual,
    tnorm_eval,
)
from conftest import random_system


def iu(pairs):
    return IntervalUnion.from_pairs(pairs)


def equation(system, i):
    """Analysis of equation i alone, as a one-row system."""
    return CellAnalysis(
        BipolarSystem((system.a_plus[i],), (system.a_minus[i],), (system.b[i],), system.tnorm)
    )


# -- construction --------------------------------------------------------------


def test_validation():
    t = TNormSpec("product")
    with pytest.raises(ValueError):
        BipolarSystem([[0.5, 1.2]], [[0.1, 0.1]], [0.5], t)
    with pytest.raises(ValueError):
        BipolarSystem([[0.5]], [[0.1]], [0.5, 0.6], t)
    with pytest.raises(ValueError):
        BipolarSystem([[0.5], [0.2, 0.3]], [[0.1], [0.1]], [0.5, 0.5], t)
    with pytest.raises(ValueError):
        BipolarSystem([], [], [], t)


def test_from_fre():
    t = TNormSpec("product")
    sys_ = BipolarSystem.from_fre([[1.0]], [0.5], t)
    assert sys_.a_minus == ((0.0,),)
    res = feasible_region(sys_)
    assert res.is_feasible
    assert len(res.boxes) == 1
    assert res.boxes[0].factors[0].approx_equals(iu([[0.5, 0.5]]))

    # zero right-hand side: the origin is feasible
    sys0 = BipolarSystem.from_fre([[0.7, 0.2]], [0.0], t)
    assert is_feasible_point(CellAnalysis(sys0), [0.0, 0.0])

    # coefficient below the target: no solution
    bad = BipolarSystem.from_fre([[0.3]], [0.9], t)
    assert not feasible_region(bad).is_feasible


# -- per-cell sets ---------------------------------------------------------------


def test_cell_sets_examples(example_system):
    an = CellAnalysis(example_system)
    assert an.relaxed[0][2].approx_equals(iu([[0.0, 0.7]]))
    assert an.exact[0][2].approx_equals(iu([[0.0, 0.3], [0.7, 0.7]]))

    assert an.exact[6][5].approx_equals(iu([[0.4, 0.4], [0.6, 0.6]]))

    # both coefficients below the target: unconstrained cell, no equality set
    below = CellAnalysis(BipolarSystem([[0.2]], [[0.1]], [0.8], TNormSpec("minimum")))
    assert below.relaxed[0][0] == IntervalUnion.full()
    assert below.exact[0][0].is_empty


def test_full_grids_match_reference(example_analysis):
    an = example_analysis
    for i in range(7):
        for j in range(9):
            assert an.relaxed[i][j].approx_equals(iu(tables.EXPECTED_RELAXED[i][j])), (i, j)
            assert an.exact[i][j].approx_equals(iu(tables.EXPECTED_EXACT[i][j])), (i, j)
            assert an.restricted[i][j].approx_equals(
                iu(tables.EXPECTED_RESTRICTED[i][j])
            ), (i, j)
    for j in range(9):
        assert an.col_bounds[j].approx_equals(iu(tables.EXPECTED_COL_BOUNDS[j])), j


def test_column_bounds_examples(example_analysis):
    assert example_analysis.col_bounds[2].approx_equals(iu([[0.1, 0.7]]))
    assert example_analysis.col_bounds[6].is_singleton
    assert example_analysis.col_bounds[6].singleton_value == pytest.approx(0.1)

    # a column where no entry reaches the target stays unconstrained
    free = BipolarSystem([[0.1]], [[0.1]], [0.9], TNormSpec("minimum"))
    assert CellAnalysis(free).col_bounds[0] == IntervalUnion.full()


def test_column_bounds_equal_relaxed_intersection(example_analysis):
    an = example_analysis
    for j in range(an.n):
        direct = IntervalUnion.full()
        for i in range(an.m):
            direct = direct & an.relaxed[i][j]
        assert an.col_bounds[j].approx_equals(direct), j


def test_supports(example_analysis):
    assert [list(s) for s in example_analysis.row_support] == [
        [2, 4],
        [0, 1, 6],
        [7, 8],
        [1, 2, 3, 6],
        [4],
        [7, 8],
        [1, 5],
    ]
    restricted = example_analysis.restricted
    assert [i for i in range(7) if not restricted[i][7].is_empty] == [2, 5]


# -- feasibility verdicts ----------------------------------------------------------


def test_necessary_feasibility(example_analysis):
    assert necessary_feasibility(example_analysis).ok

    dead_rows = BipolarSystem(
        [[0.0, 0.0]], [[0.0, 0.0]], [1.0], TNormSpec("minimum")
    )
    v = necessary_feasibility(CellAnalysis(dead_rows))
    assert (v.status, v.index) == ("empty_row", 0)

    crossed = BipolarSystem([[1.0]], [[1.0]], [0.0], TNormSpec("minimum"))
    v = necessary_feasibility(CellAnalysis(crossed))
    assert (v.status, v.index) == ("empty_column", 0)


# -- membership -----------------------------------------------------------------


def test_is_feasible_point_examples(example_analysis):
    best = [0.0, 0.75, 0.7, 1.0, 0.75, 0.4, 0.1, 0.0, 0.5]
    assert is_feasible_point(example_analysis, best)
    assert not is_feasible_point(example_analysis, [0.0] * 9)
    with pytest.raises(ValueError):
        is_feasible_point(example_analysis, [0.0] * 3)

    # restricted set is the whole admissible interval: everything passes
    trivial = BipolarSystem([[0.0]], [[0.0]], [0.0], TNormSpec("minimum"))
    an = CellAnalysis(trivial)
    assert all(is_feasible_point(an, [x / 10]) for x in range(11))


def test_satisfies_equation(example_system):
    best = [0.0, 0.75, 0.7, 1.0, 0.75, 0.4, 0.1, 0.0, 0.5]
    for i in range(7):
        assert is_feasible_point(equation(example_system, i), best)
    assert not is_feasible_point(equation(example_system, 3), [0.0] * 9)


def test_residual_examples(example_system, example_analysis):
    best = [0.0, 0.75, 0.7, 1.0, 0.75, 0.4, 0.1, 0.0, 0.5]
    for i in range(7):
        assert residual(example_system, best, i) <= 1e-9
    assert residual(example_system, [0.0] * 9, 3) == pytest.approx(0.05)


def test_cell_membership_matches_direct_evaluation():
    # Set membership against the defining inequality/equality, sampled.
    rng = random.Random(77)
    for trial in range(60):
        sys_ = random_system(rng, max_m=2, max_n=2)
        an = CellAnalysis(sys_)
        t = sys_.tnorm
        for _ in range(25):
            i = rng.randrange(sys_.m)
            j = rng.randrange(sys_.n)
            x = rng.random()
            lhs = max(
                tnorm_eval(t, sys_.a_plus[i][j], x),
                tnorm_eval(t, sys_.a_minus[i][j], 1.0 - x),
            )
            margin = lhs - sys_.b[i]
            if abs(margin) <= 1e-7:  # too close to the boundary to classify
                continue
            assert an.relaxed[i][j].contains(x) == (margin < 0.0), (sys_, i, j, x)
            assert not an.exact[i][j].contains(x), (sys_, i, j, x)
        # endpoints of the exact sets really solve the cell equation
        for i in range(sys_.m):
            for j in range(sys_.n):
                for v in an.exact[i][j].endpoints():
                    lhs = max(
                        tnorm_eval(t, sys_.a_plus[i][j], v),
                        tnorm_eval(t, sys_.a_minus[i][j], 1.0 - v),
                    )
                    assert abs(lhs - sys_.b[i]) <= 1e-9, (sys_, i, j, v)


def test_membership_consistency_with_residual():
    rng = random.Random(78)
    for trial in range(80):
        sys_ = random_system(rng, max_m=4, max_n=4)
        an = CellAnalysis(sys_)
        points = [[rng.random() for _ in range(sys_.n)] for _ in range(12)]
        points.append([rng.randrange(11) / 10 for _ in range(sys_.n)])
        for x in points:
            strict = is_feasible_point(an, x, eps=0.0)
            if strict:
                assert all(residual(sys_, x, i) <= 1e-9 for i in range(sys_.m))
            if all(residual(sys_, x, i) <= 1e-12 for i in range(sys_.m)):
                assert is_feasible_point(an, x)


def test_constructed_feasible_point_is_recognized():
    rng = random.Random(79)
    for trial in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        sys0 = random_system(rng, max_m=m, max_n=n, force_feasible=True)
        an = CellAnalysis(sys0)
        assert necessary_feasibility(an).ok


def test_corollary_consistency_per_equation():
    # Under the row's relaxed sets, single-equation membership agrees with
    # the residual check.
    rng = random.Random(80)
    for trial in range(60):
        sys_ = random_system(rng, max_m=3, max_n=3)
        rows = [equation(sys_, i) for i in range(sys_.m)]
        for _ in range(10):
            x = [rng.random() for _ in range(sys_.n)]
            i = rng.randrange(sys_.m)
            r = residual(sys_, x, i)
            if r <= 1e-12:
                assert is_feasible_point(rows[i], x)
            elif is_feasible_point(rows[i], x, eps=0.0):
                assert r <= 1e-9
