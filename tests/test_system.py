"""System analysis: per-cell sets, column bounds, membership tests."""

import contextlib
import math
import random

import pytest

import tables
from bfre import intervals, tnorms
from bfre import (
    BipolarSystem,
    CellAnalysis,
    IntervalUnion,
    TNormSpec,
    feasible_region,
    global_optimum,
    is_feasible_point,
    necessary_feasibility,
    objective_catalog,
    residual,
    solve_scalar_eq,
    tnorm_eval,
)
from bfre.cli import problem_from_dict
from bfre.tnorms import TNORM_KINDS
from conftest import bench_workloads, random_system


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


@pytest.mark.parametrize("kind", ["product", "minimum"])
def test_cell_sets_match_definition_near_tolerance(kind):
    # With b = a c / (a + c) the product's cuts meet: 1 - u- = u+.  So do
    # the minimum's at a = c = 1.  The offsets move the cuts a few EPS apart
    # either way, where [1 - u-, u+] collapses to its midpoint or empties.
    rng = random.Random(83)
    t = TNormSpec(kind)
    for _ in range(150):
        a, c = 1.0, 1.0
        if rng.random() < 0.7:
            a, c = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        for delta in (0.0, 1e-10, -1e-10, 5e-10, -5e-10, 2e-9, -2e-9):
            b = a * c / (a + c) + delta
            cell = CellAnalysis(BipolarSystem([[a]], [[c]], [b], t))
            p, q = solve_scalar_eq(t, a, b), solve_scalar_eq(t, c, b)
            # the definition: both literals at most b, and one of them equal
            relaxed = iu([(0.0, 1.0 if p.u is None else p.u)]) & iu(
                [(0.0 if q.u is None else 1.0 - q.u, 1.0)]
            )
            hits = [] if p.u is None else [(p.l, p.u)]
            hits += [] if q.u is None else [(1.0 - q.u, 1.0 - q.l)]
            case = (kind, a, c, delta)
            assert cell.relaxed[0][0].pieces == relaxed.pieces, case
            assert cell.exact[0][0].pieces == (relaxed & iu(hits)).pieces, case


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
    # the test takes no tolerance argument: intervals.EPS, set only through
    # intervals.tolerance, is the one tolerance, so a third argument is an error
    with pytest.raises(TypeError):
        is_feasible_point(example_analysis, best, 1e-9)

    # restricted set is the whole admissible interval: everything passes
    trivial = BipolarSystem([[0.0]], [[0.0]], [0.0], TNormSpec("minimum"))
    an = CellAnalysis(trivial)
    assert all(is_feasible_point(an, [x / 10]) for x in range(11))


def _all_any_feasible(analysis, x, contains=IntervalUnion.contains):
    """The membership test written as its two conditions: every x_j in its
    column bound, and every row with a support column j where x_j lies in
    restricted[i][j]; ``contains(set, v)`` tests one value."""
    if not all(contains(col, xj) for col, xj in zip(analysis.col_bounds, x)):
        return False
    return all(
        any(contains(analysis.restricted[i][j], x[j]) for j in support)
        for i, support in enumerate(analysis.row_support)
    )


def _exactly_in(interval_union, v):
    """Membership with no tolerance: v lies in one of the closed pieces."""
    return any(lo <= v <= hi for lo, hi in interval_union.pieces)


def _near_endpoints(analysis, j, tol):
    """0, 1 and column j's bound and restricted endpoints, one ulp and one
    tolerance either side of each, and one ulp either side of those."""
    ends = [0.0, 1.0] + analysis.col_bounds[j].endpoints()
    for restricted in analysis.restricted:
        ends += restricted[j].endpoints()
    out = set()
    for v in ends:
        for w in (v, v - tol, v + tol):
            out.update((w, math.nextafter(w, -1.0), math.nextafter(w, 2.0)))
    return sorted(out)


@pytest.mark.parametrize("scope", ["default", "tolerance"])
def test_is_feasible_point_matches_all_any_definition(scope):
    # Random points, and points whose coordinates sit on, one ulp from and
    # one tolerance from the cell and bound endpoints; systems with a row
    # that no literal reaches, whose support is empty.
    rng = random.Random(85)
    context = intervals.tolerance(1e-7) if scope == "tolerance" else contextlib.nullcontext()
    outcomes = {True: 0, False: 0}
    empty_rows = 0
    with context:
        tol = intervals.EPS
        for trial in range(150):
            system = random_system(rng, max_m=4, max_n=4)
            if trial % 5 == 0:
                # b = 1 above every coefficient below 1: no literal reaches it
                low = [0.5] * system.n
                system = BipolarSystem(
                    system.a_plus + (low,), system.a_minus + (low,), system.b + (1.0,),
                    system.tnorm,
                )
            an = CellAnalysis(system)
            empty_rows += not all(an.row_support)
            near = [_near_endpoints(an, j, tol) for j in range(an.n)]
            points = [[rng.random() for _ in range(an.n)] for _ in range(10)]
            points += [[rng.choice(values) for values in near] for _ in range(40)]
            for x in points:
                expected = _all_any_feasible(an, x)
                assert is_feasible_point(an, x) == expected, (system, x)
                outcomes[expected] += 1
    assert empty_rows >= 30
    assert min(outcomes.values()) > 200, outcomes


def test_witness_lists_are_built_only_for_point_tests(example_system):
    # feasible and solve read no per-column witness lists; the first point
    # test builds them once
    result = feasible_region(example_system)
    objective = objective_catalog("max", example_system.n)
    global_optimum(result.analysis, result.reduction, objective)
    assert "column_witnesses" not in vars(result.analysis)
    assert not is_feasible_point(result.analysis, [0.0] * 9)
    witnesses = result.analysis.column_witnesses
    assert is_feasible_point(result.analysis, [0.0, 0.75, 0.7, 1.0, 0.75, 0.4, 0.1, 0.0, 0.5])
    assert result.analysis.column_witnesses is witnesses


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


@pytest.mark.parametrize("x0", [float("nan"), -3.0, 1.5])
def test_residual_rejects_a_coordinate_outside_the_unit_interval(x0):
    # no clamping: the membership test rejects these points, and a residual
    # of 0.0 for them would call them solutions
    system = BipolarSystem([[0.8]], [[0.0]], [0.0], TNormSpec("product"))
    assert not is_feasible_point(CellAnalysis(system), [x0])
    with pytest.raises(ValueError, match=r"x\[0\]"):
        residual(system, [x0], 0)
    assert residual(system, [0.0], 0) == 0.0
    assert residual(system, [1.0], 0) == pytest.approx(0.8)


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
            strict = _all_any_feasible(an, x, _exactly_in)
            if strict:
                assert all(residual(sys_, x, i) <= 1e-9 for i in range(sys_.m))
            if all(residual(sys_, x, i) <= 1e-12 for i in range(sys_.m)):
                assert is_feasible_point(an, x)


@pytest.mark.parametrize(
    "kind",
    [
        "product",
        "frank",
        pytest.param(
            "dubois_prade", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
        ),
    ],
)
def test_natural_witness_is_feasible(kind):
    # Natural 60x60 systems, each b_i computed at a float witness x0 in
    # floats: x0 solves every equation, so the membership test must accept
    # it on all 40 systems.  No enumeration: only the cell analysis.
    workloads = bench_workloads()
    rejected = []
    for seed in range(40):
        rng = random.Random(f"nat/{kind}/{seed}")
        problem, x0 = workloads.natural_system(rng, kind, 60, 60)
        system, _ = problem_from_dict(problem)
        if not is_feasible_point(CellAnalysis(system), x0):
            rejected.append(seed)
    assert not rejected, f"witness rejected on seeds {rejected}"


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
            elif _all_any_feasible(rows[i], x, _exactly_in):
                assert r <= 1e-9


# -- sparse construction against the dense definition -----------------------------


def dense_reference(system):
    """Relaxed, exact and restricted sets, column bounds, supports and
    reached columns built cell by cell, with both literals of every cell
    solved, through the canonicalizing constructors and ``&``."""
    t, n = system.tnorm, system.n
    relaxed, exact, reached = [], [], []
    lows, highs = [0.0] * n, [1.0] * n
    for a_plus, a_minus, b in zip(system.a_plus, system.a_minus, system.b):
        relaxed.append([])
        exact.append([])
        reached.append(())
        for j in range(n):
            p, q = solve_scalar_eq(t, a_plus[j], b), solve_scalar_eq(t, a_minus[j], b)
            lo = 0.0 if q.u is None else 1.0 - q.u
            hi = 1.0 if p.u is None else p.u
            hits = [] if p.u is None else [(max(lo, p.l), hi)]
            hits += [] if q.u is None else [(lo, min(hi, 1.0 - q.l))]
            relaxed[-1].append(IntervalUnion.interval(lo, hi))
            exact[-1].append(IntervalUnion.from_pairs(hits))
            lows[j], highs[j] = max(lows[j], lo), min(highs[j], hi)
            if p.u is not None or q.u is not None:
                reached[-1] += (j,)
    cols = [IntervalUnion.interval(lo, hi) for lo, hi in zip(lows, highs)]
    restricted = [[cell & cols[j] for j, cell in enumerate(row)] for row in exact]
    support = [tuple(j for j in range(n) if not row[j].is_empty) for row in restricted]
    return relaxed, exact, restricted, cols, support, reached


def assert_matches_dense(system):
    an = CellAnalysis(system)
    relaxed, exact, restricted, cols, support, reached = dense_reference(system)
    for got, want in ((an.relaxed, relaxed), (an.exact, exact), (an.restricted, restricted)):
        assert [[c.pieces for c in row] for row in got] == [
            [c.pieces for c in row] for row in want
        ], system
    assert [c.pieces for c in an.col_bounds] == [c.pieces for c in cols], system
    assert an.row_support == support, system
    assert an.reached == reached, system


def plateau_system(rng, kind):
    """b_i = 0 rows and a = b plateaus: some b_i copied from a coefficient."""
    sys_ = random_system(rng, max_m=5, max_n=5, kind=kind)
    b = list(sys_.b)
    for i in range(sys_.m):
        pick = rng.random()
        if pick < 0.25:
            b[i] = 0.0
        elif pick < 0.6:
            b[i] = rng.choice(sys_.a_plus[i] + sys_.a_minus[i])
    return BipolarSystem(sys_.a_plus, sys_.a_minus, b, sys_.tnorm)


#: Gaps b - a at the drift tolerance: on it, one ulp either side, and twice it.
DRIFT_GAPS = (
    tnorms._EQ_DRIFT,
    math.nextafter(tnorms._EQ_DRIFT, 0.0),
    math.nextafter(tnorms._EQ_DRIFT, 1.0),
    2e-12,
)


def drift_system(rng, kind):
    """One cell per row whose only non-zero literal, if any, falls short of
    b_i by about the drift tolerance: either b_i is a gap and both literals
    are 0, where the float gap is exact, or b_i lies in (0.01, 1) and one
    literal is b_i - gap or a neighbouring float."""
    sys_ = random_system(rng, max_m=5, max_n=5, kind=kind)
    a_plus = [list(row) for row in sys_.a_plus]
    a_minus = [list(row) for row in sys_.a_minus]
    b = list(sys_.b)
    for i in range(sys_.m):
        gap = rng.choice(DRIFT_GAPS)
        j = rng.randrange(sys_.n)
        a_plus[i][j] = a_minus[i][j] = 0.0
        if rng.random() < 0.5:
            b[i] = gap
        else:
            b[i] = rng.uniform(0.01, 1.0)
            a = b[i] - gap
            rng.choice((a_plus, a_minus))[i][j] = rng.choice(
                (math.nextafter(a, 0.0), a, math.nextafter(a, 1.0))
            )
    return BipolarSystem(a_plus, a_minus, b, sys_.tnorm)


@pytest.mark.parametrize("kind", TNORM_KINDS)
def test_sparse_cells_match_dense_reference(kind):
    rng = random.Random(TNORM_KINDS.index(kind) + 300)
    gaps = []
    for _ in range(40):
        assert_matches_dense(random_system(rng, max_m=5, max_n=5, kind=kind))
        assert_matches_dense(plateau_system(rng, kind))
        system = drift_system(rng, kind)
        assert_matches_dense(system)
        gaps += [
            b - a
            for a_plus, a_minus, b in zip(system.a_plus, system.a_minus, system.b)
            for a in a_plus + a_minus
        ]
    # the gaps straddle the tolerance: on it, one ulp either side, and beyond
    for gap in DRIFT_GAPS:
        assert gap in gaps, gap


@pytest.mark.parametrize("eps", [None, 1e-7])
def test_sparse_cells_match_dense_reference_near_tolerance(eps):
    # Product 1x1 cells with b = a c / (a + c) + delta: the cuts 1 - u- and
    # u+ meet at delta = 0 and cross for delta < 0, by less than or by more
    # than the tolerance, where [1 - u-, u+] collapses to a point or empties.
    rng = random.Random(84)
    t = TNormSpec("product")
    scope = contextlib.nullcontext() if eps is None else intervals.tolerance(eps)
    with scope:
        tol = intervals.EPS
        crossed = {"collapsed": 0, "emptied": 0}
        for _ in range(100):
            a, c = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
            for scale in (0.0, 0.1, 0.5, 0.9, 1.5, 4.0, 40.0):
                for sign in (1.0, -1.0):
                    b = a * c / (a + c) + sign * scale * tol
                    system = BipolarSystem([[a]], [[c]], [b], t)
                    assert_matches_dense(system)
                    p, q = solve_scalar_eq(t, a, b), solve_scalar_eq(t, c, b)
                    width = p.u - (1.0 - q.u)
                    if -tol <= width < 0.0:
                        crossed["collapsed"] += 1
                    elif width < -tol:
                        crossed["emptied"] += 1
        assert min(crossed.values()) > 50, crossed
