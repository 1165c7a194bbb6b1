"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the stated tolerances.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import tables
from bfre import (
    CellAnalysis,
    IntervalUnion,
    count_bound,
    feasible_region,
    global_optimum,
    is_feasible_point,
    objective_catalog,
    solve_scalar_eq,
    solve_scalar_eq_numeric,
)
from bfre.oracle import breakpoint_grid, brute_force_min
from bfre.simplify import ReductionState
from bfre.tnorms import TNORM_KINDS
from conftest import (
    AXIOM_SPECS,
    LINEAR_C,
    check_tnorm_axioms,
    in_box,
    random_system,
    random_tnorm,
    reference_optimum,
)

TOL = 1e-9


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nacceptance criterion {num} ({label}): FAIL")
        raise
    print(f"\nacceptance criterion {num} ({label}): PASS")


def iu(pairs):
    return IntervalUnion.from_pairs(pairs)


@pytest.fixture(scope="module")
def region(example_system):
    return feasible_region(example_system)


# -- criterion 1: per-cell set reproduction ---------------------------------------


def test_criterion_1_cell_sets(example_system):
    with criterion(1, "per-cell sets"):
        start = time.perf_counter()
        an = CellAnalysis(example_system)
        for i in range(7):
            for j in range(9):
                assert an.relaxed[i][j].approx_equals(
                    iu(tables.EXPECTED_RELAXED[i][j])
                ), ("relaxed", i, j)
                assert an.exact[i][j].approx_equals(
                    iu(tables.EXPECTED_EXACT[i][j])
                ), ("exact", i, j)
                assert an.restricted[i][j].approx_equals(
                    iu(tables.EXPECTED_RESTRICTED[i][j])
                ), ("restricted", i, j)
        for j in range(9):
            assert an.col_bounds[j].approx_equals(
                iu(tables.EXPECTED_COL_BOUNDS[j])
            ), ("bound", j)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"cell-set reproduction took {elapsed:.3f}s"


# -- criterion 2: simplification ----------------------------------------------------


def test_criterion_2_simplification(region):
    with criterion(2, "simplification"):
        state = region.reduction
        assert sorted(state.fixed) == [4, 6]
        assert state.fixed[4] == pytest.approx(0.75, abs=TOL)
        assert state.fixed[6] == pytest.approx(0.1, abs=TOL)
        assert state.active_rows == [2, 5]
        assert state.active_cols == [0, 1, 2, 3, 5, 7, 8]
        assert count_bound(region.analysis, ReductionState.initial(region.analysis)) == 192
        assert count_bound(region.analysis, state) == 4
        for r, i in enumerate(state.active_rows):
            for c, j in enumerate(state.active_cols):
                assert region.analysis.restricted[i][j].approx_equals(
                    iu(tables.EXPECTED_REDUCED_RESTRICTED[r][c])
                ), (i, j)


# -- criterion 3: enumeration and region ---------------------------------------------


def test_criterion_3_enumeration_and_boxes(region):
    with criterion(3, "enumeration and boxes"):
        state = region.reduction
        reduced_index = {j: k + 1 for k, j in enumerate(state.active_cols)}
        got = [[reduced_index[j] for j in box.columns] for box in region.boxes]
        assert got == [[6, 6], [6, 7], [7, 6], [7, 7]]
        assert len(region.boxes) == 4
        for box, expected in zip(region.boxes, tables.EXPECTED_BOX_FACTORS):
            for j, pairs in expected.items():
                assert box.factors[j].approx_equals(iu(pairs)), (box.columns, j)
            assert box.factors[4].approx_equals(iu([[0.75, 0.75]]))
            assert box.factors[6].approx_equals(iu([[0.1, 0.1]]))
            for j in (0, 1, 2, 3, 5):
                assert box.factors[j].approx_equals(
                    iu(tables.EXPECTED_COL_BOUNDS[j])
                ), j


# -- criterion 4: linear optimization --------------------------------------------------


def _optimum(region, objective):
    """The search's best, which must be the exhaustive scan's bit for bit,
    and the scan's per-box corners ``(value, point, columns)``."""
    reference, corners = reference_optimum(region.boxes, objective)
    best, _ = global_optimum(region.analysis, region.reduction, objective)
    assert (best.value, best.point, best.columns) == reference
    return best, corners


def test_criterion_4_linear_optimization(region):
    with criterion(4, "linear optimization"):
        obj = objective_catalog("linear", 9, {"c": LINEAR_C})
        best, corners = _optimum(region, obj)
        assert len(corners) == 4
        for (value, point, _), expected in zip(corners, tables.EXPECTED_LINEAR_CANDIDATES):
            assert point == pytest.approx(expected[0], abs=TOL)
            assert value == pytest.approx(expected[1], abs=TOL)
        assert best.value == pytest.approx(-3.6, abs=TOL)
        assert best.point == pytest.approx(
            tables.EXPECTED_LINEAR_CANDIDATES[1][0], abs=TOL
        )


# -- criterion 5: objective catalog ------------------------------------------------------


def test_criterion_5_objective_catalog(region):
    with criterion(5, "objective catalog"):
        # support function over the simplex
        sup = objective_catalog("simplex_support", 9)
        best, corners = _optimum(region, sup)
        values = [value for value, _, _ in corners]
        assert values == pytest.approx(tables.EXPECTED_SUPPORT_VALUES, abs=5e-4)
        assert best.value == pytest.approx(0.75, abs=5e-4)
        argmin = {k for k, v in enumerate(values) if v <= min(values) + TOL}
        assert argmin == {1, 2, 3}  # three coinciding global optima

        # perspective objective
        persp = objective_catalog("perspective", 9, {"p": 3})
        pbest, pcorners = _optimum(region, persp)
        for (value, _, _), expected in zip(pcorners, tables.EXPECTED_PERSPECTIVE_CANDIDATES):
            assert value == pytest.approx(expected[1], abs=5e-4)
        assert pbest.value == pytest.approx(1.4218, abs=5e-4)

        # remaining catalog at the three distinct all-plus candidates
        points = [point for _, point, _ in corners[:3]]
        for name, (params, expected, stars) in tables.EXPECTED_CATALOG_TABLE.items():
            obj = objective_catalog(name, 9, params)
            got = [obj(p) for p in points]
            assert got == pytest.approx(expected, abs=5e-4), name
            got_argmin = {k for k, v in enumerate(got) if v <= min(got) + TOL}
            assert got_argmin == stars, name
            gbest, _ = _optimum(region, obj)
            assert gbest.value == pytest.approx(min(expected), abs=5e-4), name


# -- criterion 6: property suites ------------------------------------------------------------


def test_criterion_6a_tnorm_axioms():
    with criterion("6a", "t-norm axiom suite"):
        assert len(AXIOM_SPECS) == 13
        for k, spec in enumerate(AXIOM_SPECS):
            check_tnorm_axioms(spec, samples=1000, seed=900 + k, tol=1e-12)


def test_criterion_6b_closed_form_vs_bisection():
    with criterion("6b", "closed form vs bisection"):
        rng = random.Random(6002)
        for kind in TNORM_KINDS:
            for _ in range(1000):
                spec = random_tnorm(rng, kind)
                a = rng.random()
                b = rng.random() * a
                closed = solve_scalar_eq(spec, a, b)
                num = solve_scalar_eq_numeric(spec, a, b)
                assert abs(closed.l - num.l) <= 1e-8, (spec, a, b)
                assert abs(closed.u - num.u) <= 1e-8, (spec, a, b)


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(6003)
    corpus = []
    for k in range(200):
        kind = TNORM_KINDS[k % len(TNORM_KINDS)]
        sys_ = random_system(rng, max_m=3, max_n=3, kind=kind)
        res = feasible_region(sys_)
        grid = breakpoint_grid(res.analysis, step=0.2)
        total = 1
        for col in grid:
            total *= len(col)
        if total <= 20000:
            points = list(itertools.product(*grid))
        else:
            points = [tuple(rng.choice(col) for col in grid) for _ in range(20000)]
        corpus.append((sys_, res, points))
    return corpus


def test_criterion_6c_region_equivalence(random_corpus):
    with criterion("6c", "region membership equivalence"):
        mismatches = 0
        checked = 0
        for sys_, res, points in random_corpus:
            for x in points:
                direct = is_feasible_point(res.analysis, x)
                in_union = any(in_box(box, x) for box in res.boxes)
                if direct != in_union:
                    mismatches += 1
                checked += 1
        assert checked > 30_000
        assert mismatches == 0


def test_criterion_6d_simplification_soundness(random_corpus):
    # The reduction is observable only through the boxes it leads to: the
    # reduced run's region must be the unreduced run's, point for point.
    with criterion("6d", "simplification soundness"):
        mismatches = 0
        for sys_, res, points in random_corpus:
            if res.reduction is None:
                continue  # rejected by the necessary checks before reduction
            unreduced = feasible_region(sys_, simplify=False).boxes
            for x in points:
                reduced = any(in_box(box, x) for box in res.boxes)
                if reduced != any(in_box(box, x) for box in unreduced):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_6e_optimum_vs_brute_force():
    with criterion("6e", "global optimum vs brute force"):
        rng = random.Random(6005)
        agreements = 0
        for k in range(100):
            kind = TNORM_KINDS[k % len(TNORM_KINDS)]
            sys_ = random_system(rng, max_m=3, max_n=3, kind=kind, force_feasible=True)
            res = feasible_region(sys_)
            assert res.is_feasible, sys_
            c = [rng.uniform(-2.0, 2.0) for _ in range(sys_.n)]
            obj = objective_catalog("linear", sys_.n, {"c": c})
            best, _ = global_optimum(res.analysis, res.reduction, obj)
            grid = breakpoint_grid(res.analysis, step=0.5)
            _, value = brute_force_min(res.analysis, obj, grid)
            assert value is not None, sys_
            assert abs(best.value - value) <= TOL, (sys_, c)
            agreements += 1
        assert agreements == 100
