"""Objectives, corner candidates and global selection."""

import math
import random

import numpy as np
import pytest

import tables
from bfre import (
    CellAnalysis,
    InfeasibleError,
    check_monotone,
    feasible_region,
    global_optimum,
    is_feasible_point,
    jacobi_eigenvalues,
    local_candidate,
    objective_catalog,
)
from bfre.optimize import MonotoneObjective
from conftest import LINEAR_C, random_system


@pytest.fixture(scope="module")
def example_region(example_system):
    return feasible_region(example_system)


# -- objective construction ------------------------------------------------------


def test_partition_must_cover_and_be_disjoint():
    with pytest.raises(ValueError):
        MonotoneObjective("x", 2, frozenset({0}), frozenset(), lambda x: 0.0)
    with pytest.raises(ValueError):
        MonotoneObjective("x", 2, frozenset({0, 1}), frozenset({1}), lambda x: 0.0)


def test_catalog_validation():
    with pytest.raises(ValueError):
        objective_catalog("nope", 3)
    with pytest.raises(ValueError):
        objective_catalog("linear", 3, {"c": [1.0]})
    with pytest.raises(ValueError):
        objective_catalog("p_norm", 3, {"p": 0.5})
    with pytest.raises(ValueError):
        objective_catalog("sum_largest", 3, {"r": 4})
    with pytest.raises(ValueError):
        objective_catalog("sum_log", 2, {"alpha": [1.0, 0.0]})
    with pytest.raises(ValueError):
        objective_catalog("frobenius", 4)
    with pytest.raises(ValueError):
        objective_catalog("max_eigenvalue", 4)
    with pytest.raises(ValueError):
        objective_catalog("perspective", 1, {"p": 2})
    with pytest.raises(ValueError):
        objective_catalog("max", 3, j_plus=[0, 1, 2])  # one-sided override


def test_linear_partition_follows_signs():
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    assert obj.j_plus == frozenset({0, 1, 4, 5, 7})
    assert obj.j_minus == frozenset({2, 3, 6, 8})


def test_linear_value_is_the_plain_sum():
    # The same products added in the same order: equal to the last bit.
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 12)
        c = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        obj = objective_catalog("linear", n, {"c": c})
        for _ in range(5):
            x = tuple(rng.random() for _ in range(n))
            assert obj(x) == sum(cj * xj for cj, xj in zip(c, x))


def test_partition_override():
    obj = objective_catalog("max", 2, j_plus=[0], j_minus=[1])
    assert obj.j_plus == frozenset({0})


# -- corner candidates -------------------------------------------------------------


def test_linear_candidates(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    best, cands = global_optimum(example_region.boxes, obj)
    assert len(cands) == 4
    for cand, (point, value) in zip(cands, tables.EXPECTED_LINEAR_CANDIDATES):
        assert cand.point == pytest.approx(point, abs=1e-9)
        assert cand.value == pytest.approx(value, abs=1e-9)
    assert best.value == pytest.approx(-3.6, abs=1e-9)
    assert list(best.source.columns) == [7, 8]


def test_all_plus_candidates(example_region):
    obj = objective_catalog("simplex_support", 9)
    best, cands = global_optimum(example_region.boxes, obj)
    for cand, point in zip(cands, tables.EXPECTED_ALL_PLUS_CANDIDATES):
        assert cand.point == pytest.approx(point, abs=1e-9)
    assert [c.value for c in cands] == pytest.approx(
        tables.EXPECTED_SUPPORT_VALUES, abs=1e-9
    )
    # duplicate candidate points from distinct assignments are both kept
    assert cands[1].point == cands[3].point
    # ties break toward the lexicographically smallest assignment
    assert best.source.columns == (7, 8)
    assert best.value == pytest.approx(0.75, abs=1e-9)


def test_perspective_candidates(example_region):
    obj = objective_catalog("perspective", 9, {"p": 3})
    best, cands = global_optimum(example_region.boxes, obj)
    for cand, (point, value) in zip(cands, tables.EXPECTED_PERSPECTIVE_CANDIDATES):
        assert cand.point == pytest.approx(point, abs=1e-9)
        assert cand.value == pytest.approx(value, abs=5e-4)
    assert best.value == pytest.approx(1.4218, abs=5e-4)
    assert list(best.source.columns) == [7, 7]


def test_corner_rule_is_exact(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    for box in example_region.boxes:
        cand = local_candidate(box, obj)
        for j, factor in enumerate(box.factors):
            expected = factor.min_elem() if j in obj.j_plus else factor.max_elem()
            assert cand.point[j] == expected


def test_single_point_box():
    from bfre import BipolarSystem, TNormSpec

    res = feasible_region(BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product")))
    obj = objective_catalog("linear", 1, {"c": [3.0]})
    best, cands = global_optimum(res.boxes, obj)
    assert best.point == pytest.approx((0.5,))
    assert best.value == pytest.approx(1.5)


def test_global_optimum_requires_boxes():
    obj = objective_catalog("max", 2)
    with pytest.raises(InfeasibleError):
        global_optimum([], obj)


def test_candidates_are_feasible(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    _, cands = global_optimum(example_region.boxes, obj)
    for cand in cands:
        assert is_feasible_point(example_region.analysis, cand.point)


def test_candidate_minimizes_its_box():
    rng = random.Random(55)
    for trial in range(25):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=True)
        res = feasible_region(sys_)
        if not res.is_feasible:
            continue
        c = [rng.uniform(-2, 2) for _ in range(sys_.n)]
        obj = objective_catalog("linear", sys_.n, {"c": c})
        for box in res.boxes:
            cand = local_candidate(box, obj)
            for _ in range(40):
                x = []
                for factor in box.factors:
                    lo, hi = rng.choice(factor.pieces)
                    x.append(rng.uniform(lo, hi))
                assert cand.value <= obj(x) + 1e-9


def test_global_optimum_below_feasible_grid():
    from bfre.oracle import breakpoint_grid, brute_force_min

    rng = random.Random(56)
    for trial in range(25):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=True)
        res = feasible_region(sys_)
        if not res.is_feasible:
            continue
        c = [rng.uniform(-2, 2) for _ in range(sys_.n)]
        obj = objective_catalog("linear", sys_.n, {"c": c})
        best, _ = global_optimum(res.boxes, obj)
        grid = breakpoint_grid(res.analysis, step=0.34)
        point, value = brute_force_min(res.analysis, obj, grid)
        assert value is not None
        assert best.value <= value + 1e-9


# -- catalog evaluators ---------------------------------------------------------------


def test_catalog_reference_values(example_region):
    sup = objective_catalog("simplex_support", 9)
    _, cands = global_optimum(example_region.boxes, sup)
    points = [c.point for c in cands[:3]]
    for name, (params, values, _stars) in tables.EXPECTED_CATALOG_TABLE.items():
        obj = objective_catalog(name, 9, params)
        got = [obj(p) for p in points]
        assert got == pytest.approx(values, abs=5e-4), name


def test_geometric_mean_zero_factor():
    obj = objective_catalog("geometric_mean", 3)
    assert obj([0.0, 0.5, 0.9]) == 0.0


def test_sum_largest_reference(example_region):
    obj = objective_catalog("sum_largest", 9, {"r": 4})
    x_e3 = tables.EXPECTED_ALL_PLUS_CANDIDATES[2]
    assert obj(x_e3) == pytest.approx(2.4, abs=1e-9)


def test_perspective_edge_cases():
    obj = objective_catalog("perspective", 3, {"p": 2})
    assert math.isinf(obj([0.5, 0.5, 0.0]))
    assert obj([0.0, 0.0, 0.0]) == 0.0
    flat = objective_catalog("perspective", 3, {"p": 1})
    assert flat([0.2, 0.3, 0.0]) == pytest.approx(0.5)


def test_log_sum_exp_brackets_max():
    obj = objective_catalog("log_sum_exp", 4)
    x = [0.1, 0.9, 0.4, 0.2]
    assert max(x) <= obj(x) <= max(x) + math.log(4)


# -- eigenvalues -----------------------------------------------------------------------


def test_jacobi_matches_characteristic_roots():
    rng = random.Random(57)
    for _ in range(60):
        m = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                m[j][i] = m[i][j]
        got = jacobi_eigenvalues(m)
        expected = sorted(np.roots(np.poly(np.array(m))).real)
        assert got == pytest.approx(expected, abs=1e-9)


def test_jacobi_diagonal_and_validation():
    assert jacobi_eigenvalues([[2.0, 0.0], [0.0, 1.0]]) == (1.0, 2.0)
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_max_eigenvalue_reference(example_region):
    obj = objective_catalog("max_eigenvalue", 9)
    points = tables.EXPECTED_ALL_PLUS_CANDIDATES
    assert obj(points[0]) == pytest.approx(1.0728, abs=5e-4)
    assert obj(points[1]) == pytest.approx(1.0607, abs=5e-4)


# -- monotonicity probing -----------------------------------------------------------------


def test_probe_accepts_correct_declarations():
    assert check_monotone(objective_catalog("linear", 2, {"c": [1.0, -1.0]})) == []
    assert check_monotone(objective_catalog("max_eigenvalue", 9)) == []


def test_probe_flags_wrong_declaration():
    wrong = objective_catalog("linear", 1, {"c": [1.0]}, j_plus=[], j_minus=[0])
    assert check_monotone(wrong)
