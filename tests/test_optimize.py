"""Objectives, corner candidates and global selection."""

import collections
import itertools
import math
import random

import numpy as np
import pytest

import tables
from bfre import (
    BipolarSystem,
    CellAnalysis,
    InfeasibleError,
    ResourceLimitError,
    TNormSpec,
    check_monotone,
    feasible_region,
    global_optimum,
    is_feasible_point,
    objective_catalog,
    tolerance,
)
from bfre.cli import problem_from_dict
from bfre.optimize import OBJECTIVE_NAMES, MonotoneObjective, jacobi_eigenvalues
from bfre.simplify import ReductionState
from bfre.tnorms import TNORM_KINDS
from conftest import (
    LINEAR_C,
    bench_workloads,
    dense_square_problem,
    random_system,
    reference_optimum,
)


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


def test_catalog_rejects_parameters_the_objective_does_not_read():
    unknown = r"unknown parameter\(s\)"
    with pytest.raises(ValueError, match=rf"'max' takes no parameters; {unknown} 'p', 'c'"):
        objective_catalog("max", 2, {"p": 3, "c": "x"})
    with pytest.raises(ValueError, match=rf"'p_norm' takes only 'p'; {unknown} 'r'"):
        objective_catalog("p_norm", 2, {"p": 2, "r": "junk"})
    with pytest.raises(ValueError, match=rf"{unknown} 'R'"):
        objective_catalog("sum_largest", 3, {"r": 2, "R": 2})
    # every declared name is still accepted
    declared = {
        "linear": {"c": [1.0, 2.0]},
        "perspective": {"p": 2},
        "p_norm": {"p": 2},
        "sum_largest": {"r": 1},
        "sum_log": {"alpha": [1.0, 1.0]},
        "max": {},
    }
    for name, params in declared.items():
        assert objective_catalog(name, 2, params).name == name


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


def _search(region, objective, **kwargs):
    return global_optimum(region.analysis, region.reduction, objective, **kwargs)


def _assert_search_is_the_scan(region, objective):
    """The search's best is the exhaustive scan's, bit for bit; returns both."""
    reference, corners = reference_optimum(region.boxes, objective)
    best, compared = _search(region, objective)
    assert (best.value, best.point, best.columns) == reference
    assert 0 < len(compared) <= len(region.boxes)
    return best, compared, corners


def test_linear_candidates(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    best, _, corners = _assert_search_is_the_scan(example_region, obj)
    assert len(corners) == 4
    for (value, point, _), expected in zip(corners, tables.EXPECTED_LINEAR_CANDIDATES):
        assert point == pytest.approx(expected[0], abs=1e-9)
        assert value == pytest.approx(expected[1], abs=1e-9)
    assert best.value == pytest.approx(-3.6, abs=1e-9)
    assert list(best.columns) == [7, 8]


def test_all_plus_candidates(example_region):
    obj = objective_catalog("simplex_support", 9)
    best, _, corners = _assert_search_is_the_scan(example_region, obj)
    for (_, point, _), expected in zip(corners, tables.EXPECTED_ALL_PLUS_CANDIDATES):
        assert point == pytest.approx(expected, abs=1e-9)
    assert [c[0] for c in corners] == pytest.approx(tables.EXPECTED_SUPPORT_VALUES, abs=1e-9)
    # distinct assignments can share a corner point
    assert corners[1][1] == corners[3][1]
    # ties break toward the lexicographically smallest assignment
    assert best.columns == (7, 8)
    assert best.value == pytest.approx(0.75, abs=1e-9)


def test_perspective_candidates(example_region):
    obj = objective_catalog("perspective", 9, {"p": 3})
    best, _, corners = _assert_search_is_the_scan(example_region, obj)
    for (value, point, _), expected in zip(corners, tables.EXPECTED_PERSPECTIVE_CANDIDATES):
        assert point == pytest.approx(expected[0], abs=1e-9)
        assert value == pytest.approx(expected[1], abs=5e-4)
    assert best.value == pytest.approx(1.4218, abs=5e-4)
    assert list(best.columns) == [7, 7]


def test_corner_rule_is_exact(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    boxes = {box.columns: box for box in example_region.boxes}
    _, compared = _search(example_region, obj)
    assert len(compared) >= 2
    for cand in compared:
        for j, factor in enumerate(boxes[cand.columns].factors):
            expected = factor.pieces[0][0] if j in obj.j_plus else factor.pieces[-1][1]
            assert cand.point[j] == expected
        assert cand.value == obj(cand.point)


def test_single_point_box():
    res = feasible_region(BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product")))
    obj = objective_catalog("linear", 1, {"c": [3.0]})
    best, compared = _search(res, obj)
    assert best.point == pytest.approx((0.5,))
    assert best.value == pytest.approx(1.5)
    assert compared == [best]


def test_global_optimum_requires_boxes():
    # no coefficient reaches b_0, so equation 0 has no witness column
    an = CellAnalysis(BipolarSystem.from_fre([[0.2, 0.3]], [0.5], TNormSpec("product")))
    with pytest.raises(InfeasibleError):
        global_optimum(an, ReductionState.initial(an), objective_catalog("max", 2))


def test_candidates_are_feasible(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    _, compared = _search(example_region, obj)
    for cand in compared:
        assert is_feasible_point(example_region.analysis, cand.point)


def test_candidate_minimizes_its_box():
    rng = random.Random(55)
    checked = 0
    for trial in range(25):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=True)
        res = feasible_region(sys_)
        if not res.is_feasible:
            continue
        c = [rng.uniform(-2, 2) for _ in range(sys_.n)]
        obj = objective_catalog("linear", sys_.n, {"c": c})
        boxes = {box.columns: box for box in res.boxes}
        for cand in _search(res, obj)[1]:
            for _ in range(40):
                x = []
                for factor in boxes[cand.columns].factors:
                    lo, hi = rng.choice(factor.pieces)
                    x.append(rng.uniform(lo, hi))
                assert cand.value <= obj(x) + 1e-9
            checked += 1
    assert checked >= 20


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
        best, _ = _search(res, obj)
        grid = breakpoint_grid(res.analysis, step=0.34)
        point, value = brute_force_min(res.analysis, obj, grid)
        assert value is not None
        assert best.value <= value + 1e-9


# -- the search against the exhaustive scan -------------------------------------------

#: Catalog parameters for 9 variables; ``linear`` draws its c per system.
_PARAMS = {
    "perspective": {"p": 2.5},
    "p_norm": {"p": 3},
    "sum_largest": {"r": 4},
    "sum_log": {"alpha": [0.5 + j / 9 for j in range(9)]},
}


def _pin_last_to_zero(system):
    """``system`` and one more variable, pinned to 0 by one more equation
    with right-hand side 0; ``perspective`` divides by it."""
    a_plus = [[*row, 0.0] for row in system.a_plus] + [[0.0] * system.n + [1.0]]
    a_minus = [[*row, 0.0] for row in system.a_minus] + [[0.0] * (system.n + 1)]
    return BipolarSystem(a_plus, a_minus, [*system.b, 0.0], system.tnorm)


@pytest.mark.parametrize("kind", TNORM_KINDS)
def test_search_matches_exhaustive_scan(kind):
    # Six systems around a witness, every catalog objective, reduced and
    # unreduced, at the default tolerance and at 1e-7.  Every second system
    # pins x_8 to 0, so its perspective corners are infinite.  Without the
    # widening of the bound the search misses the scan's optimum by an ulp
    # in four of these comparisons (frank systems 3 and 5, unreduced).
    rng = random.Random(f"search/{kind}")
    compared = boxes = infinite = 0
    for k in range(6):
        if k % 2:
            system = random_system(rng, kind=kind, force_feasible=True, shape=(6, 8))
            system = _pin_last_to_zero(system)
        else:
            system = random_system(rng, kind=kind, force_feasible=True, shape=(6, 9))
        c = [rng.uniform(-2.0, 2.0) for _ in range(9)]
        for simplify, eps in itertools.product((True, False), (1e-9, 1e-7)):
            with tolerance(eps):
                region = feasible_region(system, simplify=simplify)
                assert region.is_feasible
                for name in OBJECTIVE_NAMES:
                    params = {"c": c} if name == "linear" else _PARAMS.get(name, {})
                    obj = objective_catalog(name, 9, params)
                    _, leaves, corners = _assert_search_is_the_scan(region, obj)
                    compared += len(leaves)
                    infinite += sum(math.isinf(value) for value, _, _ in corners)
                boxes += len(region.boxes) * len(OBJECTIVE_NAMES)
    assert compared < boxes, (compared, boxes)
    assert infinite > 0


@pytest.mark.parametrize("kind", ["product", "frank", "dubois_prade"])
def test_search_when_the_first_leaf_is_not_optimal(kind):
    # The benchmark's dense-square shape: 6 core rows, each free column
    # shared by two of them.  A c of alternating sign over the shared
    # columns makes the first leaf a poor one, so the search must move its
    # incumbent and still prune most of the 610 leaves.
    shape = bench_workloads().WORKLOADS["dense-square"]["shape"]
    problem = dense_square_problem(kind, f"adversarial/{kind}")
    region = feasible_region(problem_from_dict(problem)[0])
    analysis, state = region.analysis, region.reduction
    uses = collections.Counter(
        j for i in state.active_rows for j in state.row_candidates(analysis, i)
    )
    shared = sorted(j for j, count in uses.items() if count >= 2)
    assert len(shared) == shape.free
    c = [0.0] * analysis.n
    for k, j in enumerate(shared):
        c[j] = (-1.0) ** k * (1.0 + k / 10)
    obj = objective_catalog("linear", analysis.n, {"c": c})
    best, compared, corners = _assert_search_is_the_scan(region, obj)
    assert len(region.boxes) == 610
    assert corners[0][0] > best.value  # the first leaf is not optimal
    assert len(compared) < len(region.boxes) // 4


def test_widening_keeps_a_leaf_the_collapse_lowered():
    # Column 1 holds x = 0.5 for row 0 and x = 0.5 - 4e-10 for row 1, closer
    # than EPS, so each intersection collapses to a midpoint: row 0's
    # restricted set is {0.5 - 2e-10}, and the leaf (1, 1) has x_1 =
    # 0.5 - 3e-10, below the end of the partial box it grew from.  The
    # first leaf (0, 1) scores 0.5 - 2.5e-10, between the two: the plain
    # corner of the partial box (1, .) would prune the optimum.
    system = BipolarSystem(
        [[0.9, 0.9], [0.1, 0.9]], [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5 - 4e-10],
        TNormSpec("minimum"),
    )
    region = feasible_region(system, simplify=False)
    partial = region.analysis.restricted[0][1].pieces[0][0]
    obj = objective_catalog("linear", 2, {"c": [3e-10, 1.0]})
    best, compared, corners = _assert_search_is_the_scan(region, obj)
    assert best.columns == (1, 1)
    assert best.point[1] < partial
    assert corners[0][0] < obj([0.0, partial])
    assert len(compared) == 2


def test_search_cap_reports_the_incumbent(example_region):
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    with pytest.raises(ResourceLimitError, match=r"compared 2 leaves, more than 1, .* -3\.6;"):
        _search(example_region, obj, max_count=1)
    assert len(_search(example_region, obj, max_count=2)[1]) == 2


# -- catalog evaluators ---------------------------------------------------------------


def test_catalog_reference_values(example_region):
    sup = objective_catalog("simplex_support", 9)
    _, corners = reference_optimum(example_region.boxes, sup)
    points = [point for _, point, _ in corners[:3]]
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


def test_probe_skips_sign_consistent_linear(monkeypatch):
    # A sign-consistent linear objective is decided without a single draw;
    # zero coefficients may sit on either side.
    import bfre.optimize as optimize

    monkeypatch.setattr(optimize, "random", None)
    c = [2.0, -1.0, 0.0, 0.0, -0.0]
    assert check_monotone(objective_catalog("linear", 5, {"c": c})) == []
    swapped = objective_catalog("linear", 5, {"c": c}, j_plus=[0, 3, 4], j_minus=[1, 2])
    assert check_monotone(swapped) == []


def test_linear_probe_result_matches_probing():
    # The shortcut returns what probing returns: [] when the declaration is
    # sign-consistent, and the same violations from the same draws when not.
    rng = random.Random(21)
    consistent = flagged = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        c = [rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 1e3) for _ in range(n)]
        plus = [j for j in range(n) if rng.random() < 0.5]
        if rng.random() < 0.5:
            plus = [j for j in range(n) if c[j] > 0.0 or (c[j] == 0.0 and j in plus)]
        minus = [j for j in range(n) if j not in plus]
        obj = objective_catalog("linear", n, {"c": c}, j_plus=plus, j_minus=minus)
        # the same evaluator behind a plain function, which is always probed
        fn = obj.fn
        probed = MonotoneObjective("probed", n, obj.j_plus, obj.j_minus, lambda x: fn(x))
        seed = rng.randrange(100)
        violations = check_monotone(obj, seed)
        assert violations == check_monotone(probed, seed), (c, plus)
        consistent += all(c[j] >= 0.0 for j in plus) and all(c[j] <= 0.0 for j in minus)
        flagged += bool(violations)
    assert consistent > 100 and flagged > 50
