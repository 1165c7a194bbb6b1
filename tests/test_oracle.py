"""Brute-force verification paths."""

import itertools
import random

import pytest

from bfre import (
    BipolarSystem,
    FeasibleBox,
    IntervalUnion,
    TNormSpec,
    breakpoint_grid,
    brute_force_min,
    feasible_region,
    grid_membership_check,
    is_feasible_point,
    objective_catalog,
)
from bfre.oracle import DEFAULT_GRID_CAP
from conftest import LINEAR_C, random_system


@pytest.fixture(scope="module")
def example_region(example_system):
    return feasible_region(example_system)


def test_breakpoint_grid_contains_endpoints(example_region):
    grid = breakpoint_grid(example_region.analysis, step=0.5)
    assert any(abs(v - 0.1) <= 1e-9 for v in grid[6])
    assert any(abs(v - 0.25) <= 1e-9 for v in grid[0])
    for col in grid:
        assert col == sorted(col)
        assert {0.0, 0.5, 1.0} <= {v for v in col if v in (0.0, 0.5, 1.0)}


def test_breakpoint_grid_on_unconstrained_column():
    sys_ = BipolarSystem([[0.1]], [[0.1]], [0.9], TNormSpec("minimum"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.5)
    assert grid[0] == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        breakpoint_grid(res.analysis, step=0.0)


def test_membership_check_exhaustive_small():
    sys_ = BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.1)
    report = grid_membership_check(res.analysis, res.boxes, grid)
    assert not report.sampled
    assert report.ok
    assert report.checked == report.total_points


def test_membership_check_sampled(example_region):
    grid = breakpoint_grid(example_region.analysis, step=0.25)
    report = grid_membership_check(
        example_region.analysis, example_region.boxes, grid, cap=4000, seed=3
    )
    assert report.sampled
    assert report.checked == 4000
    assert report.ok


def test_membership_check_on_an_all_feasible_grid():
    # 0 = max(T(0, x), T(0, 1 - x)) everywhere, so every grid point is feasible
    sys_ = BipolarSystem([[0.0, 0.0]], [[0.0, 0.0]], [0.0], TNormSpec("product"))
    res = feasible_region(sys_)
    obj = objective_catalog("linear", 2, {"c": [1.0, -1.0]})
    grid = breakpoint_grid(res.analysis, step=0.25)
    report = grid_membership_check(res.analysis, res.boxes, grid, objective=obj)
    assert report.checked == report.total_points == 25
    assert report.mismatches == []
    assert (report.best_point, report.best_value) == ((0.0, 1.0), -1.0)


def test_membership_check_infeasible_system():
    sys_ = BipolarSystem([[0.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.2)
    report = grid_membership_check(res.analysis, res.boxes, grid)
    assert report.ok  # both sides empty everywhere


def _box_scan_mismatches(analysis, boxes, grid):
    """The union test without an index: every point against every box."""
    out = []
    for x in itertools.product(*grid):
        feasible = is_feasible_point(analysis, x)
        in_union = any(box.contains(x) for box in boxes)
        if feasible != in_union:
            out.append((x, feasible, in_union))
    return out


def test_membership_index_matches_box_scan():
    # Subsets and orders of the boxes, the empty tuple included, must give
    # the same mismatches as scanning the boxes one by one.
    rng = random.Random(23)
    systems = 0
    lossy = 0
    while systems < 12:
        res = feasible_region(
            random_system(rng, max_m=4, max_n=4, force_feasible=True)
        )
        if len(res.boxes) < 2:
            continue
        systems += 1
        grid = breakpoint_grid(res.analysis, step=0.5)
        boxes = list(res.boxes)
        variants = [(), tuple(boxes), tuple(reversed(boxes))]
        for _ in range(3):
            variants.append(tuple(rng.sample(boxes, rng.randint(1, len(boxes)))))
        for variant in variants:
            report = grid_membership_check(res.analysis, variant, grid)
            assert not report.sampled
            expected = _box_scan_mismatches(res.analysis, variant, grid)
            assert report.mismatches == expected, (res.analysis.system, variant)
            lossy += bool(expected) and len(variant) > 0
    assert lossy > 0


def test_membership_check_reports_dropped_and_extra_boxes(example_region):
    analysis, boxes = example_region.analysis, example_region.boxes
    grid = breakpoint_grid(analysis, step=1.0)
    for k, box in enumerate(boxes):
        others = boxes[:k] + boxes[k + 1:]
        # The grid points inside box k, and those of them no other box holds.
        sub = [[v for v in col if f.contains(v)] for col, f in zip(grid, box.factors)]
        own = [
            x
            for x in itertools.product(*sub)
            if not any(b.contains(x) for b in others)
        ]
        if own:
            break
    assert own
    assert grid_membership_check(analysis, boxes, sub).ok
    report = grid_membership_check(analysis, others, sub)
    assert report.mismatches == [(x, True, False) for x in own]

    full = FeasibleBox(
        tuple(IntervalUnion.full() for _ in range(analysis.n)), boxes[0].source
    )
    report = grid_membership_check(
        analysis, boxes + (full,), breakpoint_grid(analysis, step=0.25), cap=2000
    )
    assert report.sampled
    assert report.mismatches
    assert all(not f and b for _, f, b in report.mismatches)


def test_brute_force_min_single_point():
    sys_ = BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product"))
    res = feasible_region(sys_)
    obj = objective_catalog("linear", 1, {"c": [2.0]})
    grid = breakpoint_grid(res.analysis, step=0.1)
    point, value = brute_force_min(res.analysis, obj, grid)
    assert point == pytest.approx((0.5,))
    assert value == pytest.approx(1.0)


def test_brute_force_min_infeasible():
    sys_ = BipolarSystem([[0.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    obj = objective_catalog("max", 1)
    grid = breakpoint_grid(res.analysis, step=0.5)
    assert brute_force_min(res.analysis, obj, grid) == (None, None)


def test_brute_force_reproduces_reference_optima(example_region):
    # With ticks only at {0, 1} the grid is exactly the breakpoints: small
    # enough to sweep exhaustively even for nine variables.
    grid = breakpoint_grid(example_region.analysis, step=1.0)
    total = 1
    for col in grid:
        total *= len(col)
    assert total <= 500_000

    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    point, value = brute_force_min(example_region.analysis, obj, grid, cap=total)
    assert value == pytest.approx(-3.6, abs=1e-9)
    report = grid_membership_check(
        example_region.analysis, example_region.boxes, grid, cap=total, objective=obj
    )
    assert not report.sampled
    assert (report.best_point, report.best_value) == (point, value)

    persp = objective_catalog("perspective", 9, {"p": 3})
    _, pvalue = brute_force_min(example_region.analysis, persp, grid, cap=total)
    assert pvalue == pytest.approx(1.4218, abs=5e-4)


def test_brute_force_matches_pipeline_on_random_instances():
    from bfre import global_optimum

    rng = random.Random(91)
    hits = 0
    for trial in range(30):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=True)
        res = feasible_region(sys_)
        if not res.is_feasible:
            continue
        obj = objective_catalog(
            "linear", sys_.n, {"c": [rng.uniform(-2, 2) for _ in range(sys_.n)]}
        )
        best, _ = global_optimum(res.boxes, obj)
        grid = breakpoint_grid(res.analysis, step=0.5)
        _, value = brute_force_min(res.analysis, obj, grid)
        assert value is not None
        assert abs(best.value - value) <= 1e-9, sys_
        hits += 1
    assert hits >= 20


def test_folded_minimum_on_sampled_example(example_region):
    analysis, boxes = example_region.analysis, example_region.boxes
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    grid = breakpoint_grid(analysis, step=0.25)
    # seed 3 draws no feasible point, seed 0 draws one
    for seed, found in ((3, False), (0, True)):
        report = grid_membership_check(
            analysis, boxes, grid, cap=4000, seed=seed, objective=obj
        )
        assert report.sampled and report.ok
        expected = brute_force_min(analysis, obj, grid, cap=4000, seed=seed)
        assert (report.best_point, report.best_value) == expected
        assert (report.best_value is not None) == found


def test_folded_minimum_matches_brute_force_min():
    # Exhaustive and sampled grids, feasible and infeasible systems; "max"
    # ties often, so the first-strictly-smaller rule is exercised.
    rng = random.Random(57)
    found = 0
    for trial in range(40):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=trial % 4 != 3)
        res = feasible_region(sys_)
        if trial % 2:
            obj = objective_catalog("max", sys_.n)
        else:
            c = [rng.uniform(-2, 2) for _ in range(sys_.n)]
            obj = objective_catalog("linear", sys_.n, {"c": c})
        grid = breakpoint_grid(res.analysis, step=0.5)
        for cap in (DEFAULT_GRID_CAP, 6):
            report = grid_membership_check(
                res.analysis, res.boxes, grid, cap=cap, seed=trial, objective=obj
            )
            expected = brute_force_min(res.analysis, obj, grid, cap=cap, seed=trial)
            assert (report.best_point, report.best_value) == expected, sys_
            found += report.best_value is not None
    assert found >= 40
