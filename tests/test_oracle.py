"""Brute-force verification paths."""

import random

import pytest

from bfre import (
    BipolarSystem,
    TNormSpec,
    breakpoint_grid,
    brute_force_min,
    feasible_region,
    grid_membership_check,
    objective_catalog,
)
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


def test_membership_check_infeasible_system():
    sys_ = BipolarSystem([[0.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.2)
    report = grid_membership_check(res.analysis, res.boxes, grid)
    assert report.ok  # both sides empty everywhere


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
