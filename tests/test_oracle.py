"""Brute-force verification paths."""

import itertools
import random
import tracemalloc
from collections import Counter
from operator import getitem
from types import SimpleNamespace

import pytest

from bfre import (
    BipolarSystem,
    CellAnalysis,
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
from bfre import oracle
from bfre.cli import problem_from_dict
from bfre.oracle import DEFAULT_GRID_CAP, GridReport
from bfre.tnorms import TNORM_KINDS
from conftest import (
    LINEAR_C,
    bench_workloads,
    dense_square_problem,
    in_box,
    random_system,
    region_of,
)


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


def _eager_grid(analysis, step):
    """The grid built the eager way: every tick and endpoint in one sorted
    list per column, then a value kept when it lies more than 1e-12 above
    the last kept one."""
    ticks = [k * step for k in range(int(1.0 / step) + 1)] + [1.0]
    grid = []
    for j in range(analysis.n):
        values = list(ticks)
        values.extend(analysis.col_bounds[j].endpoints())
        for i in range(analysis.m):
            for sets in (analysis.relaxed, analysis.exact, analysis.restricted):
                values.extend(sets[i][j].endpoints())
        out = []
        for v in sorted(min(1.0, max(0.0, v)) for v in values):
            if not out or v - out[-1] > 1e-12:
                out.append(v)
        grid.append(out)
    return grid


def _assert_same_columns(grid, reference):
    assert len(grid) == len(reference)
    for col, ref in zip(grid, reference):
        # repr tells 0.0 from -0.0, which == does not
        assert list(map(repr, col)) == list(map(repr, ref))
        assert len(col) == len(ref)
        assert [col[i] for i in range(len(col))] == ref
        assert col[-1] == ref[-1] and col[-len(ref)] == ref[0]
        with pytest.raises(IndexError):
            col[len(ref)]


@pytest.fixture(params=["lazy", "lists"])
def column_kind(request, monkeypatch):
    """Build every grid column lazily, or keep short columns as lists."""
    if request.param == "lazy":
        monkeypatch.setattr(oracle, "_LIST_MAX", -1)
    return request.param


@pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.1])
def test_lazy_grid_matches_eager_grid(step, column_kind):
    rng = random.Random(41)
    for _ in range(40):
        res = feasible_region(random_system(rng, max_m=3, max_n=4))
        grid = breakpoint_grid(res.analysis, step)
        assert all(isinstance(col, list) == (column_kind == "lists") for col in grid)
        _assert_same_columns(grid, _eager_grid(res.analysis, step))


def test_lazy_grid_merges_near_ticks_like_eager_grid(column_kind):
    # Endpoints on, just above and just below ticks, chains closer than the
    # 1e-12 merge distance, and values outside [0, 1]; steps whose last
    # tick falls below, on or above 1.
    rng = random.Random(5)
    steps = [1.0, 2.0, 0.5, 0.3, 1 / 3, 0.1, 0.07, 0.01, 0.7]
    steps += [rng.uniform(0.001, 0.2) for _ in range(30)]
    for step in steps:
        last = int(1.0 / step)
        for _ in range(6):
            values = [-0.1, 1.2, 0.0, 1.0, 1.0 - 5e-13, 5e-13, last * step]
            for _ in range(12):
                v = rng.randint(0, last) * step + rng.choice(
                    [0.0, 0.0, 4e-13, -4e-13, 1.5e-12, -1.5e-12, rng.random() * step]
                )
                values += [v, v, v + 6e-13, v + 1.2e-12]
            rng.shuffle(values)
            pieces = tuple(zip(values[::2], values[1::2]))
            column = IntervalUnion(pieces)  # endpoints exactly as given
            empty = IntervalUnion(())
            analysis = SimpleNamespace(
                m=1,
                n=2,
                col_bounds=[column, empty],
                relaxed=[[empty, column]],
                exact=[[column, empty]],
                restricted=[[empty, empty]],
                reached=[(0, 1)],
            )
            grid = breakpoint_grid(analysis, step)
            _assert_same_columns(grid, _eager_grid(analysis, step))


def sparse_system(rng):
    """A random system whose b_i is one of the row's two largest
    coefficients, so most literals fall short of b_i."""
    sys_ = random_system(rng, max_m=6, max_n=6)
    b = [
        sorted(a_plus + a_minus)[-rng.randint(1, 2)]
        for a_plus, a_minus in zip(sys_.a_plus, sys_.a_minus)
    ]
    return BipolarSystem(sys_.a_plus, sys_.a_minus, b, sys_.tnorm)


@pytest.mark.parametrize("step", [0.25, 1e-4, 2.0])
def test_grid_of_reached_cells_matches_all_cells_grid(step):
    # _eager_grid reads every cell; breakpoint_grid only the reached ones.
    rng = random.Random(43)
    reached = cells = 0
    for _ in range(20):
        analysis = CellAnalysis(sparse_system(rng))
        _assert_same_columns(breakpoint_grid(analysis, step), _eager_grid(analysis, step))
        reached += sum(map(len, analysis.reached))
        cells += analysis.m * analysis.n
    assert 0 < reached < cells / 2


def test_fine_grid_allocates_no_tick_lists(example_region):
    # At step 5.1e-7 a column has about two million ticks; as a list of
    # floats each column would take over 60 MB.
    tracemalloc.start()
    try:
        grid = breakpoint_grid(example_region.analysis, step=5.1e-7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert all(len(col) > 1_960_000 for col in grid)
    rng = random.Random(2)
    for col in grid:
        assert col[0] == 0.0 and col[-1] == 1.0
        for i in rng.sample(range(len(col) - 1), 200):
            assert col[i] + 1e-12 < col[i + 1]


def _choice_points(columns, cap, seed):
    choice = random.Random(seed).choice
    return [tuple(map(choice, columns)) for _ in range(cap)]


def test_sampled_walk_draws_the_choice_stream():
    """The sampling contract is this walk's own: per point and column of
    length n, ``getrandbits(n.bit_length())`` until the value is below n.
    It happens to match the stream of ``random.Random(seed).choice``, and
    this test pins the sampled points to that stream."""
    lengths = [1, 2, 3, 5, 6, 7, 100, 1000, 4097, 5000]
    lengths += [n for k in range(1, 13) for n in (2**k - 1, 2**k, 2**k + 1)]
    rng = random.Random(8)
    for seed in range(50):
        rng.shuffle(lengths)
        columns = lengths + [rng.randint(1, 5000) for _ in range(10)]
        total, sampled, points = oracle._walk([range(n) for n in columns], 40, seed)
        assert sampled and total > 40
        assert list(points) == _choice_points(list(map(range, columns)), 40, seed)


def test_sampled_walk_draws_the_choice_stream_from_lazy_columns(example_region):
    # At step 1e-4 every column is lazy; its indices follow the same stream,
    # and its values are those of the same column as a plain list.
    grid = breakpoint_grid(example_region.analysis, step=1e-4)
    assert all(isinstance(col, oracle._GridColumn) for col in grid)
    lists = [list(col) for col in grid]
    for seed in range(5):
        _, sampled, points = oracle._walk(grid, 200, seed)
        points = list(points)
        assert sampled
        assert points == _choice_points([range(len(col)) for col in grid], 200, seed)
        values = [tuple(map(getitem, grid, point)) for point in points]
        assert values == _choice_points(lists, 200, seed)


def test_sampled_walk_draws_the_same_points_from_lazy_columns():
    # At step 1e-4 both columns are lazy, with over 10,000 values each.  At
    # caps 50 and 30,000 the walk must see exactly the points that a grid of
    # plain lists gives.
    sys_ = BipolarSystem([[0.5, 0.8]], [[0.2, 0.4]], [0.4], TNormSpec("product"))
    res = feasible_region(sys_)
    obj = objective_catalog("linear", 2, {"c": [1.0, -1.0]})
    grid = breakpoint_grid(res.analysis, step=1e-4)
    assert all(isinstance(col, oracle._GridColumn) for col in grid)
    lists = [list(col) for col in grid]
    for cap in (50, 30_000):
        lazy = grid_membership_check(res, grid, cap, 4, obj)
        eager = grid_membership_check(res, lists, cap, 4, obj)
        assert lazy.sampled and lazy.checked == cap
        assert lazy == eager
        # the region is three segments: the small sample misses them
        assert (lazy.best_value is not None) == (cap > 50)
        assert brute_force_min(res.analysis, obj, grid, cap, 4) == (
            lazy.best_point,
            lazy.best_value,
        )


def test_membership_check_exhaustive_small():
    sys_ = BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.1)
    report = grid_membership_check(res, grid)
    assert not report.sampled
    assert report.ok
    assert report.checked == report.total_points


def test_membership_check_sampled(example_region):
    grid = breakpoint_grid(example_region.analysis, step=0.25)
    report = grid_membership_check(example_region, grid, cap=4000, seed=3)
    assert report.sampled
    assert report.checked == 4000
    assert report.ok


def test_membership_check_on_an_all_feasible_grid():
    # 0 = max(T(0, x), T(0, 1 - x)) everywhere, so every grid point is feasible
    sys_ = BipolarSystem([[0.0, 0.0]], [[0.0, 0.0]], [0.0], TNormSpec("product"))
    res = feasible_region(sys_)
    obj = objective_catalog("linear", 2, {"c": [1.0, -1.0]})
    grid = breakpoint_grid(res.analysis, step=0.25)
    report = grid_membership_check(res, grid, objective=obj)
    assert report.checked == report.total_points == 25
    assert report.mismatches == []
    assert (report.best_point, report.best_value) == ((0.0, 1.0), -1.0)


def test_membership_check_counts_every_mismatch_and_keeps_50():
    # every point is feasible and no box is left, so each point drawn is a
    # mismatch; the walk counts them all and keeps only the first 50
    sys_ = BipolarSystem([[0.0, 0.0]], [[0.0, 0.0]], [0.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, 1e-3)
    report = grid_membership_check(region_of(res.analysis, ()), grid, cap=2_000)
    assert report.sampled
    assert report.mismatch_count == report.checked == 2_000
    assert len(report.mismatches) == 50
    assert all(f and not b for _, f, b in report.mismatches)
    assert not report.ok


def test_membership_check_infeasible_system():
    sys_ = BipolarSystem([[0.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    grid = breakpoint_grid(res.analysis, step=0.2)
    report = grid_membership_check(res, grid)
    assert report.ok  # both sides empty everywhere


def _box_scan_mismatches(analysis, boxes, grid):
    """The union test without an index: every point against every box."""
    out = []
    for x in itertools.product(*grid):
        feasible = is_feasible_point(analysis, x)
        in_union = any(in_box(box, x) for box in boxes)
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
            report = grid_membership_check(region_of(res.analysis, variant), grid)
            assert not report.sampled
            expected = _box_scan_mismatches(res.analysis, variant, grid)
            assert (report.mismatch_count, report.mismatches) == (
                len(expected),
                expected[:50],
            ), (res.analysis.system, variant)
            lossy += bool(expected) and len(variant) > 0
    assert lossy > 0


def _nearest_in(factor, v):
    """v itself when a piece of factor holds it exactly, else the factor's
    endpoint nearest to v (the lower one on a tie)."""
    if any(lo <= v <= hi for lo, hi in factor.pieces):
        return v
    return min(factor.endpoints(), key=lambda e: abs(e - v))


def _reference_report(analysis, boxes, grid, cap, seed, objective):
    """The walk point by point: the product of the column values, or ``cap``
    draws of ``random.Random(seed).choice`` per column; per point,
    ``is_feasible_point``, the first strictly smaller objective value and a
    scan of every box.  The snapped value moves a feasible point into the
    first box that holds it, if any, before the objective reads it.  Every
    mismatch is counted, and the first 50 are kept."""
    total = 1
    for col in grid:
        total *= len(col)
    sampled = total > cap
    points = _choice_points(grid, cap, seed) if sampled else itertools.product(*grid)
    mismatches, checked, best_point, best_value, snapped_value = [], 0, None, None, None
    for x in points:
        checked += 1
        feasible = is_feasible_point(analysis, x)
        holding = [box for box in boxes if in_box(box, x)]
        if feasible and objective is not None:
            value = objective(x)
            if best_value is None or value < best_value:
                best_point, best_value = x, value
            if holding:
                value = objective([_nearest_in(f, v) for f, v in zip(holding[0].factors, x)])
            if snapped_value is None or value < snapped_value:
                snapped_value = value
        in_union = bool(holding)
        if feasible != in_union:
            mismatches.append((x, feasible, in_union))
    return GridReport(
        total,
        checked,
        sampled,
        len(mismatches),
        mismatches[:50],
        best_point,
        best_value,
        snapped_value,
    )


def test_memoized_walk_matches_point_by_point_reference(column_kind):
    # Families in turn, boxes dropped, added and reordered, exhaustive and
    # sampled grids, with and without an objective; the whole report must
    # equal the reference's.
    rng = random.Random(29)
    seen = {"mismatch": 0, "sampled": 0, "exhaustive": 0, "best": 0}
    for trial in range(60):
        kind = TNORM_KINDS[trial % len(TNORM_KINDS)]
        sys_ = random_system(rng, max_m=4, max_n=4, kind=kind)
        res = feasible_region(sys_)
        boxes = list(res.boxes)
        full = FeasibleBox(tuple(IntervalUnion.interval(0.0, 1.0) for _ in range(sys_.n)), ())
        variants = [tuple(boxes), (), tuple(reversed(boxes)) + (full,)]
        if boxes:
            variants.append(tuple(rng.sample(boxes, len(boxes) - 1)))
        objective = None
        if trial % 3 == 1:
            objective = objective_catalog("max", sys_.n)
        elif trial % 3 == 2:
            c = [rng.uniform(-2, 2) for _ in range(sys_.n)]
            objective = objective_catalog("linear", sys_.n, {"c": c})
        for step, cap in ((0.5, DEFAULT_GRID_CAP), (0.25, 60)):
            grid = breakpoint_grid(res.analysis, step)
            for variant in variants:
                report = grid_membership_check(
                    region_of(res.analysis, variant), grid, cap, trial, objective
                )
                expected = _reference_report(
                    res.analysis, variant, grid, cap, trial, objective
                )
                assert report == expected, (sys_, step, variant)
                seen["mismatch"] += bool(report.mismatches)
                seen["sampled" if report.sampled else "exhaustive"] += 1
                seen["best"] += report.best_value is not None
    assert min(seen.values()) >= 20, seen


@pytest.fixture(scope="module")
def large_regions():
    """Planted regions of 610 boxes, one per family of ``dense-square``,
    whose search DAGs share nodes between many paths."""
    return [
        feasible_region(problem_from_dict(dense_square_problem(kind, f"oracle/{kind}"))[0])
        for kind in ("product", "frank", "dubois_prade")
    ]


def test_lazy_index_matches_reference_on_large_regions(large_regions):
    # Boxes dropped, duplicated and reordered; a sampled breakpoint grid
    # and an exhaustive one of a few values per witness column around a
    # box's corner, which a variant drops every box of.
    rng = random.Random(43)
    seen = {"mismatch": 0, "best": 0, "sampled": 0, "exhaustive": 0}
    for res in large_regions:
        boxes = list(res.boxes)
        assert len(boxes) >= 200
        corner = tuple(f.pieces[0][0] for f in rng.choice(boxes).factors)
        variants = [
            tuple(boxes),
            tuple(box for box in boxes if not in_box(box, corner)),
            tuple(rng.sample(boxes, len(boxes) - 40) + rng.sample(boxes, 60)),
            tuple(reversed(boxes)),
        ]
        full = breakpoint_grid(res.analysis, 0.25)
        grid = [[v] for v in corner]
        for j in rng.sample(sorted({j for box in boxes for j in box.columns}), 4):
            grid[j] = sorted({corner[j], *rng.sample(list(full[j]), 2)})
        objective = objective_catalog("linear", res.analysis.n, {"c": [1.0] * res.analysis.n})
        for variant in variants:
            for walk_grid, cap in ((full, 60), (grid, DEFAULT_GRID_CAP)):
                report = grid_membership_check(
                    region_of(res.analysis, variant), walk_grid, cap, 5, objective
                )
                expected = _reference_report(
                    res.analysis, variant, walk_grid, cap, 5, objective
                )
                assert report == expected
                seen["mismatch"] += bool(report.mismatches)
                seen["best"] += report.best_value is not None
                seen["sampled" if report.sampled else "exhaustive"] += 1
    assert min(seen.values()) >= 3, seen


def test_region_and_its_listed_boxes_give_one_report(large_regions):
    # The union test on the region's merged DAG and on a chain per listed
    # box must agree on every field of the report, the snapped minimum too,
    # which reads the first path in edge order that holds the point.
    rng = random.Random(47)
    snapped = 0
    for res in large_regions:
        boxes = res.boxes
        chains = region_of(res.analysis, boxes)
        corner = [f.pieces[0][0] for f in rng.choice(boxes).factors]
        full = breakpoint_grid(res.analysis, 0.25)
        grid = [[v] for v in corner]
        for j in rng.sample(sorted({j for box in boxes for j in box.columns}), 4):
            grid[j] = sorted({corner[j], *rng.sample(list(full[j]), 2)})
        objective = objective_catalog("linear", res.analysis.n, {"c": [1.0] * res.analysis.n})
        for walk_grid, cap in ((full, 60), (grid, DEFAULT_GRID_CAP)):
            report = grid_membership_check(res, walk_grid, cap, 3, objective)
            assert report == grid_membership_check(chains, walk_grid, cap, 3, objective)
            snapped += report.snapped_value is not None
    assert snapped >= 3


@pytest.fixture(scope="module", params=["product", "frank", "dubois_prade"])
def wide_region(request):
    """A planted 50x50 system with 10 core rows: 3,796,228 boxes, far too
    many to list, over a DAG of a few thousand nodes."""
    workloads = bench_workloads()
    kind = request.param
    shape = workloads.Shape(50, 10, 20, 20, extra=0)
    problem, _ = workloads.planted_system(random.Random(f"p/{kind}/50/10"), kind, shape)
    return feasible_region(problem_from_dict(problem)[0], max_count=10**7)


def test_union_test_memory_follows_the_dag_not_its_boxes(wide_region):
    # A bitmask of one bit per box for each column value peaked at 1.1 GB
    # on the product system.
    assert wide_region.dag.count == 3_796_228
    grid = breakpoint_grid(wide_region.analysis, 0.25)
    tracemalloc.start()
    try:
        report = grid_membership_check(wide_region, grid, cap=40, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 40
    assert peak < 10_000_000


def _edge_depths(dag):
    """The depth of each edge of the DAG, every edge once."""
    seen, stack, depths = set(), [(dag.root, 0)], []
    while stack:
        node, k = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            depths += [k] * len(node.edges)
            stack += [(child, k + 1) for _, _, child in node.edges]
    return depths


def test_union_test_searches_each_node_once(wide_region, monkeypatch):
    # A box corner with one coordinate outside its column bound, on a
    # column whose factor closes at the last row: the paths that hold the
    # corner all fail at the last row.  A node none of whose paths reach
    # the sink is not searched again, so the union test costs at most one
    # containment test per (edge, closing column), plus one per column no
    # row takes, not one per path.
    dag = wide_region.dag
    factors, node = list(dag.base), dag.root
    while node.edges:  # the box of rank 0
        j, factors[j], node = node.edges[0]
    corner = [f.pieces[0][0] for f in factors]
    j = max(j for j, k in enumerate(dag.last) if k == dag.depth - 1)
    corner[j] = -1.0  # below every factor of column j
    closing = Counter(dag.last)
    bound = sum(closing[k] for k in _edge_depths(dag)) + closing[-1]
    calls, at_last_row, witnessing = [0], [0], [False]
    contains, mask = IntervalUnion.contains, oracle.witness_mask

    def counted(self, v):
        if not witnessing[0]:
            calls[0] += 1
            at_last_row[0] += v == -1.0
            if calls[0] > bound:
                pytest.fail(f"more than {bound} containment tests")
        return contains(self, v)

    def uncounted(*args):
        witnessing[0] = True
        try:
            return mask(*args)
        finally:
            witnessing[0] = False

    monkeypatch.setattr(IntervalUnion, "contains", counted)
    monkeypatch.setattr(oracle, "witness_mask", uncounted)
    report = grid_membership_check(wide_region, [[v] for v in corner])
    assert report.ok and report.checked == 1
    assert at_last_row[0] > 1


def test_lazy_columns_get_no_table(example_region):
    # A table per index of a lazy column would hold up to cap entries; at
    # step 5.1e-7 each column has about two million values.
    analysis = example_region.analysis
    grid = breakpoint_grid(analysis, step=5.1e-7)
    assert all(oracle._table(col) is oracle._NO_TABLE for col in grid)
    assert oracle._table([0.0, 0.5, 1.0]) == [None] * 3
    tracemalloc.start()
    try:
        report = grid_membership_check(example_region, grid, cap=5_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.sampled and report.checked == 5_000 and report.ok
    # a dict per column keeping every drawn index would take about 4 MB
    assert peak < 100_000


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
            if not any(in_box(b, x) for b in others)
        ]
        if own:
            break
    assert own
    assert grid_membership_check(example_region, sub).ok
    assert grid_membership_check(region_of(analysis, boxes), sub).ok
    report = grid_membership_check(region_of(analysis, others), sub)
    expected = [(x, True, False) for x in own]
    assert (report.mismatch_count, report.mismatches) == (len(expected), expected[:50])

    full = FeasibleBox(
        tuple(IntervalUnion.interval(0.0, 1.0) for _ in range(analysis.n)), boxes[0].columns
    )
    report = grid_membership_check(
        region_of(analysis, boxes + (full,)), breakpoint_grid(analysis, step=0.25), cap=2000
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
    report = grid_membership_check(example_region, grid, cap=total, objective=obj)
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
        best, _ = global_optimum(res.analysis, res.reduction, obj)
        grid = breakpoint_grid(res.analysis, step=0.5)
        _, value = brute_force_min(res.analysis, obj, grid)
        assert value is not None
        assert abs(best.value - value) <= 1e-9, sys_
        hits += 1
    assert hits >= 20


def test_folded_minimum_on_sampled_example(example_region):
    analysis = example_region.analysis
    obj = objective_catalog("linear", 9, {"c": LINEAR_C})
    grid = breakpoint_grid(analysis, step=0.25)
    # seed 3 draws no feasible point, seed 0 draws one
    for seed, found in ((3, False), (0, True)):
        report = grid_membership_check(
            example_region, grid, cap=4000, seed=seed, objective=obj
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
                res, grid, cap=cap, seed=trial, objective=obj
            )
            expected = brute_force_min(res.analysis, obj, grid, cap=cap, seed=trial)
            assert (report.best_point, report.best_value) == expected, sys_
            found += report.best_value is not None
    assert found >= 40
