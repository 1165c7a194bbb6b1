"""Assignment enumeration and box assembly for the feasible region."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

import tables
from bfre import (
    BipolarSystem,
    CellAnalysis,
    IntervalUnion,
    TNormSpec,
    count_bound,
    enumerate_admissible,
    feasible_region,
    is_feasible_point,
)
from bfre.cli import problem_from_dict
from bfre.resolution import ResourceLimitError, root_factors, search_dag
from bfre.simplify import ReductionState, simplify_to_fixpoint
from bfre.system import FeasibilityVerdict, necessary_feasibility
from conftest import bench_workloads, in_box, make_example_system, random_system, reference_cases
from exact import RATIONAL_KINDS, exact_tnorm


def iu(pairs):
    return IntervalUnion.from_pairs(pairs)


# -- enumeration on the reference system ------------------------------------------


def test_enumeration_on_reduced_problem(example_analysis):
    state = simplify_to_fixpoint(example_analysis)
    es = [box.columns for box in enumerate_admissible(example_analysis, state)]
    assert es == [(7, 7), (7, 8), (8, 7), (8, 8)]
    assert state.active_rows == [2, 5]


def test_full_problem_rejects_conflicting_assignment(example_analysis):
    state = ReductionState.initial(example_analysis)
    es = enumerate_admissible(example_analysis, state)
    columns = {box.columns for box in es}
    # rows 1 and 3 cannot share column 1: {0.75} and {0.9} are disjoint
    assert (2, 1, 8, 1, 4, 8, 5) not in columns
    assert (2, 1, 8, 3, 4, 7, 1) in columns
    assert len(es) <= 192


def test_enumeration_lexicographic_and_unique(example_analysis):
    state = ReductionState.initial(example_analysis)
    es = [box.columns for box in enumerate_admissible(example_analysis, state)]
    assert es == sorted(es)
    assert len(es) == len(set(es))


def test_single_row_enumeration():
    sys_ = BipolarSystem([[1.0, 1.0, 0.2]], [[0.0, 0.0, 0.0]], [0.5], TNormSpec("minimum"))
    an = CellAnalysis(sys_)
    es = enumerate_admissible(an, ReductionState.initial(an))
    assert [box.columns for box in es] == [(0,), (1,)]


def test_enumeration_cap():
    sys_ = BipolarSystem(
        [[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5], TNormSpec("minimum")
    )
    an = CellAnalysis(sys_)
    # the message says how far the run got: any box proves feasibility
    with pytest.raises(ResourceLimitError, match="2 boxes found, so the system is feasible"):
        enumerate_admissible(an, ReductionState.initial(an), max_count=2)
    assert len(enumerate_admissible(an, ReductionState.initial(an), max_count=4)) == 4


def _reference_factor(an, state, rows_at, j):
    """A box factor derived independently of the DFS: the fixed singleton,
    the joint restricted set of the rows assigned to j, or the column bound."""
    if j in state.fixed:
        return IntervalUnion.interval(state.fixed[j], state.fixed[j])
    if rows_at:
        return functools.reduce(operator.and_, (an.restricted[i][j] for i in rows_at))
    return an.col_bounds[j]


def test_enumeration_completeness_vs_brute_force():
    # DFS output must equal the brute-force filter of all candidate vectors
    # by the joint-intersection condition, on the initial state and on the
    # reduced one (fixed columns occur only there), and every box factor must
    # equal its reference.
    rng = random.Random(31)
    for trial in range(80):
        sys_ = random_system(rng, max_m=3, max_n=3)
        an = CellAnalysis(sys_)
        if not necessary_feasibility(an).ok:
            continue
        for state in (ReductionState.initial(an), simplify_to_fixpoint(an)):
            boxes = enumerate_admissible(an, state)
            dfs = {box.columns for box in boxes}
            rows = sorted(state.active_rows)
            supports = [state.row_candidates(an, i) for i in rows]
            if any(not s for s in supports):
                assert dfs == set()
                continue
            brute = set()
            for combo in itertools.product(*supports):
                used: dict[int, list[int]] = {}
                for i, j in zip(rows, combo):
                    used.setdefault(j, []).append(i)
                if all(
                    not _reference_factor(an, state, rows_at, j).is_empty
                    for j, rows_at in used.items()
                ):
                    brute.add(tuple(combo))
            assert dfs == brute, sys_
            for box in boxes:
                assert len(box.columns) == len(rows)
                for j in range(an.n):
                    rows_at = [i for i, c in zip(rows, box.columns) if c == j]
                    expected = _reference_factor(an, state, rows_at, j)
                    assert box.factors[j].approx_equals(expected), (sys_, box.columns, j)


def _reference_boxes(analysis, state):
    """The admissible assignments and their boxes without the search DAG:
    the product of the active rows' candidates in lexicographic order, an
    assignment kept when every running intersection is non-empty.  An
    assignment's running intersections are those of its prefixes, so the
    product is cut at the first empty one; each intersection is computed
    afresh.  Each box is ``(columns, factor pieces)``."""
    rows = sorted(state.active_rows)
    candidates = [state.row_candidates(analysis, i) for i in rows]
    out = []

    def extend(columns, factors):
        k = len(columns)
        if k == len(rows):
            out.append((tuple(columns), tuple(f.pieces for f in factors)))
            return
        for j in candidates[k]:
            cell = analysis.restricted[rows[k]][j]
            running = factors[j] & cell if j in columns else cell
            if running.is_empty:
                continue
            extend(columns + [j], factors[:j] + [running] + factors[j + 1:])

    extend([], root_factors(analysis, state))
    return out


def test_dag_expansion_matches_the_reference_product():
    # The DAG expands to the reference's boxes, with the same columns,
    # factor pieces and order, and its root counts them exactly; with the
    # reduction rules and without them.
    cases = boxes = merged = 0
    for name, problem in reference_cases():
        analysis = CellAnalysis(problem_from_dict(problem)[0])
        if not necessary_feasibility(analysis).ok:
            continue
        for state in (simplify_to_fixpoint(analysis), ReductionState.initial(analysis)):
            dag = search_dag(analysis, state)
            expected = _reference_boxes(analysis, state)
            got = [
                (box.columns, tuple(f.pieces for f in box.factors))
                for box in enumerate_admissible(analysis, state, dag=dag)
            ]
            assert got == expected, name
            assert dag.count == len(expected), name
            cases += 1
            boxes += len(expected)
            merged += _nodes(dag) < len(expected)
    assert cases >= 2 * 170 and boxes > 10_000 and merged > 50, (cases, boxes, merged)


def _nodes(dag):
    """The number of nodes of a DAG, the sink included."""
    seen = {id(dag.root): dag.root}
    stack = [dag.root]
    while stack:
        for _, _, child in stack.pop().edges:
            if id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return len(seen)


def test_dag_counts_and_ranks_its_paths(example_analysis):
    # Every node's count is the number of its paths, and the walk lists
    # the boxes by rank: in lexicographic order of their columns.
    for state in (ReductionState.initial(example_analysis), simplify_to_fixpoint(example_analysis)):
        dag = search_dag(example_analysis, state)
        boxes = enumerate_admissible(example_analysis, state, dag=dag)
        assert dag.count == len(boxes) > 1
        assert [box.columns for box in boxes] == sorted(box.columns for box in boxes)
        stack = [dag.root]
        while stack:
            node = stack.pop()
            assert node.count == (sum(c.count for _, _, c in node.edges) if node.edges else 1)
            assert all(c.count for _, _, c in node.edges)
            stack.extend(c for _, _, c in node.edges)


def _cap_message(cap):
    return (
        f"more than {cap} admissible assignments; {cap} boxes found, "
        "so the system is feasible; raise the cap"
    )


def test_build_judges_the_cap_on_the_exact_count():
    # The cap is judged while the DAG is built, and it fires exactly when
    # the region has more boxes than the cap: on the benchmark's seed-1
    # files, a cap one below the count raises and a cap equal to it does not.
    capped = 0
    for workload in ("catalog-small", "dense-square", "tall-reduction"):
        for record in bench_workloads().build(workload, 1):
            analysis = CellAnalysis(problem_from_dict(record["problem"])[0])
            if not necessary_feasibility(analysis).ok:
                continue
            state = simplify_to_fixpoint(analysis)
            count = search_dag(analysis, state).count
            if not count:
                continue
            with pytest.raises(ResourceLimitError) as info:
                search_dag(analysis, state, count - 1)
            assert str(info.value) == _cap_message(count - 1), record["file"]
            assert search_dag(analysis, state, count).count == count, record["file"]
            capped += 1
    assert capped > 100


def test_capped_build_stops_early(monkeypatch):
    # A planted 50x50 product system with 10 core rows has 3,796,228 boxes.
    # Under the default cap the build stops part way: it makes fewer nodes
    # than the whole DAG has.
    import bfre.resolution as resolution

    workloads = bench_workloads()
    shape = workloads.Shape(50, 10, 20, 20, extra=0)
    problem, _ = workloads.planted_system(random.Random("p/product/50/10"), "product", shape)
    analysis = CellAnalysis(problem_from_dict(problem)[0])
    state = simplify_to_fixpoint(analysis)
    built = []
    new = resolution._new

    def counting(cls, fields):
        built.append(cls)
        return new(cls, fields)

    monkeypatch.setattr(resolution, "_new", counting)
    whole = search_dag(analysis, state)
    nodes = built.count(resolution.DagNode)
    assert whole.count == 3_796_228 and nodes == _nodes(whole) - 1  # the sink is not built
    built.clear()
    cap = resolution.DEFAULT_MAX_ASSIGNMENTS
    with pytest.raises(ResourceLimitError, match=_cap_message(cap)):
        search_dag(analysis, state, cap)
    assert built.count(resolution.DagNode) < nodes * 2 // 3


# -- count bound -------------------------------------------------------------------


def test_count_bound(example_analysis):
    assert count_bound(example_analysis, ReductionState.initial(example_analysis)) == 192
    state = simplify_to_fixpoint(example_analysis)
    assert count_bound(example_analysis, state) == 4


def test_count_bound_empty_product():
    state = ReductionState([], [0], {}, [])
    sys_ = BipolarSystem([[0.0]], [[0.0]], [0.0], TNormSpec("minimum"))
    assert count_bound(CellAnalysis(sys_), state) == 1


def test_count_bound_saturates(monkeypatch):
    import bfre.resolution as resolution

    monkeypatch.setattr(resolution, "COUNT_BOUND_CAP", 100)
    sys_ = BipolarSystem(
        [[1.0] * 4] * 4, [[0.0] * 4] * 4, [0.5] * 4, TNormSpec("minimum")
    )
    an = CellAnalysis(sys_)
    assert resolution.count_bound(an, ReductionState.initial(an)) == 100


# -- box assembly -------------------------------------------------------------------


def test_boxes_on_reference_system(example_analysis):
    state = simplify_to_fixpoint(example_analysis)
    boxes = enumerate_admissible(example_analysis, state)
    for box, expected in zip(boxes, tables.EXPECTED_BOX_FACTORS):
        for j, pairs in expected.items():
            assert box.factors[j].approx_equals(iu(pairs)), (box.columns, j)
        # fixed variables appear as singletons
        assert box.factors[4].approx_equals(iu([[0.75, 0.75]]))
        assert box.factors[6].approx_equals(iu([[0.1, 0.1]]))
        # unassigned columns carry the column bounds
        for j in (0, 1, 2, 3, 5):
            assert box.factors[j].approx_equals(iu(tables.EXPECTED_COL_BOUNDS[j])), j


def test_box_on_full_problem(example_analysis):
    state = ReductionState.initial(example_analysis)
    (box,) = [
        b
        for b in enumerate_admissible(example_analysis, state)
        if b.columns == (2, 1, 8, 3, 4, 7, 1)
    ]
    assert state.active_rows == [0, 1, 2, 3, 4, 5, 6]
    assert box.factors[0].approx_equals(iu([[0.0, 0.25]]))
    assert box.factors[1].approx_equals(iu([[0.75, 0.75]]))
    assert box.factors[2].approx_equals(iu([[0.1, 0.3], [0.7, 0.7]]))
    assert box.factors[3].approx_equals(iu([[0.0, 0.1], [0.9, 1.0]]))
    assert box.factors[7].approx_equals(iu([[0.5, 1.0]]))
    assert box.factors[8].approx_equals(iu([[0.2, 0.2]]))


@pytest.mark.parametrize(
    "make_system,reduce",
    [
        (make_example_system, ReductionState.initial),
        (make_example_system, simplify_to_fixpoint),
        (lambda: random_system(random.Random(68), 5, 6, "product", True), ReductionState.initial),
    ],
    ids=["reference", "reference-reduced", "random"],
)
def test_boxes_share_factor_objects(make_system, reduce, monkeypatch):
    # The CLI report writes the root's factor texts once and patches only a
    # box's witness columns, and it encodes each distinct factor object once.
    # So a column no row is assigned holds the root factor, one object in
    # every box; a column one row i is assigned holds the cell's own
    # restricted set; and a column rows i1 < ... < ik share holds one object
    # per chain of cells, because each intersection with an earlier factor is
    # computed once per (earlier factor, cell) pair.
    analysis = CellAnalysis(make_system())
    state = reduce(analysis)
    calls = []
    and_ = IntervalUnion.__and__

    def counting_and(self, other):
        calls.append((self, other))  # the references keep both ids unique
        return and_(self, other)

    monkeypatch.setattr(IntervalUnion, "__and__", counting_and)
    boxes = enumerate_admissible(analysis, state)
    monkeypatch.undo()
    assert len(boxes) > 1
    # at most one intersection per (earlier factor, cell) pair in one walk
    pairs = [(id(before), id(cell)) for before, cell in calls]
    assert len(pairs) == len(set(pairs))
    root = root_factors(analysis, state)
    unassigned: dict[int, IntervalUnion] = {}
    joint: dict[tuple[int, ...], IntervalUnion] = {}
    single = shared = 0
    for box in boxes:
        for j, factor in enumerate(box.factors):
            rows = [i for i, c in zip(state.active_rows, box.columns) if c == j]
            if not rows:
                assert factor.pieces == root[j].pieces, (box.columns, j)
                assert unassigned.setdefault(j, factor) is factor, (box.columns, j)
            elif len(rows) == 1:
                single += 1
                assert factor is analysis.restricted[rows[0]][j], (box.columns, j)
            else:
                shared += 1
                chain = tuple(id(analysis.restricted[i][j]) for i in rows)
                assert joint.setdefault(chain, factor) is factor, (box.columns, j)
    assert unassigned and single and shared


# -- end-to-end region ---------------------------------------------------------------


def test_feasible_region_reference(example_system):
    res = feasible_region(example_system)
    assert res.is_feasible
    assert len(res.boxes) == 4
    # one box per admissible function, no deduplication
    assert res.boxes == tuple(enumerate_admissible(res.analysis, res.reduction))


def test_feasible_region_infeasible_row():
    sys_ = BipolarSystem([[0.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    res = feasible_region(sys_)
    assert not res.is_feasible
    assert (res.verdict.status, res.verdict.index) == ("empty_row", 0)
    assert res.boxes == ()


def test_feasible_region_infeasible_by_enumeration():
    # A conflict chain: the outer equations pin x0 = 0.3 and x1 = 0.3, and
    # the middle one needs 0.5 somewhere.  Both necessary checks pass (every
    # column bound is [0.3, 0.5], every row has a witness), yet no
    # assignment survives the joint-intersection condition.
    sys_ = BipolarSystem(
        [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        [0.7, 0.5, 0.7],
        TNormSpec("minimum"),
    )
    for simplify in (True, False):
        res = feasible_region(sys_, simplify=simplify)
        assert necessary_feasibility(res.analysis).ok
        assert res.verdict == FeasibilityVerdict("no_admissible_assignment")
        assert res.boxes == ()
        assert not res.is_feasible


def test_fre_embedding_region():
    res = feasible_region(
        BipolarSystem.from_fre([[1.0]], [0.5], TNormSpec("product"))
    )
    assert res.is_feasible
    assert len(res.boxes) == 1
    assert res.boxes[0].factors[0].approx_equals(iu([[0.5, 0.5]]))


# -- region correctness properties -----------------------------------------------------


def _grid_points(analysis, rng, per_instance):
    from bfre.oracle import breakpoint_grid

    grid = breakpoint_grid(analysis, step=0.34)
    total = 1
    for col in grid:
        total *= len(col)
    if total <= per_instance:
        return list(itertools.product(*grid))
    return [tuple(rng.choice(col) for col in grid) for _ in range(per_instance)]


def test_region_membership_equivalence():
    rng = random.Random(32)
    for trial in range(60):
        sys_ = random_system(rng, max_m=3, max_n=3)
        res = feasible_region(sys_)
        boxes = res.boxes
        for x in _grid_points(res.analysis, rng, 400):
            direct = is_feasible_point(res.analysis, x)
            in_union = any(in_box(box, x) for box in boxes)
            assert direct == in_union, (sys_, x)


def test_simplified_and_unsimplified_regions_agree():
    rng = random.Random(33)
    for trial in range(40):
        sys_ = random_system(rng, max_m=3, max_n=3)
        fast = feasible_region(sys_, simplify=True)
        slow = feasible_region(sys_, simplify=False)
        fast_boxes, slow_boxes = fast.boxes, slow.boxes
        for x in _grid_points(fast.analysis, rng, 250):
            assert any(in_box(b, x) for b in fast_boxes) == any(
                in_box(b, x) for b in slow_boxes
            ), (sys_, x)


def test_box_vertices_are_feasible():
    rng = random.Random(34)
    for trial in range(40):
        sys_ = random_system(rng, max_m=3, max_n=3, force_feasible=True)
        res = feasible_region(sys_)
        for box in res.boxes:
            axes = [f.endpoints() for f in box.factors]
            for vertex in itertools.islice(itertools.product(*axes), 1024):
                assert is_feasible_point(res.analysis, vertex), (sys_, vertex)


@pytest.mark.parametrize("workload", ["catalog-small", "dense-square", "tall-reduction"])
def test_swapping_the_matrices_mirrors_the_region(workload):
    # phi(a+, x) and phi(a-, 1 - x) trade places under x -> 1 - x, so
    # swapping A+ and A- maps the region through it: the same verdict and
    # the same boxes with the same witness columns, in the same order, each
    # factor mirrored.  On the benchmark's seed-1 files.
    for record in bench_workloads().build(workload, 1):
        system, _ = problem_from_dict(record["problem"])
        swapped = BipolarSystem(system.a_minus, system.a_plus, system.b, system.tnorm)
        region, mirror = feasible_region(system), feasible_region(swapped)
        name = record["file"]
        assert mirror.verdict == region.verdict, name
        assert [b.columns for b in mirror.boxes] == [b.columns for b in region.boxes], name
        for box, mirrored in zip(region.boxes, mirror.boxes):
            for f, g in zip(box.factors, mirrored.factors):
                flipped = [(1.0 - hi, 1.0 - lo) for lo, hi in reversed(f.pieces)]
                assert len(g.pieces) == len(flipped), (name, f, g)
                for (lo, hi), (want_lo, want_hi) in zip(g.pieces, flipped):
                    assert abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12, (name, f, g)


def test_box_points_solve_every_equation_exactly():
    # Every box point must satisfy the equations.  On the benchmark's seed-1
    # files of the families with an exact reference, known faults included:
    # up to 4 seeded boxes of each region, and in each box the low corner,
    # the high corner and a seeded point of each factor.  Every row's
    # left-hand side, taken exactly in fractions, lies within 2^-50 of b_i.
    points = 0
    for workload in ("catalog-small", "dense-square", "tall-reduction"):
        for record in bench_workloads().build(workload, 1, False):
            problem = record["problem"]
            kind, param = problem["tnorm"]["name"], problem["tnorm"].get("param")
            if kind not in RATIONAL_KINDS:
                continue
            system, _ = problem_from_dict(problem)
            boxes = feasible_region(system).boxes
            rng = random.Random(f"{workload}/{record['file']}")
            for box in rng.sample(boxes, min(4, len(boxes))):
                inner = [rng.uniform(*rng.choice(f.pieces)) for f in box.factors]
                low = [f.pieces[0][0] for f in box.factors]
                high = [f.pieces[-1][1] for f in box.factors]
                for x in (low, high, inner):
                    points += 1
                    x = [Fraction(v) for v in x]
                    for i, b in enumerate(system.b):
                        lhs = max(
                            max(exact_tnorm(kind, param, ap, xj), exact_tnorm(kind, param, am, 1 - xj))
                            for ap, am, xj in zip(system.a_plus[i], system.a_minus[i], x)
                        )
                        assert abs(lhs - Fraction(b)) <= Fraction(2) ** -50, (
                            workload, record["file"], i, float(lhs - Fraction(b))
                        )
    assert points
