"""Reduction rules: unit behaviour, fixpoint, soundness, determinism."""

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
)
from bfre.oracle import breakpoint_grid
from bfre.simplify import (
    ReductionState,
    RuleEvent,
    apply_rule1,
    apply_rule2,
    apply_rule3,
    apply_rule4,
    apply_rule5,
    simplify_to_fixpoint,
)
from bfre.system import necessary_feasibility
from conftest import in_box, random_system


def analysis_of(a_plus, a_minus, b, tnorm=None):
    return CellAnalysis(BipolarSystem(a_plus, a_minus, b, tnorm or TNormSpec("minimum")))


def fires(rule, state, an):
    """Apply one rule; report whether it appended to the audit log."""
    logged = len(state.log)
    rule(state, an)
    return len(state.log) > logged


# -- rule 1 ---------------------------------------------------------------------


def test_rule1_deletes_zero_rows():
    an = analysis_of([[0.5], [0.9]], [[0.0], [0.0]], [0.0, 0.5])
    state = ReductionState.initial(an)
    assert fires(apply_rule1, state, an)
    assert state.active_rows == [1]
    assert not fires(apply_rule1, state, an)


def test_rule1_example_has_no_zero_rows(example_analysis):
    state = ReductionState.initial(example_analysis)
    assert not fires(apply_rule1, state, example_analysis)


def test_all_zero_rhs_leaves_product_of_column_bounds():
    from bfre import feasible_region

    sys_ = BipolarSystem([[0.0, 0.0]], [[0.0, 0.0]], [0.0], TNormSpec("product"))
    res = feasible_region(sys_)
    assert res.reduction.active_rows == []
    assert len(res.boxes) == 1
    for j in range(2):
        assert res.boxes[0].factors[j] == res.analysis.col_bounds[j]
        assert res.boxes[0].factors[j] == IntervalUnion.interval(0.0, 1.0)


# -- rule 2 ---------------------------------------------------------------------


def test_rule2_on_example(example_analysis):
    state = ReductionState.initial(example_analysis)
    assert fires(apply_rule2, state, example_analysis)
    assert state.fixed.keys() == {6}
    assert state.fixed[6] == pytest.approx(0.1)
    assert state.active_cols == [0, 1, 2, 3, 4, 5, 7, 8]
    assert state.active_rows == [0, 2, 4, 5, 6]  # rows 1 and 3 witnessed by 0.1


def test_rule2_keeps_rows_not_witnessed():
    # Column 0 bound collapses to {0.5}; the third equation is not witnessed
    # there, so only the first two rows go.
    an = analysis_of(
        [[1.0, 0.0], [0.0, 0.0], [0.4, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        [0.5, 0.5, 0.6],
    )
    assert an.col_bounds[0].singleton() is not None
    state = ReductionState.initial(an)
    assert fires(apply_rule2, state, an)
    assert state.fixed.keys() == {0}
    assert state.active_rows == [2]
    assert state.active_cols == [1]


# -- rule 3 ---------------------------------------------------------------------


def test_rule3_deletes_dominated_row(example_analysis):
    state = ReductionState.initial(example_analysis)
    apply_rule2(state, example_analysis)
    assert fires(apply_rule3, state, example_analysis)
    assert 0 not in state.active_rows  # row 4's sets sit inside row 0's
    assert 4 in state.active_rows


def test_rule3_identical_rows_keep_smaller_index():
    an = analysis_of([[1.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
    state = ReductionState.initial(an)
    assert fires(apply_rule3, state, an)
    assert state.active_rows == [0]


def test_rule3_no_containment_no_change():
    an = analysis_of([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])
    state = ReductionState.initial(an)
    assert not fires(apply_rule3, state, an)


# -- rule 4 ---------------------------------------------------------------------


def test_rule4_single_witness_singleton():
    an = analysis_of([[1.0]], [[0.0]], [0.3])
    state = ReductionState.initial(an)
    assert fires(apply_rule4, state, an)
    assert state.fixed[0] == pytest.approx(0.3)
    assert state.active_rows == []
    assert state.active_cols == []


def test_rule4_requires_singleton_set():
    an = analysis_of([[0.5]], [[0.0]], [0.5])  # restricted set [0.5, 1]
    state = ReductionState.initial(an)
    assert not fires(apply_rule4, state, an)


def test_rule4_on_example_after_earlier_rules(example_analysis):
    state = ReductionState.initial(example_analysis)
    apply_rule2(state, example_analysis)
    apply_rule3(state, example_analysis)
    assert fires(apply_rule4, state, example_analysis)
    assert state.fixed[4] == pytest.approx(0.75)
    assert 4 not in state.active_rows


# -- rule 5 ---------------------------------------------------------------------


def test_rule5_on_example(example_analysis):
    state = ReductionState.initial(example_analysis)
    assert fires(apply_rule5, state, example_analysis)
    # two rows have a restricted set equal to a full column bound
    assert 0 not in state.active_rows  # equals bound of column 4
    assert 6 not in state.active_rows  # equals bound of column 1


def test_rule5_no_pair_no_change():
    # restricted set {0.5} sits strictly inside the column bound [0, 0.5]
    an = analysis_of([[1.0]], [[0.0]], [0.5])
    assert an.col_bounds[0].approx_equals(IntervalUnion.interval(0.0, 0.5))
    assert an.restricted[0][0].approx_equals(IntervalUnion.interval(0.5, 0.5))
    state = ReductionState.initial(an)
    assert not fires(apply_rule5, state, an)


# -- fixpoint ---------------------------------------------------------------------


def test_fixpoint_on_example(example_analysis):
    state = simplify_to_fixpoint(example_analysis)
    assert sorted(state.fixed) == [4, 6]
    assert state.fixed[4] == pytest.approx(0.75)
    assert state.fixed[6] == pytest.approx(0.1)
    assert state.active_rows == [2, 5]
    assert state.active_cols == [0, 1, 2, 3, 5, 7, 8]


def test_fixpoint_matches_reduced_reference_grid(example_analysis):
    state = simplify_to_fixpoint(example_analysis)
    for r, i in enumerate(state.active_rows):
        for c, j in enumerate(state.active_cols):
            expected = IntervalUnion.from_pairs(tables.EXPECTED_REDUCED_RESTRICTED[r][c])
            assert example_analysis.restricted[i][j].approx_equals(expected), (i, j)


def test_fixpoint_already_minimal():
    # The reduced two-equation system is its own fixpoint.
    a_plus = [
        [0.72, 0.23, 0.75, 0.44, 0.61, 0.80, 0.67],
        [0.28, 0.43, 0.35, 0.28, 0.22, 0.50, 0.00],
    ]
    a_minus = [
        [0.13, 0.63, 0.74, 0.25, 0.73, 0.80, 0.90],
        [0.00, 0.29, 0.33, 0.47, 0.34, 0.04, 0.50],
    ]
    an = analysis_of(a_plus, a_minus, [0.8, 0.5], TNormSpec("dubois_prade", 0.5))
    state = simplify_to_fixpoint(an)
    assert state.active_rows == [0, 1]
    assert state.active_cols == list(range(7))
    assert state.fixed == {}
    assert state.log == []


def test_termination_budget():
    rng = random.Random(11)
    for _ in range(50):
        sys_ = random_system(rng, max_m=4, max_n=4)
        an = CellAnalysis(sys_)
        if not necessary_feasibility(an).ok:
            continue
        state = simplify_to_fixpoint(an)
        deletions = [e for e in state.log if e.action in ("drop_row", "fix")]
        assert len(deletions) <= sys_.m + sys_.n


def test_log_replay_determinism(example_analysis):
    first = simplify_to_fixpoint(example_analysis)
    second = simplify_to_fixpoint(example_analysis)
    assert first.log == second.log
    assert first.fixed == second.fixed
    assert first.active_rows == second.active_rows


def test_event_dict_drops_only_unset_fields():
    # zero is a set value: column 0, row 0 and x = 0.0 all appear in a report
    fix = RuleEvent(4, "fix", col=0, value=0.0, why="equation 0 forces x[0] = 0")
    assert list(fix.to_dict().items()) == [
        ("rule", 4),
        ("action", "fix"),
        ("col", 0),
        ("value", 0.0),
        ("why", "equation 0 forces x[0] = 0"),
    ]
    assert RuleEvent(1, "drop_row", row=0).to_dict() == {"rule": 1, "action": "drop_row", "row": 0}


def test_soundness_on_random_instances():
    # The one membership test must agree with the boxes of the reduced run
    # and with those of the unreduced run on a dense sample of points.
    rng = random.Random(12)
    checked = 0
    for trial in range(60):
        sys_ = random_system(rng, max_m=4, max_n=4)
        an = CellAnalysis(sys_)
        if not necessary_feasibility(an).ok:
            continue
        reduced = feasible_region(sys_).boxes
        unreduced = feasible_region(sys_, simplify=False).boxes
        grid = breakpoint_grid(an, step=0.34)
        points = [[rng.choice(col) for col in grid] for _ in range(120)]
        for x in points:
            direct = is_feasible_point(an, x)
            assert direct == any(in_box(box, x) for box in reduced), (sys_, x)
            assert direct == any(in_box(box, x) for box in unreduced), (sys_, x)
            checked += 1
    assert checked > 3000


# -- rules 3 and 5 against a brute-force reference ----------------------------------


def reference_rule3(state, analysis):
    """Rule 3 testing domination and identity over every active column."""
    restricted = analysis.restricted
    for i0 in list(state.active_rows):
        for i in state.active_rows:
            if i == i0:
                continue
            cols = state.active_cols
            if not all(restricted[i][j].issubset(restricted[i0][j]) for j in cols):
                continue
            if i > i0 and all(restricted[i][j].approx_equals(restricted[i0][j]) for j in cols):
                continue
            state.drop_row(i0, 3, f"restricted sets of row {i} contained in row {i0}'s")
            break


def reference_rule5(state, analysis):
    """Rule 5 comparing every active column's restricted set with its bound."""
    for i0 in list(state.active_rows):
        for j0 in state.active_cols:
            col = analysis.col_bounds[j0]
            if not col.is_empty and analysis.restricted[i0][j0].approx_equals(col):
                state.drop_row(
                    i0, 5, f"restricted set at ({i0}, {j0}) equals column bound {j0}"
                )
                break


def planted_tall_system(rng):
    """A tall system built around a witness, with planted duplicate rows,
    rows whose support is a strict part of another row's with equal sets
    on it, and rows of perturbed coefficients."""
    t = TNormSpec(rng.choice(["minimum", "product"]))
    base = random_system(rng, max_m=8, max_n=6, kind=t.kind, force_feasible=True)
    a_plus, a_minus = [list(r) for r in base.a_plus], [list(r) for r in base.a_minus]
    b = list(base.b)
    for _ in range(rng.randint(4, 12)):
        i = rng.randrange(len(b))
        plus, minus = list(a_plus[i]), list(a_minus[i])
        pick = rng.random()
        if pick < 0.4:  # a row no literal reaches on some columns
            for j in rng.sample(range(base.n), rng.randint(1, max(1, base.n - 1))):
                plus[j] = minus[j] = 0.0
        elif pick < 0.6:  # a perturbed copy
            j = rng.randrange(base.n)
            plus[j] = min(1.0, max(0.0, plus[j] + rng.choice([-0.2, 0.2])))
        at = rng.randint(0, len(b))
        a_plus.insert(at, plus)
        a_minus.insert(at, minus)
        b.insert(at, b[i])
    return BipolarSystem(a_plus, a_minus, b, t)


def reference_fixpoint(analysis):
    rules = (apply_rule1, apply_rule2, reference_rule3, apply_rule4, reference_rule5)
    state = ReductionState.initial(analysis)
    while True:
        logged = len(state.log)
        for rule in rules:
            rule(state, analysis)
        if len(state.log) == logged:
            return state


def outcome(state):
    return state.log, state.active_rows, state.active_cols, state.fixed


def copy_state(state):
    return ReductionState(
        list(state.active_rows), list(state.active_cols), dict(state.fixed), list(state.log)
    )


def test_support_filtered_rules_match_reference():
    rng = random.Random(131)
    fired = {3: 0, 5: 0, "unequal_supports": 0}
    for _ in range(150):
        an = CellAnalysis(planted_tall_system(rng))
        assert outcome(simplify_to_fixpoint(an)) == outcome(reference_fixpoint(an))
        # each rule alone, from the states a cycle of the rules passes through
        state = ReductionState.initial(an)
        for rule, reference in [
            (apply_rule1, None),
            (apply_rule5, reference_rule5),
            (apply_rule3, reference_rule3),
            (apply_rule2, None),
            (apply_rule4, None),
            (apply_rule3, reference_rule3),
            (apply_rule5, reference_rule5),
        ]:
            if reference is None:
                rule(state, an)
                continue
            got, want = copy_state(state), copy_state(state)
            rule(got, an)
            reference(want, an)
            assert outcome(got) == outcome(want)
            events = got.log[len(state.log) :]
            fired[3 if rule is apply_rule3 else 5] += bool(events)
            for event in events if rule is apply_rule3 else []:
                witness = int(event.why.split()[4])
                fired["unequal_supports"] += state.row_candidates(
                    an, witness
                ) != state.row_candidates(an, event.row)
            state = want
    assert min(fired.values()) > 20, fired
