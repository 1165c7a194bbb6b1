"""T-norm catalog: axioms, closed-form scalar solves, bisection and reference agreement."""

import importlib.util
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from bfre import tnorms
from bfre.tnorms import (
    TNORM_KINDS,
    TNormSpec,
    solve_scalar_eq,
    solve_scalar_eq_numeric,
    tnorm_eval,
)

from conftest import AXIOM_SPECS, check_tnorm_axioms, random_tnorm
from exact import RATIONAL_KINDS, exact_tnorm


# -- construction --------------------------------------------------------------


def test_all_catalog_kinds_constructible():
    assert len(TNORM_KINDS) == 13
    for spec in AXIOM_SPECS:
        assert spec.kind in TNORM_KINDS


@pytest.mark.parametrize(
    "kind,param",
    [
        ("frank", 1.0),
        ("frank", 0.0),
        ("yager", 0.0),
        ("hamacher", -0.1),
        ("dombi", 0.0),
        ("schweizer_sklar", 0.0),
        ("sugeno_weber", -1.0),
        ("aczel_alsina", 0.0),
        ("dubois_prade", 1.1),
        ("mayor_torrence", -0.2),
        # every rule is one-sided, so infinities and NaN need their own check
        ("frank", math.inf),
        ("hamacher", math.inf),
        ("schweizer_sklar", math.inf),
        ("schweizer_sklar", math.nan),
        ("aczel_alsina", math.inf),
        # at s <= 2**-54, s - 1 rounds to -1, so f vanishes short of x = 1
        ("frank", 2.0**-54),
        ("frank", 1e-17),
        ("frank", 1e-20),
        ("frank", 5e-324),
        # f(1e-12) overflows, so f(x) + f(y) would read as f(0) and phi as 0
        ("dombi", 2000.0),
        ("aczel_alsina", 2000.0),
        ("schweizer_sklar", -800.0),
        ("dombi", 25.7),
        ("aczel_alsina", 213.7),
        ("schweizer_sklar", -25.7),
        ("hamacher", 1e297),
        # f(1 - 1e-12) underflows to f(1) = 0, so phi would read 1 near x = 1
        ("yager", 1000.0),
        ("yager", 30.0),
        ("aczel_alsina", 200.0),
        # a subnormal parameter loses its digits in the generator
        ("hamacher", 5e-324),
        ("hamacher", 1e-320),
        ("sugeno_weber", 5e-324),
        ("sugeno_weber", -5e-324),
        ("sugeno_weber", 1e-315),
        ("schweizer_sklar", 5e-324),
    ],
)
def test_out_of_range_parameters_rejected(kind, param):
    with pytest.raises(ValueError, match="out of range"):
        TNormSpec(kind, param)


@pytest.mark.parametrize(
    "kind,param",
    [
        ("hamacher", sys.float_info.min),
        ("sugeno_weber", sys.float_info.min),
        ("sugeno_weber", -sys.float_info.min),
    ],
)
def test_smallest_normal_parameters_evaluate(kind, param):
    # the rational formula, evaluated exactly from the float inputs
    t = TNormSpec(kind, param)
    rng = random.Random(13)
    for _ in range(2000):
        x, y = rng.random(), rng.random()
        want = exact_tnorm(kind, param, x, y)
        assert abs(Fraction(tnorm_eval(t, x, y)) - want) <= 1e-15, (x, y)


@pytest.mark.parametrize(
    "kind,param", [("dombi", 25.0), ("aczel_alsina", 26.9), ("schweizer_sklar", -25.0)]
)
def test_largest_parameters_evaluate_near_zero(kind, param):
    # phi(x, 0.9) is about x; a generator sum that overflowed would give 0
    t = TNormSpec(kind, param)
    for k in range(1, 13):
        x = 10.0**-k
        assert tnorm_eval(t, x, 0.9) == pytest.approx(x, rel=1e-6)


@pytest.mark.parametrize("kind", ["yager", "aczel_alsina"])
def test_largest_parameters_evaluate_near_one(kind):
    # the cutoff is about 26.97: below it phi stays below 1 near x = 1; above
    # it f(1 - 1e-12) underflows to f(1) = 0, which would make phi 1 and l 1
    t = TNormSpec(kind, 26.9)
    x = 1.0 - 1e-11
    assert tnorm_eval(t, x, x) < 1.0
    assert solve_scalar_eq(t, 0.99, 0.985).l == pytest.approx(0.985, abs=1e-6)
    with pytest.raises(ValueError, match="underflows"):
        TNormSpec(kind, 27.0)


def test_frank_smallest_parameter_evaluates():
    t = TNormSpec("frank", math.nextafter(2.0**-54, 1.0))
    assert 0.0 < tnorm_eval(t, 0.85, 0.9) <= 0.85
    assert solve_scalar_eq(t, 0.85, 0.85).u == 1.0


@pytest.mark.parametrize("s,x,y", [(1e8, 5e-324, 5e-324), (1.0 + 2.0**-52, 5e-324, 0.8)])
def test_frank_generator_near_zero(s, x, y):
    # (s^x - 1) / (s - 1) underflows to 0 here; f must not take log(0)
    t = TNormSpec("frank", s)
    assert 0.0 <= tnorm_eval(t, x, y) <= 5e-324
    assert solve_scalar_eq(t, x, 0.0).u == 0.0
    assert solve_scalar_eq(t, 0.5, x).u < 1e-300
    # near 0, f(x) = -log(x) + const, so f keeps its slope across the underflow
    f = t._summand[1]
    assert f(x) - f(1e-200) == pytest.approx(math.log(1e-200 / x), rel=1e-12)


def test_parameter_presence_enforced():
    with pytest.raises(ValueError):
        TNormSpec("product", 0.5)
    with pytest.raises(ValueError):
        TNormSpec("frank")
    with pytest.raises(ValueError):
        TNormSpec("banana")


# -- evaluation ----------------------------------------------------------------


def test_eval_examples():
    dp = TNormSpec("dubois_prade", 0.5)
    assert tnorm_eval(dp, 0.8, 0.7) == pytest.approx(0.7, abs=1e-12)
    assert tnorm_eval(TNormSpec("lukasiewicz"), 0.6, 0.3) == 0.0
    for spec in AXIOM_SPECS:
        for x in (0.0, 0.31, 0.5, 0.88, 1.0):
            assert tnorm_eval(spec, x, 1.0) == pytest.approx(x, abs=1e-12)


def test_eval_signed_zero_gives_zero():
    # -0.0 passes the range check; min(-0.0, y) would hand it back
    specs = [*AXIOM_SPECS, TNormSpec("dubois_prade", 0.0), TNormSpec("mayor_torrence", 0.0)]
    for spec in specs:
        for y in (-0.0, 0.0, 0.5, 1.0):
            for args in ((-0.0, y), (y, -0.0)):
                assert math.copysign(1.0, tnorm_eval(spec, *args)) == 1.0, (spec, args)


def test_eval_domain_errors():
    with pytest.raises(ValueError):
        tnorm_eval(TNormSpec("product"), 1.2, 0.5)
    with pytest.raises(ValueError):
        tnorm_eval(TNormSpec("product"), 0.5, -0.1)


def test_axioms_sampled():
    for k, spec in enumerate(AXIOM_SPECS):
        check_tnorm_axioms(spec, samples=150, seed=100 + k)


def test_mayor_torrence_blocks():
    mt = TNormSpec("mayor_torrence", 0.4)
    assert tnorm_eval(mt, 0.3, 0.4) == pytest.approx(0.3)  # nilpotent block
    assert tnorm_eval(mt, 0.1, 0.2) == 0.0
    assert tnorm_eval(mt, 0.7, 0.5) == 0.5  # outside the block: minimum
    assert tnorm_eval(TNormSpec("mayor_torrence", 0.0), 0.3, 0.8) == 0.3


def test_dubois_prade_reduces_to_minimum_and_product():
    rng = random.Random(5)
    for _ in range(50):
        x, y = rng.random(), rng.random()
        assert tnorm_eval(TNormSpec("dubois_prade", 0.0), x, y) == pytest.approx(
            min(x, y), abs=1e-12
        )
        assert tnorm_eval(TNormSpec("dubois_prade", 1.0), x, y) == pytest.approx(
            x * y, abs=1e-12
        )


def test_minimum_is_dubois_prade_at_gamma_zero():
    # the minimum is the product summand on the empty square [0, 0]^2, so
    # it evaluates and solves as dubois_prade at gamma 0, to the last bit
    minimum, dp0 = TNormSpec("minimum"), TNormSpec("dubois_prade", 0.0)
    values = [0.0, -0.0, 1e-300, 0.25, 0.5, 1.0 - 2.0**-53, 1.0]
    for x in values:
        for y in values:
            assert repr(tnorm_eval(minimum, x, y)) == repr(tnorm_eval(dp0, x, y)), (x, y)
            assert repr(solve_scalar_eq(minimum, x, y)) == repr(solve_scalar_eq(dp0, x, y)), (x, y)


# -- closed-form scalar solves ---------------------------------------------------


def test_solve_reference_values():
    dp = TNormSpec("dubois_prade", 0.5)
    s = solve_scalar_eq(dp, 0.8, 0.7)
    assert (s.l, s.u) == (pytest.approx(0.7), pytest.approx(0.7))
    s = solve_scalar_eq(dp, 0.7, 0.7)  # a = b: plateau up to 1
    assert (s.l, s.u) == (pytest.approx(0.7), 1.0)
    s = solve_scalar_eq(TNormSpec("product"), 0.8, 0.4)
    assert (s.l, s.u) == (pytest.approx(0.5), pytest.approx(0.5))


def test_solve_infeasible_and_caption_rules():
    for spec in AXIOM_SPECS:
        s = solve_scalar_eq(spec, 0.3, 0.9)
        assert s.solution_set.is_empty
        assert s.relaxed_set.pieces == ((0.0, 1.0),)
        assert solve_scalar_eq(spec, 0.5, 0.0).l == 0.0  # b = 0
        assert solve_scalar_eq(spec, 0.6, 0.6).u == 1.0  # a = b
        assert solve_scalar_eq(spec, 1.0, 1.0).u == 1.0


def test_solve_tolerates_ulp_drift_above_a():
    # Right-hand sides computed as phi(a, x) can round one ulp above a; the
    # solver must not flip such cells into the no-solution branch.
    a = 0.8667187438396733
    b = a + 2e-16
    assert b > a
    s = solve_scalar_eq(TNormSpec("dombi", 1.0), a, b)
    assert not s.solution_set.is_empty
    assert s.u == 1.0
    # a genuine gap still reports no solution
    assert solve_scalar_eq(TNormSpec("dombi", 1.0), a, a + 1e-6).solution_set.is_empty


def test_solve_relaxed_set_shape():
    s = solve_scalar_eq(TNormSpec("minimum"), 0.8, 0.3)
    assert s.solution_set.pieces == ((0.3, 0.3),)
    assert s.relaxed_set.pieces == ((0.0, 0.3),)


def test_mayor_torrence_rows():
    mt = TNormSpec("mayor_torrence", 0.4)
    s = solve_scalar_eq(mt, 0.3, 0.3)  # a = b inside the block: [lam, 1]
    assert (s.l, s.u) == (pytest.approx(0.4), 1.0)
    s = solve_scalar_eq(mt, 0.3, 0.1)  # in-block shift
    assert (s.l, s.u) == (pytest.approx(0.2), pytest.approx(0.2))
    s = solve_scalar_eq(mt, 0.6, 0.3)  # outside the block: minimum behaviour
    assert (s.l, s.u) == (pytest.approx(0.3), pytest.approx(0.3))
    s = solve_scalar_eq(mt, 0.3, 0.0)  # b = 0: [0, lam - a]
    assert (s.l, s.u) == (0.0, pytest.approx(0.1))


def test_dubois_prade_rows():
    dp = TNormSpec("dubois_prade", 0.5)
    s = solve_scalar_eq(dp, 0.4, 0.2)  # b < a < gamma
    assert (s.l, s.u) == (pytest.approx(0.25), pytest.approx(0.25))
    s = solve_scalar_eq(dp, 0.4, 0.4)  # a = b below gamma
    assert (s.l, s.u) == (pytest.approx(0.5), 1.0)


def _sample_ab(rng, allow_equal=True):
    b = rng.random()
    a = b + rng.random() * (1.0 - b)
    if allow_equal and rng.random() < 0.15:
        a = b
    if rng.random() < 0.1:
        b = 0.0
    return a, b


def test_solver_endpoints_solve_the_equation():
    rng = random.Random(42)
    for spec in AXIOM_SPECS:
        for _ in range(60):
            a, b = _sample_ab(rng)
            s = solve_scalar_eq(spec, a, b)
            assert abs(tnorm_eval(spec, a, s.l) - b) <= 1e-9, (spec, a, b, s.l)
            assert abs(tnorm_eval(spec, a, s.u) - b) <= 1e-9, (spec, a, b, s.u)


def test_no_solutions_outside_plateau():
    rng = random.Random(43)
    for spec in AXIOM_SPECS:
        for _ in range(40):
            a, b = _sample_ab(rng)
            s = solve_scalar_eq(spec, a, b)
            if s.l > 1e-6:
                x = rng.uniform(0.0, s.l - 1e-6)
                assert abs(tnorm_eval(spec, a, x) - b) > 1e-9, (spec, a, b, x)
            if s.u < 1.0 - 1e-6:
                x = rng.uniform(s.u + 1e-6, 1.0)
                assert abs(tnorm_eval(spec, a, x) - b) > 1e-9, (spec, a, b, x)


#: Parameter range per parametric family for the round trip.
_ROUND_TRIP_PARAMS = {
    "frank": (0.05, 20.0),
    "yager": (0.3, 6.0),
    "hamacher": (0.0, 5.0),
    "dombi": (0.3, 6.0),
    "schweizer_sklar": (-4.0, 4.0),
    "sugeno_weber": (-0.9, 5.0),
    "aczel_alsina": (0.3, 6.0),
    "dubois_prade": (0.0, 1.0),
    "mayor_torrence": (0.0, 1.0),
}

#: Families whose float round trip still misses x (ROADMAP item 1).
_ROUND_TRIP_MISSES = ("yager", "dombi", "aczel_alsina")


def _round_trip_param(rng, kind):
    if kind not in _ROUND_TRIP_PARAMS:
        return None
    while True:
        p = rng.uniform(*_ROUND_TRIP_PARAMS[kind])
        if kind == "frank" and abs(p - 1.0) < 0.01:
            continue
        if kind == "schweizer_sklar" and p == 0.0:
            continue
        return p


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            k, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
        )
        if k in _ROUND_TRIP_MISSES
        else k
        for k in TNORM_KINDS
    ],
)
def test_scalar_round_trip(kind):
    # x must solve phi(a, x) = b when b is phi(a, x) evaluated in floats.
    rng = random.Random(11)
    misses = []
    for _ in range(2000):
        spec = TNormSpec(kind, _round_trip_param(rng, kind))
        a, x = rng.random(), rng.random()
        b = tnorm_eval(spec, a, x)
        if not solve_scalar_eq(spec, a, b).solution_set.contains(x):
            misses.append((spec.param, a, x))
    assert not misses, (len(misses), misses[:3])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_schweizer_sklar_round_trip_cancellation():
    # (b^p - a^p + 1)^(1/p) cancels for p near -4 and a tiny a: the set
    # prints as {0.328} but its endpoint is 4e-9 away from x.
    spec, a, x = TNormSpec("schweizer_sklar", -3.99), 0.00196, 0.328
    assert solve_scalar_eq(spec, a, tnorm_eval(spec, a, x)).solution_set.contains(x)


@pytest.mark.parametrize("p", [1e-17, -1e-17, 1e-10])
def test_schweizer_sklar_small_parameter(p):
    # phi tends to the product as p -> 0, 1.2e-11 away at p = 1e-10 and
    # (0.5, 0.5); (1 - x^p) / p and (1 - p s)^(1/p) cancel there
    spec = TNormSpec("schweizer_sklar", p)
    grid = [0.01] + [k / 20 for k in range(1, 21)]
    for a in grid:
        for x in grid:
            b = tnorm_eval(spec, a, x)
            assert abs(b - a * x) <= 1e-9, (a, x)
            assert solve_scalar_eq(spec, a, b).solution_set.contains(x), (a, x)


def _reference_tnorm():
    """``tnorm`` of ``bench/check.py``, which imports nothing from ``bfre``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_check", os.path.join(root, "bench", "check.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tnorm


@pytest.mark.parametrize("kind", TNORM_KINDS)
def test_eval_matches_independent_reference(kind):
    # The reference evaluates each family's published formula directly, so a
    # wrong generator shows here even though the bisection fallback, which
    # evaluates through the same generator, would agree with it.
    reference = _reference_tnorm()
    rng = random.Random(12)
    for _ in range(2000):
        spec = TNormSpec(kind, _round_trip_param(rng, kind))
        x, y = rng.random(), rng.random()
        want = reference(kind, spec.param, x, y)
        assert abs(tnorm_eval(spec, x, y) - want) <= 1e-11, (spec, x, y)


#: The benchmark's parameters for the rational families that take one.
_RATIONAL_PARAMS = {
    "hamacher": 0.5,
    "sugeno_weber": 1.0,
    "dubois_prade": 0.5,
    "mayor_torrence": 0.4,
}


@pytest.mark.parametrize("kind", RATIONAL_KINDS)
def test_rational_families_match_the_exact_reference(kind):
    # Exact, not float, comparisons: phi(a, x) is within 1e-15 of its exact
    # value, and so is phi at each endpoint of the solution set of
    # phi(a, t) = b, for b = phi(a, x) as the float evaluation gives it.
    # In ulps the error is large where phi is near 0 (sugeno_weber,
    # mayor_torrence), so the bound is absolute.
    param = _RATIONAL_PARAMS.get(kind)
    spec = TNormSpec(kind, param)
    bound = Fraction(1e-15)
    rng = random.Random(1)
    for _ in range(20000):
        a, x = rng.random(), rng.random()
        b = tnorm_eval(spec, a, x)
        exact_b = Fraction(b)
        assert abs(exact_b - exact_tnorm(kind, param, a, x)) <= bound, (a, x)
        solution = solve_scalar_eq(spec, a, b)
        for end in {solution.l, solution.u}:
            assert abs(exact_tnorm(kind, param, a, end) - exact_b) <= bound, (a, b, end)


# -- bisection fallback ----------------------------------------------------------


def test_numeric_matches_closed_form():
    # x-space agreement needs a > b: at a = b the map can leave its plateau
    # with zero derivative, which smears the float-arithmetic edge.
    rng = random.Random(44)
    for spec in AXIOM_SPECS:
        for _ in range(60):
            a, b = _sample_ab(rng, allow_equal=False)
            closed = solve_scalar_eq(spec, a, b)
            num = solve_scalar_eq_numeric(spec, a, b)
            assert abs(closed.l - num.l) <= 1e-8, (spec, a, b)
            assert abs(closed.u - num.u) <= 1e-8, (spec, a, b)


def test_numeric_solves_equation_at_tangencies():
    rng = random.Random(46)
    for spec in AXIOM_SPECS:
        for _ in range(20):
            a = rng.random()
            num = solve_scalar_eq_numeric(spec, a, a)
            assert num.u == 1.0
            assert abs(tnorm_eval(spec, a, num.l) - a) <= 1e-9, (spec, a)


def test_numeric_examples():
    dp = TNormSpec("dubois_prade", 0.5)
    s = solve_scalar_eq_numeric(dp, 0.8, 0.7)
    assert s.l == pytest.approx(0.7, abs=1e-9)
    assert s.u == pytest.approx(0.7, abs=1e-9)
    s = solve_scalar_eq_numeric(TNormSpec("product"), 0.8, 0.4)
    assert s.l == pytest.approx(0.5, abs=1e-9)
    assert solve_scalar_eq_numeric(TNormSpec("yager", 2.0), 1.0, 1.0).u == 1.0
    # b above a beyond the drift tolerance: no x solves it
    none = solve_scalar_eq_numeric(TNormSpec("product"), 0.4, 0.4 + 1e-9)
    assert (none.l, none.u) == (None, None)


def test_numeric_stops_when_bracket_stops_shrinking(monkeypatch):
    # near 1 adjacent floats are wider than the 1e-16 stop, so only the
    # midpoint reaching an endpoint ends each bisection early
    calls = []

    def counting(t, x, y):
        calls.append((x, y))
        return tnorm_eval(t, x, y)

    monkeypatch.setattr(tnorms, "tnorm_eval", counting)
    product = TNormSpec("product")
    num = solve_scalar_eq_numeric(product, 0.999, 0.998)
    assert len(calls) <= 2 * 64
    closed = solve_scalar_eq(product, 0.999, 0.998)
    assert abs(closed.l - num.l) <= 1e-8
    assert abs(closed.u - num.u) <= 1e-8


def test_random_parameter_sweeps():
    # Every parametric family with every canned parameter stays consistent.
    rng = random.Random(45)
    for _ in range(120):
        spec = random_tnorm(rng)
        a, b = _sample_ab(rng, allow_equal=False)
        closed = solve_scalar_eq(spec, a, b)
        num = solve_scalar_eq_numeric(spec, a, b)
        assert abs(closed.l - num.l) <= 1e-8, (spec, a, b)
        assert abs(closed.u - num.u) <= 1e-8, (spec, a, b)
        assert math.isfinite(closed.l) and math.isfinite(closed.u)
