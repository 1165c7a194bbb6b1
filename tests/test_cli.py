"""CLI commands, file format, exit codes, report determinism."""

import json
import math
import os
import random

import pytest
from click.testing import CliRunner

from bfre.cli import main, parse_problem, problem_from_dict
from bfre.optimize import global_optimum
from bfre.resolution import count_bound, feasible_region

from conftest import random_system

DATA = os.path.join(os.path.dirname(__file__), "data", "example_problem.json")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# -- parsing -------------------------------------------------------------------


def test_parse_example_file():
    system, objective = parse_problem(DATA)
    assert (system.m, system.n) == (7, 9)
    assert system.tnorm.kind == "dubois_prade"
    assert system.tnorm.param == 0.5
    assert objective.name == "linear"
    assert objective.j_minus == frozenset({2, 3, 6, 8})


def test_parse_field_exact():
    system, objective = parse_problem(DATA)
    with open(DATA) as fh:
        original = json.load(fh)
    assert [list(row) for row in system.a_plus] == original["a_plus"]
    assert [list(row) for row in system.a_minus] == original["a_minus"]
    assert list(system.b) == original["b"]
    assert {"name": system.tnorm.kind, "param": system.tnorm.param} == original["tnorm"]
    assert objective.params["c"] == original["objective"]["params"]["c"]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(b=[2.0] + d["b"][1:]), "outside"),
        (lambda d: d.update(tnorm={"name": "banana"}), "unknown t-norm"),
        (lambda d: d.update(m=3), "declared"),
        (lambda d: d.pop("a_minus"), "missing field"),
        (lambda d: d.update(objective={"name": "linear", "params": {}}), "requires parameter"),
        # wrongly typed fields name the file instead of raising a traceback
        (lambda d: d.update(tnorm={"name": "frank", "param": "2"}), "bad.json"),
        (lambda d: d.update(objective={"name": "linear", "params": {"c": 5}}), "bad.json"),
        (lambda d: d.update(objective={"name": "p_norm", "params": {"p": None}}), "bad.json"),
        # JSON files may carry NaN and Infinity, which no objective accepts
        (
            lambda d: d["objective"]["params"].update(c=[math.nan] * d["n"]),
            "must be finite",
        ),
        (
            lambda d: d.update(
                objective={"name": "sum_log", "params": {"alpha": [math.inf] * d["n"]}}
            ),
            "must be finite",
        ),
        (
            lambda d: d.update(objective={"name": "sum_largest", "params": {"r": math.inf}}),
            "must be finite",
        ),
        (
            lambda d: d.update(
                objective={**d["objective"], "j_plus": 3, "j_minus": [0]}
            ),
            "bad.json",
        ),
        # numbers must be JSON numbers: no strings, no booleans, no rounding
        (lambda d: d["objective"]["params"].update(c="12"), "must be a list of numbers"),
        (
            lambda d: d["objective"]["params"].update(c=[True, False] * 4 + [True]),
            "must be a list of numbers",
        ),
        (lambda d: d["objective"]["params"].update(c=[1.0] * 8 + ["1"]), "list of numbers"),
        (
            lambda d: d.update(objective={"name": "sum_largest", "params": {"r": 1.9}}),
            "integer r",
        ),
        (
            lambda d: d.update(objective={"name": "p_norm", "params": {"p": [2.0]}}),
            "must be a number",
        ),
        (lambda d: d.update(m=True), "positive integers"),
        (lambda d: d["a_plus"][0].__setitem__(0, "0.3"), "a_plus[0][0]"),
        (lambda d: d["a_minus"][1].__setitem__(2, False), "a_minus[1][2]"),
        (lambda d: d.update(b=["0.5"] + d["b"][1:]), "b[0]"),
        (lambda d: d.update(tnorm={"name": "hamacher", "param": True}), "parameter True"),
        (
            # true == 1 in Python, so this partition would cover all nine columns
            lambda d: d.update(
                objective={**d["objective"], "j_plus": [True, *range(2, 9)], "j_minus": [0]}
            ),
            "must hold integers",
        ),
    ],
)
def test_parse_rejects_bad_files(tmp_path, runner, mutate, fragment):
    with open(DATA) as fh:
        data = json.load(fh)
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = invoke(runner, "feasible", str(path))
    assert result.exit_code == 1
    assert fragment in result.output


def test_parse_rejects_invalid_json(tmp_path, runner):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    result = invoke(runner, "feasible", str(path))
    assert result.exit_code == 1
    assert "invalid JSON" in result.output


# -- feasible / simplify ---------------------------------------------------------


def test_feasible_command(runner):
    result = invoke(runner, "feasible", DATA)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "feasible"
    assert report["count_bound"] == 4
    fixed = report["reduction"]["fixed"]
    assert sorted(fixed) == ["4", "6"]
    assert fixed["4"] == pytest.approx(0.75, abs=1e-9)
    assert fixed["6"] == pytest.approx(0.1, abs=1e-9)
    assert report["reduction"]["active_rows"] == [2, 5]
    assert len(report["boxes"]) == 4
    assert report["boxes"][0]["columns"] == [7, 7]
    got = [v for pair in report["boxes"][1]["factors"][7] for v in pair]
    assert got == pytest.approx([0.0, 0.2, 0.8, 1.0], abs=1e-9)


def test_feasible_no_simplify(runner):
    result = invoke(runner, "feasible", DATA, "--no-simplify")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["reduction"]["fixed"] == {}
    assert report["count_bound"] == 192
    assert len(report["boxes"]) >= 4


def test_feasible_infeasible_exit_code(tmp_path, runner):
    problem = {
        "m": 1,
        "n": 2,
        "a_plus": [[0.0, 0.0]],
        "a_minus": [[0.0, 0.0]],
        "b": [1.0],
        "tnorm": {"name": "minimum"},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "feasible", str(path))
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["status"] == "infeasible"
    assert report["verdict"] == {"status": "empty_row", "index": 0}


def test_feasible_empty_column_exit_code(tmp_path, runner):
    # a cell demanding both x = 0 and x = 1 empties the column bound
    problem = {
        "m": 1,
        "n": 1,
        "a_plus": [[1.0]],
        "a_minus": [[1.0]],
        "b": [0.0],
        "tnorm": {"name": "minimum"},
    }
    path = tmp_path / "column.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "feasible", str(path))
    assert result.exit_code == 2
    assert json.loads(result.output)["verdict"] == {"status": "empty_column", "index": 0}
    # the reduction front end reports the same verdict
    result = invoke(runner, "simplify", str(path))
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args,fragment",
    [
        pytest.param(["feasible", "--no-simplify", "--max-e", "3"], "admissible", id="max-e"),
        # exit 2 means infeasible, so bad option values exit 1 like other errors
        pytest.param(["feasible", "--max-e", "0"], "--max-e", id="max-e-0"),
        pytest.param(["verify", "--max-e", "-5"], "--max-e", id="max-e-negative"),
        pytest.param(["verify", "--cap", "0"], "--cap", id="verify-cap-0"),
        pytest.param(["verify", "--cap", "-5"], "--cap", id="verify-cap-negative"),
        pytest.param(["verify", "--step", "0"], "--step", id="verify-step-0"),
        # 1e12 ticks per column would exhaust memory before any point is checked
        pytest.param(["verify", "--step", "1e-300"], "grid step", id="step-tiny"),
        pytest.param(["feasible", "--tol", "0"], "--tol", id="tol-0"),
        pytest.param(["simplify", "--tol", "-1"], "--tol", id="tol-negative"),
        pytest.param(["feasible", "--tol", "inf"], "--tol", id="tol-inf"),
        pytest.param(["verify", "--tol", "nan"], "--tol", id="tol-nan"),
    ],
)
def test_bad_option_values(runner, args, fragment):
    command, *options = args
    result = invoke(runner, command, DATA, *options)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert fragment in result.output


def test_report_determinism(runner):
    first = invoke(runner, "feasible", DATA)
    second = invoke(runner, "feasible", DATA)
    assert first.output == second.output


def test_report_is_one_line_of_plain_json(tmp_path, runner):
    # 4x6 product system whose 35 boxes share factor objects, several
    # distinct ones per column, so a report must encode each box's own
    rng = random.Random(68)
    system = random_system(rng, 5, 6, kind="product", force_feasible=True)
    c = [1.0, -2.0, 0.5, -1.0, 3.0, -0.5]
    path = tmp_path / "shared.json"
    path.write_text(
        json.dumps(
            {
                "m": system.m,
                "n": system.n,
                "a_plus": system.a_plus,
                "a_minus": system.a_minus,
                "b": system.b,
                "tnorm": {"name": system.tnorm.kind, "param": system.tnorm.param},
                "objective": {"name": "linear", "params": {"c": c}},
            }
        )
    )
    system, objective = parse_problem(str(path))
    result = feasible_region(system)
    assert len(result.boxes) >= 20
    state = result.reduction
    expected = {
        "status": "feasible",
        "verdict": {"status": "ok", "index": None},
        "reduction": {
            "fixed": {str(j): v for j, v in sorted(state.fixed.items())},
            "active_rows": list(state.active_rows),
            "active_cols": list(state.active_cols),
        },
        "count_bound": count_bound(result.analysis, state),
        "column_bounds": [f.to_pairs() for f in result.analysis.col_bounds],
        "boxes": [
            {
                "rows": list(box.source.rows),
                "columns": list(box.source.columns),
                "factors": [f.to_pairs() for f in box.factors],
            }
            for box in result.boxes
        ],
    }
    best, candidates = global_optimum(result.boxes, objective)
    expected_solve = {
        **expected,
        "candidates": [
            {"columns": list(k.source.columns), "point": list(k.point), "value": k.value}
            for k in candidates
        ],
        "best": {
            "columns": list(best.source.columns),
            "point": list(best.point),
            "value": best.value,
        },
    }
    for command, report in (("feasible", expected), ("solve", expected_solve)):
        out = invoke(runner, command, str(path)).stdout
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) == report
        assert out == json.dumps(report) + "\n"  # same key order as well


@pytest.mark.parametrize(
    "args",
    [
        ["feasible", DATA],
        ["solve", DATA],
        ["verify", DATA, "--step", "0.5", "--cap", "3000"],
        ["simplify", DATA, "--explain"],
        ["tnorm-eval", "product", "0.8", "0.4", "--solve"],
    ],
    ids=lambda args: args[0],
)
def test_every_command_prints_compact_json(runner, args):
    out = invoke(runner, *args).stdout
    assert out == json.dumps(json.loads(out)) + "\n"


def test_simplify_command(runner):
    result = invoke(runner, "simplify", DATA, "--explain")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["count_bound_before"] == 192
    assert report["count_bound_after"] == 4
    rules = [entry["rule"] for entry in report["reduction"]["log"]]
    assert set(rules) <= {1, 2, 3, 4, 5}
    assert any(e["action"] == "fix" for e in report["reduction"]["log"])


def test_simplify_without_explain_omits_log(runner):
    report = json.loads(invoke(runner, "simplify", DATA).output)
    assert "log" not in report["reduction"]


# -- solve -----------------------------------------------------------------------


def test_solve_command(runner):
    result = invoke(runner, "solve", DATA)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["best"]["value"] == pytest.approx(-3.6, abs=1e-9)
    assert report["best"]["columns"] == [7, 8]
    assert len(report["candidates"]) == 4
    values = [c["value"] for c in report["candidates"]]
    assert values == pytest.approx([-0.9, -3.6, -1.3, -3.3], abs=1e-9)


def test_solve_requires_objective(tmp_path, runner):
    with open(DATA) as fh:
        data = json.load(fh)
    del data["objective"]
    path = tmp_path / "noobj.json"
    path.write_text(json.dumps(data))
    result = invoke(runner, "solve", str(path))
    assert result.exit_code == 1
    assert "no objective" in result.output


# -- verify ----------------------------------------------------------------------


def test_verify_small_exhaustive(tmp_path, runner):
    problem = {
        "m": 1,
        "n": 2,
        "a_plus": [[1.0, 0.4]],
        "a_minus": [[0.0, 0.0]],
        "b": [0.5],
        "tnorm": {"name": "product"},
        "objective": {"name": "linear", "params": {"c": [1.0, -1.0]}},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "verify", str(path), "--step", "0.25")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "verified"
    assert report["membership_mismatches"] == []
    assert report["objective_agreement"] is True
    assert report["monotonicity_violations"] == 0


def test_verify_without_objective(tmp_path, runner):
    with open(DATA) as fh:
        problem = json.load(fh)
    del problem["objective"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "verify", str(path), "--step", "0.5", "--cap", "3000")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "verified"
    assert "brute_force" not in report
    assert "objective_check" not in report


def test_verify_sampled_example(runner):
    result = invoke(runner, "verify", DATA, "--step", "0.5", "--cap", "3000", "--seed", "7")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "verified"
    assert report["grid"]["sampled"] is True
    assert report["objective_check"] == "lower_bound"


# -- tnorm-eval ---------------------------------------------------------------------


def test_tnorm_eval_command(runner):
    result = invoke(runner, "tnorm-eval", "dubois_prade", "0.8", "0.7", "--param", "0.5")
    assert result.exit_code == 0
    assert json.loads(result.output)["value"] == pytest.approx(0.7, abs=1e-12)


def test_tnorm_eval_solve(runner):
    result = invoke(
        runner, "tnorm-eval", "product", "0.8", "0.4", "--solve"
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["l"] == pytest.approx(0.5)
    assert report["l_bisect"] == pytest.approx(0.5, abs=1e-9)


def test_tnorm_eval_rejects_bad_kind(runner):
    result = invoke(runner, "tnorm-eval", "banana", "0.5", "0.5")
    assert result.exit_code == 1


def test_tol_flag(tmp_path, runner):
    # x = 0.5 solves equation 0 and x = 0.50000001 equation 1: one system is
    # infeasible at the default tolerance 1e-9 and feasible at 1e-7
    problem = {
        "m": 2,
        "n": 1,
        "a_plus": [[0.5], [0.0]],
        "a_minus": [[0.0], [0.5]],
        "b": [0.25, 0.249999995],
        "tnorm": {"name": "product"},
    }
    path = tmp_path / "near.json"
    path.write_text(json.dumps(problem))
    assert invoke(runner, "feasible", str(path)).exit_code == 2
    assert invoke(runner, "feasible", str(path), "--tol", "1e-7").exit_code == 0
    # the wider tolerance ended with its command
    assert invoke(runner, "feasible", str(path)).exit_code == 2
