"""CLI commands, file format, exit codes, report determinism."""

import json
import os

import pytest
from click.testing import CliRunner

from bfre.cli import main, parse_problem, problem_from_dict

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
        (
            lambda d: d.update(
                objective={**d["objective"], "j_plus": 3, "j_minus": [0]}
            ),
            "bad.json",
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
        pytest.param(["verify", "--cap", "0"], "--cap", id="verify-cap-0"),
        pytest.param(["verify", "--cap", "-5"], "--cap", id="verify-cap-negative"),
        pytest.param(["verify", "--step", "0"], "--step", id="verify-step-0"),
        pytest.param(["feasible", "--tol", "0"], "--tol", id="tol-0"),
        pytest.param(["simplify", "--tol", "-1"], "--tol", id="tol-negative"),
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
