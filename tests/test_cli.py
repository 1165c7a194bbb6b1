"""CLI commands, file format, exit codes, report determinism."""

import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import weakref

import pytest
from click.testing import CliRunner

from bfre.cli import main, parse_problem, problem_from_dict
from bfre.resolution import count_bound, feasible_region
from bfre.tnorms import TNORM_KINDS

from conftest import dense_square_problem, random_system, reference_optimum

DATA = os.path.join(os.path.dirname(__file__), "data", "example_problem.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


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
    # a linear objective at the unit vectors reads back its coefficients
    units = [[float(k == j) for k in range(system.n)] for j in range(system.n)]
    assert [objective(e) for e in units] == original["objective"]["params"]["c"]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(b=[2.0] + d["b"][1:]), "outside"),
        (lambda d: d.update(tnorm={"name": "banana"}), "unknown t-norm"),
        (lambda d: d.update(m=3), "declared"),
        (lambda d: d.__delitem__("a_minus"), "missing field"),
        # a mutation that returns a value replaces the whole file
        (lambda d: [1], "top level must be an object"),
        (lambda d: d.update(tnorm="product"), "tnorm must be an object with a 'name'"),
        (lambda d: d.update(objective=3), "objective must be an object with a 'name'"),
        (lambda d: d.update(objective={"name": "linear", "params": {}}), "requires parameter"),
        # a parameter the objective does not read is rejected, not ignored
        (lambda d: d.update(objective={"name": "max", "params": {"p": 3}}), "unknown parameter"),
        (
            lambda d: d.update(objective={"name": "p_norm", "params": {"p": 2, "r": 1}}),
            "unknown parameter(s) 'r'",
        ),
        (lambda d: d["objective"]["params"].update(alpha=[1.0] * 9), "takes only 'c'"),
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
        # params must be an object, also under an objective that reads none
        *(
            (
                lambda d, name=name, params=params: d.update(
                    objective={"name": name, "params": params}
                ),
                "objective 'params' must be an object",
            )
            for name in ("max", "linear")
            for params in (5, "c", [1, 2], True)
        ),
    ],
)
def test_parse_rejects_bad_files(tmp_path, runner, mutate, fragment):
    with open(DATA) as fh:
        data = json.load(fh)
    replaced = mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data if replaced is None else replaced))
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


def test_no_admissible_assignment(tmp_path, runner):
    # row 0 needs x in [0.8, 1] and row 1 x in [0, 0.5]; the necessary checks
    # and the reduction pass, and the search finds no box
    problem = {
        "m": 2,
        "n": 1,
        "a_plus": [[0.8], [0.0]],
        "a_minus": [[0.0], [0.5]],
        "b": [0.8, 0.5],
        "tnorm": {"name": "minimum"},
        "objective": {"name": "linear", "params": {"c": [1.0]}},
    }
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(problem))
    expected = (
        '{"status": "infeasible", '
        '"verdict": {"status": "no_admissible_assignment", "index": null}, '
        '"reduction": {"fixed": {}, "active_rows": [0, 1], "active_cols": [0]}, '
        '"count_bound": 1, "column_bounds": [[[0.0, 1.0]]], "boxes": []}\n'
    )
    for command in ("feasible", "solve"):
        result = invoke(runner, command, str(path))
        assert (result.exit_code, result.output) == (2, expected)
    result = invoke(runner, "verify", str(path), "--step", "0.25")
    assert result.exit_code == 0
    assert json.loads(result.output)["status"] == "verified"


@pytest.mark.parametrize(
    "args,fragment",
    [
        # the cap message says how far the run got: 3 boxes prove feasibility
        pytest.param(
            ["feasible", "--no-simplify", "--max-e", "3"],
            "more than 3 admissible assignments; 3 boxes found, so the system is feasible",
            id="max-e",
        ),
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


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["feasible", "{tmp}/missing.json"], id="missing-file"),
        pytest.param(["feasible", "{tmp}"], id="directory"),
        pytest.param(["feasible"], id="missing-argument"),
        pytest.param(["feasible", DATA, "--bogus"], id="unknown-option"),
        pytest.param(["bogus", DATA], id="unknown-command"),
        pytest.param(["verify", DATA, "--cap", "x"], id="cap-not-a-number"),
        pytest.param(["verify", DATA, "--step", "x"], id="step-not-a-number"),
        pytest.param(["verify", DATA, "--seed", "x"], id="seed-not-a-number"),
        pytest.param(["feasible", DATA, "--max-e", "x"], id="max-e-not-a-number"),
        pytest.param(["simplify", DATA, "--tol", "x"], id="tol-not-a-number"),
        pytest.param([], id="no-command"),
    ],
)
def test_usage_errors_exit_1(tmp_path, runner, args):
    # exit 2 means infeasible, so a script must not read a usage error as one
    result = invoke(runner, *(a.format(tmp=tmp_path) for a in args))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "Usage:" in result.stderr


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]], ids=["main", "solve"])
def test_help_exits_0(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.stdout.startswith("Usage: ")


def test_interrupt_exits_1(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("bfre.cli.feasible_region", interrupted)
    result = invoke(runner, "feasible", DATA)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.endswith("Aborted!\n")


@pytest.mark.parametrize(
    "args",
    [
        ["feasible", DATA],
        ["tnorm-eval", "product", "0.8", "0.4"],
        ["feasible", DATA, "--max-e", "1"],
        ["--help"],
        ["feasible", "--help"],
    ],
    ids=["feasible", "tnorm-eval", "error", "help", "feasible-help"],
)
def test_in_process_runs_release_their_streams(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="bfre")
        except SystemExit:
            pass
    assert (err if "--max-e" in args else out).getvalue()
    refs = weakref.ref(out), weakref.ref(err)
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize(
    "unbuffered,command",
    [
        pytest.param("1", "feasible", id="unbuffered"),
        pytest.param("", "feasible", id="buffered"),
        pytest.param("1", "solve", id="unbuffered-solve"),
        pytest.param("", "solve", id="buffered-solve"),
    ],
)
def test_closed_pipe_exits_1(tmp_path, unbuffered, command):
    # A reader that closes after the first byte of a 0.5 MB report, as
    # `bfre feasible ... | head -c 1` does.  Unbuffered, stdout's binary
    # layer is a raw file, and one write of the whole report would stop
    # short without an error.
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(dense_square_problem("product", "pipe")))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bfre.cli", command, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err


def test_report_determinism(runner):
    first = invoke(runner, "feasible", DATA)
    second = invoke(runner, "feasible", DATA)
    assert first.output == second.output


@pytest.mark.parametrize(
    "problem,args,expected,code",
    [
        pytest.param("problem.json", ["feasible"], "feasible.out", 0, id="feasible"),
        pytest.param("problem.json", ["solve"], "solve.out", 0, id="solve"),
        pytest.param(
            "problem.json", ["simplify", "--explain"], "simplify_explain.out", 0, id="simplify"
        ),
        pytest.param(
            "problem.json",
            ["feasible", "--no-simplify"],
            "feasible_no_simplify.out",
            0,
            id="no-simplify",
        ),
        pytest.param(
            "problem.json",
            ["verify", "--step", "0.25", "--cap", "2000"],
            "verify.out",
            0,
            id="verify",
        ),
        pytest.param(
            "rule3_problem.json", ["feasible"], "rule3_feasible.out", 0, id="rule3-feasible"
        ),
        pytest.param(
            "rule3_problem.json",
            ["simplify", "--explain"],
            "rule3_simplify_explain.out",
            0,
            id="rule3-simplify",
        ),
        pytest.param(
            "rule3_problem.json",
            ["verify", "--step", "0.25", "--cap", "2000"],
            "rule3_verify.out",
            0,
            id="rule3-verify",
        ),
        pytest.param(
            "problem.json",
            ["verify", "--step", "0.25", "--cap", "20", "--seed", "3"],
            "verify_sampled.out",
            0,
            id="verify-sampled",
        ),
        pytest.param(
            "rule3_problem.json",
            ["verify", "--step", "1e-4", "--cap", "50", "--seed", "1"],
            "rule3_verify_lazy.out",
            0,
            id="rule3-verify-lazy",
        ),
    ],
)
def test_golden_output(runner, problem, args, expected, code):
    # Minimum-t-norm systems: arithmetic only, so no libm rounding can move
    # a digit.  problem.json is 3x3: rules 3 and 4 fire, the reduced run
    # keeps 2 of the unreduced run's 4 boxes, and the linear objective has a
    # negative coefficient, so its corner takes a factor's high end.
    # rule3_problem.json is 8x4: rule 3 drops row 2, dominated by row 7,
    # whose support is a strict part of row 2's, and row 4, the later of two
    # identical rows (a copy of row 1); rule 5 fires too.  Only 18 of its 64
    # literals reach their b_i, so its verify grid skips most cells.  The
    # sampled verify cases pin the seeded draws, one over list columns and
    # one over lazy columns.
    result = invoke(runner, args[0], os.path.join(GOLDEN, problem), *args[1:])
    with open(os.path.join(GOLDEN, expected), encoding="utf-8") as fh:
        assert result.stdout == fh.read()
    assert result.exit_code == code


def _assert_reports_encode_like_json_dumps(tmp_path, runner, problem, simplify=True):
    """``feasible`` and ``solve`` print exactly ``json.dumps`` of the report
    built from the library's results, each box's factors read from
    ``box.factors``, and ``solve``'s ``best`` is the exhaustive scan's
    optimum, bit for bit."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    system, objective = parse_problem(str(path))
    result = feasible_region(system, simplify=simplify)
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
                "rows": list(state.active_rows),
                "columns": list(box.columns),
                "factors": [f.to_pairs() for f in box.factors],
            }
            for box in result.boxes
        ],
    }
    (value, point, columns), _ = reference_optimum(result.boxes, objective)
    best = {"columns": list(columns), "point": list(point), "value": value}
    flags = [] if simplify else ["--no-simplify"]
    outputs = []
    for command, report in (("feasible", expected), ("solve", {**expected, "best": best})):
        out = invoke(runner, command, str(path), *flags).stdout
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) == report
        assert out == json.dumps(report) + "\n"  # same key order as well
        outputs.append(out)
    return result, best, outputs


def test_report_is_one_line_of_plain_json(tmp_path, runner):
    # 4x6 product system whose 35 boxes share factor objects, several
    # distinct ones per column, so a report must encode each box's own
    # factors
    rng = random.Random(68)
    system = random_system(rng, 5, 6, kind="product", force_feasible=True)
    c = [1.0, -2.0, 0.5, -1.0, 3.0, -0.5]
    problem = _problem_dict(system, {"name": "linear", "params": {"c": c}})
    result, _, _ = _assert_reports_encode_like_json_dumps(tmp_path, runner, problem)
    assert len(result.boxes) >= 20


def _problem_dict(system, objective):
    return {
        "m": system.m,
        "n": system.n,
        "a_plus": system.a_plus,
        "a_minus": system.a_minus,
        "b": system.b,
        "tnorm": {"name": system.tnorm.kind, "param": system.tnorm.param},
        "objective": objective,
    }


def test_reports_encode_like_json_dumps_over_all_families(tmp_path, runner):
    # Seeded systems built around a witness, in every t-norm family, reduced
    # and unreduced.  The encoder writes the root's factors once and patches
    # a box's witness columns, so the sweep must meet fixed columns (whose
    # root factor is a singleton) and boxes where two active rows share a
    # witness column (whose factor is a joint intersection).
    rng = random.Random(18)
    fixed = shared = 0
    for kind in TNORM_KINDS:
        for _ in range(2):
            system = random_system(rng, kind=kind, force_feasible=True, shape=(5, 6))
            c = [rng.uniform(-2.0, 2.0) for _ in range(system.n)]
            problem = _problem_dict(system, {"name": "linear", "params": {"c": c}})
            for simplify in (True, False):
                result, _, _ = _assert_reports_encode_like_json_dumps(
                    tmp_path, runner, problem, simplify
                )
                fixed += bool(result.reduction.fixed)
                shared += any(len(set(b.columns)) < len(b.columns) for b in result.boxes)
    assert fixed and shared


def test_report_encodes_high_ends_fixed_columns_and_infinity(tmp_path, runner):
    # Rows 0 and 1 fix x0 = x1 = 0.5, so every box has singleton factors
    # there.  Row 2 has two witnesses, x2 = 4/9 or x3 = 0.  Perspective
    # takes the high end of x3: 1.0 in the first box, 0.0 in the second,
    # whose value is then inf, so the first box is best.
    problem = {
        "m": 3,
        "n": 4,
        "a_plus": [[0.5, 0, 0, 0], [0, 1.0, 0.8, 0], [0, 0, 0.9, 0]],
        "a_minus": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.4]],
        "b": [0.25, 0.5, 0.4],
        "tnorm": {"name": "product"},
        "objective": {"name": "perspective", "params": {"p": 2}},
    }
    result, best, _ = _assert_reports_encode_like_json_dumps(tmp_path, runner, problem)
    assert result.reduction.fixed == {0: 0.5, 1: 0.5}
    assert best["columns"] == [2]
    assert best["point"][3] == 1.0
    assert best["value"] == pytest.approx(0.6975308641975309)
    # Row 3 (right-hand side 0) pins x3 to 0, so every corner is infinite
    # and the best one prints as Infinity.
    problem.update(
        m=4,
        a_plus=problem["a_plus"] + [[0, 0, 0, 1.0]],
        a_minus=problem["a_minus"] + [[0, 0, 0, 0]],
        b=problem["b"] + [0.0],
    )
    _, best, (_, solved) = _assert_reports_encode_like_json_dumps(tmp_path, runner, problem)
    assert best["point"][3] == 0.0
    assert best["value"] == math.inf
    assert '"value": Infinity}' in solved


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
    # solve reports the exhaustive scan's optimum, reduced and unreduced,
    # and no per-box candidates
    system, objective = parse_problem(DATA)
    for args, simplify in (((), True), (("--no-simplify",), False)):
        result = invoke(runner, "solve", DATA, *args)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert "candidates" not in report
        region = feasible_region(system, simplify=simplify)
        (value, point, columns), corners = reference_optimum(region.boxes, objective)
        assert report["best"] == {
            "columns": list(columns),
            "point": list(point),
            "value": value,
        }
        assert value == pytest.approx(-3.6, abs=1e-9)
        if simplify:
            assert columns == (7, 8)
            values = [corner[0] for corner in corners]
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


def _one_cell_problem(value, c):
    """x_0 in [value, 1] under the minimum: a+ = b = value, a- = 0."""
    return {
        "m": 1,
        "n": 1,
        "a_plus": [[value]],
        "a_minus": [[0.0]],
        "b": [value],
        "tnorm": {"name": "minimum"},
        "objective": {"name": "linear", "params": {"c": [c]}},
    }


@pytest.mark.parametrize(
    "problem,args,brute_force",
    [
        # the tick 0.59999995 lies within --tol below the region [0.6, 1]
        (_one_cell_problem(0.6, 1.0), ("--step", "0.59999995", "--tol", "1e-7"), 0.59999995),
        # the tick 0.6 lies within the default 1e-9 below [0.6000000005, 1],
        # and c = 5 stretches the gap in value past 1e-9
        (_one_cell_problem(0.6000000005, 5.0), ("--step", "0.3"), 3.0),
    ],
    ids=["tol", "default-tol"],
)
def test_verify_objective_check_honours_the_tolerance(tmp_path, runner, problem, args, brute_force):
    # A grid point within the tolerance outside the optimal box is feasible
    # and scores below the box corner; snapped into its box it scores the
    # corner, so a correct region verifies.  The reported point is unsnapped.
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "verify", str(path), *args)
    report = json.loads(result.output)
    assert report["status"] == "verified", report
    assert result.exit_code == 0
    assert report["objective_check"] == "exact"
    assert report["objective_agreement"] is True
    assert report["brute_force"]["value"] == brute_force
    assert report["pipeline_value"] > brute_force + 1e-9


@pytest.mark.parametrize(
    "args,check", [((), "exact"), (("--cap", "10"), "lower_bound")], ids=["exact", "sampled"]
)
def test_verify_flags_a_wrong_optimum(tmp_path, runner, args, check):
    # test_verify_small_exhaustive's problem with x_0 declared non-increasing
    # and x_1 non-decreasing, the reverse of c: the corner search then
    # misses the optimum, and the objective check, sampled or not, must say so.
    problem = {
        "m": 1,
        "n": 2,
        "a_plus": [[1.0, 0.4]],
        "a_minus": [[0.0, 0.0]],
        "b": [0.5],
        "tnorm": {"name": "product"},
        "objective": {
            "name": "linear",
            "params": {"c": [1.0, -1.0]},
            "j_plus": [1],
            "j_minus": [0],
        },
    }
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(problem))
    result = invoke(runner, "verify", str(path), "--step", "0.25", *args)
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["status"] == "mismatch"
    assert report["membership_mismatches"] == []
    assert report["objective_check"] == check
    assert report["objective_agreement"] is False
    assert report["brute_force"]["value"] < report["pipeline_value"] - 1e-9


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


@pytest.mark.parametrize("param", [1e-17, 1e-20])
def test_frank_parameter_below_range_is_an_error(tmp_path, runner, param):
    with open(DATA) as fh:
        data = json.load(fh)
    data["tnorm"] = {"name": "frank", "param": param}
    path = tmp_path / "frank.json"
    path.write_text(json.dumps(data))
    for args in (
        ["feasible", str(path)],
        ["tnorm-eval", "frank", "0.85", "0.9", "--param", str(param)],
    ):
        result = invoke(runner, *args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "out of range for 'frank'" in result.stderr
        assert result.stderr.count("\n") == 1


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
