"""Output checker for the benchmark, written apart from the solver.

Nothing here imports ``bfre``.  The thirteen t-norms are evaluated from
their published definitions, equations are checked by forward evaluation,
and box membership is tested directly on the report's ``[lo, hi]`` pairs.
The benchmark's generator uses the same forward formulas to build its
systems, so no input depends on the solver's closed forms.

Each ``check_*`` function takes a problem record (see ``workloads.py``), the
command's exit code and its parsed JSON report, and returns a list of
problems found; an empty list means the output is accepted.
"""

from __future__ import annotations

import math
import random

#: Tolerance on a coordinate when testing membership in a reported factor.
#: It equals the solver's documented default comparison tolerance.
TOL_X = 1e-9

#: Tolerance on |lhs - b_i| when an equation is checked by forward evaluation.
TOL_EQ = 1e-7

#: Tolerance when comparing objective values.
TOL_VALUE = 1e-9

#: Boxes whose corners are checked when a report has more boxes than this.
BOX_SAMPLE = 48


def _pw(base: float, exp: float) -> float:
    try:
        return base ** exp
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _frank(x, y, s):
    return math.log(1.0 + (s ** x - 1.0) * (s ** y - 1.0) / (s - 1.0), s)


def _yager(x, y, p):
    return max(0.0, 1.0 - _pw(_pw(1.0 - x, p) + _pw(1.0 - y, p), 1.0 / p))


def _hamacher(x, y, alpha):
    den = alpha + (1.0 - alpha) * (x + y - x * y)
    return 0.0 if den == 0.0 else x * y / den


def _dombi(x, y, lam):
    if x == 0.0 or y == 0.0:
        return 0.0
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    s = _pw((1.0 - x) / x, lam) + _pw((1.0 - y) / y, lam)
    return 1.0 / (1.0 + _pw(s, 1.0 / lam))


def _schweizer_sklar(x, y, p):
    if p < 0.0 and (x == 0.0 or y == 0.0):
        return 0.0
    return _pw(max(0.0, _pw(x, p) + _pw(y, p) - 1.0), 1.0 / p)


def _aczel_alsina(x, y, lam):
    if x == 0.0 or y == 0.0:
        return 0.0
    return math.exp(-_pw(_pw(-math.log(x), lam) + _pw(-math.log(y), lam), 1.0 / lam))


def _mayor_torrence(x, y, lam):
    if lam > 0.0 and x <= lam and y <= lam:
        return max(0.0, x + y - lam)
    return min(x, y)


def _dubois_prade(x, y, gamma):
    top = max(x, y, gamma)
    return 0.0 if top == 0.0 else x * y / top


#: Published definitions T(x, y; parameter), one per catalog family.
TNORMS = {
    "minimum": lambda x, y, _: min(x, y),
    "product": lambda x, y, _: x * y,
    "einstein_product": lambda x, y, _: x * y / (2.0 - x - y + x * y),
    "lukasiewicz": lambda x, y, _: max(0.0, x + y - 1.0),
    "frank": _frank,
    "yager": _yager,
    "hamacher": _hamacher,
    "dombi": _dombi,
    "schweizer_sklar": _schweizer_sklar,
    "sugeno_weber": lambda x, y, lam: max(0.0, (x + y - 1.0 + lam * x * y) / (1.0 + lam)),
    "aczel_alsina": _aczel_alsina,
    "dubois_prade": _dubois_prade,
    "mayor_torrence": _mayor_torrence,
}


def tnorm(kind: str, param, x: float, y: float) -> float:
    """T(x, y) for a catalog family, clamped to [0, 1]."""
    return min(1.0, max(0.0, TNORMS[kind](x, y, param)))


def lhs(problem: dict, x, i: int) -> float:
    """Left-hand side of equation i at x."""
    kind, param = problem["tnorm"]["name"], problem["tnorm"].get("param")
    ap, am = problem["a_plus"][i], problem["a_minus"][i]
    best = 0.0
    for j, xj in enumerate(x):
        xj = min(1.0, max(0.0, xj))
        best = max(best, tnorm(kind, param, ap[j], xj), tnorm(kind, param, am[j], 1.0 - xj))
    return best


def equation_errors(problem: dict, x) -> list[int]:
    """Indices of the equations that x violates by more than TOL_EQ."""
    b = problem["b"]
    return [i for i in range(len(b)) if abs(lhs(problem, x, i) - b[i]) > TOL_EQ]


def in_factor(pairs, v: float) -> bool:
    return any(lo - TOL_X <= v <= hi + TOL_X for lo, hi in pairs)


def in_box(factors, x) -> bool:
    return all(in_factor(pairs, v) for pairs, v in zip(factors, x))


def linear_value(problem: dict, x) -> float:
    return sum(c * v for c, v in zip(problem["objective"]["params"]["c"], x))


def _corners(factors):
    return [p[0][0] for p in factors], [p[-1][1] for p in factors]


def _check_region(record: dict, report: dict, sample_seed: int) -> list[str]:
    problem, x0 = record["problem"], record["witness"]
    errors = []
    if report.get("status") != "feasible":
        return [f"status {report.get('status')!r}, expected 'feasible'"]
    boxes = report.get("boxes") or []
    if not boxes:
        return ["no boxes"]
    if any(len(box["factors"]) != len(x0) for box in boxes):
        return ["box with the wrong number of factors"]
    if not any(in_box(box["factors"], x0) for box in boxes):
        errors.append("witness x0 lies in no reported box")
    picked = boxes
    if len(boxes) > BOX_SAMPLE:
        picked = random.Random(sample_seed).sample(boxes, BOX_SAMPLE)
    for box in picked:
        for corner in _corners(box["factors"]):
            bad = equation_errors(problem, corner)
            if bad:
                errors.append(f"box {box['columns']} corner violates equations {bad[:5]}")
                break
    return errors


def check_feasible(record: dict, code: int, report: dict | None) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    return _check_region(record, report, record["index"])


def check_solve(record: dict, code: int, report: dict | None) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    problem, x0 = record["problem"], record["witness"]
    errors = _check_region(record, report, record["index"])
    best = report.get("best")
    if best is None:
        return errors + ["no best point"]
    point, value = best["point"], best["value"]
    bad = equation_errors(problem, point)
    if bad:
        errors.append(f"best point violates equations {bad[:5]}")
    own = linear_value(problem, point)
    if abs(own - value) > TOL_VALUE:
        errors.append(f"reported value {value!r} but the objective gives {own!r}")
    if value > linear_value(problem, x0) + TOL_VALUE:
        errors.append("best value exceeds the objective at the witness x0")
    if any(value > c["value"] + TOL_VALUE for c in report.get("candidates") or []):
        errors.append("best value exceeds a reported candidate")
    expected = record.get("optimum")
    if expected is not None:
        if abs(value - expected["value"]) > TOL_VALUE:
            errors.append(f"optimum {value!r}, published {expected['value']!r}")
        if any(abs(a - b) > TOL_X for a, b in zip(point, expected["point"])):
            errors.append("optimal point differs from the published point")
    return errors


def check_verify(record: dict, code: int, report: dict | None) -> list[str]:
    if report is None:
        return [f"exit code {code}"]
    errors = []
    if code != 0 or report.get("status") != "verified":
        errors.append(f"status {report.get('status')!r}, exit code {code}")
    point = (report.get("brute_force") or {}).get("point")
    if point is not None:
        bad = equation_errors(record["problem"], point)
        if bad:
            errors.append(f"brute-force point violates equations {bad[:5]}")
    return errors


CHECKS = {"feasible": check_feasible, "solve": check_solve, "verify": check_verify}
