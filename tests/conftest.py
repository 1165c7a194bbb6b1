"""Shared fixtures: the worked 7x9 reference system, random instances and
the benchmark's planted systems."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import os
import random
from typing import NamedTuple

import pytest

from bfre import BipolarSystem, CellAnalysis, RegionResult, TNormSpec, tnorm_eval
from bfre.cli import main
from bfre.resolution import DagNode, SearchDag
from bfre.system import FeasibilityVerdict
from bfre.tnorms import TNORM_KINDS
from corner_scan import reference_optimum  # noqa: F401  the tests import it from here

A_PLUS = [
    [0.54, 0.48, 0.80, 0.63, 0.70, 0.35, 0.56, 0.29, 0.69],
    [0.20, 0.06, 0.01, 0.03, 0.00, 0.04, 0.50, 0.00, 0.09],
    [0.72, 0.23, 0.75, 0.44, 0.38, 0.61, 0.51, 0.80, 0.67],
    [0.83, 1.00, 0.30, 0.90, 0.89, 0.79, 0.62, 0.41, 0.86],
    [0.13, 0.10, 0.00, 0.15, 0.11, 0.04, 0.00, 0.07, 0.19],
    [0.28, 0.43, 0.35, 0.28, 0.40, 0.22, 0.18, 0.50, 0.00],
    [0.33, 0.60, 0.54, 0.58, 0.14, 0.80, 0.49, 0.26, 0.39],
]

A_MINUS = [
    [0.65, 0.51, 0.70, 0.26, 0.90, 0.46, 0.68, 0.16, 0.29],
    [0.10, 0.20, 0.00, 0.06, 0.03, 0.00, 0.05, 0.00, 0.00],
    [0.13, 0.63, 0.74, 0.25, 0.66, 0.73, 0.39, 0.80, 0.90],
    [0.81, 0.80, 0.92, 0.90, 0.78, 0.88, 0.95, 0.57, 0.18],
    [0.17, 0.25, 0.09, 0.18, 0.40, 0.00, 0.19, 0.08, 0.00],
    [0.00, 0.29, 0.33, 0.47, 0.27, 0.34, 0.15, 0.04, 0.50],
    [0.27, 0.40, 0.41, 0.04, 0.38, 0.80, 0.11, 0.23, 0.55],
]

B = [0.7, 0.1, 0.8, 0.9, 0.2, 0.5, 0.6]

#: Linear cost used throughout the optimization examples.
LINEAR_C = [2.0, 1.0, -1.0, -5.0, 1.0, 3.0, -1.0, 4.0, -1.0]


def make_example_system() -> BipolarSystem:
    return BipolarSystem(A_PLUS, A_MINUS, B, TNormSpec("dubois_prade", 0.5))


@pytest.fixture(scope="session")
def example_system() -> BipolarSystem:
    return make_example_system()


@pytest.fixture(scope="session")
def example_analysis(example_system) -> CellAnalysis:
    return CellAnalysis(example_system)


# -- random instances ---------------------------------------------------------

_PARAM_CHOICES = {
    "frank": [0.5, 2.0, 5.0],
    "yager": [0.5, 1.0, 2.0, 3.0],
    "hamacher": [0.0, 0.5, 2.0],
    "dombi": [0.5, 1.0, 2.0],
    "schweizer_sklar": [-2.0, -0.5, 0.5, 2.0],
    "sugeno_weber": [-0.5, 0.0, 1.0, 5.0],
    "aczel_alsina": [0.5, 1.0, 2.0],
    "dubois_prade": [0.0, 0.3, 0.5, 1.0],
    "mayor_torrence": [0.0, 0.4, 1.0],
}


def random_tnorm(rng: random.Random, kind: str | None = None) -> TNormSpec:
    kind = kind or rng.choice(TNORM_KINDS)
    if kind in _PARAM_CHOICES:
        return TNormSpec(kind, rng.choice(_PARAM_CHOICES[kind]))
    return TNormSpec(kind)


def _entry(rng: random.Random) -> float:
    # Coarse values raise the odds of a = b and singleton cases.
    return rng.randrange(11) / 10 if rng.random() < 0.5 else rng.random()


def random_system(
    rng: random.Random,
    max_m: int = 3,
    max_n: int = 3,
    kind: str | None = None,
    force_feasible: bool | None = None,
    shape: tuple[int, int] | None = None,
) -> BipolarSystem:
    """A small random instance; feasible ones are built around a witness point.

    ``shape`` fixes (m, n) instead of drawing them up to (max_m, max_n).
    """
    m, n = shape or (rng.randint(1, max_m), rng.randint(1, max_n))
    t = random_tnorm(rng, kind)
    a_plus = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    a_minus = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    feasible = force_feasible if force_feasible is not None else rng.random() < 0.7
    if feasible:
        x0 = [_entry(rng) for _ in range(n)]
        b = [
            max(
                max(
                    tnorm_eval(t, a_plus[i][j], x0[j]),
                    tnorm_eval(t, a_minus[i][j], 1.0 - x0[j]),
                )
                for j in range(n)
            )
            for i in range(m)
        ]
    else:
        b = [_entry(rng) for _ in range(m)]
    return BipolarSystem(a_plus, a_minus, b, t)


# -- t-norm axiom helper -------------------------------------------------------

AXIOM_SPECS: list[TNormSpec] = [
    TNormSpec("minimum"),
    TNormSpec("product"),
    TNormSpec("einstein_product"),
    TNormSpec("lukasiewicz"),
    TNormSpec("frank", 2.0),
    TNormSpec("yager", 2.0),
    TNormSpec("hamacher", 0.5),
    TNormSpec("dombi", 2.0),
    TNormSpec("schweizer_sklar", 2.0),
    TNormSpec("sugeno_weber", 1.0),
    TNormSpec("aczel_alsina", 2.0),
    TNormSpec("dubois_prade", 0.5),
    TNormSpec("mayor_torrence", 0.4),
]


def check_tnorm_axioms(spec: TNormSpec, samples: int, seed: int, tol: float = 1e-12):
    """Assert commutativity, monotonicity, identity, boundary and
    associativity on random samples."""
    rng = random.Random(seed)
    for _ in range(samples):
        x, y = rng.random(), rng.random()
        assert tnorm_eval(spec, x, y) == tnorm_eval(spec, y, x), spec
        assert abs(tnorm_eval(spec, x, 1.0) - x) <= tol, spec
        assert tnorm_eval(spec, x, 0.0) <= tol, spec
        x2 = min(1.0, x + rng.random() * (1.0 - x))
        assert tnorm_eval(spec, x, y) <= tnorm_eval(spec, x2, y) + tol, spec
    for _ in range(samples // 3 + 1):
        x, y, z = rng.random(), rng.random(), rng.random()
        left = tnorm_eval(spec, x, tnorm_eval(spec, y, z))
        right = tnorm_eval(spec, tnorm_eval(spec, x, y), z)
        assert abs(left - right) <= tol, (spec, x, y, z)


@functools.cache
def bench_module(name: str):
    """The benchmark's module ``bench/<name>.py``, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(path, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_workloads():
    """``bench/workloads.py``, which builds the benchmark's planted systems."""
    return bench_module("workloads")


def reference_cases():
    """The benchmark's seed-1 files, and 30 natural 16x16 systems, six in
    each of five families, as ``(name, problem)``."""
    workloads = bench_workloads()
    for workload in ("catalog-small", "dense-square", "tall-reduction"):
        for record in workloads.build(workload, 1):
            yield f"{workload}/{record['file']}", record["problem"]
    for kind in ("product", "frank", "dubois_prade", "lukasiewicz", "minimum"):
        for seed in range(6):
            problem, _ = workloads.natural_system(random.Random(f"nat16/{kind}/{seed}"), kind, 16, 16)
            yield f"natural-16x16/{kind}/{seed}", problem


def dense_square_problem(kind: str, stream: str) -> dict:
    """A planted problem of the benchmark's ``dense-square`` shape (610 boxes
    in each of its families), as the dict a problem file holds."""
    workloads = bench_workloads()
    shape = workloads.WORKLOADS["dense-square"]["shape"]
    problem, _ = workloads.planted_system(random.Random(stream), kind, shape)
    return problem


def in_box(box, x) -> bool:
    """Whether point x lies in the box: every coordinate in its factor.
    The box-membership reference of the tests."""
    return all(f.contains(x[j]) for j, f in enumerate(box.factors))


def region_of(analysis, boxes) -> RegionResult:
    """A region whose boxes are exactly ``boxes``, in their order, for
    dropping, adding and reordering boxes behind the oracle's back.

    Its search DAG takes column k at depth k, one chain of nodes per box,
    so the box of rank r is ``boxes[r]``.  It has no reduction, so its
    ``boxes`` read as empty; the oracle reads only the DAG."""
    n = analysis.n
    edges = []
    for box in boxes:
        child = DagNode((), 1)
        for k in reversed(range(1, n)):
            child = DagNode(((k, box.factors[k], child),), 1)
        edges.append((0, box.factors[0], child))
    dag = SearchDag(DagNode(tuple(edges), len(boxes)), tuple(analysis.col_bounds), tuple(range(n)), n)
    return RegionResult(FeasibilityVerdict("ok"), analysis, None, dag)


# -- command line --------------------------------------------------------------


class CliResult(NamedTuple):
    """What one ``bfre`` command printed, and its exit code."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Everything printed: stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(*args: str) -> CliResult:
    """Run ``bfre *args`` in-process, with stdout and stderr captured; every
    command ends in ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            main(list(args))
    return CliResult(exit_info.value.code, out.getvalue(), err.getvalue())
