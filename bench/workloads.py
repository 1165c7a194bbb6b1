"""Seeded problem files for the benchmark workloads.

    python3 bench/workloads.py --workload dense-square --seed 7 --out DIR

writes every problem file of a workload, plus ``manifest.json`` with each
problem's witness point and origin, from the seed alone.  The benchmark
runner calls ``write_workload`` with the same arguments, so a figure can be
re-checked on any seed.

Seeded systems are *planted*: the generator fixes which cells can witness an
equation and where, so that every seed yields the same reduced shape and the
same number of boxes, and only the values change.  Random systems built
around a witness have a heavy-tailed box count (36 to 19,131 boxes over
twelve 20x20 ``product`` draws), which would make a pass time depend on the
seed more than on the code.  Every cell of a planted system is one of

* tight:    ``b_i = T(a, x0_j)`` with ``a`` clearly above ``b_i``, so the cell
            hits ``b_i`` exactly at the witness;
* binding:  ``a > b_i`` and ``T(a, y) < b_i`` at the witness, so the cell hits
            ``b_i`` at one point beyond ``x0_j`` (positive side) or before it
            (negative side) and sets that column's bound there;
* inactive: ``a < b_i``, so the cell never reaches ``b_i``.

Rows come in two kinds.  A core row is tight in its own primary column and
binds in free columns; the core rows survive reduction and their choices
(minus the pairs that use both ends of one free column) are the boxes.  A
shadow row is tight in a shared pin column, so rule 3 deletes the duplicates
of each pin group and rule 4 then fixes the pin column.  Some shadow rows
also bind on a second pin column, which rule 3 deletes as a superset.

The known-fault corpus is the exception: it is drawn the plain way (uniform
coefficients, ``b = T(a, x0)``) from fixed streams that do not depend on the
seed, and some of its systems fail the same way on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check import tnorm  # noqa: E402

#: Parameter used for each family wherever the benchmark draws it.
FAMILY_PARAMS = {
    "minimum": None,
    "product": None,
    "einstein_product": None,
    "lukasiewicz": None,
    "frank": 2.0,
    "yager": 2.0,
    "hamacher": 0.5,
    "dombi": 2.0,
    "schweizer_sklar": -0.5,
    "sugeno_weber": 1.0,
    "aczel_alsina": 2.0,
    "dubois_prade": 0.5,
    "mayor_torrence": 0.4,
}

#: The published 7x9 Dubois-Prade (gamma = 0.5) worked example.
REFERENCE = {
    "a_plus": [
        [0.54, 0.48, 0.80, 0.63, 0.70, 0.35, 0.56, 0.29, 0.69],
        [0.20, 0.06, 0.01, 0.03, 0.00, 0.04, 0.50, 0.00, 0.09],
        [0.72, 0.23, 0.75, 0.44, 0.38, 0.61, 0.51, 0.80, 0.67],
        [0.83, 1.00, 0.30, 0.90, 0.89, 0.79, 0.62, 0.41, 0.86],
        [0.13, 0.10, 0.00, 0.15, 0.11, 0.04, 0.00, 0.07, 0.19],
        [0.28, 0.43, 0.35, 0.28, 0.40, 0.22, 0.18, 0.50, 0.00],
        [0.33, 0.60, 0.54, 0.58, 0.14, 0.80, 0.49, 0.26, 0.39],
    ],
    "a_minus": [
        [0.65, 0.51, 0.70, 0.26, 0.90, 0.46, 0.68, 0.16, 0.29],
        [0.10, 0.20, 0.00, 0.06, 0.03, 0.00, 0.05, 0.00, 0.00],
        [0.13, 0.63, 0.74, 0.25, 0.66, 0.73, 0.39, 0.80, 0.90],
        [0.81, 0.80, 0.92, 0.90, 0.78, 0.88, 0.95, 0.57, 0.18],
        [0.17, 0.25, 0.09, 0.18, 0.40, 0.00, 0.19, 0.08, 0.00],
        [0.00, 0.29, 0.33, 0.47, 0.27, 0.34, 0.15, 0.04, 0.50],
        [0.27, 0.40, 0.41, 0.04, 0.38, 0.80, 0.11, 0.23, 0.55],
    ],
    "b": [0.7, 0.1, 0.8, 0.9, 0.2, 0.5, 0.6],
    "c": [2.0, 1.0, -1.0, -5.0, 1.0, 3.0, -1.0, 4.0, -1.0],
    "optimum_point": [0.0, 0.75, 0.7, 1.0, 0.75, 0.4, 0.1, 0.0, 0.5],
    "optimum_value": -3.6,
}


class Shape:
    """Planted layout: core rows, and primary, free and pin columns."""

    def __init__(self, m: int, core: int, free: int, pins: int, extra: int) -> None:
        self.m, self.core, self.free, self.pins, self.extra = m, core, free, pins, extra
        self.n = core + free + pins

    def free_rows(self, t: int) -> tuple[int, int]:
        """Core rows (positive side, negative side) that bind free column t."""
        r = self.core
        return t % r, (t + 1 + t // r) % r


#: Per-workload settings.  ``verify`` flags are fixed so that a pass does
#: the same grid work on every run.
WORKLOADS = {
    "catalog-small": {
        "commands": ("feasible", "solve", "verify"),
        "verify_args": ("--step", "0.25", "--cap", "100", "--seed", "0"),
        "shape": Shape(m=8, core=3, free=3, pins=2, extra=1),
        "families": tuple(FAMILY_PARAMS),
        "per_family": 8,
        "faults": (("dubois_prade", 8, 8, 24),),
    },
    "dense-square": {
        "commands": ("feasible", "solve", "verify"),
        "verify_args": ("--step", "0.25", "--cap", "40", "--seed", "0"),
        "shape": Shape(m=20, core=6, free=7, pins=7, extra=0),
        "families": ("product", "frank", "dubois_prade"),
        "per_family": 3,
        "faults": (("dubois_prade", 20, 20, 2),),
    },
    "tall-reduction": {
        "commands": ("feasible", "solve", "verify"),
        "verify_args": ("--step", "0.25", "--cap", "40", "--seed", "0"),
        "shape": Shape(m=56, core=4, free=6, pins=5, extra=5),
        "families": ("product",),
        "per_family": 6,
        "faults": (),
    },
}

#: One tiny problem per workload, for a run that takes seconds.
SMOKE_SHAPES = {
    "dense-square": Shape(m=6, core=3, free=2, pins=1, extra=0),
    "tall-reduction": Shape(m=16, core=2, free=2, pins=3, extra=2),
}

#: Stream of the known-fault corpus; it never depends on --seed.
FAULT_STREAM = 20241122

#: A cell value drawn this close to b_i would sit on a plateau.
MARGIN = 1e-3


class _Cells:
    """Mutable coefficient matrices of one system under construction."""

    def __init__(self, rng: random.Random, kind: str, m: int, n: int) -> None:
        self.rng, self.kind, self.param = rng, kind, FAMILY_PARAMS[kind]
        self.a_plus = [[None] * n for _ in range(m)]
        self.a_minus = [[None] * n for _ in range(m)]
        self.b = [None] * m

    def t(self, a: float, x: float) -> float:
        return tnorm(self.kind, self.param, a, x)

    def tight(self, i: int, x: float) -> float | None:
        """A coefficient a whose cell hits b_i := T(a, x) at x, or None."""
        for _ in range(50):
            a = self.rng.uniform(0.75, 1.0)
            b = self.t(a, x)
            if 0.05 <= b <= a * (1.0 - MARGIN):
                self.b[i] = b
                return a
        return None

    def binding(self, b: float, y: float) -> float | None:
        """A coefficient a clearly above b with T(a, y) clearly below b, or None."""
        limit = b * (1.0 - MARGIN)
        base = b * (1.0 + MARGIN) + MARGIN
        if base >= 1.0 or self.t(base, y) > limit:
            return None
        top = 1.0
        if self.t(top, y) > limit:  # bisect for the largest admissible a
            lo, hi = base, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if self.t(mid, y) <= limit:
                    lo = mid
                else:
                    hi = mid
            top = lo
        return base + (top - base) * self.rng.uniform(0.2, 0.9)


def _unit(rng, lo=0.55, hi=0.72):
    return rng.uniform(lo, hi)


def planted_system(rng: random.Random, kind: str, shape: Shape):
    """One planted system and its witness (see the module docstring)."""
    m, n = shape.m, shape.n
    cols = list(range(n))
    rng.shuffle(cols)
    primary = cols[: shape.core]
    free = cols[shape.core : shape.core + shape.free]
    pins = cols[shape.core + shape.free :]
    rows = list(range(m))
    rng.shuffle(rows)
    core, shadows = rows[: shape.core], rows[shape.core :]
    cells = _Cells(rng, kind, m, n)
    x0 = [_unit(rng) for _ in range(n)]

    def make_tight(i, j):
        for _ in range(200):
            a = cells.tight(i, x0[j])
            if a is not None:
                cells.a_plus[i][j] = a
                return
            x0[j] = _unit(rng, 0.05, 0.95)
        raise RuntimeError(f"{kind}: no tight cell at column {j}")

    for k, i in enumerate(core):
        make_tight(i, primary[k])
    for s, i in enumerate(shadows):
        j = pins[s % len(pins)]
        if s < len(pins):  # first member of a pin group fixes x0 there
            make_tight(i, j)
        else:
            a = cells.tight(i, x0[j])
            if a is None:
                raise RuntimeError(f"{kind}: pin column {j} cannot be shared")
            cells.a_plus[i][j] = a

    for t, j in enumerate(free):
        p, q = shape.free_rows(t)
        pairs = [(core[p], +1), (core[q], -1)]
        for _ in range(400):
            x0[j] = _unit(rng, 0.05, 0.95)
            got = [cells.binding(cells.b[i], x0[j] if s > 0 else 1.0 - x0[j]) for i, s in pairs]
            if None not in got:
                for (i, s), a in zip(pairs, got):
                    (cells.a_plus if s > 0 else cells.a_minus)[i][j] = a
                break
        else:
            raise RuntimeError(f"{kind}: no binding cells at free column {j}")
    # shadow rows whose negative side also binds the next pin column
    for s in range(min(shape.extra, len(shadows) - len(pins))):
        i = shadows[len(pins) + s]
        j = pins[(s + 1) % len(pins)]
        a = cells.binding(cells.b[i], 1.0 - x0[j])
        if a is not None:
            cells.a_minus[i][j] = a
    for i in range(m):
        for j in range(n):
            for mat in (cells.a_plus, cells.a_minus):
                if mat[i][j] is None:
                    mat[i][j] = rng.uniform(0.0, 0.9) * cells.b[i]
    return _problem(cells.a_plus, cells.a_minus, cells.b, kind, rng), x0


def natural_system(rng: random.Random, kind: str, m: int, n: int):
    """A plain random system built around a float witness."""
    param = FAMILY_PARAMS[kind]
    a_plus = [[rng.random() for _ in range(n)] for _ in range(m)]
    a_minus = [[rng.random() for _ in range(n)] for _ in range(m)]
    x0 = [rng.random() for _ in range(n)]
    b = [
        max(
            max(tnorm(kind, param, a_plus[i][j], x0[j]), tnorm(kind, param, a_minus[i][j], 1.0 - x0[j]))
            for j in range(n)
        )
        for i in range(m)
    ]
    return _problem(a_plus, a_minus, b, kind, rng), x0


def _problem(a_plus, a_minus, b, kind, rng) -> dict:
    n = len(a_plus[0])
    tn = {"name": kind}
    if FAMILY_PARAMS[kind] is not None:
        tn["param"] = FAMILY_PARAMS[kind]
    return {
        "m": len(a_plus),
        "n": n,
        "a_plus": a_plus,
        "a_minus": a_minus,
        "b": b,
        "tnorm": tn,
        "objective": {"name": "linear", "params": {"c": [rng.uniform(-5.0, 5.0) for _ in range(n)]}},
    }


def reference_record() -> dict:
    r = REFERENCE
    problem = {
        "m": 7,
        "n": 9,
        "a_plus": r["a_plus"],
        "a_minus": r["a_minus"],
        "b": r["b"],
        "tnorm": {"name": "dubois_prade", "param": 0.5},
        "objective": {"name": "linear", "params": {"c": r["c"]}},
    }
    return {
        "name": "reference-7x9",
        "origin": "reference",
        "problem": problem,
        "witness": r["optimum_point"],
        "optimum": {"point": r["optimum_point"], "value": r["optimum_value"]},
    }


def build(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Problem records of a workload, in pass order."""
    spec = WORKLOADS[workload]
    records = []
    if smoke:
        if workload == "catalog-small":
            records.append(reference_record())
        else:
            rng = random.Random(seed)
            problem, x0 = planted_system(rng, spec["families"][0], SMOKE_SHAPES[workload])
            records.append({"name": "smoke", "origin": "seeded", "problem": problem, "witness": x0})
    else:
        if workload == "catalog-small":
            records.append(reference_record())
        rng = random.Random(f"{workload}/{seed}")
        for k in range(spec["per_family"]):
            for kind in spec["families"]:
                problem, x0 = planted_system(rng, kind, spec["shape"])
                records.append(
                    {"name": f"{kind}-{k}", "origin": "seeded", "problem": problem, "witness": x0}
                )
        for kind, m, n, count in spec["faults"]:
            frng = random.Random(f"{FAULT_STREAM}/{kind}/{m}x{n}")
            for k in range(count):
                problem, x0 = natural_system(frng, kind, m, n)
                records.append(
                    {"name": f"fault-{kind}-{k}", "origin": "fault", "problem": problem, "witness": x0}
                )
    for index, record in enumerate(records):
        record["index"] = index
        record["file"] = f"{index:03d}-{record['name']}.json"
    return records


def write_workload(workload: str, seed: int, out: str, smoke: bool = False) -> list[dict]:
    """Write the problem files and manifest; return the records."""
    records = build(workload, seed, smoke)
    os.makedirs(out, exist_ok=True)
    for record in records:
        record["path"] = os.path.join(out, record["file"])
        with open(record["path"], "w", encoding="utf-8") as fh:
            json.dump(record["problem"], fh)
    manifest = [{k: v for k, v in r.items() if k not in ("problem", "path")} for r in records]
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "problems": manifest}, fh, indent=1)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="one tiny problem")
    args = parser.parse_args(argv)
    records = write_workload(args.workload, args.seed, args.out, args.smoke)
    print(f"wrote {len(records)} problem files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
