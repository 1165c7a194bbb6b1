"""The exhaustive corner scan that the optimum search must reproduce.

``reference_optimum`` is the tests' reference.  Run as a script, the module
checks ``global_optimum`` against the scan on problem files, reduced and
unreduced, and needs nothing outside the standard library and ``bfre``:

    python3 bench/workloads.py --workload dense-square --seed 1 --out DIR
    python3 tests/corner_scan.py DIR/[0-9]*.json

It exits 1 on the first file whose search differs from the scan, or when
no file has a feasible region and an objective.
"""

from __future__ import annotations

import sys

from bfre import feasible_region, global_optimum
from bfre.cli import parse_problem


def reference_optimum(boxes, objective):
    """The exhaustive scan the optimum search must reproduce bit for bit.

    Every box's corner (factor minimum on non-decreasing coordinates,
    factor maximum on non-increasing ones) and its value, in box order, and
    the first corner whose value is strictly below every earlier one's, so
    ties go to the box that comes first: with the region's boxes, the
    lexicographically smallest witness columns.  Returns (best, corners),
    each corner a ``(value, point, columns)``.
    """
    corners = []
    best = None
    for box in boxes:
        point = tuple(
            f.pieces[0][0] if j in objective.j_plus else f.pieces[-1][1]
            for j, f in enumerate(box.factors)
        )
        corner = (objective(point), point, box.columns)
        corners.append(corner)
        if best is None or corner[0] < best[0]:
            best = corner
    return best, corners


def main(paths: list[str]) -> int:
    checked = 0
    for path in paths:
        system, objective = parse_problem(path)
        if objective is None:
            continue
        for simplify in (True, False):
            region = feasible_region(system, simplify=simplify)
            if not region.is_feasible:
                continue
            best, _ = global_optimum(region.analysis, region.reduction, objective, dag=region.dag)
            reference, _ = reference_optimum(region.boxes, objective)
            if (best.value, best.point, best.columns) != reference:
                print(f"{path} (simplify={simplify}): search {best}, scan {reference}")
                return 1
            checked += 1
    print(f"{checked} regions of {len(paths)} files: the search's best is the scan's")
    return 0 if checked else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
