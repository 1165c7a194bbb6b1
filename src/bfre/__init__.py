"""Solver for systems of bipolar fuzzy relational equations.

Systems of the form  A+ phi x  OR  A- phi (1 - x)  =  b  under an arbitrary
continuous t-norm phi: the feasible region is resolved exactly as a finite
union of boxes, and coordinate-monotone objectives are minimized globally
over it by a branch-and-bound search over the witness assignments, which
compares closed-form box corners and prunes by the corner of a partial box.
"""

from .intervals import IntervalUnion, tolerance
from .optimize import (
    Candidate,
    InfeasibleError,
    MonotoneObjective,
    check_monotone,
    global_optimum,
    objective_catalog,
)
from .oracle import breakpoint_grid, brute_force_min, grid_membership_check
from .resolution import (
    FeasibleBox,
    RegionResult,
    ResourceLimitError,
    count_bound,
    enumerate_admissible,
    feasible_region,
)
from .simplify import ReductionState, RuleEvent, simplify_to_fixpoint
from .system import (
    BipolarSystem,
    CellAnalysis,
    FeasibilityVerdict,
    is_feasible_point,
    necessary_feasibility,
    residual,
)
from .tnorms import (
    TNORM_KINDS,
    ScalarEqSolution,
    TNormSpec,
    solve_scalar_eq,
    solve_scalar_eq_numeric,
    tnorm_eval,
)

__version__ = "0.1.0"

__all__ = [
    "BipolarSystem",
    "Candidate",
    "CellAnalysis",
    "FeasibilityVerdict",
    "FeasibleBox",
    "InfeasibleError",
    "IntervalUnion",
    "MonotoneObjective",
    "RegionResult",
    "ReductionState",
    "ResourceLimitError",
    "RuleEvent",
    "ScalarEqSolution",
    "TNORM_KINDS",
    "TNormSpec",
    "breakpoint_grid",
    "brute_force_min",
    "check_monotone",
    "count_bound",
    "enumerate_admissible",
    "feasible_region",
    "global_optimum",
    "grid_membership_check",
    "is_feasible_point",
    "necessary_feasibility",
    "objective_catalog",
    "residual",
    "simplify_to_fixpoint",
    "solve_scalar_eq",
    "solve_scalar_eq_numeric",
    "tnorm_eval",
    "tolerance",
]
