"""Bilevel optimization toolkit built on the lower-level KKT reformulation.

The lower level is replaced by its KKT system in (x, y, mu, xi), giving a
single-level problem whose regularity, sensitivities, optimality conditions,
and augmented Lagrangian solves this package computes with exact derivatives
from a small symbolic expression core.
"""

from .alm import AlmConfig, AlmTrace, Stalled, alm_solve, rate_diagnostics
from .expr import CompiledFunction, DomainError, ParseError, compile_expr, parse
from .grid import GridResult, GridUnsupported, run_grid
from .lower import (
    ActiveSets,
    Inconsistent,
    JacobianUniquenessReport,
    active_sets,
    check_jacobian_uniqueness,
    kkt_residual,
    lower_lagrangian,
    solve_lower,
)
from .optimality import (
    NondifferentiablePoint,
    check_first_order_fp,
    check_mfcq_fp,
    check_second_order_fp,
    critical_cone_fp,
    fp_hessian,
    fp_lagrangian_grad,
    recover_multipliers,
    sp_hessian_fd,
    u_transform,
)
from .problem import (
    BilevelProblem,
    DimensionMismatch,
    FormatError,
    PrimalDualPoint,
    UnknownFixture,
    UpperMultiplier,
    fixture,
    format_problem,
    load_problem,
)
from .sensitivity import SensitivityResult, SingularK, implicit_jacobians
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ActiveSets",
    "AlmConfig",
    "AlmTrace",
    "BilevelProblem",
    "CheckResult",
    "CompiledFunction",
    "DimensionMismatch",
    "DomainError",
    "FormatError",
    "GridResult",
    "GridUnsupported",
    "Inconsistent",
    "JacobianUniquenessReport",
    "NondifferentiablePoint",
    "ParseError",
    "PrimalDualPoint",
    "SensitivityResult",
    "SingularK",
    "Stalled",
    "UnknownFixture",
    "UpperMultiplier",
    "active_sets",
    "alm_solve",
    "check_first_order_fp",
    "check_jacobian_uniqueness",
    "check_mfcq_fp",
    "check_second_order_fp",
    "compile_expr",
    "critical_cone_fp",
    "fixture",
    "format_problem",
    "fp_hessian",
    "fp_lagrangian_grad",
    "implicit_jacobians",
    "kkt_residual",
    "load_problem",
    "lower_lagrangian",
    "parse",
    "rate_diagnostics",
    "recover_multipliers",
    "run_all",
    "run_grid",
    "solve_lower",
    "sp_hessian_fd",
    "u_transform",
]
