"""Implicit differentiation of the lower-level KKT map x -> (y(x), mu(x), xi(x)).

At a KKT point with strict complementarity, the semismooth system is smooth
in a neighborhood and its y/mu/xi-block Jacobian K is nonsingular under the
usual regularity; the solution-map Jacobians solve K * J = -B where B stacks
the x-derivatives of the same residual rows.  Both come from the builders in
`lower`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lower import ActiveSets, _assemble_b, _assemble_k, active_sets, kkt_residual, point_eval
from .numerics import Singular, lu_factor
from .problem import BilevelProblem

# KKT residual max-norm above which implicit_jacobians raises NotKkt.
NOT_KKT_TOL = 1e-7


class StrictComplementarityViolated(ValueError):
    """Biactive indices present; the projection is not differentiable there."""


class SingularK(ArithmeticError):
    """K could not be factored; the regularity bundle fails at this point."""


class NotKkt(ValueError):
    """Sensitivities were requested at a point that is not KKT within tolerance."""


@dataclass(frozen=True)
class SensitivityResult:
    """Assembled system and solution-map Jacobians at one point.

    W is the diagonal 0/1 projection Jacobian; Jy, Jmu, Jxi are the
    x-derivatives of the implicit primal and dual solutions; cond_estimate is
    the 2-norm condition number of K (diagnostic only).
    """

    K: np.ndarray
    W: np.ndarray
    Jy: np.ndarray
    Jmu: np.ndarray
    Jxi: np.ndarray
    cond_estimate: float


def build_w(active: ActiveSets) -> np.ndarray:
    """Diagonal of the projection Jacobian: 0 on alpha, 1 on gamma; beta forbidden."""
    if active.beta:
        raise StrictComplementarityViolated(
            f"biactive indices {list(active.beta)}; resolve degeneracy first"
        )
    w = np.zeros(len(active.alpha) + len(active.gamma))
    w[list(active.gamma)] = 1.0
    return w


def implicit_jacobians(problem: BilevelProblem, x, y, mu, xi) -> SensitivityResult:
    """Solve K * (Jy; Jmu; Jxi) = -B, B = (hess_yx L; Jx h; (I-W) Jx g), at a KKT point.

    Raises NotKkt if the residual exceeds NOT_KKT_TOL, StrictComplementarityViolated
    on biactive indices, and SingularK if the factorization fails.
    """
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    res = kkt_residual(problem, x, y, mu, xi)
    if res.size and np.linalg.norm(res, np.inf) > NOT_KKT_TOL:
        raise NotKkt(f"KKT residual {np.linalg.norm(res, np.inf):.3e} exceeds {NOT_KKT_TOL}")

    w = build_w(active_sets(problem, x, y, xi))
    rec = point_eval(problem, x, y)
    k = _assemble_k(rec, mu, xi, w)
    rhs = _assemble_b(rec, mu, xi, w)

    try:
        fac = lu_factor(k)
    except Singular as exc:
        raise SingularK(str(exc)) from exc
    stacked = fac.solve(-rhs)

    return SensitivityResult(
        K=k,
        W=np.diag(w),
        Jy=stacked[:m].reshape(m, n),
        Jmu=stacked[m:m + r].reshape(r, n),
        Jxi=stacked[m + r:].reshape(s, n),
        cond_estimate=float(fac.cond_estimate),
    )
