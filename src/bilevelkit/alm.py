"""Classical augmented Lagrangian method on the KKT-reformulated problem.

Outer loop: measure the natural residual sigma, solve the penalized
subproblem to an inner tolerance that shrinks faster than sigma, apply the
safeguarded multiplier update, and grow the penalty geometrically.  The inner
solver is a dense BFGS with Armijo backtracking; the complementarity kink is
handled by nudging the offending xi component and retrying.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lower import point_eval
from .optimality import (
    NondifferentiablePoint,
    _fp_u_grad,
    check_first_order_fp,
    fp_constraint_jacobian,
    fp_constraints,
)
from .problem import (
    BilevelProblem,
    PrimalDualPoint,
    UpperMultiplier,
    flatten,
    flatten_multiplier,
    unflatten,
    unflatten_multiplier,
)


class Stalled(RuntimeError):
    """No sigma progress over 10 consecutive accepted outer iterations."""

    def __init__(self, trace):
        super().__init__("outer loop stalled")
        self.trace = trace


class ReferenceTooClose(ValueError):
    """Every trace point already coincides with the reference solution."""


# Armijo line search of the inner solve: sufficient-decrease constant, step
# shrink factor and the number of shrinks before the search gives up.
LS_C = 1e-4
LS_SHRINK = 0.5
LS_MAX_BACKTRACKS = 60
# Inner tolerance of an outer round: PSI_COEFF * sigma^1.5, at least EPS_FLOOR.
PSI_COEFF = 0.1
EPS_FLOOR = 1e-12
# Evaluations nudging xi off an exact kink before the last, unguarded one.
KINK_RETRIES = 5


@dataclass(frozen=True)
class InnerConfig:
    max_iter: int = 500


@dataclass(frozen=True)
class AlmConfig:
    """Outer-loop knobs; inner tolerance is PSI_COEFF * sigma^1.5 (floored)."""

    rho0: float = 10.0
    rho_growth: float = 10.0
    rho_max: float = 1e8
    c_hat: float = 1e3
    outer_tol: float = 1e-8
    max_outer: int = 50
    inner: InnerConfig = field(default_factory=InnerConfig)

    def __post_init__(self):
        if min(self.rho0, self.c_hat, self.outer_tol) <= 0:
            raise ValueError("rho0, c_hat, outer_tol must be positive")
        if self.rho_growth < 1.0:
            raise ValueError("rho_growth must be at least 1")


@dataclass(frozen=True)
class AlmIteration:
    """State at the start of outer round k plus what the round did."""

    k: int
    u: np.ndarray
    lam: np.ndarray
    rho: float
    sigma: float
    eps: float
    inner_iterations: int
    accepted: bool


@dataclass(frozen=True)
class AlmTrace:
    """Full outer history plus the accepted-state path for rate analysis."""

    iterations: tuple
    accepted_us: tuple
    accepted_lams: tuple
    status: str
    u_final: PrimalDualPoint
    lam_final: UpperMultiplier
    sigma_final: float
    rho_final: float


@dataclass(frozen=True)
class InnerResult:
    u: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def project_polar(lam: UpperMultiplier) -> UpperMultiplier:
    """Clip the inequality block to >= 0; all other blocks are free."""
    return replace(lam, lam_G=np.maximum(lam.lam_G, 0.0))


def aug_lagrangian(problem: BilevelProblem, u: PrimalDualPoint, lam: UpperMultiplier, rho: float):
    """Value and u-gradient of the penalized Lagrangian.

    Equality-type blocks c contribute lam.c + (rho/2)|c|^2; the upper
    inequality block contributes (|max(0, lam_G + rho G)|^2 - |lam_G|^2)/(2 rho).
    The gradient is the reformulated Lagrangian's at the multiplier estimate
    proj_polar(lam + rho Gtilde(u)).  Raises NondifferentiablePoint only when
    some g_i + xi_i is exactly zero.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    eq_jac, g_jac = fp_constraint_jacobian(problem, u, kink_tol=0.0)
    cons = fp_constraints(problem, u)
    c_eq = np.concatenate([cons.H, cons.gradL, cons.h, cons.comp])
    lam_eq = np.concatenate([lam.lam_H, lam.lam_L, lam.lam_h, lam.lam_g])

    rec = point_eval(problem, u.x, u.y)
    value = rec.value(problem.F)
    value += float(lam_eq @ c_eq) + 0.5 * rho * float(c_eq @ c_eq)
    shifted = np.maximum(lam.lam_G + rho * cons.G, 0.0)
    value += (float(shifted @ shifted) - float(lam.lam_G @ lam.lam_G)) / (2.0 * rho)

    return float(value), _fp_u_grad(rec, eq_jac, g_jac, lam_eq + rho * c_eq, shifted)


def _eval_with_kink_retry(problem, u_flat, lam, rho):
    """Evaluate the penalized Lagrangian, nudging xi off exact kinks.

    Returns (value, grad, u_actual); the caller adopts u_actual so the nudge
    persists across the line search.
    """
    n, m, r = problem.n, problem.m, problem.r
    u_try = u_flat
    for _ in range(KINK_RETRIES):
        try:
            value, grad = aug_lagrangian(problem, unflatten(problem, u_try), lam, rho)
            return value, grad, u_try
        except NondifferentiablePoint as kink:
            u_try = u_try.copy()
            for idx in kink.indices:
                u_try[n + m + r + idx] += 1e-12
    value, grad = aug_lagrangian(problem, unflatten(problem, u_try), lam, rho)
    return value, grad, u_try


def inner_minimize(
    problem: BilevelProblem,
    u0,
    lam: UpperMultiplier,
    rho: float,
    eps: float,
    config: InnerConfig | None = None,
) -> InnerResult:
    """BFGS with Armijo backtracking until the gradient norm drops to eps.

    The inverse-Hessian estimate restarts at identity whenever the curvature
    condition fails or the line search cannot make progress; hitting the
    iteration cap returns the best iterate with converged=False.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cfg = config or InnerConfig()
    u = np.asarray(u0, dtype=float).copy()
    value, grad, u = _eval_with_kink_retry(problem, u, lam, rho)
    dim = u.shape[0]
    h_inv = np.eye(dim)

    best_u, best_norm = u, float(np.linalg.norm(grad))
    for iteration in range(cfg.max_iter):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < best_norm:
            best_u, best_norm = u, grad_norm
        if grad_norm <= eps:
            return InnerResult(u=u, grad_norm=grad_norm, iterations=iteration, converged=True)

        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            h_inv = np.eye(dim)
            direction = -grad
            slope = -float(grad @ grad)

        t = 1.0
        accepted = False
        for _ in range(LS_MAX_BACKTRACKS):
            trial = u + t * direction
            try:
                t_value, t_grad, trial = _eval_with_kink_retry(problem, trial, lam, rho)
            except ArithmeticError:
                t *= LS_SHRINK
                continue
            if t_value <= value + LS_C * t * slope:
                accepted = True
                break
            t *= LS_SHRINK
        if not accepted:
            if np.array_equal(h_inv, np.eye(dim)):
                break  # steepest descent cannot progress; numerical floor
            h_inv = np.eye(dim)
            continue

        s_vec = trial - u
        y_vec = t_grad - grad
        u, value, grad = trial, t_value, t_grad
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            rho_hat = 1.0 / sy
            outer = np.outer(s_vec, y_vec)
            h_inv = (
                (np.eye(dim) - rho_hat * outer) @ h_inv @ (np.eye(dim) - rho_hat * outer.T)
                + rho_hat * np.outer(s_vec, s_vec)
            )
        else:
            h_inv = np.eye(dim)

    grad_norm = float(np.linalg.norm(grad))
    if grad_norm < best_norm:
        best_u, best_norm = u, grad_norm
    return InnerResult(
        u=best_u, grad_norm=best_norm, iterations=cfg.max_iter, converged=best_norm <= eps
    )


def _multiplier_update(problem, lam_flat, rho, cons) -> np.ndarray:
    """lam_new = proj_polar(lam + rho * Gtilde(u)) in flat block order."""
    lam = unflatten_multiplier(problem, lam_flat)
    return np.concatenate(
        [
            lam.lam_H + rho * cons.H,
            np.maximum(lam.lam_G + rho * cons.G, 0.0),
            lam.lam_L + rho * cons.gradL,
            lam.lam_h + rho * cons.h,
            lam.lam_g + rho * cons.comp,
        ]
    )


def alm_solve(
    problem: BilevelProblem,
    u0: PrimalDualPoint,
    lam0: UpperMultiplier,
    config: AlmConfig | None = None,
) -> AlmTrace:
    """Run the safeguarded outer loop until sigma <= outer_tol.

    A step whose combined (u, lam) movement exceeds c_hat * sigma is rejected:
    the penalty grows and the inner solve reruns from the same point without a
    multiplier update (once rho is capped the step is accepted as-is).  Raises
    Stalled when 10 consecutive accepted rounds fail to reduce the best sigma.
    """
    cfg = config or AlmConfig()
    lam_flat = flatten_multiplier(project_polar(lam0))
    u_flat = flatten(u0)
    rho = cfg.rho0

    records = []
    accepted_us = [u_flat.copy()]
    accepted_lams = [lam_flat.copy()]
    status = "max_outer"
    sigma = float("nan")
    best_sigma = float("inf")
    no_progress = 0

    k = 0
    while k < cfg.max_outer:
        u_pt = unflatten(problem, u_flat)
        lam_blocks = unflatten_multiplier(problem, lam_flat)
        sigma = check_first_order_fp(problem, u_pt, lam_blocks).sigma
        if sigma <= cfg.outer_tol:
            records.append(
                AlmIteration(k, u_flat.copy(), lam_flat.copy(), rho, sigma, 0.0, 0, True)
            )
            status = "converged"
            break

        eps = max(PSI_COEFF * sigma ** 1.5, EPS_FLOOR)
        inner = inner_minimize(problem, u_flat, lam_blocks, rho, eps, cfg.inner)
        cons_new = fp_constraints(problem, unflatten(problem, inner.u))
        lam_new = _multiplier_update(problem, lam_flat, rho, cons_new)
        step = float(
            np.linalg.norm(np.concatenate([inner.u - u_flat, lam_new - lam_flat]))
        )

        if step > cfg.c_hat * sigma and rho < cfg.rho_max:
            records.append(
                AlmIteration(
                    k, u_flat.copy(), lam_flat.copy(), rho, sigma, eps,
                    inner.iterations, False,
                )
            )
            rho = min(rho * cfg.rho_growth, cfg.rho_max)
            k += 1
            continue

        records.append(
            AlmIteration(
                k, u_flat.copy(), lam_flat.copy(), rho, sigma, eps, inner.iterations, True
            )
        )
        u_flat = inner.u.copy()
        lam_flat = lam_new
        accepted_us.append(u_flat.copy())
        accepted_lams.append(lam_flat.copy())
        rho = min(rho * cfg.rho_growth, cfg.rho_max)

        if sigma < best_sigma - 1e-16:
            best_sigma = sigma
            no_progress = 0
        else:
            no_progress += 1

        k += 1

        if no_progress >= 10:
            trace = _build_trace(
                problem, records, accepted_us, accepted_lams, "stalled",
                u_flat, lam_flat, sigma, rho,
            )
            raise Stalled(trace)

    if status != "converged":
        u_pt = unflatten(problem, u_flat)
        lam_blocks = unflatten_multiplier(problem, lam_flat)
        sigma = check_first_order_fp(problem, u_pt, lam_blocks).sigma
        if sigma <= cfg.outer_tol:
            status = "converged"

    return _build_trace(
        problem, records, accepted_us, accepted_lams, status, u_flat, lam_flat, sigma, rho
    )


def _build_trace(problem, records, accepted_us, accepted_lams, status, u_flat, lam_flat, sigma, rho):
    return AlmTrace(
        iterations=tuple(records),
        accepted_us=tuple(accepted_us),
        accepted_lams=tuple(accepted_lams),
        status=status,
        u_final=unflatten(problem, u_flat),
        lam_final=unflatten_multiplier(problem, lam_flat),
        sigma_final=float(sigma),
        rho_final=float(rho),
    )


def rate_diagnostics(trace: AlmTrace, u_ref, lam_ref) -> np.ndarray:
    """Error quotients q_j along the accepted path against a reference solution.

    q_j = e_{j+1}/e_j with e_j the joint (u, lam) distance to the reference;
    quotients with denominator <= 1e-12 are dropped.  Raises ReferenceTooClose
    when no denominator survives and ValueError on a non-converged trace.
    """
    if trace.status != "converged":
        raise ValueError(f"trace status is {trace.status!r}, need a converged trace")
    u_ref = flatten(u_ref) if isinstance(u_ref, PrimalDualPoint) else np.asarray(u_ref, float)
    if isinstance(lam_ref, UpperMultiplier):
        lam_ref = flatten_multiplier(lam_ref)
    else:
        lam_ref = np.asarray(lam_ref, dtype=float)
    ref = np.concatenate([u_ref, lam_ref])
    errors = [
        float(np.linalg.norm(np.concatenate([u, lam]) - ref))
        for u, lam in zip(trace.accepted_us, trace.accepted_lams)
    ]
    quotients = [
        errors[j + 1] / errors[j] for j in range(len(errors) - 1) if errors[j] > 1e-12
    ]
    if not quotients:
        raise ReferenceTooClose("all accepted iterates coincide with the reference")
    return np.array(quotients)
