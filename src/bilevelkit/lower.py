"""Lower-level machinery: Lagrangian, KKT residual, active sets, regularity report, solver.

The lower problem at fixed x is min_y f(x,y) s.t. h(x,y)=0, g(x,y)<=0 with
Lagrangian L = f + mu^T h + xi^T g.  The KKT system is written as the
semismooth residual (grad_y L; h; g - min(g+xi, 0)), which vanishes exactly at
KKT points with correct multiplier signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Singular, lu_factor, min_eig_sym, nullspace_basis
from .problem import BilevelProblem

DEFAULT_TAU_ACT = 1e-7


class Inconsistent(ValueError):
    """A point violates lower-level feasibility beyond the classification tolerance."""


class SingularJacobian(ArithmeticError):
    """The semismooth Newton matrix could not be factored."""


@dataclass(frozen=True)
class ActiveSets:
    """Disjoint classification of inequality indices (0-based positions into g).

    alpha: active with positive multiplier; beta: biactive (g and xi both
    near zero, the degenerate case); gamma: inactive.
    """

    alpha: tuple
    beta: tuple
    gamma: tuple


@dataclass(frozen=True)
class CheckTolerances:
    """Thresholds for the regularity report.

    kkt: max-norm bound on the KKT residual; tau_act: active-set
    classification width; licq_rel: relative smallest-singular-value cutoff;
    sosc: reduced-Hessian minimum-eigenvalue cutoff.
    """

    kkt: float = 1e-9
    tau_act: float = DEFAULT_TAU_ACT
    licq_rel: float = 1e-8
    sosc: float = 1e-8


@dataclass(frozen=True)
class JacobianUniquenessReport:
    """Four regularity verdicts with the numeric evidence behind each.

    The overall property holds iff all four verdicts do.  When biactive
    indices exist the curvature test is not certified: sosc_ok is False and
    reduced_hessian_min_eig is nan, since the active-set null space is then
    only a guess at the true critical cone.
    """

    kkt_ok: bool
    licq_ok: bool
    strict_comp_ok: bool
    sosc_ok: bool
    kkt_residual_norm: float
    min_singular_active: float
    strict_comp_margin: float
    reduced_hessian_min_eig: float

    @property
    def all_ok(self) -> bool:
        return self.kkt_ok and self.licq_ok and self.strict_comp_ok and self.sosc_ok


def _eval_stack(funcs, x, y) -> np.ndarray:
    return np.array([fn.value(x, y) for fn in funcs])


def _grad_y_stack(funcs, x, y, m) -> np.ndarray:
    """Row-stacked y-gradients, shape (len(funcs), m)."""
    if not funcs:
        return np.zeros((0, m))
    return np.vstack([fn.grad_y(x, y) for fn in funcs])


def _grad_x_stack(funcs, x, y, n) -> np.ndarray:
    if not funcs:
        return np.zeros((0, n))
    return np.vstack([fn.grad_x(x, y) for fn in funcs])


def lower_lagrangian(problem: BilevelProblem, x, y, mu, xi):
    """Value and y-derivatives of L = f + mu^T h + xi^T g.

    Returns (value, grad_y, hess_yy, hess_yx) with hess_yx of shape (m, n),
    the x-derivative of grad_y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)

    value = problem.f.value(x, y)
    grad = problem.f.grad_y(x, y)
    hess_yy = problem.f.hess_yy(x, y)
    hess_yx = problem.f.hess_xy(x, y).T
    for coef, fn in zip(mu, problem.h):
        value += coef * fn.value(x, y)
        grad = grad + coef * fn.grad_y(x, y)
        hess_yy = hess_yy + coef * fn.hess_yy(x, y)
        hess_yx = hess_yx + coef * fn.hess_xy(x, y).T
    for coef, fn in zip(xi, problem.g):
        value += coef * fn.value(x, y)
        grad = grad + coef * fn.grad_y(x, y)
        hess_yy = hess_yy + coef * fn.hess_yy(x, y)
        hess_yx = hess_yx + coef * fn.hess_xy(x, y).T
    return float(value), grad, hess_yy, hess_yx


def kkt_residual(problem: BilevelProblem, x, y, mu, xi) -> np.ndarray:
    """Stacked residual (grad_y L; h; g - min(g+xi, 0)), zero iff KKT holds."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _, grad, _, _ = lower_lagrangian(problem, x, y, mu, xi)
    h_vals = _eval_stack(problem.h, x, y)
    g_vals = _eval_stack(problem.g, x, y)
    comp = g_vals - np.minimum(g_vals + xi, 0.0)
    return np.concatenate([grad, h_vals, comp])


def _classify(g_vals: np.ndarray, xi: np.ndarray, tau_act: float):
    """Split indices into (alpha, beta, gamma, infeasible) per the tolerance."""
    alpha, beta, gamma, bad = [], [], [], []
    for i, (gi, xii) in enumerate(zip(g_vals, xi)):
        if gi > tau_act:
            bad.append(i)
            gamma.append(i)
        elif abs(gi) <= tau_act:
            if xii > tau_act:
                alpha.append(i)
            elif abs(xii) <= tau_act:
                beta.append(i)
            else:
                gamma.append(i)
        else:
            gamma.append(i)
    return tuple(alpha), tuple(beta), tuple(gamma), tuple(bad)


def active_sets(problem: BilevelProblem, x, y, xi, tau_act: float = DEFAULT_TAU_ACT) -> ActiveSets:
    """Classify inequality indices at a (near-)feasible point.

    Raises Inconsistent when some g_i exceeds tau_act, since the
    classification is meaningless at infeasible points.
    """
    if tau_act <= 0:
        raise ValueError("tau_act must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    g_vals = _eval_stack(problem.g, x, y)
    alpha, beta, gamma, bad = _classify(g_vals, xi, tau_act)
    if bad:
        raise Inconsistent(
            f"constraint values {[float(g_vals[i]) for i in bad]} at indices {list(bad)} "
            f"exceed tau_act={tau_act}"
        )
    return ActiveSets(alpha=alpha, beta=beta, gamma=gamma)


def check_jacobian_uniqueness(
    problem: BilevelProblem, x, y, mu, xi, tols: CheckTolerances | None = None
) -> JacobianUniquenessReport:
    """Report KKT, LICQ, strict complementarity, and curvature verdicts.

    Every regularity failure shows up as a False verdict with its evidence;
    only a DomainError from evaluating a problem function at the point
    propagates.  Infeasible inequality components are counted as inactive
    for the gradient stack; the KKT verdict reports the violation anyway.
    """
    tols = tols or CheckTolerances()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)

    res = kkt_residual(problem, x, y, mu, xi)
    kkt_norm = float(np.linalg.norm(res, np.inf)) if res.size else 0.0
    kkt_ok = kkt_norm <= tols.kkt

    g_vals = _eval_stack(problem.g, x, y)
    alpha, beta, _, _ = _classify(g_vals, xi, tols.tau_act)
    active = [problem.g[i] for i in sorted(alpha + beta)]

    stacked = _grad_y_stack(list(problem.h) + active, x, y, problem.m)
    if stacked.shape[0]:
        sv = np.linalg.svd(stacked, compute_uv=False)
        min_sv = float(sv[-1])
        licq_ok = min_sv > tols.licq_rel * (1.0 + float(sv[0]))
    else:
        licq_ok = True
        min_sv = float("inf")

    if problem.s:
        margin = float(np.min(xi - g_vals))
    else:
        margin = float("inf")
    strict_ok = (len(beta) == 0) and margin > 0.0

    _, _, hess_yy, _ = lower_lagrangian(problem, x, y, mu, xi)
    if beta:
        sosc_ok = False
        min_eig = float("nan")
    else:
        z = nullspace_basis(stacked)
        if z.shape[1] == 0:
            sosc_ok = True
            min_eig = float("inf")
        else:
            reduced = z.T @ hess_yy @ z
            reduced = 0.5 * (reduced + reduced.T)
            min_eig = float(min_eig_sym(reduced))
            sosc_ok = min_eig > tols.sosc

    return JacobianUniquenessReport(
        kkt_ok=kkt_ok,
        licq_ok=licq_ok,
        strict_comp_ok=strict_ok,
        sosc_ok=sosc_ok,
        kkt_residual_norm=kkt_norm,
        min_singular_active=min_sv,
        strict_comp_margin=margin,
        reduced_hessian_min_eig=min_eig,
    )


def _branch_weights(g_vals: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """w_i = 0 where g_i + xi_i >= 0 (projection clamps, active branch), else 1."""
    return np.where(g_vals + xi >= 0.0, 0.0, 1.0)


def newton_weights(problem: BilevelProblem, x, y, xi) -> np.ndarray:
    """Branch selector for the semismooth complementarity rows.

    At feasible points with strict complementarity this agrees with the 0/1
    weights built from the active sets.
    """
    g_vals = _eval_stack(problem.g, np.asarray(x, float), np.asarray(y, float))
    return _branch_weights(g_vals, np.asarray(xi, float))


def _assemble_k(problem: BilevelProblem, x, y, mu, xi, w: np.ndarray) -> np.ndarray:
    """The (m+r+s)-square block matrix with complementarity rows masked by w."""
    m, r, s = problem.m, problem.r, problem.s
    _, _, hess_yy, _ = lower_lagrangian(problem, x, y, mu, xi)
    jh = _grad_y_stack(problem.h, x, y, m)
    jg = _grad_y_stack(problem.g, x, y, m)
    k = np.zeros((m + r + s, m + r + s))
    k[:m, :m] = hess_yy
    k[:m, m:m + r] = jh.T
    k[:m, m + r:] = jg.T
    k[m:m + r, :m] = jh
    k[m + r:, :m] = (1.0 - w)[:, None] * jg
    k[m + r:, m + r:] = -np.diag(w)
    return k


def solve_lower(
    problem: BilevelProblem,
    x,
    y0=None,
    mu0=None,
    xi0=None,
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Damped semismooth Newton on the KKT residual at fixed x.

    Returns (y, mu, xi, converged).  The Newton matrix reuses the
    complementarity branch rule of newton_weights, so it is defined at
    infeasible iterates too.  Raises SingularJacobian when the matrix cannot
    be factored; running out of iterations returns converged=False with the
    last iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float)
    m, r, s = problem.m, problem.r, problem.s
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    mu = np.zeros(r) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    xi = np.zeros(s) if xi0 is None else np.asarray(xi0, dtype=float).copy()

    for _ in range(max_iter):
        res = kkt_residual(problem, x, y, mu, xi)
        norm = float(np.linalg.norm(res, np.inf)) if res.size else 0.0
        if norm <= tol:
            return y, mu, xi, True

        w = newton_weights(problem, x, y, xi)
        k = _assemble_k(problem, x, y, mu, xi, w)
        try:
            step = lu_factor(k).solve(-res)
        except Singular as exc:
            raise SingularJacobian(f"Newton matrix singular at x={x.tolist()}") from exc

        two_norm = float(np.linalg.norm(res))
        t = 1.0
        best = None
        for _ in range(40):
            y_t = y + t * step[:m]
            mu_t = mu + t * step[m:m + r]
            xi_t = xi + t * step[m + r:]
            try:
                trial = kkt_residual(problem, x, y_t, mu_t, xi_t)
            except ArithmeticError:
                t *= 0.5
                continue
            trial_norm = float(np.linalg.norm(trial))
            if best is None:
                best = (y_t, mu_t, xi_t)
            if trial_norm <= (1.0 - 1e-4 * t) * two_norm:
                best = (y_t, mu_t, xi_t)
                break
            t *= 0.5
        if best is None:
            return y, mu, xi, False
        y, mu, xi = best

    res = kkt_residual(problem, x, y, mu, xi)
    converged = bool(res.size == 0 or np.linalg.norm(res, np.inf) <= tol)
    return y, mu, xi, converged
