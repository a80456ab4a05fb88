"""Optimality machinery for the KKT-reformulated single-level problem.

The reformulation keeps u = (x, y, mu, xi) as one variable and imposes

    Gtilde(u) = (H; G; grad_y L; h; g - proj(g+xi))  in  K,

with K = {0}^p x R_-^q x {0}^(m+r+s).  This module evaluates Gtilde, builds
the Lagrangian of the reformulated problem and its exact derivative blocks,
recovers multipliers from the lower-level system, tests MFCQ via a small LP,
assembles critical cones, and transports Hessians along the implicit solution
map for cross-validation against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .lower import (
    DEFAULT_TAU_ACT,
    _assemble_k,
    _branch_weights,
    _eval_stack,
    _grad_x_stack,
    _grad_y_stack,
    active_sets,
    lower_lagrangian,
    newton_weights,
    solve_lower,
)
from .numerics import (
    LpProblem,
    Singular,
    fd_hessian,
    lp_maximize,
    lu_factor,
    min_eig_sym,
    nullspace_basis,
)
from .problem import BilevelProblem, PrimalDualPoint, UpperMultiplier
from .sensitivity import SingularK, build_w, implicit_jacobians


class NondifferentiablePoint(ArithmeticError):
    """Some component of g + xi sits on the projection kink."""

    def __init__(self, indices):
        super().__init__(f"g + xi at the kink for indices {list(indices)}")
        self.indices = tuple(indices)


@dataclass(frozen=True)
class FpConstraintValue:
    """The five constraint blocks of the reformulated problem at one point.

    Equality-type blocks are H, gradL, h, comp (target 0); G is the
    inequality block (target <= 0).  comp = g - min(g + xi, 0).
    """

    H: np.ndarray
    G: np.ndarray
    gradL: np.ndarray
    h: np.ndarray
    comp: np.ndarray

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.H, self.G, self.gradL, self.h, self.comp])


@dataclass(frozen=True)
class ConeRep:
    """Critical cone data: {d : eq_matrix d = 0, active_ineq d <= 0, objective_row d <= 0}.

    subspace_basis spans the cone exactly when over_approximation is False;
    otherwise it spans the larger subspace obtained by dropping the genuine
    sign constraints (sound for sufficiency tests, indicative for necessity).
    multiplier_unique certifies that the supplied multiplier is the only one.
    """

    eq_matrix: np.ndarray
    active_ineq: np.ndarray
    objective_row: np.ndarray
    subspace_basis: np.ndarray
    over_approximation: bool
    multiplier_unique: bool
    active_upper: tuple


@dataclass(frozen=True)
class MfcqReport:
    """Constraint-qualification verdict with rank and direction evidence."""

    holds: bool
    rank_ok: bool
    min_singular_value: float
    direction_ok: bool
    t_opt: float
    d: np.ndarray
    active_upper: tuple


@dataclass(frozen=True)
class FirstOrderReport:
    """Natural-residual verdict: sigma stacks stationarity and projected feasibility."""

    sigma: float
    holds: bool
    stationarity_norm: float
    feasibility_norm: float


@dataclass(frozen=True)
class SecondOrderReport:
    """Curvature verdict over the critical-cone subspace basis."""

    mode: str
    holds: bool
    min_eigenvalue: float
    cone_dimension: int
    cone_empty: bool
    over_approximation: bool
    multiplier_unique: bool


def _kink_weights(problem: BilevelProblem, x, y, xi, kink_tol):
    """Projection branch weights w (0 active, 1 inactive) with optional kink guard.

    kink_tol None disables the guard entirely; 0.0 flags only an exact hit.
    """
    g_vals = _eval_stack(problem.g, x, y)
    if kink_tol is not None and problem.s:
        offenders = np.flatnonzero(np.abs(g_vals + xi) <= kink_tol)
        if offenders.size:
            raise NondifferentiablePoint(offenders.tolist())
    return _branch_weights(g_vals, xi), g_vals


def fp_constraints(problem: BilevelProblem, u: PrimalDualPoint) -> FpConstraintValue:
    """Evaluate all five constraint blocks of the reformulated problem."""
    x, y, mu, xi = u.x, u.y, u.mu, u.xi
    _, grad_l, _, _ = lower_lagrangian(problem, x, y, mu, xi)
    h_vals = _eval_stack(problem.h, x, y)
    g_vals = _eval_stack(problem.g, x, y)
    return FpConstraintValue(
        H=_eval_stack(problem.H, x, y),
        G=_eval_stack(problem.G, x, y),
        gradL=grad_l,
        h=h_vals,
        comp=g_vals - np.minimum(g_vals + xi, 0.0),
    )


def fp_lagrangian_grad(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    kink_tol: float | None = 1e-12,
):
    """Value and exact u-gradient of the reformulated Lagrangian.

    L = F + lam_H.H + lam_G.G + lam_L.grad_y(lowL) + lam_h.h + lam_g.comp.
    The comp block is piecewise linear in (g, xi); its gradient uses the
    branch weights at the current point, so points with g_i + xi_i within
    kink_tol of the kink raise NondifferentiablePoint (pass None to disable).
    """
    x, y, mu, xi = u.x, u.y, u.mu, u.xi
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    w, g_vals = _kink_weights(problem, x, y, xi, kink_tol)

    _, grad_l, hess_yy, hess_yx = lower_lagrangian(problem, x, y, mu, xi)
    h_vals = _eval_stack(problem.h, x, y)
    comp = g_vals - np.minimum(g_vals + xi, 0.0)

    value = problem.F.value(x, y)
    grad_x = problem.F.grad_x(x, y)
    grad_y = problem.F.grad_y(x, y)
    for coef, fn in zip(lam.lam_H, problem.H):
        value += coef * fn.value(x, y)
        grad_x = grad_x + coef * fn.grad_x(x, y)
        grad_y = grad_y + coef * fn.grad_y(x, y)
    for coef, fn in zip(lam.lam_G, problem.G):
        value += coef * fn.value(x, y)
        grad_x = grad_x + coef * fn.grad_x(x, y)
        grad_y = grad_y + coef * fn.grad_y(x, y)
    value += float(lam.lam_L @ grad_l) + float(lam.lam_h @ h_vals) + float(lam.lam_g @ comp)

    grad_x = grad_x + hess_yx.T @ lam.lam_L
    grad_y = grad_y + hess_yy @ lam.lam_L
    for coef, fn in zip(lam.lam_h, problem.h):
        grad_x = grad_x + coef * fn.grad_x(x, y)
        grad_y = grad_y + coef * fn.grad_y(x, y)
    for coef, wi, fn in zip(lam.lam_g, w, problem.g):
        grad_x = grad_x + coef * (1.0 - wi) * fn.grad_x(x, y)
        grad_y = grad_y + coef * (1.0 - wi) * fn.grad_y(x, y)

    jyh = _grad_y_stack(problem.h, x, y, m)
    jyg = _grad_y_stack(problem.g, x, y, m)
    grad_mu = jyh @ lam.lam_L if r else np.zeros(0)
    grad_xi = (jyg @ lam.lam_L - w * lam.lam_g) if s else np.zeros(0)

    return float(value), np.concatenate([grad_x, grad_y, grad_mu, grad_xi])


def recover_multipliers(problem: BilevelProblem, u: PrimalDualPoint, lam_H=None, lam_G=None):
    """Solve the transposed lower-KKT system for (lam_L, lam_h, lam_g).

    Given upper multipliers, the returned triple zeroes the (y, mu, xi)
    gradient blocks of the reformulated Lagrangian identically.  Raises
    SingularK when the system matrix cannot be factored.
    """
    x, y, mu, xi = u.x, u.y, u.mu, u.xi
    m, r, s = problem.m, problem.r, problem.s
    lam_H = np.zeros(problem.p) if lam_H is None else np.asarray(lam_H, dtype=float)
    lam_G = np.zeros(problem.q) if lam_G is None else np.asarray(lam_G, dtype=float)

    grad_y_upper = problem.F.grad_y(x, y)
    for coef, fn in zip(lam_H, problem.H):
        grad_y_upper = grad_y_upper + coef * fn.grad_y(x, y)
    for coef, fn in zip(lam_G, problem.G):
        grad_y_upper = grad_y_upper + coef * fn.grad_y(x, y)

    w = newton_weights(problem, x, y, xi)
    k = _assemble_k(problem, x, y, mu, xi, w)
    rhs = np.concatenate([grad_y_upper, np.zeros(r + s)])
    try:
        sol = lu_factor(k.T).solve(-rhs)
    except Singular as exc:
        raise SingularK(str(exc)) from exc
    return sol[:m], sol[m:m + r], sol[m + r:]


def _xy_hessian(fn, x, y, n, m) -> np.ndarray:
    out = np.zeros((n + m, n + m))
    out[:n, :n] = fn.hess_xx(x, y)
    cross = fn.hess_xy(x, y)
    out[:n, n:] = cross
    out[n:, :n] = cross.T
    out[n:, n:] = fn.hess_yy(x, y)
    return out


def fp_hessian(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    kink_tol: float | None = 1e-12,
) -> np.ndarray:
    """Exact symmetric second derivative of the reformulated Lagrangian.

    Assembled from second derivatives of the problem functions only.  The
    lam_L.grad_y(lowL) term is differentiated twice in (x, y) by symbolic
    differentiation of that scalar with mu, xi, lam_L as constants, which is
    where third derivatives of f, g, h enter exactly.  The (mu, xi) diagonal
    block is identically zero.
    """
    x, y, mu, xi = u.x, u.y, u.mu, u.xi
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    w, _ = _kink_weights(problem, x, y, xi, kink_tol)
    nv = n + m
    dim = nv + r + s
    gamma = np.zeros((dim, dim))

    top = _xy_hessian(problem.F, x, y, n, m)
    for coef, fn in zip(lam.lam_H, problem.H):
        if coef:
            top += coef * _xy_hessian(fn, x, y, n, m)
    for coef, fn in zip(lam.lam_G, problem.G):
        if coef:
            top += coef * _xy_hessian(fn, x, y, n, m)
    for coef, fn in zip(lam.lam_h, problem.h):
        if coef:
            top += coef * _xy_hessian(fn, x, y, n, m)
    for coef, wi, fn in zip(lam.lam_g, w, problem.g):
        if coef and wi != 1.0:
            top += coef * (1.0 - wi) * _xy_hessian(fn, x, y, n, m)

    # scalar phi = lam_L . grad_y lowL, built symbolically so its (x, y)
    # Hessian carries the exact third-derivative contractions
    phi = ex.ZERO
    for j in range(m):
        term = problem.f.y_partials[j]
        for coef, fn in zip(mu, problem.h):
            term = ex.add(term, ex.mul(ex.Const(float(coef)), fn.y_partials[j]))
        for coef, fn in zip(xi, problem.g):
            term = ex.add(term, ex.mul(ex.Const(float(coef)), fn.y_partials[j]))
        phi = ex.add(phi, ex.mul(ex.Const(float(lam.lam_L[j])), term))
    phi_fn = ex.compile_expr(phi, n, m)
    top += _xy_hessian(phi_fn, x, y, n, m)

    gamma[:nv, :nv] = top

    for k, fn in enumerate(problem.h):
        col = np.concatenate([fn.hess_xy(x, y) @ lam.lam_L, fn.hess_yy(x, y) @ lam.lam_L])
        gamma[:nv, nv + k] = col
        gamma[nv + k, :nv] = col
    for i, fn in enumerate(problem.g):
        col = np.concatenate([fn.hess_xy(x, y) @ lam.lam_L, fn.hess_yy(x, y) @ lam.lam_L])
        gamma[:nv, nv + r + i] = col
        gamma[nv + r + i, :nv] = col

    return gamma


def _equality_jacobian(problem: BilevelProblem, u: PrimalDualPoint, w: np.ndarray) -> np.ndarray:
    """Rows [J H; J grad_y(lowL); J h; masked complementarity] over u-space."""
    x, y, mu, xi = u.x, u.y, u.mu, u.xi
    n, m, p, r, s = problem.n, problem.m, problem.p, problem.r, problem.s

    _, _, hess_yy, hess_yx = lower_lagrangian(problem, x, y, mu, xi)
    jxh = _grad_x_stack(problem.h, x, y, n)
    jyh = _grad_y_stack(problem.h, x, y, m)
    jxg = _grad_x_stack(problem.g, x, y, n)
    jyg = _grad_y_stack(problem.g, x, y, m)

    a = np.zeros((p + m + r + s, n + m + r + s))
    a[:p, :n] = _grad_x_stack(problem.H, x, y, n)
    a[:p, n:n + m] = _grad_y_stack(problem.H, x, y, m)
    a[p:p + m, :n] = hess_yx
    a[p:p + m, n:n + m] = hess_yy
    a[p:p + m, n + m:n + m + r] = jyh.T
    a[p:p + m, n + m + r:] = jyg.T
    a[p + m:p + m + r, :n] = jxh
    a[p + m:p + m + r, n:n + m] = jyh
    a[p + m + r:, :n] = (1.0 - w)[:, None] * jxg
    a[p + m + r:, n:n + m] = (1.0 - w)[:, None] * jyg
    a[p + m + r:, n + m + r:] = -np.diag(w)
    return a


def fp_constraint_jacobian(
    problem: BilevelProblem, u: PrimalDualPoint, kink_tol: float | None = 1e-12
):
    """(equality-block Jacobian, inequality-block Jacobian) at any iterate.

    Branch weights come from the sign of g + xi, so this is defined at
    infeasible points too; an exact kink raises NondifferentiablePoint when
    kink_tol is not None.
    """
    w, _ = _kink_weights(problem, u.x, u.y, u.xi, kink_tol)
    eq_jac = _equality_jacobian(problem, u, w)
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    if problem.q:
        g_jac = np.vstack([_grad_u_upper(fn, u.x, u.y, n, m, r, s) for fn in problem.G])
    else:
        g_jac = np.zeros((0, n + m + r + s))
    return eq_jac, g_jac


def matrix_a(problem: BilevelProblem, u: PrimalDualPoint, tau_act: float = DEFAULT_TAU_ACT) -> np.ndarray:
    """Jacobian of the equality-type constraint blocks over u-space.

    Rows: upper equalities; the grad_y(lowL) block (whose (y, mu, xi)
    columns embed the lower KKT matrix); lower equalities; masked
    complementarity rows.  Shape (p+m+r+s) x (n+m+r+s).  Weights come from
    the active sets, so strict complementarity is required.
    """
    return _equality_jacobian(problem, u, build_w(active_sets(problem, u.x, u.y, u.xi, tau_act)))


def _grad_u_upper(fn, x, y, n, m, r, s) -> np.ndarray:
    """u-space gradient row of an upper-level function (no mu/xi dependence)."""
    return np.concatenate([fn.grad_x(x, y), fn.grad_y(x, y), np.zeros(r + s)])


def check_mfcq_fp(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    tau_act: float = DEFAULT_TAU_ACT,
    rank_rel: float = 1e-8,
    t_tol: float = 1e-8,
) -> MfcqReport:
    """MFCQ test: equality rows full rank plus an interior direction.

    The direction subproblem maximizes t subject to A d = 0 and
    grad(G_i) . d + t <= 0 over the box d in [-1, 1], t in [0, 1]; MFCQ holds
    iff the rank test passes and the optimum exceeds t_tol (vacuously when no
    upper inequality is active).
    """
    x, y = u.x, u.y
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    a = matrix_a(problem, u, tau_act)
    rows = a.shape[0]
    if rows:
        sv = np.linalg.svd(a, compute_uv=False)
        min_sv = float(sv[-1])
        rank_ok = min_sv > rank_rel * (1.0 + float(sv[0]))
    else:
        min_sv = float("inf")
        rank_ok = True

    g_upper = _eval_stack(problem.G, x, y)
    active = tuple(int(i) for i in np.flatnonzero(g_upper >= -tau_act))

    nu = n + m + r + s
    if not active:
        return MfcqReport(
            holds=rank_ok,
            rank_ok=rank_ok,
            min_singular_value=min_sv,
            direction_ok=True,
            t_opt=float("inf"),
            d=np.zeros(nu),
            active_upper=active,
        )

    grads = [_grad_u_upper(problem.G[i], x, y, n, m, r, s) for i in active]
    na = len(active)
    # variables: d (nu), t, slack per active inequality
    total = nu + 1 + na
    c = np.zeros(total)
    c[nu] = 1.0
    eq = np.zeros((rows + na, total))
    eq[:rows, :nu] = a
    for idx, grow in enumerate(grads):
        eq[rows + idx, :nu] = grow
        eq[rows + idx, nu] = 1.0
        eq[rows + idx, nu + 1 + idx] = 1.0
    rhs = np.zeros(rows + na)
    slack_cap = max(float(np.abs(g).sum()) for g in grads) + 1.0
    lo = np.concatenate([-np.ones(nu), [0.0], np.zeros(na)])
    hi = np.concatenate([np.ones(nu), [1.0], np.full(na, slack_cap)])
    t_opt, z = lp_maximize(LpProblem(c, eq, rhs, lo, hi))
    direction_ok = t_opt > t_tol
    return MfcqReport(
        holds=rank_ok and direction_ok,
        rank_ok=rank_ok,
        min_singular_value=min_sv,
        direction_ok=direction_ok,
        t_opt=float(t_opt),
        d=z[:nu].copy(),
        active_upper=active,
    )


def u_transform(problem: BilevelProblem, x, y, mu, xi) -> np.ndarray:
    """Stack [I; Jy; Jmu; Jxi] so u-directions follow the implicit solution map."""
    sr = implicit_jacobians(problem, x, y, mu, xi)
    return np.vstack([np.eye(problem.n), sr.Jy, sr.Jmu, sr.Jxi])


def critical_cone_fp(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    tau_act: float = DEFAULT_TAU_ACT,
    rank_rel: float = 1e-8,
) -> ConeRep:
    """Build the critical cone at a first-order point.

    When every active upper inequality carries a multiplier above tau_act the
    cone is exactly the null space of the equality rows plus active-G rows
    (the objective row is then implied); otherwise the sign constraints are
    dropped and the basis spans an over-approximating subspace, flagged.
    """
    x, y = u.x, u.y
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    a = matrix_a(problem, u, tau_act)

    g_upper = _eval_stack(problem.G, x, y)
    active = tuple(int(i) for i in np.flatnonzero(g_upper >= -tau_act))
    nu = n + m + r + s
    if active:
        active_rows = np.vstack([_grad_u_upper(problem.G[i], x, y, n, m, r, s) for i in active])
    else:
        active_rows = np.zeros((0, nu))

    objective_row = _grad_u_upper(problem.F, x, y, n, m, r, s)

    strict_upper = all(float(lam.lam_G[i]) > tau_act for i in active)
    if strict_upper:
        eq_stack = np.vstack([a, active_rows]) if active else a
        over_approx = False
    else:
        keep = [i for i in active if float(lam.lam_G[i]) > tau_act]
        if keep:
            kept_rows = np.vstack([_grad_u_upper(problem.G[i], x, y, n, m, r, s) for i in keep])
            eq_stack = np.vstack([a, kept_rows])
        else:
            eq_stack = a
        over_approx = True
    basis = nullspace_basis(eq_stack)

    licq_stack = np.vstack([a, active_rows]) if active else a
    if licq_stack.shape[0]:
        sv = np.linalg.svd(licq_stack, compute_uv=False)
        unique = float(sv[-1]) > rank_rel * (1.0 + float(sv[0]))
    else:
        unique = True

    return ConeRep(
        eq_matrix=a,
        active_ineq=active_rows,
        objective_row=objective_row,
        subspace_basis=basis,
        over_approximation=over_approx,
        multiplier_unique=unique,
        active_upper=active,
    )


def check_first_order_fp(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    tol: float = 1e-9,
) -> FirstOrderReport:
    """Natural residual sigma = ||(grad_u L; lam - proj_polar(lam + Gtilde))||.

    Equality-type blocks contribute their raw constraint values (negated);
    only the lam_G block is clipped against the polar cone.  Never raises;
    the gradient uses the projection branch at the point even on a kink.
    """
    _, grad = fp_lagrangian_grad(problem, u, lam, kink_tol=None)
    cons = fp_constraints(problem, u)
    res_g = lam.lam_G - np.maximum(lam.lam_G + cons.G, 0.0)
    mult_res = np.concatenate([-cons.H, res_g, -cons.gradL, -cons.h, -cons.comp])
    stat = float(np.linalg.norm(grad))
    feas = float(np.linalg.norm(mult_res))
    sigma = float(np.hypot(stat, feas))
    return FirstOrderReport(
        sigma=sigma,
        holds=sigma <= tol,
        stationarity_norm=stat,
        feasibility_norm=feas,
    )


def check_second_order_fp(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    mode: str = "sufficient",
    tau_psd: float = 1e-7,
    tau_act: float = DEFAULT_TAU_ACT,
) -> SecondOrderReport:
    """Minimum eigenvalue of the reformulated Hessian over the cone basis.

    necessary: min eig >= -tau_psd; sufficient: min eig >= +tau_psd.  An
    empty cone passes vacuously (evidence +inf).  Under an over-approximated
    cone the sufficient verdict stays valid; the necessary one is indicative.
    """
    if mode not in ("necessary", "sufficient"):
        raise ValueError(f"mode must be necessary or sufficient, got {mode!r}")
    cone = critical_cone_fp(problem, u, lam, tau_act=tau_act)
    z = cone.subspace_basis
    if z.shape[1] == 0:
        return SecondOrderReport(
            mode=mode,
            holds=True,
            min_eigenvalue=float("inf"),
            cone_dimension=0,
            cone_empty=True,
            over_approximation=cone.over_approximation,
            multiplier_unique=cone.multiplier_unique,
        )
    gamma = fp_hessian(problem, u, lam)
    reduced = z.T @ gamma @ z
    reduced = 0.5 * (reduced + reduced.T)
    min_eig = float(min_eig_sym(reduced))
    holds = min_eig >= (-tau_psd if mode == "necessary" else tau_psd)
    return SecondOrderReport(
        mode=mode,
        holds=holds,
        min_eigenvalue=min_eig,
        cone_dimension=int(z.shape[1]),
        cone_empty=False,
        over_approximation=cone.over_approximation,
        multiplier_unique=cone.multiplier_unique,
    )


def sp_hessian_fd(
    problem: BilevelProblem,
    x,
    lam_H=None,
    lam_G=None,
    h_step: float = 1e-4,
    y0=None,
    mu0=None,
    xi0=None,
    solver_tol: float = 1e-11,
    solver_max_iter: int = 60,
) -> np.ndarray:
    """Finite-difference Hessian of x -> F + lam_H.H + lam_G.G along y(x).

    The reduced gradient at each stencil point is exact (chain rule through
    the implicit Jacobian), so only one differencing level is needed.  Stencil
    solves start from the supplied warm start; solver failures propagate.
    """
    x = np.asarray(x, dtype=float)
    lam_H = np.zeros(problem.p) if lam_H is None else np.asarray(lam_H, dtype=float)
    lam_G = np.zeros(problem.q) if lam_G is None else np.asarray(lam_G, dtype=float)

    def reduced_grad(xv: np.ndarray) -> np.ndarray:
        y, mu, xi, converged = solve_lower(
            problem, xv, y0=y0, mu0=mu0, xi0=xi0, tol=solver_tol, max_iter=solver_max_iter
        )
        if not converged:
            raise RuntimeError(f"lower-level solve did not converge at x={xv.tolist()}")
        sr = implicit_jacobians(problem, xv, y, mu, xi)
        gx = problem.F.grad_x(xv, y)
        gy = problem.F.grad_y(xv, y)
        for coef, fn in zip(lam_H, problem.H):
            gx = gx + coef * fn.grad_x(xv, y)
            gy = gy + coef * fn.grad_y(xv, y)
        for coef, fn in zip(lam_G, problem.G):
            gx = gx + coef * fn.grad_x(xv, y)
            gy = gy + coef * fn.grad_y(xv, y)
        return gx + sr.Jy.T @ gy

    return fd_hessian(reduced_grad, x, h=h_step)
