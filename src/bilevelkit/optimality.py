"""Optimality machinery for the KKT-reformulated single-level problem.

The reformulation keeps u = (x, y, mu, xi) as one variable and imposes

    Gtilde(u) = (H; G; grad_y L; h; g - proj(g+xi))  in  K,

with K = {0}^p x R_-^q x {0}^(m+r+s).  This module evaluates Gtilde, builds
the Lagrangian of the reformulated problem and its exact derivative blocks,
recovers multipliers from the lower-level system, tests MFCQ via a small LP,
assembles critical cones, and transports Hessians along the implicit solution
map for cross-validation against finite differences.

Only the upper-level rows of Gtilde's Jacobian are written here; its lower
rows are [B | K] from the builders in `lower`.  The Lagrangian's u-gradient
has one path, `_fp_u_grad`, which the augmented Lagrangian shares: its
gradient is this one at proj_polar(lam + rho Gtilde(u)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lower import (
    RANK_REL,
    TAU_ACT,
    PointEval,
    _assemble_b,
    _assemble_k,
    _branch_weights,
    active_sets,
    newton_weights,
    point_eval,
    solve_lower,
)
from .numerics import (
    LpProblem,
    Singular,
    fd_hessian,
    full_row_rank,
    lp_maximize,
    lu_factor,
    min_eig_sym,
    nullspace_basis,
)
from .problem import BilevelProblem, PrimalDualPoint, UpperMultiplier
from .sensitivity import SingularK, build_w, implicit_jacobians


SECOND_ORDER_MODES = ("necessary", "sufficient")
# Second-order verdict margin on the reduced Hessian's minimum eigenvalue.
TAU_PSD = 1e-7
# MFCQ needs the direction LP's optimum t above this.
T_TOL = 1e-8
# sp_hessian_fd: difference step and the stencil's lower-level solve settings.
SP_FD_STEP = 1e-4
SP_SOLVE_TOL = 1e-11
SP_SOLVE_MAX_ITER = 60


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


def _kink_weights(rec: PointEval, xi, kink_tol) -> np.ndarray:
    """Projection branch weights w (0 active, 1 inactive) with optional kink guard.

    kink_tol None disables the guard entirely; 0.0 flags only an exact hit.
    """
    g_vals = rec.values("g")
    if kink_tol is not None and rec.problem.s:
        offenders = np.flatnonzero(np.abs(g_vals + xi) <= kink_tol)
        if offenders.size:
            raise NondifferentiablePoint(offenders.tolist())
    return _branch_weights(g_vals, xi)


def fp_constraints(problem: BilevelProblem, u: PrimalDualPoint) -> FpConstraintValue:
    """Evaluate all five constraint blocks of the reformulated problem."""
    rec = point_eval(problem, u.x, u.y)
    grad_l = rec.lagrangian(u.mu, u.xi, "grad_y")
    h_vals = rec.values("h")
    g_vals = rec.values("g")
    return FpConstraintValue(
        H=rec.values("H"),
        G=rec.values("G"),
        gradL=grad_l,
        h=h_vals,
        comp=g_vals - np.minimum(g_vals + u.xi, 0.0),
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
    rec = point_eval(problem, u.x, u.y)
    eq_jac, g_jac = fp_constraint_jacobian(problem, u, kink_tol)
    cons = fp_constraints(problem, u)
    value = rec.combination("value", problem.F, (lam.lam_H, problem.H), (lam.lam_G, problem.G))
    value += (float(lam.lam_L @ cons.gradL) + float(lam.lam_h @ cons.h)
              + float(lam.lam_g @ cons.comp))
    lam_eq = np.concatenate([lam.lam_H, lam.lam_L, lam.lam_h, lam.lam_g])
    return float(value), _fp_u_grad(rec, eq_jac, g_jac, lam_eq, lam.lam_G)


def _fp_u_grad(rec: PointEval, eq_jac, g_jac, lam_eq, lam_G) -> np.ndarray:
    """u-gradient grad F + eq_jac^T lam_eq + g_jac^T lam_G of the reformulated Lagrangian.

    lam_eq stacks the H, grad_y(lowL), h and comp multipliers in that order.
    """
    problem = rec.problem
    grad = np.concatenate([rec.grad_x(problem.F), rec.grad_y(problem.F),
                           np.zeros(problem.r + problem.s)])
    grad = grad + eq_jac.T @ lam_eq
    if problem.q:
        grad = grad + g_jac.T @ lam_G
    return grad


def recover_multipliers(problem: BilevelProblem, u: PrimalDualPoint, lam_H=None, lam_G=None):
    """Solve the transposed lower-KKT system for (lam_L, lam_h, lam_g).

    Given upper multipliers, the returned triple zeroes the (y, mu, xi)
    gradient blocks of the reformulated Lagrangian identically.  Raises
    SingularK when the system matrix cannot be factored.
    """
    m, r, s = problem.m, problem.r, problem.s
    lam_H = np.zeros(problem.p) if lam_H is None else lam_H
    lam_G = np.zeros(problem.q) if lam_G is None else lam_G
    rec = point_eval(problem, u.x, u.y)

    grad_y_upper = rec.combination("grad_y", problem.F, (lam_H, problem.H), (lam_G, problem.G))
    w = newton_weights(problem, u.x, u.y, u.xi)
    k = _assemble_k(rec, u.mu, u.xi, w)
    rhs = np.concatenate([grad_y_upper, np.zeros(r + s)])
    try:
        sol = lu_factor(k.T).solve(-rhs)
    except Singular as exc:
        raise SingularK(str(exc)) from exc
    return sol[:m], sol[m:m + r], sol[m + r:]


def _xy_hessian(rec: PointEval, fn) -> np.ndarray:
    """Full (x, y) Hessian of one problem function from the record's three blocks."""
    hess_xx, hess_xy, hess_yy = rec.hess_xx(fn), rec.hess_xy(fn), rec.hess_yy(fn)
    return np.block([[hess_xx, hess_xy], [hess_xy.T, hess_yy]])


def fp_hessian(
    problem: BilevelProblem,
    u: PrimalDualPoint,
    lam: UpperMultiplier,
    kink_tol: float | None = 1e-12,
) -> np.ndarray:
    """Exact symmetric second derivative of the reformulated Lagrangian.

    Assembled from derivatives of the problem functions only.  The (x, y)
    Hessian of phi = lam_L.grad_y(lowL) is where third derivatives of f, g
    and h enter; it is contracted numerically from each lower function's
    cached tables of d/dyj's Hessian (`_phi_hessian`), so no tree is built
    per call.  The (mu, xi) diagonal block is identically zero.
    """
    mu, xi = u.mu, u.xi
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    rec = point_eval(problem, u.x, u.y)
    w = _kink_weights(rec, xi, kink_tol)
    nv = n + m
    dim = nv + r + s
    gamma = np.zeros((dim, dim))

    top = _xy_hessian(rec, problem.F)
    for coef, fn in itertools.chain(
        zip(lam.lam_H, problem.H), zip(lam.lam_G, problem.G), zip(lam.lam_h, problem.h)
    ):
        if coef:
            top += coef * _xy_hessian(rec, fn)
    for coef, wi, fn in zip(lam.lam_g, w, problem.g):
        if coef and wi != 1.0:
            top += coef * (1.0 - wi) * _xy_hessian(rec, fn)
    top += _phi_hessian(rec, lam.lam_L, mu, xi)

    gamma[:nv, :nv] = top

    # (x, y) x (mu, xi) block: column nv + k is the derivative of lam_L.grad_y(lowL)
    # in the k-th lower multiplier, ordered h then g
    for k, fn in enumerate(problem.h + problem.g):
        col = np.concatenate([rec.hess_xy(fn) @ lam.lam_L, rec.hess_yy(fn) @ lam.lam_L])
        gamma[:nv, nv + k] = col
        gamma[nv + k, :nv] = col

    return gamma


def _phi_hessian(rec: PointEval, lam_L, mu, xi) -> np.ndarray:
    """(x, y) Hessian of phi = sum_j lam_L[j] (df/dyj + mu.dh/dyj + xi.dg/dyj).

    Entry by entry, each j's bracket is summed in the order f, h, g and then
    scaled by lam_L[j].  A term whose coefficient is exactly 0 is skipped, so
    its third derivatives are never evaluated and raise no DomainError.
    """
    problem = rec.problem
    nv = problem.n + problem.m
    terms = [(coef, fn) for coef, fn in itertools.chain(
        [(1.0, problem.f)], zip(mu, problem.h), zip(xi, problem.g)) if coef]
    phi = np.zeros((nv, nv))
    for j, lam_j in enumerate(lam_L):
        if not lam_j:
            continue
        bracket = {}
        for coef, fn in terms:
            for a, b, v in fn.dy_hessian(j, rec.x, rec.y):
                bracket[a, b] = bracket.get((a, b), 0.0) + coef * v
        for (a, b), v in bracket.items():
            phi[a, b] += lam_j * v
    return phi + np.triu(phi, 1).T


def _equality_jacobian(rec: PointEval, mu, xi, w: np.ndarray) -> np.ndarray:
    """Rows [J H; J grad_y(lowL); J h; masked complementarity] over u-space.

    Below the H rows sit [B | K], written in place by lower's builders.
    """
    problem = rec.problem
    n, m, p = problem.n, problem.m, problem.p
    a = np.zeros((p + m + problem.r + problem.s, n + m + problem.r + problem.s))
    _assemble_k(rec, mu, xi, w, out=a[p:, n:])
    _assemble_b(rec, mu, xi, w, out=a[p:, :n])
    a[:p, :n] = rec.jac_x("H")
    a[:p, n:n + m] = rec.jac_y("H")
    return a


def fp_constraint_jacobian(
    problem: BilevelProblem, u: PrimalDualPoint, kink_tol: float | None = 1e-12
):
    """(equality-block Jacobian, inequality-block Jacobian) at any iterate.

    Branch weights come from the sign of g + xi, so this is defined at
    infeasible points too; an exact kink raises NondifferentiablePoint when
    kink_tol is not None.
    """
    rec = point_eval(problem, u.x, u.y)
    eq_jac = _equality_jacobian(rec, u.mu, u.xi, _kink_weights(rec, u.xi, kink_tol))
    return eq_jac, _upper_rows(rec, problem.G)


def matrix_a(problem: BilevelProblem, u: PrimalDualPoint) -> np.ndarray:
    """Jacobian of the equality-type constraint blocks over u-space.

    Rows: upper equalities; the grad_y(lowL) block (whose (y, mu, xi)
    columns embed the lower KKT matrix); lower equalities; masked
    complementarity rows.  Shape (p+m+r+s) x (n+m+r+s).  Weights come from
    the active sets, so strict complementarity is required.
    """
    w = build_w(active_sets(problem, u.x, u.y, u.xi))
    return _equality_jacobian(point_eval(problem, u.x, u.y), u.mu, u.xi, w)


def _upper_rows(rec: PointEval, fns) -> np.ndarray:
    """u-space gradient rows of upper-level functions; their (mu, xi) columns are zero."""
    n, m = rec.problem.n, rec.problem.m
    rows = np.zeros((len(fns), n + m + rec.problem.r + rec.problem.s))
    for row, fn in zip(rows, fns):
        row[:n] = rec.grad_x(fn)
        row[n:n + m] = rec.grad_y(fn)
    return rows


def check_mfcq_fp(problem: BilevelProblem, u: PrimalDualPoint) -> MfcqReport:
    """MFCQ test: equality rows full rank plus an interior direction.

    The direction subproblem maximizes t subject to A d = 0 and
    grad(G_i) . d + t <= 0 over the box d in [-1, 1], t in [0, 1]; MFCQ holds
    iff the rank test passes and the optimum exceeds T_TOL (vacuously when no
    upper inequality is active).
    """
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    a = matrix_a(problem, u)
    rows = a.shape[0]
    rank_ok, min_sv = full_row_rank(a, RANK_REL)

    rec = point_eval(problem, u.x, u.y)
    active = tuple(int(i) for i in np.flatnonzero(rec.values("G") >= -TAU_ACT))
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

    grads = _upper_rows(rec, [problem.G[i] for i in active])
    na = len(active)
    # variables: d (nu), t, slack per active inequality
    total = nu + 1 + na
    c = np.zeros(total)
    c[nu] = 1.0
    eq = np.zeros((rows + na, total))
    eq[:rows, :nu] = a
    eq[rows:, :nu] = grads
    eq[rows:, nu] = 1.0
    eq[rows:, nu + 1:] = np.eye(na)
    rhs = np.zeros(rows + na)
    slack_cap = max(float(np.abs(g).sum()) for g in grads) + 1.0
    lo = np.concatenate([-np.ones(nu), [0.0], np.zeros(na)])
    hi = np.concatenate([np.ones(nu), [1.0], np.full(na, slack_cap)])
    t_opt, z = lp_maximize(LpProblem(c, eq, rhs, lo, hi))
    direction_ok = t_opt > T_TOL
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


def critical_cone_fp(problem: BilevelProblem, u: PrimalDualPoint, lam: UpperMultiplier) -> ConeRep:
    """Build the critical cone at a first-order point.

    When every active upper inequality carries a multiplier above TAU_ACT the
    cone is exactly the null space of the equality rows plus active-G rows
    (the objective row is then implied); otherwise the sign constraints are
    dropped and the basis spans an over-approximating subspace, flagged.
    """
    a = matrix_a(problem, u)
    rec = point_eval(problem, u.x, u.y)
    active = tuple(int(i) for i in np.flatnonzero(rec.values("G") >= -TAU_ACT))
    active_rows = _upper_rows(rec, [problem.G[i] for i in active])
    objective_row = _upper_rows(rec, [problem.F])[0]

    keep = [k for k, i in enumerate(active) if float(lam.lam_G[i]) > TAU_ACT]
    over_approx = len(keep) < len(active)
    basis = nullspace_basis(np.vstack([a, active_rows[keep]]) if keep else a)

    unique, _ = full_row_rank(np.vstack([a, active_rows]) if active else a, RANK_REL)

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
) -> SecondOrderReport:
    """Minimum eigenvalue of the reformulated Hessian over the cone basis.

    The verdict is second_order_holds(min eig, mode).  An empty cone
    passes vacuously (evidence +inf).  Under an over-approximated cone the
    sufficient verdict stays valid; the necessary one is indicative.  Both
    modes share the eigenvalue, so a caller wanting both verdicts calls this
    once and applies second_order_holds for the other mode.
    """
    if mode not in SECOND_ORDER_MODES:
        raise ValueError(f"mode must be necessary or sufficient, got {mode!r}")
    cone = critical_cone_fp(problem, u, lam)
    z = cone.subspace_basis
    if z.shape[1] == 0:
        min_eig = float("inf")
    else:
        reduced = z.T @ fp_hessian(problem, u, lam) @ z
        min_eig = float(min_eig_sym(0.5 * (reduced + reduced.T)))
    return SecondOrderReport(
        mode=mode,
        holds=second_order_holds(min_eig, mode),
        min_eigenvalue=min_eig,
        cone_dimension=int(z.shape[1]),
        cone_empty=z.shape[1] == 0,
        over_approximation=cone.over_approximation,
        multiplier_unique=cone.multiplier_unique,
    )


def second_order_holds(min_eig: float, mode: str) -> bool:
    """necessary: min eig >= -TAU_PSD; sufficient: min eig >= +TAU_PSD."""
    return min_eig >= (-TAU_PSD if mode == "necessary" else TAU_PSD)


def sp_hessian_fd(
    problem: BilevelProblem,
    x,
    lam_H=None,
    lam_G=None,
    y0=None,
    mu0=None,
    xi0=None,
) -> np.ndarray:
    """Finite-difference Hessian of x -> F + lam_H.H + lam_G.G along y(x).

    The reduced gradient at each stencil point is exact (chain rule through
    the implicit Jacobian), so only one differencing level is needed.  Stencil
    solves start from the supplied warm start; solver failures propagate.
    """
    lam_H = np.zeros(problem.p) if lam_H is None else lam_H
    lam_G = np.zeros(problem.q) if lam_G is None else lam_G

    def reduced_grad(xv: np.ndarray) -> np.ndarray:
        y, mu, xi, converged = solve_lower(
            problem, xv, y0=y0, mu0=mu0, xi0=xi0, tol=SP_SOLVE_TOL, max_iter=SP_SOLVE_MAX_ITER
        )
        if not converged:
            raise RuntimeError(f"lower-level solve did not converge at x={xv.tolist()}")
        sr = implicit_jacobians(problem, xv, y, mu, xi)
        rec = point_eval(problem, xv, y)
        upper = (problem.F, (lam_H, problem.H), (lam_G, problem.G))
        return rec.combination("grad_x", *upper) + sr.Jy.T @ rec.combination("grad_y", *upper)

    return fd_hessian(reduced_grad, np.asarray(x, dtype=float), h=SP_FD_STEP)
