"""Lower-level machinery: Lagrangian, KKT residual, its linearization, active sets,
regularity report, solver.

The lower problem at fixed x is min_y f(x,y) s.t. h(x,y)=0, g(x,y)<=0 with
Lagrangian L = f + mu^T h + xi^T g.  The KKT system is written as the
semismooth residual (grad_y L; h; g - min(g+xi, 0)), which vanishes exactly at
KKT points with correct multiplier signs.

The residual's Jacobian is built here and nowhere else: `_assemble_k` gives
K, its derivative in (y, mu, xi), and `_assemble_b` gives B, its derivative
in x, both with the complementarity rows masked by branch weights w.  The
Newton solve and multiplier recovery use K, the implicit solution map solves
K J = -B, and the reformulated problem's equality Jacobian stacks [B | K]
under its upper-level rows.

Every KKT building block reads the problem functions at (x, y) from one
evaluation record, `point_eval(problem, x, y)`.  The record computes each
value, gradient, Hessian block and row-stacked Jacobian on first request and
keeps it read-only, always evaluating a function's value before its
derivatives.  The problem keeps its last record, reused while (x, y) match
bit for bit.  Hessians are built only when a caller asks: the Lagrangian's
gradient and Hessian are separate sums over the record, so the KKT residual
and the Newton line search build none.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .numerics import Singular, full_row_rank, lu_factor, min_eig_sym, nullspace_basis
from .problem import BilevelProblem

# Active-set classification width: g_i or xi_i within it of zero counts as zero.
TAU_ACT = 1e-7
# Regularity report thresholds: max-norm bound on the KKT residual, relative
# smallest-singular-value cutoff of a full-row-rank test, and reduced-Hessian
# minimum-eigenvalue cutoff of the curvature test.
KKT_TOL = 1e-9
RANK_REL = 1e-8
SOSC_TOL = 1e-8


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PointEval:
    """The problem's functions at one point (x, y), each item computed on first request.

    Items are kept, and kept arrays are read-only.  `fn` must be one of the
    problem's functions; stacks are named by role: "H", "G", "h" or "g".
    """

    __slots__ = ("problem", "x", "y", "key", "_kept")

    def __init__(self, problem: BilevelProblem, x: np.ndarray, y: np.ndarray):
        # weak: the problem keeps its last record, and a cycle between them would
        # keep every dropped problem alive until a full garbage collection
        self.problem = weakref.proxy(problem)
        self.x = _frozen(np.array(x, dtype=float))
        self.y = _frozen(np.array(y, dtype=float))
        self.key = (self.x.tobytes(), self.y.tobytes())
        self._kept = {}

    def _item(self, fn, kind: str):
        key = (id(fn), kind)
        kept = self._kept.get(key)
        if kept is None:
            if kind == "value":
                kept = fn.value(self.x, self.y)
            else:
                # value first, so the first DomainError at a point is the same for every item
                self._item(fn, "value")
                kept = _frozen(getattr(fn, kind)(self.x, self.y))
            self._kept[key] = kept
        return kept

    def _stack(self, role: str, kind: str) -> np.ndarray:
        key = (role, kind)
        kept = self._kept.get(key)
        if kept is None:
            fns = getattr(self.problem, role)
            if fns:
                kept = np.array([self._item(fn, kind) for fn in fns], dtype=float)
            else:
                p = self.problem
                kept = np.zeros({"value": (0,), "grad_x": (0, p.n), "grad_y": (0, p.m)}[kind])
            kept = self._kept[key] = _frozen(kept)
        return kept

    def value(self, fn) -> float:
        return self._item(fn, "value")

    def grad_x(self, fn) -> np.ndarray:
        return self._item(fn, "grad_x")

    def grad_y(self, fn) -> np.ndarray:
        return self._item(fn, "grad_y")

    def hess_xx(self, fn) -> np.ndarray:
        return self._item(fn, "hess_xx")

    def hess_xy(self, fn) -> np.ndarray:
        return self._item(fn, "hess_xy")

    def hess_yy(self, fn) -> np.ndarray:
        return self._item(fn, "hess_yy")

    def values(self, role: str) -> np.ndarray:
        return self._stack(role, "value")

    def jac_x(self, role: str) -> np.ndarray:
        """Row-stacked x-gradients, shape (len(role), n)."""
        return self._stack(role, "grad_x")

    def jac_y(self, role: str) -> np.ndarray:
        """Row-stacked y-gradients, shape (len(role), m)."""
        return self._stack(role, "grad_y")

    def combination(self, kind: str, first, *terms):
        """One item of first + sum over (coefs, fns) terms of coef * fn, summed in order."""
        total = self._item(first, kind)
        for coefs, fns in terms:
            for coef, fn in zip(coefs, fns):
                total = total + coef * self._item(fn, kind)
        return total

    def lagrangian(self, mu, xi, kind: str):
        """One item of L = f + mu^T h + xi^T g."""
        return self.combination(kind, self.problem.f, (mu, self.problem.h), (xi, self.problem.g))


def point_eval(problem: BilevelProblem, x, y) -> PointEval:
    """The problem's last record if it is at (x, y), else a new record that becomes the last.

    Points match bit for bit, so -0.0 and 0.0 get different records.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rec = problem._last_eval
    if rec is None or rec.key != (x.tobytes(), y.tobytes()):
        rec = PointEval(problem, x, y)
        object.__setattr__(problem, "_last_eval", rec)
    return rec


def lower_lagrangian(problem: BilevelProblem, x, y, mu, xi):
    """Value and y-derivatives of L = f + mu^T h + xi^T g.

    Returns (value, grad_y, hess_yy, hess_yx) with hess_yx of shape (m, n),
    the x-derivative of grad_y.
    """
    rec = point_eval(problem, x, y)
    return (float(rec.lagrangian(mu, xi, "value")), rec.lagrangian(mu, xi, "grad_y"),
            rec.lagrangian(mu, xi, "hess_yy"), rec.lagrangian(mu, xi, "hess_xy").T)


def kkt_residual(problem: BilevelProblem, x, y, mu, xi) -> np.ndarray:
    """Stacked residual (grad_y L; h; g - min(g+xi, 0)), zero iff KKT holds."""
    rec = point_eval(problem, x, y)
    grad = rec.lagrangian(mu, xi, "grad_y")
    h_vals = rec.values("h")
    g_vals = rec.values("g")
    comp = g_vals - np.minimum(g_vals + xi, 0.0)
    return np.concatenate([grad, h_vals, comp])


def _classify(g_vals: np.ndarray, xi: np.ndarray):
    """Split indices into (alpha, beta, gamma, infeasible) at width TAU_ACT."""
    alpha, beta, gamma, bad = [], [], [], []
    for i, (gi, xii) in enumerate(zip(g_vals, xi)):
        if gi > TAU_ACT:
            bad.append(i)
            gamma.append(i)
        elif abs(gi) <= TAU_ACT:
            if xii > TAU_ACT:
                alpha.append(i)
            elif abs(xii) <= TAU_ACT:
                beta.append(i)
            else:
                gamma.append(i)
        else:
            gamma.append(i)
    return tuple(alpha), tuple(beta), tuple(gamma), tuple(bad)


def active_sets(problem: BilevelProblem, x, y, xi) -> ActiveSets:
    """Classify inequality indices at a (near-)feasible point.

    Raises Inconsistent when some g_i exceeds TAU_ACT, since the
    classification is meaningless at infeasible points.
    """
    g_vals = point_eval(problem, x, y).values("g")
    alpha, beta, gamma, bad = _classify(g_vals, xi)
    if bad:
        raise Inconsistent(
            f"constraint values {[float(g_vals[i]) for i in bad]} at indices {list(bad)} "
            f"exceed tau_act={TAU_ACT}"
        )
    return ActiveSets(alpha=alpha, beta=beta, gamma=gamma)


def check_jacobian_uniqueness(problem: BilevelProblem, x, y, mu, xi) -> JacobianUniquenessReport:
    """Report KKT, LICQ, strict complementarity, and curvature verdicts.

    Every regularity failure shows up as a False verdict with its evidence;
    only a DomainError from evaluating a problem function at the point
    propagates.  Infeasible inequality components are counted as inactive
    for the gradient stack; the KKT verdict reports the violation anyway.
    """
    res = kkt_residual(problem, x, y, mu, xi)
    kkt_norm = float(np.linalg.norm(res, np.inf)) if res.size else 0.0
    kkt_ok = kkt_norm <= KKT_TOL

    rec = point_eval(problem, x, y)
    g_vals = rec.values("g")
    alpha, beta, _, _ = _classify(g_vals, xi)
    stacked = np.vstack([rec.jac_y("h"), rec.jac_y("g")[sorted(alpha + beta)]])
    licq_ok, min_sv = full_row_rank(stacked, RANK_REL)

    if problem.s:
        margin = float(np.min(xi - g_vals))
    else:
        margin = float("inf")
    strict_ok = (len(beta) == 0) and margin > 0.0

    if beta:
        sosc_ok = False
        min_eig = float("nan")
    else:
        z = nullspace_basis(stacked)
        if z.shape[1] == 0:
            sosc_ok = True
            min_eig = float("inf")
        else:
            reduced = z.T @ rec.lagrangian(mu, xi, "hess_yy") @ z
            reduced = 0.5 * (reduced + reduced.T)
            min_eig = float(min_eig_sym(reduced))
            sosc_ok = min_eig > SOSC_TOL

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
    return _branch_weights(point_eval(problem, x, y).values("g"), xi)


def _assemble_k(rec: PointEval, mu, xi, w: np.ndarray, out=None) -> np.ndarray:
    """K, the residual's (m+r+s)-square (y, mu, xi)-Jacobian, complementarity rows masked by w.

    Written into `out`, a zero block of that shape, when one is given.
    """
    m, r, s = rec.problem.m, rec.problem.r, rec.problem.s
    jh = rec.jac_y("h")
    jg = rec.jac_y("g")
    k = np.zeros((m + r + s, m + r + s)) if out is None else out
    k[:m, :m] = rec.lagrangian(mu, xi, "hess_yy")
    k[:m, m:m + r] = jh.T
    k[:m, m + r:] = jg.T
    k[m:m + r, :m] = jh
    k[m + r:, :m] = (1.0 - w)[:, None] * jg
    k[m + r:, m + r:] = -np.diag(w)
    return k


def _assemble_b(rec: PointEval, mu, xi, w: np.ndarray, out=None) -> np.ndarray:
    """B, the residual's x-Jacobian [hess_xy(L)^T; J_x h; (1-w) J_x g] of shape (m+r+s, n).

    Written into `out`, a block of that shape, when one is given.
    """
    n, m, r, s = rec.problem.n, rec.problem.m, rec.problem.r, rec.problem.s
    b = np.empty((m + r + s, n)) if out is None else out
    b[:m] = rec.lagrangian(mu, xi, "hess_xy").T
    b[m:m + r] = rec.jac_x("h")
    b[m + r:] = (1.0 - w)[:, None] * rec.jac_x("g")
    return b


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
    be factored.  Running out of iterations returns converged=False with the
    last iterate; so does a Newton step on which 40 halvings find no
    sufficient decrease of the residual 2-norm, and the iterate is then the
    one before that step.
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
        k = _assemble_k(point_eval(problem, x, y), mu, xi, w)
        try:
            step = lu_factor(k).solve(-res)
        except Singular as exc:
            raise SingularJacobian(f"Newton matrix singular at x={x.tolist()}") from exc

        two_norm = float(np.linalg.norm(res))
        t = 1.0
        for _ in range(40):
            y_t = y + t * step[:m]
            mu_t = mu + t * step[m:m + r]
            xi_t = xi + t * step[m + r:]
            try:
                trial = kkt_residual(problem, x, y_t, mu_t, xi_t)
            except ArithmeticError:
                t *= 0.5
                continue
            if float(np.linalg.norm(trial)) <= (1.0 - 1e-4 * t) * two_norm:
                break
            t *= 0.5
        else:
            return y, mu, xi, False
        y, mu, xi = y_t, mu_t, xi_t

    res = kkt_residual(problem, x, y, mu, xi)
    converged = bool(res.size == 0 or np.linalg.norm(res, np.inf) <= tol)
    return y, mu, xi, converged
