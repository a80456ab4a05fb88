"""Dense linear algebra kernels, a small bounded-variable LP solver, and
finite differences.

Every system produced by the rest of the package is tiny (tens of rows).  The
linear algebra runs on numpy's LAPACK routines behind strict shape, finiteness
and singularity checks; numpy has no LP, so the bounded simplex lives here.
Matrices are plain 2-D numpy arrays in row-major order; vectors are 1-D
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray

# Relative singular-value threshold below which a matrix is declared singular.
SINGULAR_REL_TOL = 1e-12
# Relative asymmetry above which min_eig_sym raises NotSymmetric.
SYM_TOL = 1e-10
# Simplex: reduced-cost tolerance of an entering variable; pivot cap per phase.
LP_TOL = 1e-9
LP_MAX_ITER = 20000


class Singular(ArithmeticError):
    """The smallest singular value fell below the relative singularity threshold."""


class NotSymmetric(ValueError):
    """The input matrix is not symmetric within tolerance."""


class Infeasible(RuntimeError):
    """The LP has no feasible point (phase-1 optimum stayed positive)."""


class NonFinite(ArithmeticError):
    """A finite-difference stencil evaluation produced nan or inf."""


def _as_square(a) -> Matrix:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class LuFactorization:
    """A square matrix certified nonsingular by lu_factor.

    `cond_estimate` is its 2-norm condition number smax / smin.
    """

    a: Matrix
    cond_estimate: float

    def solve(self, b):
        """Solve A x = b for a vector or a matrix of right-hand sides."""
        b = np.asarray(b, dtype=float)
        n = self.a.shape[0]
        if b.shape[0] != n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")
        return np.linalg.solve(self.a, b)


def lu_factor(a) -> LuFactorization:
    """Check a square matrix for numerical singularity before solving with it.

    Raises Singular when the smallest singular value is at most
    SINGULAR_REL_TOL times the largest (so always for a zero matrix).
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if a.shape[0] == 0:
        return LuFactorization(a=a, cond_estimate=1.0)
    sv = np.linalg.svd(a, compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    if smin <= SINGULAR_REL_TOL * smax:
        raise Singular(f"smallest singular value {smin:.3e} at most {SINGULAR_REL_TOL:g} x {smax:.3e}")
    return LuFactorization(a=a, cond_estimate=smax / smin)


def nullspace_basis(a) -> Matrix:
    """Orthonormal basis of {d : A d = 0}.

    Columns are orthonormal; singular values at or below the usual rank
    cutoff tol = max(shape) * eps * smax are treated as zero, so
    rank(A) + cols(result) = cols(A) at that tolerance and every returned
    column satisfies ||A z||_2 <= tol.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    if rows == 0 or a.size == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(a)
    tol = max(rows, cols) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T.copy()


def full_row_rank(a: Matrix, rel: float):
    """(smin > rel * (1 + smax), smin) over the singular values of A; (True, inf) without rows."""
    if not a.shape[0]:
        return True, float("inf")
    sv = np.linalg.svd(a, compute_uv=False)
    return float(sv[-1]) > rel * (1.0 + float(sv[0])), float(sv[-1])


def min_eig_sym(s) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK symmetric eigensolver).

    Raises NotSymmetric when max|S - S^T| exceeds SYM_TOL * max(1, ||S||_max).
    """
    s = _as_square(s)
    if s.shape[0] == 0:
        raise ValueError("empty matrix has no eigenvalues")
    scale = max(1.0, float(np.max(np.abs(s))))
    asym = float(np.max(np.abs(s - s.T)))
    if asym > SYM_TOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYM_TOL * scale:.3e}")
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  eq_matrix x = eq_rhs,
    lower_bounds <= x <= upper_bounds (all bounds finite)."""

    objective: Vector
    eq_matrix: Matrix
    eq_rhs: Vector
    lower_bounds: Vector
    upper_bounds: Vector

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        b = np.asarray(self.eq_rhs, dtype=float)
        lo = np.asarray(self.lower_bounds, dtype=float)
        hi = np.asarray(self.upper_bounds, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "lower_bounds", lo)
        object.__setattr__(self, "upper_bounds", hi)
        n = c.shape[0]
        if a.size == 0:
            a = a.reshape(0, n)
            object.__setattr__(self, "eq_matrix", a)
        if a.shape[1] != n or b.shape[0] != a.shape[0]:
            raise ValueError("inconsistent LP dimensions")
        if lo.shape[0] != n or hi.shape[0] != n:
            raise ValueError("bound vectors must match the variable count")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")


_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


def _simplex(c, a, b, lo, hi, basis, stat):
    """Bounded-variable primal simplex with Bland's rule.  Mutates basis/stat."""
    meq, n = a.shape
    for _ in range(LP_MAX_ITER):
        bmat = a[:, basis]
        try:
            fac = lu_factor(bmat)
        except Singular as exc:  # pragma: no cover - guarded by construction
            raise RuntimeError("simplex basis became singular") from exc
        x = np.where(stat == _AT_UPPER, hi, lo)
        x[basis] = 0.0
        xb = fac.solve(b - a @ x)
        x[basis] = xb
        y = np.linalg.solve(bmat.T, c[basis])  # nonsingular: bmat passed lu_factor
        z = c - a.T @ y
        enter = -1
        for j in range(n):
            if stat[j] == _AT_LOWER and z[j] > LP_TOL:
                enter = j
                break
            if stat[j] == _AT_UPPER and z[j] < -LP_TOL:
                enter = j
                break
        if enter < 0:
            return x, float(c @ x)
        sigma = 1.0 if stat[enter] == _AT_LOWER else -1.0
        w = fac.solve(a[:, enter])
        dxb = -sigma * w
        t_best = hi[enter] - lo[enter]
        leave_row = -1
        leave_to = _AT_LOWER
        for i in range(meq):
            bi = basis[i]
            d = dxb[i]
            if d > 1e-11:
                if not np.isfinite(hi[bi]):
                    continue
                ti = (hi[bi] - xb[i]) / d
                to = _AT_UPPER
            elif d < -1e-11:
                ti = (lo[bi] - xb[i]) / d
                to = _AT_LOWER
            else:
                continue
            ti = max(ti, 0.0)
            if ti < t_best - 1e-13 or (abs(ti - t_best) <= 1e-13 and (leave_row < 0 or bi < basis[leave_row])):
                t_best = ti
                leave_row = i
                leave_to = to
        if not np.isfinite(t_best):
            raise RuntimeError("LP is unbounded, which finite bounds should prevent")
        if leave_row < 0:
            # entering variable runs to its opposite bound
            stat[enter] = _AT_UPPER if stat[enter] == _AT_LOWER else _AT_LOWER
            continue
        stat[basis[leave_row]] = leave_to
        basis[leave_row] = enter
        stat[enter] = _BASIC
    raise RuntimeError("simplex iteration limit reached")


def lp_maximize(p: LpProblem):
    """Solve a bounded-box LP by two-phase simplex with Bland's rule.

    Returns (optimal value, solution vector).  Raises Infeasible when the
    phase-1 artificial sum cannot be driven below 1e-9.
    """
    c = p.objective
    a = p.eq_matrix
    b = p.eq_rhs
    n = c.shape[0]
    meq = a.shape[0]
    if meq == 0:
        x = np.where(c > 0, p.upper_bounds, p.lower_bounds).astype(float)
        return float(c @ x), x
    r = b - a @ p.lower_bounds
    art_sign = np.where(r >= 0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(art_sign)])
    lo = np.concatenate([p.lower_bounds, np.zeros(meq)])
    hi = np.concatenate([p.upper_bounds, np.full(meq, np.inf)])
    stat = np.full(n + meq, _AT_LOWER, dtype=int)
    basis = list(range(n, n + meq))
    stat[basis] = _BASIC
    c1 = np.concatenate([np.zeros(n), -np.ones(meq)])
    x, val1 = _simplex(c1, a1, b, lo, hi, basis, stat)
    if -val1 > 1e-9:
        raise Infeasible(f"phase-1 optimum {-val1:.3e} stayed positive")
    hi[n:] = 0.0  # freeze artificials at zero for phase 2
    c2 = np.concatenate([c, np.zeros(meq)])
    x, val = _simplex(c2, a1, b, lo, hi, basis, stat)
    return float(c @ x[:n]), x[:n].copy()


def fd_jacobian(fn, x, h: float = 1e-5) -> Matrix:
    """Central-difference Jacobian of a vector map, one column per coordinate.

    Raises NonFinite when a stencil evaluation returns nan or inf.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        fp = np.atleast_1d(np.asarray(fn(x + e), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(x - e), dtype=float))
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise NonFinite(f"non-finite stencil value at coordinate {j}")
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def fd_hessian(grad_fn, x, h: float = 1e-4) -> Matrix:
    """Symmetrized central-difference Jacobian of a gradient map."""
    j = fd_jacobian(grad_fn, x, h=h)
    return 0.5 * (j + j.T)
