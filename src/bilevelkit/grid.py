"""Brute-force grid search over (x, y) exposing the lower level's local structure.

For each upper grid point x the lower feasible set is scanned on a y-grid;
grid-local minimizers are refined by golden section inside their bracket.
Isolated feasible points that the node lattice would miss (a constraint
touching zero from above between nodes) are recovered by minimizing each
constraint locally and accepting near-zero touches.

The winner is the upper-feasible pair with the best upper objective among
lower-level global argmins (numerically tied argmins are all offered to the
upper level).  At the winning x every lower-level local minimizer is
reported, selected or not, since that is the structure a localized solution
concept quantifies over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate_array
from .problem import BilevelProblem

# Golden-section steps of each scalar polish; 60 shrink a bracket by about 3e-13.
GOLDEN_ITERS = 60


class GridUnsupported(ValueError):
    """Grid search only handles n <= 2 and m <= 2."""


@dataclass(frozen=True)
class LowerMinimizer:
    """One lower-level local minimizer found at the winning x."""

    y: np.ndarray
    f_value: float
    upper_value: float
    selected: bool
    isolated: bool
    upper_feasible: bool


@dataclass(frozen=True)
class GridResult:
    best_x: np.ndarray
    best_y: np.ndarray
    best_upper_value: float
    best_lower_value: float
    local_minimizers: tuple
    feasible_x_count: int
    step: float


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        raise ValueError("range upper end must exceed lower end")
    count = int(np.floor((hi - lo) / step + 0.5)) + 1
    return lo + step * np.arange(count)


def _golden(fn, lo: float, hi: float):
    """Golden-section minimize a scalar function on [lo, hi] in GOLDEN_ITERS steps."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


class _LowerScan:
    """Vectorized lower-level evaluation for one fixed x over the y-mesh."""

    def __init__(self, problem: BilevelProblem, y_axes, feas_tol: float, eq_tol: float):
        self.problem = problem
        self.y_axes = y_axes
        self.feas_tol = feas_tol
        self.eq_tol = eq_tol
        if problem.m == 1:
            self.mesh = (y_axes[0],)
            self.shape = y_axes[0].shape
        else:
            g1, g2 = np.meshgrid(y_axes[0], y_axes[1], indexing="ij")
            self.mesh = (g1, g2)
            self.shape = g1.shape

    def evaluate(self, x: np.ndarray):
        x_cols = [np.float64(v) for v in x]
        f_vals = np.asarray(evaluate_array(self.problem.f.expr, x_cols, self.mesh), dtype=float)
        f_vals = np.broadcast_to(f_vals, self.shape).copy()
        feasible = np.ones(self.shape, dtype=bool)
        for fn in self.problem.g:
            vals = np.broadcast_to(
                np.asarray(evaluate_array(fn.expr, x_cols, self.mesh), dtype=float), self.shape
            )
            feasible &= np.nan_to_num(vals, nan=np.inf) <= self.feas_tol
        for fn in self.problem.h:
            vals = np.broadcast_to(
                np.asarray(evaluate_array(fn.expr, x_cols, self.mesh), dtype=float), self.shape
            )
            feasible &= np.abs(np.nan_to_num(vals, nan=np.inf)) <= self.eq_tol
        feasible &= np.isfinite(f_vals)
        masked = np.where(feasible, f_vals, np.inf)
        return masked

    def point_feasible(self, x: np.ndarray, y: np.ndarray) -> bool:
        try:
            for fn in self.problem.g:
                if fn.value(x, y) > self.feas_tol:
                    return False
            for fn in self.problem.h:
                if abs(fn.value(x, y)) > self.eq_tol:
                    return False
        except ArithmeticError:
            return False
        return True


def _local_min_mask(masked: np.ndarray) -> np.ndarray:
    """Nodes no worse than any axis neighbor (out-of-range counts as +inf)."""
    finite = np.isfinite(masked)
    ok = finite.copy()
    if masked.ndim == 1:
        padded = np.pad(masked, 1, constant_values=np.inf)
        ok &= masked <= padded[:-2]
        ok &= masked <= padded[2:]
        return ok
    padded = np.pad(masked, 1, constant_values=np.inf)
    ok &= masked <= padded[:-2, 1:-1]
    ok &= masked <= padded[2:, 1:-1]
    ok &= masked <= padded[1:-1, :-2]
    ok &= masked <= padded[1:-1, 2:]
    return ok


def _cluster(indices, ndim: int):
    """Group adjacent qualifying nodes so a flat basin is reported once."""
    index_set = set(map(tuple, indices)) if ndim == 2 else set((int(i[0]),) for i in indices)
    clusters = []
    while index_set:
        seed = index_set.pop()
        stack, members = [seed], [seed]
        while stack:
            cur = stack.pop()
            for axis in range(ndim):
                for delta in (-1, 1):
                    nb = list(cur)
                    nb[axis] += delta
                    nb = tuple(nb)
                    if nb in index_set:
                        index_set.remove(nb)
                        stack.append(nb)
                        members.append(nb)
        clusters.append(members)
    return clusters


def _refine(problem, scan, x, y_node, step, extra_ok=None):
    """Golden-section polish around a node, kept only if feasible and no worse.

    extra_ok, when given, is an additional y-predicate walled into the search;
    the winner polish passes the upper-level feasibility test through it so
    the polished pair stays feasible for the whole problem.
    """
    y_node = np.asarray(y_node, dtype=float)
    f_node = problem.f.value(x, y_node)
    best = y_node.copy()
    best_f = f_node

    def f_wall(y):
        if not scan.point_feasible(x, y):
            return np.inf
        if extra_ok is not None and not extra_ok(y):
            return np.inf
        try:
            return problem.f.value(x, y)
        except ArithmeticError:
            return np.inf

    current = best.copy()
    for _ in range(2):
        for axis in range(problem.m):
            def along(t, axis=axis, base=current):
                y = base.copy()
                y[axis] = t
                return f_wall(y)

            t_star, f_star = _golden(along, current[axis] - step, current[axis] + step)
            if np.isfinite(f_star) and f_star <= best_f:
                current = current.copy()
                current[axis] = t_star
                best, best_f = current.copy(), float(f_star)
        if problem.m == 1:
            break
    ok = scan.point_feasible(x, best)
    if ok and extra_ok is not None:
        ok = extra_ok(best)
    if ok and best_f <= f_node:
        return best, best_f
    return y_node, float(f_node)


def _touch_candidates(problem, scan, x, step):
    """Isolated feasibility points where a constraint dips to zero between nodes.

    Only meaningful for m = 1; returns refined y values that pass all
    constraints after golden-section minimization of the touching constraint.
    """
    if problem.m != 1 or not problem.g:
        return []
    axis = scan.y_axes[0]
    found = []
    x_cols = [np.float64(v) for v in x]
    cap = 1000.0 * step * step
    for fn in problem.g:
        vals = np.asarray(evaluate_array(fn.expr, x_cols, (axis,)), dtype=float)
        vals = np.broadcast_to(vals, axis.shape)
        padded = np.pad(np.nan_to_num(vals, nan=np.inf), 1, constant_values=np.inf)
        local = (vals <= padded[:-2]) & (vals <= padded[2:])
        candidates = np.flatnonzero(local & (vals > scan.feas_tol) & (vals <= cap))
        for k in candidates:
            lo = axis[max(k - 1, 0)]
            hi = axis[min(k + 1, axis.size - 1)]

            def g_scalar(t, fn=fn):
                try:
                    return fn.value(x, np.array([t]))
                except ArithmeticError:
                    return np.inf

            t_star, g_star = _golden(g_scalar, float(lo), float(hi))
            y_star = np.array([t_star])
            if g_star <= scan.feas_tol and scan.point_feasible(x, y_star):
                found.append(y_star)
    return found


def run_grid(
    problem: BilevelProblem,
    x_range,
    y_range,
    step: float,
    feas_tol: float = 1e-9,
    eq_tol: float | None = None,
) -> GridResult:
    """Exhaustive bilevel search on an (x, y) lattice with local refinement.

    x_range and y_range are (lo, hi) pairs applied to every axis of the
    respective variable.  eq_tol (default: step) is the half-width of the
    equality feasibility band, since equalities are rarely hit exactly on a
    lattice.  Raises GridUnsupported beyond two dimensions per level.
    """
    if problem.n > 2 or problem.m > 2:
        raise GridUnsupported(
            f"grid search supports n <= 2 and m <= 2, got n={problem.n} m={problem.m}"
        )
    if step <= 0:
        raise ValueError("step must be positive")
    eq_tol = step if eq_tol is None else eq_tol

    x_axes = [_axis(float(x_range[0]), float(x_range[1]), step) for _ in range(problem.n)]
    y_axes = [_axis(float(y_range[0]), float(y_range[1]), step) for _ in range(problem.m)]
    scan = _LowerScan(problem, y_axes, feas_tol, eq_tol)

    if problem.n == 1:
        x_points = [np.array([v]) for v in x_axes[0]]
    else:
        x_points = [
            np.array([v1, v2]) for v1 in x_axes[0] for v2 in x_axes[1]
        ]

    def node_y(idx):
        if problem.m == 1:
            return np.array([y_axes[0][idx[0]]])
        return np.array([y_axes[0][idx[0]], y_axes[1][idx[1]]])

    def upper_ok(x, y):
        for fn in problem.G:
            if fn.value(x, y) > feas_tol:
                return False
        for fn in problem.H:
            if abs(fn.value(x, y)) > eq_tol:
                return False
        return True

    def violation(x, y):
        """Worst constraint residual; breaks upper-value ties toward clean points."""
        v = 0.0
        for fn in problem.g:
            v = max(v, fn.value(x, y))
        for fn in problem.G:
            v = max(v, fn.value(x, y))
        for fn in problem.h:
            v = max(v, abs(fn.value(x, y)))
        for fn in problem.H:
            v = max(v, abs(fn.value(x, y)))
        return max(v, 0.0)

    best = None  # (F, violation, x, y, f_lower)
    feasible_count = 0

    for x in x_points:
        masked = scan.evaluate(x)
        fmin = float(masked.min())

        candidates = []
        if np.isfinite(fmin):
            tie = 1e-9 * (1.0 + abs(fmin))
            for idx in np.argwhere(masked <= fmin + tie):
                node = node_y(tuple(idx))
                candidates.append((node, float(masked[tuple(idx)])))
        for y_t in _touch_candidates(problem, scan, x, step):
            candidates.append((np.asarray(y_t, dtype=float), float(problem.f.value(x, y_t))))

        if not candidates:
            continue
        feasible_count += 1

        # touch points carry exact objective values and can undercut the best
        # node, so the argmin tie is re-resolved over the merged pool
        f_star = min(f for _, f in candidates)
        tie = 1e-9 * (1.0 + abs(f_star))
        for y_c, f_c in candidates:
            if f_c > f_star + tie or not upper_ok(x, y_c):
                continue
            upper_val = float(problem.F.value(x, y_c))
            if best is None:
                take = True
            else:
                window = 1e-12 * (1.0 + abs(best[0]))
                take = upper_val < best[0] - window or (
                    abs(upper_val - best[0]) <= window and violation(x, y_c) < best[1]
                )
            if take:
                best = (upper_val, violation(x, y_c), x.copy(), y_c.copy(), float(f_c))

    if best is None:
        raise RuntimeError("no feasible point found on the grid")

    _, _, best_x, best_y, _ = best
    best_y, best_f_low = _refine(
        problem, scan, best_x, best_y, step, extra_ok=lambda y: upper_ok(best_x, y)
    )
    best_f_up = float(problem.F.value(best_x, best_y))

    # enumerate every lower-level local minimizer at the winning x
    masked = scan.evaluate(best_x)
    mask = _local_min_mask(masked)
    indices = np.argwhere(mask)
    clusters = _cluster(indices, masked.ndim)
    minimizers = []
    seen = []
    padded = np.pad(masked, 1, constant_values=np.inf)
    for members in clusters:
        rep = min(members, key=lambda idx: (float(masked[idx]),) + idx)
        if masked.ndim == 1:
            k = rep[0]
            isolated = not (np.isfinite(padded[k]) or np.isfinite(padded[k + 2]))
        else:
            i, k = rep
            neighbors = (
                padded[i, k + 1], padded[i + 2, k + 1], padded[i + 1, k], padded[i + 1, k + 2]
            )
            isolated = not any(np.isfinite(v) for v in neighbors)
        y_ref, f_ref = _refine(problem, scan, best_x, node_y(rep), step)
        minimizers.append((y_ref, f_ref, isolated))
        seen.append(y_ref)
    for y_t in _touch_candidates(problem, scan, best_x, step):
        if any(np.linalg.norm(y_t - y_s) <= 2 * step for y_s in seen):
            continue
        minimizers.append((np.asarray(y_t, float), float(problem.f.value(best_x, y_t)), True))

    records = []
    for y_ref, f_ref, isolated in sorted(minimizers, key=lambda t: tuple(t[0])):
        selected = bool(np.linalg.norm(y_ref - best_y) <= 2 * step)
        records.append(
            LowerMinimizer(
                y=y_ref,
                f_value=float(f_ref),
                upper_value=float(problem.F.value(best_x, y_ref)),
                selected=selected,
                isolated=bool(isolated),
                upper_feasible=upper_ok(best_x, y_ref),
            )
        )

    return GridResult(
        best_x=best_x,
        best_y=best_y,
        best_upper_value=float(best_f_up),
        best_lower_value=float(best_f_low),
        local_minimizers=tuple(records),
        feasible_x_count=feasible_count,
        step=float(step),
    )
