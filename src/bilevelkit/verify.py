"""Self-contained invariant suite: derivative, projection, transport, and parser checks.

Each check returns a CheckResult; the CLI `verify` command prints one line per
check and exits zero only if everything passes.  All randomness is seeded, so
two runs produce identical reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import alm, optimality
from .lower import kkt_residual, solve_lower
from .numerics import LpProblem, fd_hessian, fd_jacobian, lp_maximize, min_eig_sym
from .optimality import (
    check_first_order_fp,
    check_mfcq_fp,
    critical_cone_fp,
    fp_constraints,
    fp_hessian,
    fp_lagrangian_grad,
    matrix_a,
    recover_multipliers,
    sp_hessian_fd,
    u_transform,
)
from .problem import (
    PrimalDualPoint,
    UpperMultiplier,
    fixture,
    flatten,
    format_problem,
    load_problem,
    unflatten,
    unflatten_multiplier,
)
from .sensitivity import implicit_jacobians


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fixture_points():
    """Hand-checked KKT points (problem, name, x, y, mu, xi) used across checks."""
    p1 = fixture("P1")
    p2 = fixture("P2")
    p4 = fixture("P4")
    return [
        (p1, "P1-active", np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0])),
        (p1, "P1-inactive", np.array([2.0]), np.array([2.0]), np.zeros(0), np.array([0.0])),
        (p2, "P2", np.zeros(2), np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(0)),
        (p4, "P4", np.array([-1.0]), np.array([0.0]), np.zeros(0), np.array([1.0])),
    ]


def _point(x, y, mu, xi) -> PrimalDualPoint:
    return PrimalDualPoint(x=x, y=y, mu=mu, xi=xi)


def _recovered(problem, u):
    lam_l, lam_h, lam_g = recover_multipliers(problem, u)
    return UpperMultiplier(
        lam_H=np.zeros(problem.p),
        lam_G=np.zeros(problem.q),
        lam_L=lam_l,
        lam_h=lam_h,
        lam_g=lam_g,
    )


def check_parser_round_trip() -> CheckResult:
    """Printed fixtures reload to functions agreeing at 100 random points."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for name in ("P1", "P2", "P3", "P4"):
        original = fixture(name)
        reloaded = load_problem(format_problem(original))
        fns = [(original.F, reloaded.F), (original.f, reloaded.f)]
        fns += list(zip(original.G, reloaded.G))
        fns += list(zip(original.H, reloaded.H))
        fns += list(zip(original.g, reloaded.g))
        fns += list(zip(original.h, reloaded.h))
        for _ in range(100):
            x = rng.uniform(-2, 2, original.n)
            y = rng.uniform(-2, 2, original.m)
            for fa, fb in fns:
                worst = max(worst, abs(fa.value(x, y) - fb.value(x, y)))
    return CheckResult("parser-round-trip", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_symbolic_gradients() -> CheckResult:
    """Symbolic first derivatives match central differences on every fixture."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in ("P1", "P2", "P3", "P4"):
        prob = fixture(name)
        fns = [prob.F, prob.f] + list(prob.G) + list(prob.H) + list(prob.g) + list(prob.h)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, prob.n)
            y = rng.uniform(-1.5, 1.5, prob.m)
            for fn in fns:
                fd_x = fd_jacobian(lambda v, fn=fn, y=y: np.array([fn.value(v, y)]), x)
                fd_y = fd_jacobian(lambda v, fn=fn, x=x: np.array([fn.value(x, v)]), y)
                worst = max(worst, float(np.abs(fn.grad_x(x, y) - fd_x[0]).max(initial=0.0)))
                worst = max(worst, float(np.abs(fn.grad_y(x, y) - fd_y[0]).max(initial=0.0)))
    return CheckResult("symbolic-gradients-vs-fd", worst <= 1e-6, f"max deviation {worst:.3e}")


def check_projection_identities() -> CheckResult:
    """min(v, 0) is idempotent and 1-Lipschitz; the polar projection is idempotent."""
    rng = np.random.default_rng(2)
    ok = True
    detail = "idempotent and nonexpansive on 200 random vectors"
    for _ in range(200):
        v = rng.normal(size=8) * 10
        w = rng.normal(size=8) * 10
        pv = np.minimum(v, 0.0)
        if not np.array_equal(np.minimum(pv, 0.0), pv):
            ok, detail = False, "projection not idempotent"
            break
        if np.linalg.norm(pv - np.minimum(w, 0.0)) > np.linalg.norm(v - w) + 1e-15:
            ok, detail = False, "projection expanded distances"
            break
    lam = UpperMultiplier(
        lam_H=np.array([1.0]), lam_G=np.array([-3.0, 2.0]), lam_L=np.array([-1.0]),
        lam_h=np.zeros(0), lam_g=np.array([5.0]),
    )
    once = alm.project_polar(lam)
    twice = alm.project_polar(once)
    if not (np.array_equal(once.lam_G, np.array([0.0, 2.0])) and np.array_equal(twice.lam_G, once.lam_G)):
        ok, detail = False, "polar projection misbehaved"
    return CheckResult("projection-identities", ok, detail)


def check_lower_solver() -> CheckResult:
    """solve_lower lands on KKT points and matches the clip-map closed form."""
    p1 = fixture("P1")
    worst = 0.0
    for xv in (-1.0, -0.5, 0.0, 0.5):
        y, mu, xi, conv = solve_lower(p1, np.array([xv]))
        if not conv:
            return CheckResult("lower-solver-closed-form", False, f"no convergence at x={xv}")
        worst = max(worst, abs(y[0] - 1.0), abs(xi[0] - (1.0 - xv)))
    for xv in (1.5, 2.0, 3.0):
        y, mu, xi, conv = solve_lower(p1, np.array([xv]))
        if not conv:
            return CheckResult("lower-solver-closed-form", False, f"no convergence at x={xv}")
        worst = max(worst, abs(y[0] - xv), abs(xi[0]))
    p2 = fixture("P2")
    y, mu, xi, conv = solve_lower(p2, np.array([1.0, 1.0]))
    worst = max(worst, float(np.abs(y - 0.5).max()), abs(mu[0] - 0.5))
    res = kkt_residual(p2, np.array([1.0, 1.0]), y, mu, xi)
    worst = max(worst, float(np.abs(res).max()))
    return CheckResult("lower-solver-closed-form", worst <= 1e-8, f"max deviation {worst:.3e}")


def check_sensitivity_fd() -> CheckResult:
    """Implicit Jacobians match finite differences of the re-solved lower level."""
    worst = 0.0
    for prob, _, x, y, mu, xi in _fixture_points():
        sr = implicit_jacobians(prob, x, y, mu, xi)

        def resolve(xv, prob=prob, y=y, mu=mu, xi=xi):
            yy, mm, ss, conv = solve_lower(prob, xv, y0=y, mu0=mu, xi0=xi, tol=1e-12)
            if not conv:
                raise RuntimeError("lower solve failed")
            return np.concatenate([yy, mm, ss])

        fd = fd_jacobian(resolve, x, h=1e-5)
        exact = np.vstack([sr.Jy, sr.Jmu, sr.Jxi])
        worst = max(worst, float(np.abs(fd - exact).max(initial=0.0)))
    return CheckResult("sensitivity-vs-fd", worst <= 1e-6, f"max deviation {worst:.3e}")


def check_recovered_stationarity() -> CheckResult:
    """Recovered multipliers kill the (y, mu, xi) gradient blocks."""
    worst = 0.0
    for prob, _, x, y, mu, xi in _fixture_points():
        u = _point(x, y, mu, xi)
        lam = _recovered(prob, u)
        _, grad = fp_lagrangian_grad(prob, u, lam)
        worst = max(worst, float(np.abs(grad[prob.n:]).max(initial=0.0)))
    return CheckResult("recovered-multiplier-stationarity", worst <= 1e-9, f"max norm {worst:.3e}")


def check_transport_identity() -> CheckResult:
    """FD Hessian of the reduced problem equals the U-transported exact Hessian."""
    worst = 0.0
    for prob, _, x, y, mu, xi in _fixture_points():
        u = _point(x, y, mu, xi)
        lam = _recovered(prob, u)
        gamma = fp_hessian(prob, u, lam)
        big_u = u_transform(prob, x, y, mu, xi)
        transported = big_u.T @ gamma @ big_u
        fd = sp_hessian_fd(prob, x, y0=y, mu0=mu, xi0=xi)
        worst = max(worst, float(np.abs(fd - transported).max()))
    return CheckResult("hessian-transport", worst <= 1e-3, f"max deviation {worst:.3e}")


def check_gamma22_zero() -> CheckResult:
    """The dual-dual block of the reformulated Hessian is exactly zero."""
    rng = np.random.default_rng(3)
    ok = True
    for prob, _, x, y, mu, xi in _fixture_points():
        u = _point(x, y, mu, xi)
        for _ in range(3):
            lam = UpperMultiplier(
                lam_H=rng.normal(size=prob.p),
                lam_G=rng.normal(size=prob.q),
                lam_L=rng.normal(size=prob.m),
                lam_h=rng.normal(size=prob.r),
                lam_g=rng.normal(size=prob.s),
            )
            gamma = fp_hessian(prob, u, lam)
            nv = prob.n + prob.m
            if np.any(gamma[nv:, nv:] != 0.0):
                ok = False
    return CheckResult("dual-dual-block-zero", ok, "exact zeros in all sampled Hessians")


def check_fp_hessian_fd() -> CheckResult:
    """Exact reformulated Hessian agrees with FD of the exact gradient."""
    worst = 0.0
    for prob, _, x, y, mu, xi in _fixture_points():
        u = _point(x, y, mu, xi)
        lam = _recovered(prob, u)
        gamma = fp_hessian(prob, u, lam)

        def grad_fn(uf, prob=prob, lam=lam):
            _, g = fp_lagrangian_grad(prob, unflatten(prob, uf), lam, kink_tol=None)
            return g

        fd = fd_hessian(grad_fn, flatten(u), h=1e-4)
        worst = max(worst, float(np.abs(fd - gamma).max()))
    return CheckResult("fp-hessian-vs-fd", worst <= 1e-3, f"max deviation {worst:.3e}")


def check_sigma_properties() -> CheckResult:
    """sigma vanishes at hand solutions and certifies feasibility when zero."""
    sols = {
        "P1": (np.array([1.5]), np.array([1.5]), np.zeros(0), np.array([0.0])),
        "P2": (np.zeros(2), np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(0)),
        "P4": (np.array([-1.0]), np.array([0.0]), np.zeros(0), np.array([1.0])),
    }
    worst = 0.0
    for name, (x, y, mu, xi) in sols.items():
        prob = fixture(name)
        u = _point(x, y, mu, xi)
        lam = _recovered(prob, u)
        rep = check_first_order_fp(prob, u, lam)
        if rep.sigma < 0:
            return CheckResult("natural-residual", False, "negative sigma")
        worst = max(worst, rep.sigma)
        cons = fp_constraints(prob, u)
        feas = max(
            float(np.abs(np.concatenate([cons.H, cons.gradL, cons.h, cons.comp])).max(initial=0.0)),
            float(np.maximum(cons.G, 0.0).max(initial=0.0)),
        )
        worst = max(worst, feas)
    return CheckResult("natural-residual", worst <= 1e-9, f"max sigma/violation {worst:.3e}")


def check_cone_transport() -> CheckResult:
    """Directions lifted through U stay in the kernel of the equality rows."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for prob, _, x, y, mu, xi in _fixture_points():
        u = _point(x, y, mu, xi)
        a = matrix_a(prob, u)
        big_u = u_transform(prob, x, y, mu, xi)
        for _ in range(20):
            dx = rng.normal(size=prob.n)
            worst = max(worst, float(np.abs(a @ (big_u @ dx)).max(initial=0.0)))
    return CheckResult("cone-transport", worst <= 1e-8, f"max residual {worst:.3e}")


def check_mfcq_fixtures() -> CheckResult:
    """MFCQ holds at the regular fixture points (hand-checkable cases)."""
    ok = True
    details = []
    for prob, name, x, y, mu, xi in _fixture_points():
        rep = check_mfcq_fp(prob, _point(x, y, mu, xi))
        details.append(f"{name}:{'ok' if rep.holds else 'FAIL'}")
        ok = ok and rep.holds
    return CheckResult("mfcq-fixtures", ok, " ".join(details))


def check_multiplier_cone_membership() -> CheckResult:
    """Every multiplier along a solve stays in the polar cone."""
    prob = fixture("P4")
    u0 = PrimalDualPoint(
        x=np.array([0.0]), y=np.array([0.5]), mu=np.zeros(0), xi=np.array([0.5])
    )
    lam0 = UpperMultiplier(
        lam_H=np.zeros(0), lam_G=np.zeros(1), lam_L=np.zeros(1),
        lam_h=np.zeros(0), lam_g=np.zeros(1),
    )
    trace = alm.alm_solve(prob, u0, lam0)
    ok = trace.status == "converged"
    worst = 0.0
    for lam_flat in trace.accepted_lams:
        lam = unflatten_multiplier(prob, lam_flat)
        if lam.lam_G.size:
            worst = min(worst, float(lam.lam_G.min()))
    return CheckResult(
        "multiplier-cone-membership",
        ok and worst >= 0.0,
        f"status {trace.status}, min lam_G {worst:.3e}",
    )


def check_aug_lagrangian_fd() -> CheckResult:
    """Penalized-Lagrangian gradient matches finite differences off the kink."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for name in ("P1", "P2", "P4"):
        prob = fixture(name)
        dims = prob.n + prob.m + prob.r + prob.s
        lam_dim = prob.p + prob.q + prob.m + prob.r + prob.s
        for _ in range(30):
            uf = rng.uniform(-1.5, 1.5, dims)
            u = unflatten(prob, uf)
            if prob.s:
                gv = np.array([fn.value(u.x, u.y) for fn in prob.g])
                if np.any(np.abs(gv + u.xi) < 1e-3):
                    continue
            lam = unflatten_multiplier(prob, rng.normal(size=lam_dim))
            rho = float(rng.uniform(0.5, 20.0))
            _, grad = alm.aug_lagrangian(prob, u, lam, rho)

            def val(vf, prob=prob, lam=lam, rho=rho):
                v, _ = alm.aug_lagrangian(prob, unflatten(prob, vf), lam, rho)
                return np.array([v])

            fd = fd_jacobian(val, uf, h=1e-6)[0]
            worst = max(worst, float(np.abs(fd - grad).max(initial=0.0)))
    return CheckResult("aug-lagrangian-grad-vs-fd", worst <= 1e-5, f"max deviation {worst:.3e}")


def _vertex_max(c, a, b, lo, hi) -> float:
    """Best objective over the basic feasible points of a full-row-rank box LP."""
    meq, n = a.shape
    best = -np.inf
    for basic in itertools.combinations(range(n), meq):
        basic = list(basic)
        free = [j for j in range(n) if j not in basic]
        for at_upper in itertools.product((False, True), repeat=len(free)):
            x = np.zeros(n)
            x[free] = np.where(at_upper, hi[free], lo[free])
            if meq:
                x[basic] = np.linalg.solve(a[:, basic], b - a[:, free] @ x[free])
            if np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9):
                best = max(best, float(c @ x))
    return best


def check_lp_kernel() -> CheckResult:
    """The bounded simplex matches vertex enumeration on small random LPs."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        meq = int(rng.integers(0, n))
        a = rng.normal(size=(meq, n))
        lo = -rng.uniform(0.5, 2.0, n)
        hi = rng.uniform(0.5, 2.0, n)
        b = a @ rng.uniform(lo, hi)
        c = rng.normal(size=n)
        val, x = lp_maximize(LpProblem(c, a, b, lo, hi))
        violation = max(float(np.abs(a @ x - b).max(initial=0.0)),
                        float(np.max(lo - x)), float(np.max(x - hi)))
        worst = max(worst, abs(val - _vertex_max(c, a, b, lo, hi)), violation)
    return CheckResult("simplex-vs-vertex-enumeration", worst <= 1e-9, f"max deviation {worst:.3e}")


def check_second_order_cones() -> CheckResult:
    """Reduced curvature matches a direct Rayleigh scan over the cone basis."""
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for name, expect_dim in (("P2", 2), ("P4", 1)):
        prob = fixture(name)
        pts = {p[1]: p for p in _fixture_points()}
        _, _, x, y, mu, xi = pts[name]
        u = _point(x, y, mu, xi)
        lam = _recovered(prob, u)
        cone = critical_cone_fp(prob, u, lam)
        z = cone.subspace_basis
        gamma = fp_hessian(prob, u, lam)
        reduced = z.T @ gamma @ z
        lo = float(min_eig_sym(0.5 * (reduced + reduced.T)))
        rayleigh = np.inf
        for _ in range(1000):
            c = rng.normal(size=z.shape[1])
            d = z @ c
            rayleigh = min(rayleigh, float(d @ gamma @ d) / float(d @ d))
        if z.shape[1] != expect_dim or abs(lo - rayleigh) > 1e-3 or lo <= 0:
            ok = False
        details.append(f"{name}: dim {z.shape[1]}, min eig {lo:.6f}, scan {rayleigh:.6f}")
    return CheckResult("second-order-cone-scan", ok, "; ".join(details))


ALL_CHECKS = (
    check_parser_round_trip,
    check_symbolic_gradients,
    check_projection_identities,
    check_lower_solver,
    check_sensitivity_fd,
    check_recovered_stationarity,
    check_transport_identity,
    check_gamma22_zero,
    check_fp_hessian_fd,
    check_sigma_properties,
    check_cone_transport,
    check_mfcq_fixtures,
    check_multiplier_cone_membership,
    check_aug_lagrangian_fd,
    check_lp_kernel,
    check_second_order_cones,
)


def run_all() -> list:
    """Run every invariant check, converting crashes into failed results."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # a crashed check is a failed check
            name = fn.__name__.replace("check_", "").replace("_", "-")
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
