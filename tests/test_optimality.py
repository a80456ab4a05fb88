"""First/second-order condition machinery for the KKT-reformulated problem."""

import numpy as np
import pytest
from test_expr import _family_text

from bilevelkit import expr
from bilevelkit.lower import _assemble_b, point_eval
from bilevelkit.numerics import fd_hessian, fd_jacobian
from bilevelkit.optimality import (
    NondifferentiablePoint,
    check_first_order_fp,
    check_mfcq_fp,
    check_second_order_fp,
    critical_cone_fp,
    fp_constraint_jacobian,
    fp_constraints,
    fp_hessian,
    fp_lagrangian_grad,
    matrix_a,
    recover_multipliers,
    sp_hessian_fd,
    u_transform,
)
from bilevelkit.problem import (
    PrimalDualPoint,
    UpperMultiplier,
    fixture,
    flatten,
    load_problem,
    unflatten,
)
from bilevelkit.sensitivity import implicit_jacobians

P1_SOL = ("P1", [1.5], [1.5], [], [0.0])
P2_SOL = ("P2", [0.0, 0.0], [0.5, 0.5], [-0.5], [])
P4_SOL = ("P4", [-1.0], [0.0], [], [1.0])


def point(x, y, mu, xi):
    return PrimalDualPoint(
        x=np.asarray(x, float), y=np.asarray(y, float),
        mu=np.asarray(mu, float), xi=np.asarray(xi, float),
    )


def recovered(problem, u, lam_G=None):
    lam_l, lam_h, lam_g = recover_multipliers(problem, u, lam_G=lam_G)
    return UpperMultiplier(
        lam_H=np.zeros(problem.p),
        lam_G=np.zeros(problem.q) if lam_G is None else np.asarray(lam_G, float),
        lam_L=lam_l, lam_h=lam_h, lam_g=lam_g,
    )


def test_fp_constraints_vanish_at_kkt_points():
    for name, x, y, mu, xi in (P1_SOL, P2_SOL, P4_SOL):
        problem = fixture(name)
        cons = fp_constraints(problem, point(x, y, mu, xi))
        stacked = np.concatenate([cons.H, cons.gradL, cons.h, cons.comp])
        assert np.abs(stacked).max(initial=0.0) <= 1e-12
        assert np.all(cons.G <= 0.0)


def test_fp_lagrangian_grad_matches_fd():
    rng = np.random.default_rng(0)
    for name in ("P1", "P2", "P4"):
        problem = fixture(name)
        dims = problem.n + problem.m + problem.r + problem.s
        lam_dim = problem.p + problem.q + problem.m + problem.r + problem.s
        checked = 0
        while checked < 8:
            uf = rng.uniform(-1.4, 1.4, dims)
            u = unflatten(problem, uf)
            if problem.s:
                gv = np.array([fn.value(u.x, u.y) for fn in problem.g])
                if np.any(np.abs(gv + u.xi) < 1e-3):
                    continue
            from bilevelkit.problem import unflatten_multiplier

            lam = unflatten_multiplier(problem, rng.normal(size=lam_dim))
            _, grad = fp_lagrangian_grad(problem, u, lam)

            def value(vf):
                val, _ = fp_lagrangian_grad(problem, unflatten(problem, vf), lam, kink_tol=None)
                return np.array([val])

            fd = fd_jacobian(value, uf, h=1e-6)[0]
            assert np.abs(grad - fd).max() <= 1e-6
            checked += 1


def test_fp_lagrangian_grad_kink_guard():
    p4 = fixture("P4")
    u = point([0.0], [0.5], [], [0.5])  # g + xi = -0.5 + 0.5 = 0 exactly
    lam = UpperMultiplier(np.zeros(0), np.zeros(1), np.zeros(1), np.zeros(0), np.zeros(1))
    with pytest.raises(NondifferentiablePoint):
        fp_lagrangian_grad(p4, u, lam)
    val, grad = fp_lagrangian_grad(p4, u, lam, kink_tol=None)
    assert np.isfinite(grad).all()


def test_recover_multipliers_kills_dual_gradient_blocks():
    for name, x, y, mu, xi in (P1_SOL, P2_SOL, P4_SOL):
        problem = fixture(name)
        u = point(x, y, mu, xi)
        lam = recovered(problem, u)
        _, grad = fp_lagrangian_grad(problem, u, lam)
        assert np.abs(grad[problem.n:]).max(initial=0.0) <= 1e-12


def test_recover_multipliers_p1_hand_values():
    p1 = fixture("P1")
    lam_l, lam_h, lam_g = recover_multipliers(p1, point([0.0], [1.0], [], [1.0]))
    # grad_y F = 1; K = [[1, -1], [-1, 0]] so lam_L = 0, lam_g = 1
    assert lam_l[0] == pytest.approx(0.0, abs=1e-14)
    assert lam_g[0] == pytest.approx(1.0, abs=1e-14)


def test_matrix_a_hand_values():
    p4 = fixture("P4")
    a = matrix_a(p4, point(*P4_SOL[1:]))
    assert np.allclose(a, [[-1.0, 1.0, -1.0], [0.0, -1.0, 0.0]])

    p2 = fixture("P2")
    a = matrix_a(p2, point(*P2_SOL[1:]))
    expect = np.array([
        [-1.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, -1.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0, 0.0],
    ])
    assert np.allclose(a, expect)


@pytest.mark.parametrize("sol", [P1_SOL, P2_SOL, P4_SOL], ids=lambda sol: sol[0])
def test_matrix_a_lower_rows_are_b_beside_k(sol):
    name, x, y, mu, xi = sol
    problem = fixture(name)
    u = point(x, y, mu, xi)
    sr = implicit_jacobians(problem, u.x, u.y, u.mu, u.xi)
    b = _assemble_b(point_eval(problem, u.x, u.y), u.mu, u.xi, np.diag(sr.W))
    assert np.array_equal(matrix_a(problem, u)[problem.p:], np.hstack([b, sr.K]))


def test_fp_constraint_jacobian_matches_fd():
    problem = fixture("P4")
    u = point([0.4], [0.9], [], [0.3])  # away from the kink

    def eq_vals(uf):
        return fp_constraints(problem, unflatten(problem, uf)).flatten()

    eq_jac, g_jac = fp_constraint_jacobian(problem, u)
    full = np.vstack([
        fd_jacobian(eq_vals, flatten(u), h=1e-6),
    ])
    # flatten() orders blocks H, G, gradL, h, comp; split G out
    q = problem.q
    fd_g = full[problem.p: problem.p + q]
    fd_eq = np.vstack([full[: problem.p], full[problem.p + q:]])
    assert np.abs(eq_jac - fd_eq).max() <= 1e-6
    assert np.abs(g_jac - fd_g).max() <= 1e-6


def test_mfcq_holds_on_fixture_solutions():
    for name, x, y, mu, xi in (P1_SOL, P2_SOL, P4_SOL):
        problem = fixture(name)
        rep = check_mfcq_fp(problem, point(x, y, mu, xi))
        assert rep.rank_ok
        assert rep.holds
        assert rep.min_singular_value > 0.1


def test_mfcq_detects_rank_deficiency():
    text = """
dims n=1 m=2
upper.objective x1
lower.objective 0.5*(y1^2 + y2^2)
lower.eq y1 + y2 - x1
lower.eq y1 + y2 - x1
"""
    problem = load_problem(text)
    u = point([0.0], [0.0, 0.0], [0.0, 0.0], [])
    rep = check_mfcq_fp(problem, u)
    assert not rep.rank_ok
    assert not rep.holds


def test_mfcq_detects_blocked_direction():
    text = """
dims n=1 m=1
upper.objective y1
upper.ineq x1
upper.ineq -x1
lower.objective 0.5*(y1 - x1)^2
"""
    problem = load_problem(text)
    u = point([0.0], [0.0], [], [])
    rep = check_mfcq_fp(problem, u)
    assert rep.rank_ok
    assert not rep.direction_ok
    assert not rep.holds
    assert rep.t_opt <= 1e-8


def test_mfcq_vacuous_direction_without_active_upper():
    p2 = fixture("P2")
    rep = check_mfcq_fp(p2, point(*P2_SOL[1:]))
    assert rep.t_opt == np.inf
    assert rep.active_upper == ()


def test_critical_cone_p2_exact_kernel():
    p2 = fixture("P2")
    u = point(*P2_SOL[1:])
    lam = recovered(p2, u)
    cone = critical_cone_fp(p2, u, lam)
    z = cone.subspace_basis
    assert z.shape == (5, 2)
    assert not cone.over_approximation
    a = matrix_a(p2, u)
    assert np.abs(a @ z).max() <= 1e-12
    # the kernel contains the lifts of (1,1) and (0,-2) through U
    big_u = u_transform(p2, u.x, u.y, u.mu, u.xi)
    for dx in (np.array([1.0, 1.0]), np.array([0.0, -2.0])):
        v = big_u @ dx
        proj = z @ (z.T @ v)
        assert np.allclose(proj, v, atol=1e-10)


def test_critical_cone_over_approximation_flag():
    text = """
dims n=1 m=1
upper.objective x1 + y1
upper.ineq -x1 - 1
lower.objective 0.5*(y1 - x1)^2
lower.ineq -y1
"""
    problem = load_problem(text)
    u = point([-1.0], [0.0], [], [1.0])
    lam = recovered(problem, u, lam_G=np.array([0.0]))  # active G, zero multiplier
    cone = critical_cone_fp(problem, u, lam)
    assert cone.active_upper == (0,)
    assert cone.over_approximation
    lam2 = recovered(problem, u, lam_G=np.array([1.0]))
    cone2 = critical_cone_fp(problem, u, lam2)
    assert not cone2.over_approximation
    assert cone2.subspace_basis.shape[1] < cone.subspace_basis.shape[1]


def test_first_order_sigma_zero_then_perturbed():
    for name, x, y, mu, xi in (P1_SOL, P2_SOL, P4_SOL):
        problem = fixture(name)
        u = point(x, y, mu, xi)
        lam = recovered(problem, u)
        rep = check_first_order_fp(problem, u, lam)
        assert rep.holds
        assert rep.sigma <= 1e-9

        for block in ("lam_G", "lam_L", "lam_h", "lam_g"):
            vec = getattr(lam, block)
            if vec.size == 0:
                continue
            import dataclasses

            bumped = dataclasses.replace(lam, **{block: vec + 0.1})
            rep_b = check_first_order_fp(problem, u, bumped)
            assert rep_b.sigma > 1e-3, (name, block)


def test_sigma_detects_infeasibility():
    p2 = fixture("P2")
    u = point([0.0, 0.0], [1.0, 1.0], [-0.5], [])  # h = 1 violated
    lam = recovered(p2, u)
    rep = check_first_order_fp(p2, u, lam)
    assert not rep.holds
    assert rep.feasibility_norm > 0.5


def test_fp_hessian_structure_and_fd():
    rng = np.random.default_rng(1)
    for name in ("P1", "P2", "P4"):
        problem = fixture(name)
        nv = problem.n + problem.m
        dims = nv + problem.r + problem.s
        lam_dim = problem.p + problem.q + problem.m + problem.r + problem.s
        from bilevelkit.problem import unflatten_multiplier

        checked = 0
        while checked < 4:
            uf = rng.uniform(-1.2, 1.2, dims)
            u = unflatten(problem, uf)
            if problem.s:
                gv = np.array([fn.value(u.x, u.y) for fn in problem.g])
                if np.any(np.abs(gv + u.xi) < 1e-3):
                    continue
            lam = unflatten_multiplier(problem, rng.normal(size=lam_dim))
            gamma = fp_hessian(problem, u, lam)
            assert np.array_equal(gamma, gamma.T)
            assert np.all(gamma[nv:, nv:] == 0.0)

            def grad(vf):
                _, g = fp_lagrangian_grad(problem, unflatten(problem, vf), lam, kink_tol=None)
                return g

            fd = fd_hessian(grad, uf, h=1e-4)
            assert np.abs(gamma - fd).max() <= 1e-3
            checked += 1


def test_fp_hessian_third_derivatives():
    # cubic lower objective: the lam_L . grad_y(f) term needs exact third derivatives
    text = """
dims n=1 m=1
upper.objective x1*y1
lower.objective y1^3 + x1^2*y1
lower.ineq y1 - 5
"""
    problem = load_problem(text)
    u = point([0.7], [0.9], [], [0.2])
    lam = UpperMultiplier(
        lam_H=np.zeros(0), lam_G=np.zeros(0), lam_L=np.array([2.0]),
        lam_h=np.zeros(0), lam_g=np.array([-1.0]),
    )
    gamma = fp_hessian(problem, u, lam)
    # phi = lam_L * (3 y^2 + x^2 + xi): hess_xx = 2 lam_L, hess_yy = 6 lam_L
    assert gamma[0, 0] == pytest.approx(2.0 * 2.0)
    assert gamma[1, 1] == pytest.approx(6.0 * 2.0)
    assert gamma[0, 1] == pytest.approx(1.0)  # only from F = x*y

    def grad(vf):
        _, g = fp_lagrangian_grad(problem, unflatten(problem, vf), lam, kink_tol=None)
        return g

    fd = fd_hessian(grad, flatten(u), h=1e-5)
    assert np.abs(gamma - fd).max() <= 1e-5


def test_repeated_fp_hessian_differentiates_nothing(monkeypatch):
    # the third-derivative tables are built on the first call; later calls only contract them
    problem = load_problem(_family_text(3, 6))
    rng = np.random.default_rng(5)

    def random_point():
        return point(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 6), [], rng.uniform(0.1, 1, 6))

    lam = UpperMultiplier(lam_H=np.zeros(0), lam_G=np.zeros(0), lam_L=rng.uniform(-1, 1, 6),
                          lam_h=np.zeros(0), lam_g=rng.uniform(-1, 1, 6))
    u0, u1 = random_point(), random_point()
    first = fp_hessian(problem, u0, lam)
    calls = []
    original = expr.diff

    def counted(e, axis, index):
        calls.append(axis)
        return original(e, axis, index)

    monkeypatch.setattr(expr, "diff", counted)
    second = fp_hessian(problem, u1, lam)
    assert calls == []
    assert np.abs(second[:9, :9]).max() > 0.0  # the 0.1*y^4 terms give third derivatives
    assert np.array_equal(fp_hessian(problem, u0, lam), first)


def test_fp_hessian_skips_terms_with_zero_coefficients(monkeypatch):
    # as the symbolic phi folded mul(Const(0.0), t) away: third derivatives of a term
    # whose coefficient is exactly 0 (either sign) are never evaluated
    problem = load_problem(_family_text(3, 6))
    lam_L = np.array([0.5, 0.0, -1.0, -0.0, 2.0, 0.0])
    xi = np.array([0.0, 0.7, 0.0, 0.0, -0.0, 0.0])
    lam = UpperMultiplier(lam_H=np.zeros(0), lam_G=np.zeros(0), lam_L=lam_L,
                          lam_h=np.zeros(0), lam_g=np.ones(6))
    seen = []
    original = expr.CompiledFunction.dy_hessian

    def recorded(fn, j, x, y):
        seen.append((problem.g.index(fn) if fn in problem.g else "f", j))
        return original(fn, j, x, y)

    monkeypatch.setattr(expr.CompiledFunction, "dy_hessian", recorded)
    fp_hessian(problem, point([0.2, -0.4, 0.9], [0.5, 0.3, 0.8, 0.6, 0.4, 0.7], [], xi), lam)
    assert seen == [(fn, j) for j in (0, 2, 4) for fn in ("f", 1)]


def test_second_order_p2_evidence():
    p2 = fixture("P2")
    u = point(*P2_SOL[1:])
    lam = recovered(p2, u)
    rep = check_second_order_fp(p2, u, lam, mode="sufficient")
    assert rep.holds
    # min eigenvalue of the reduced form over an orthonormal cone basis;
    # brute-force Rayleigh scan in test_second_order_rayleigh_oracle agrees
    assert rep.min_eigenvalue == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.cone_dimension == 2
    rep_n = check_second_order_fp(p2, u, lam, mode="necessary")
    assert rep_n.holds


def test_second_order_p4_evidence():
    p4 = fixture("P4")
    u = point(*P4_SOL[1:])
    lam = recovered(p4, u)
    rep = check_second_order_fp(p4, u, lam, mode="sufficient")
    assert rep.holds
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert rep.cone_dimension == 1


def test_second_order_rayleigh_oracle():
    # independent confirmation of the frozen 2/3: scan random cone directions
    p2 = fixture("P2")
    u = point(*P2_SOL[1:])
    lam = recovered(p2, u)
    cone = critical_cone_fp(p2, u, lam)
    gamma = fp_hessian(p2, u, lam)
    z = cone.subspace_basis
    rng = np.random.default_rng(11)
    best = np.inf
    for _ in range(2000):
        d = z @ rng.normal(size=z.shape[1])
        best = min(best, float(d @ gamma @ d) / float(d @ d))
    assert best == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert best >= 2.0 / 3.0 - 1e-12


def test_second_order_empty_cone_vacuous():
    p1 = fixture("P1")
    # x = -3 makes the upper inequality G = -x - 3 active; adding its row
    # to the active-G stack pins every direction, emptying the cone
    u = point([-3.0], [1.0], [], [4.0])
    lam = recovered(p1, u, lam_G=np.array([1.0]))
    rep = check_second_order_fp(p1, u, lam, mode="sufficient")
    assert rep.cone_empty
    assert rep.holds
    assert rep.min_eigenvalue == np.inf


def test_transport_identity_and_sp_hessian():
    p2 = fixture("P2")
    u = point(*P2_SOL[1:])
    lam = recovered(p2, u)
    gamma = fp_hessian(p2, u, lam)
    big_u = u_transform(p2, u.x, u.y, u.mu, u.xi)
    transported = big_u.T @ gamma @ big_u
    assert np.allclose(transported, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-10)
    fd = sp_hessian_fd(p2, u.x, y0=u.y, mu0=u.mu, xi0=u.xi)
    assert np.abs(fd - transported).max() <= 1e-3


def test_u_transform_shape_and_identity_block():
    p4 = fixture("P4")
    big_u = u_transform(p4, np.array([-1.0]), np.array([0.0]), np.zeros(0), np.array([1.0]))
    assert big_u.shape == (3, 1)
    assert big_u[0, 0] == 1.0
