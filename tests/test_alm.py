"""Augmented Lagrangian outer loop, inner BFGS, and rate diagnostics."""

import numpy as np
import pytest

from bilevelkit.alm import (
    AlmConfig,
    AlmTrace,
    InnerConfig,
    ReferenceTooClose,
    Stalled,
    _multiplier_update,
    alm_solve,
    aug_lagrangian,
    inner_minimize,
    project_polar,
    rate_diagnostics,
)
from bilevelkit.optimality import fp_constraints, fp_lagrangian_grad, recover_multipliers
from bilevelkit.problem import (
    PrimalDualPoint,
    UpperMultiplier,
    fixture,
    flatten,
    load_problem,
    unflatten_multiplier,
)


def point(x, y, mu, xi):
    return PrimalDualPoint(
        x=np.asarray(x, float), y=np.asarray(y, float),
        mu=np.asarray(mu, float), xi=np.asarray(xi, float),
    )


def zero_lam(problem):
    return UpperMultiplier(
        lam_H=np.zeros(problem.p), lam_G=np.zeros(problem.q),
        lam_L=np.zeros(problem.m), lam_h=np.zeros(problem.r),
        lam_g=np.zeros(problem.s),
    )


def test_project_polar_clips_only_lam_G():
    lam = UpperMultiplier(
        lam_H=np.array([-2.0]), lam_G=np.array([-1.0, 3.0]),
        lam_L=np.array([-4.0]), lam_h=np.zeros(0), lam_g=np.array([-5.0]),
    )
    out = project_polar(lam)
    assert np.array_equal(out.lam_G, [0.0, 3.0])
    assert out.lam_H[0] == -2.0
    assert out.lam_L[0] == -4.0
    assert out.lam_g[0] == -5.0


def test_aug_lagrangian_equality_block_by_hand():
    # single equality-type constraint gradL = y; at y=1 with lam=1, rho=2
    # the penalty adds lam*c + rho/2 * c^2 = 1 + 1 = 2 on top of F = x
    problem = load_problem(
        """
dims n=1 m=1
upper.objective x1
lower.objective 0.5*y1^2
"""
    )
    u = point([1.0], [1.0], [], [])
    lam = UpperMultiplier(np.zeros(0), np.zeros(0), np.array([1.0]), np.zeros(0), np.zeros(0))
    value, grad = aug_lagrangian(problem, u, lam, rho=2.0)
    assert value == pytest.approx(3.0)
    assert np.allclose(grad, [1.0, 3.0])  # dF/dx = 1; (lam + rho c) * d(y)/dy = 3


def test_aug_lagrangian_inequality_block_by_hand():
    problem = load_problem(
        """
dims n=1 m=1
upper.objective 0
upper.ineq x1
lower.objective 0.5*y1^2
"""
    )
    lam = UpperMultiplier(np.zeros(0), np.array([1.0]), np.zeros(1), np.zeros(0), np.zeros(0))
    # violated side: G = 1, shifted = max(1 + 2, 0) = 3 -> (9 - 1) / 4 = 2
    value, grad = aug_lagrangian(problem, point([1.0], [0.0], [], []), lam, rho=2.0)
    assert value == pytest.approx(2.0)
    assert grad[0] == pytest.approx(3.0)
    # strictly inactive side: shifted = 0 -> -|lam_G|^2 / (2 rho) = -0.25, no x-force
    value, grad = aug_lagrangian(problem, point([-5.0], [0.0], [], []), lam, rho=2.0)
    assert value == pytest.approx(-0.25)
    assert grad[0] == pytest.approx(0.0)


def test_aug_lagrangian_reduces_to_objective_when_feasible():
    p1 = fixture("P1")
    u = point([1.5], [1.5], [], [0.0])
    value, grad = aug_lagrangian(p1, u, zero_lam(p1), rho=7.0)
    assert value == pytest.approx(p1.F.value(u.x, u.y))


def test_aug_lagrangian_rejects_nonpositive_rho():
    p1 = fixture("P1")
    with pytest.raises(ValueError):
        aug_lagrangian(p1, point([1.5], [1.5], [], [0.0]), zero_lam(p1), rho=0.0)


@pytest.mark.parametrize("name", ["P1", "P2", "P4"])
def test_aug_lagrangian_gradient_is_fp_gradient_at_updated_multiplier(name):
    # grad_u L_rho(u; lam) = grad_u L(u; proj_polar(lam + rho Gtilde(u))), bit for bit
    problem = fixture(name)
    rng = np.random.default_rng(7)
    dim = problem.p + problem.q + problem.m + problem.r + problem.s
    for _ in range(5):
        u = point(rng.normal(size=problem.n), rng.normal(size=problem.m),
                  rng.normal(size=problem.r), rng.normal(size=problem.s))
        lam_flat, rho = rng.normal(size=dim), 10.0
        _, grad = aug_lagrangian(problem, u, unflatten_multiplier(problem, lam_flat), rho)
        lam_hat = _multiplier_update(problem, lam_flat, rho, fp_constraints(problem, u))
        _, grad_hat = fp_lagrangian_grad(problem, u, unflatten_multiplier(problem, lam_hat))
        assert np.array_equal(grad, grad_hat)


def test_aug_lagrangian_stationary_at_solution_with_recovered_lam():
    p2 = fixture("P2")
    u = point([0.0, 0.0], [0.5, 0.5], [-0.5], [])
    lam_l, lam_h, lam_g = recover_multipliers(p2, u)
    lam = UpperMultiplier(np.zeros(0), np.zeros(0), lam_l, lam_h, lam_g)
    _, grad = aug_lagrangian(p2, u, lam, rho=5.0)
    assert np.abs(grad).max() <= 1e-10


def test_inner_minimize_immediate_return():
    p2 = fixture("P2")
    u = point([0.0, 0.0], [0.5, 0.5], [-0.5], [])
    lam_l, lam_h, lam_g = recover_multipliers(p2, u)
    lam = UpperMultiplier(np.zeros(0), np.zeros(0), lam_l, lam_h, lam_g)
    result = inner_minimize(p2, flatten(u), lam, rho=1.0, eps=1e-6)
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.u, flatten(u))


def test_inner_minimize_drives_gradient_down():
    p2 = fixture("P2")
    u0 = np.array([0.8, -0.3, 0.1, 0.2, 0.0])
    result = inner_minimize(p2, u0, zero_lam(p2), rho=10.0, eps=1e-9)
    assert result.converged
    assert result.grad_norm <= 1e-9
    assert result.iterations < 200


def test_inner_minimize_rejects_bad_eps():
    p2 = fixture("P2")
    with pytest.raises(ValueError):
        inner_minimize(p2, np.zeros(5), zero_lam(p2), rho=1.0, eps=0.0)


def test_alm_converges_on_equality_fixture():
    p2 = fixture("P2")
    u0 = point([0.3, -0.2], [0.0, 0.0], [0.0], [])
    trace = alm_solve(p2, u0, zero_lam(p2))
    assert trace.status == "converged"
    assert trace.sigma_final <= 1e-8
    assert np.allclose(trace.u_final.x, [0.0, 0.0], atol=1e-6)
    assert np.allclose(trace.u_final.y, [0.5, 0.5], atol=1e-6)
    assert trace.u_final.mu[0] == pytest.approx(-0.5, abs=1e-6)


def test_alm_converges_on_inequality_fixture_through_the_kink():
    p4 = fixture("P4")
    u0 = point([0.0], [0.5], [], [0.5])  # starts exactly on the kink
    trace = alm_solve(p4, u0, zero_lam(p4))
    assert trace.status == "converged"
    assert trace.u_final.x[0] == pytest.approx(-1.0, abs=1e-6)
    assert trace.u_final.y[0] == pytest.approx(0.0, abs=1e-6)
    assert trace.u_final.xi[0] == pytest.approx(1.0, abs=1e-6)


def test_alm_multipliers_stay_in_polar_cone():
    p4 = fixture("P4")
    lam0 = UpperMultiplier(
        np.zeros(0), np.array([-3.0]), np.zeros(1), np.zeros(0), np.zeros(1)
    )
    trace = alm_solve(p4, point([0.0], [0.5], [], [0.5]), lam0)
    for lam_flat in trace.accepted_lams:
        lam = unflatten_multiplier(p4, lam_flat)
        assert np.all(lam.lam_G >= 0.0)


def test_alm_already_optimal_start_stops_at_round_zero():
    p2 = fixture("P2")
    u = point([0.0, 0.0], [0.5, 0.5], [-0.5], [])
    lam_l, lam_h, lam_g = recover_multipliers(p2, u)
    lam = UpperMultiplier(np.zeros(0), np.zeros(0), lam_l, lam_h, lam_g)
    trace = alm_solve(p2, u, lam)
    assert trace.status == "converged"
    assert len(trace.iterations) == 1
    assert trace.iterations[0].k == 0
    assert len(trace.accepted_us) == 1
    assert trace.rho_final == pytest.approx(10.0)


def test_alm_rho_growth_and_inner_tolerance_schedule():
    p2 = fixture("P2")
    cfg = AlmConfig(rho0=10.0, rho_growth=10.0)
    trace = alm_solve(p2, point([0.3, -0.2], [0.0, 0.0], [0.0], []), zero_lam(p2), cfg)
    rho_seen = [rec.rho for rec in trace.iterations]
    assert rho_seen[0] == 10.0
    for prev, cur in zip(rho_seen, rho_seen[1:]):
        assert cur == pytest.approx(min(prev * 10.0, cfg.rho_max))
    for rec in trace.iterations[:-1]:
        assert rec.eps == pytest.approx(max(0.1 * rec.sigma ** 1.5, 1e-12))
    assert trace.iterations[-1].eps == 0.0  # converged sentinel record


def test_alm_fixed_rho_when_growth_is_one():
    p2 = fixture("P2")
    cfg = AlmConfig(rho0=100.0, rho_growth=1.0)
    trace = alm_solve(p2, point([0.3, -0.2], [0.0, 0.0], [0.0], []), zero_lam(p2), cfg)
    assert trace.status == "converged"
    assert all(rec.rho == 100.0 for rec in trace.iterations)
    assert trace.rho_final == 100.0


def test_alm_safeguard_rejects_long_steps():
    p2 = fixture("P2")
    cfg = AlmConfig(c_hat=1e-6, rho_max=1e4)
    trace = alm_solve(p2, point([0.3, -0.2], [0.0, 0.0], [0.0], []), zero_lam(p2), cfg)
    rejected = [rec for rec in trace.iterations if not rec.accepted]
    assert rejected, "tiny c_hat must force rejected rounds"
    # a rejected round grows rho and leaves the multiplier untouched
    by_k = {rec.k: rec for rec in trace.iterations}
    first = rejected[0]
    nxt = by_k[first.k + 1]
    assert nxt.rho == pytest.approx(min(first.rho * 10.0, cfg.rho_max))
    assert np.array_equal(nxt.lam, first.lam)
    assert np.array_equal(nxt.u, first.u)


def test_alm_stalls_when_inner_cannot_move():
    p2 = fixture("P2")
    cfg = AlmConfig(max_outer=40, inner=InnerConfig(max_iter=0))
    with pytest.raises(Stalled) as exc_info:
        alm_solve(p2, point([0.5, 0.5], [0.3, -0.1], [0.2], []), zero_lam(p2), cfg)
    trace = exc_info.value.trace
    assert trace.status == "stalled"
    assert len(trace.iterations) >= 10


def test_alm_config_validation():
    with pytest.raises(ValueError):
        AlmConfig(rho_growth=0.5)
    with pytest.raises(ValueError):
        AlmConfig(rho0=-1.0)
    with pytest.raises(ValueError):
        AlmConfig(outer_tol=0.0)


def synthetic_trace(errors):
    us = tuple(np.array([e]) for e in errors)
    lams = tuple(np.array([0.0]) for _ in errors)
    return AlmTrace(
        iterations=(), accepted_us=us, accepted_lams=lams, status="converged",
        u_final=None, lam_final=None, sigma_final=0.0, rho_final=1.0,
    )


def test_rate_diagnostics_geometric_sequence():
    trace = synthetic_trace([2.0 ** -k for k in range(8)])
    q = rate_diagnostics(trace, np.array([0.0]), np.array([0.0]))
    assert np.allclose(q, 0.5)


def test_rate_diagnostics_superlinear_sequence():
    trace = synthetic_trace([2.0 ** -(k * k) for k in range(6)])
    q = rate_diagnostics(trace, np.array([0.0]), np.array([0.0]))
    assert np.all(np.diff(q) < 0)
    assert q[-1] < 1e-2


def test_rate_diagnostics_reference_too_close():
    trace = synthetic_trace([0.0, 0.0, 0.0])
    with pytest.raises(ReferenceTooClose):
        rate_diagnostics(trace, np.array([0.0]), np.array([0.0]))


def test_rate_diagnostics_requires_converged_trace():
    trace = synthetic_trace([1.0, 0.5])
    object.__setattr__(trace, "status", "max_outer")
    with pytest.raises(ValueError):
        rate_diagnostics(trace, np.array([0.0]), np.array([0.0]))


def test_rate_diagnostics_on_real_run():
    p2 = fixture("P2")
    trace = alm_solve(p2, point([0.3, -0.2], [0.0, 0.0], [0.0], []), zero_lam(p2))
    q = rate_diagnostics(trace, trace.u_final, trace.lam_final)
    assert q.size >= 2
    assert np.all(q >= 0.0)  # last quotient is 0: the reference is the final iterate
    assert float(np.median(q)) < 1.0
