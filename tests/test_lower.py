"""Lower-level KKT residuals, active sets, regularity report, semismooth Newton."""

import numpy as np
import pytest

from bilevelkit.lower import (
    Inconsistent,
    active_sets,
    check_jacobian_uniqueness,
    kkt_residual,
    lower_lagrangian,
    newton_weights,
    solve_lower,
)
from bilevelkit.problem import fixture


def test_lower_lagrangian_blocks_p2():
    p = fixture("P2")
    x = np.array([1.0, 2.0])
    y = np.array([0.0, 0.0])
    mu = np.array([3.0])
    val, grad, hyy, hyx = lower_lagrangian(p, x, y, mu, np.zeros(0))
    # f = 0.5 ||y - x||^2, h = y1 + y2 - 1
    assert val == pytest.approx(0.5 * 5.0 + 3.0 * (-1.0))
    assert np.allclose(grad, (y - x) + 3.0)
    assert np.allclose(hyy, np.eye(2))
    assert np.allclose(hyx, -np.eye(2))


def test_kkt_residual_zero_at_solutions():
    p1 = fixture("P1")
    r = kkt_residual(p1, np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0]))
    assert np.allclose(r, 0.0, atol=1e-15)
    p2 = fixture("P2")
    r = kkt_residual(p2, np.zeros(2), np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(0))
    assert np.allclose(r, 0.0, atol=1e-15)


def test_kkt_residual_p3_degenerate():
    p3 = fixture("P3")
    r = kkt_residual(p3, np.array([0.0]), np.array([-1.0]), np.zeros(0), np.array([0.0]))
    # grad_y f = 2y = -2 and grad_y g = 0, so the first block cannot vanish
    assert r[0] == pytest.approx(-2.0)


def test_active_sets_classification():
    p1 = fixture("P1")
    x = np.array([0.0])
    act = active_sets(p1, x, np.array([1.0]), np.array([1.0]))
    assert act.alpha == (0,) and act.beta == () and act.gamma == ()
    act = active_sets(p1, np.array([2.0]), np.array([2.0]), np.array([0.0]))
    assert act.gamma == (0,) and act.alpha == ()
    act = active_sets(p1, x, np.array([1.0]), np.array([0.0]))
    assert act.beta == (0,)


def test_active_sets_inconsistent_on_infeasible():
    p1 = fixture("P1")
    with pytest.raises(Inconsistent):
        active_sets(p1, np.array([0.0]), np.array([0.0]), np.array([1.0]))  # g = 1 > 0


def test_jacobian_uniqueness_passes_at_regular_points():
    p1 = fixture("P1")
    rep = check_jacobian_uniqueness(p1, np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0]))
    assert rep.all_ok
    assert rep.kkt_residual_norm <= 1e-15
    assert rep.min_singular_active == pytest.approx(1.0)
    assert rep.strict_comp_margin == pytest.approx(1.0)
    # active constraint pins the only lower variable, so the cone is trivial
    assert rep.reduced_hessian_min_eig == np.inf

    p2 = fixture("P2")
    rep = check_jacobian_uniqueness(p2, np.zeros(2), np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(0))
    assert rep.all_ok
    assert rep.min_singular_active == pytest.approx(np.sqrt(2.0))
    assert rep.strict_comp_margin == np.inf  # no inequalities at all
    assert rep.reduced_hessian_min_eig == pytest.approx(1.0)


def test_jacobian_uniqueness_fails_at_p3_bottom():
    p3 = fixture("P3")
    rep = check_jacobian_uniqueness(
        p3, np.array([0.0]), np.array([-1.0]), np.zeros(0), np.array([0.0])
    )
    assert not rep.kkt_ok
    assert not rep.licq_ok
    assert not rep.strict_comp_ok
    assert not rep.sosc_ok
    assert rep.kkt_residual_norm == pytest.approx(2.0)
    assert rep.min_singular_active == pytest.approx(0.0, abs=1e-15)
    assert np.isnan(rep.reduced_hessian_min_eig)


def test_jacobian_uniqueness_never_raises_on_infeasible():
    p1 = fixture("P1")
    rep = check_jacobian_uniqueness(p1, np.array([0.0]), np.array([0.0]), np.zeros(0), np.array([0.0]))
    assert not rep.kkt_ok


def test_newton_weights_kink_rule():
    p1 = fixture("P1")
    x = np.array([0.0])
    # g + xi = (1 - y) + xi
    assert newton_weights(p1, x, np.array([1.0]), np.array([0.5]))[0] == 0.0
    assert newton_weights(p1, x, np.array([2.0]), np.array([0.0]))[0] == 1.0
    assert newton_weights(p1, x, np.array([1.0]), np.array([0.0]))[0] == 0.0  # exact kink


def test_solve_lower_p1_branch_switch():
    p1 = fixture("P1")
    for xv, y_exp, xi_exp in ((-1.0, 1.0, 2.0), (0.5, 1.0, 0.5), (2.0, 2.0, 0.0), (3.0, 3.0, 0.0)):
        y, mu, xi, ok = solve_lower(p1, np.array([xv]))
        assert ok
        assert y[0] == pytest.approx(y_exp, abs=1e-10)
        assert xi[0] == pytest.approx(xi_exp, abs=1e-10)


def test_solve_lower_p2_equality():
    p2 = fixture("P2")
    y, mu, xi, ok = solve_lower(p2, np.array([0.2, -0.4]))
    assert ok
    # KKT: y - x + mu * 1 = 0 and y1 + y2 = 1 -> mu = (sum(x) - 1)/2
    mu_exp = (0.2 - 0.4 - 1.0) / 2.0
    assert mu[0] == pytest.approx(mu_exp, abs=1e-12)
    assert np.allclose(y, np.array([0.2, -0.4]) - mu_exp, atol=1e-12)


def test_solve_lower_warm_start_and_residual():
    p4 = fixture("P4")
    y, mu, xi, ok = solve_lower(p4, np.array([-1.0]), y0=np.array([0.3]), xi0=np.array([0.2]))
    assert ok
    assert y[0] == pytest.approx(0.0, abs=1e-10)
    assert xi[0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(kkt_residual(p4, np.array([-1.0]), y, mu, xi)).max() <= 1e-10


def test_solve_lower_never_accepts_a_worse_step():
    # from this start a Newton step finds no sufficient decrease within 40 halvings
    p3 = fixture("P3")
    x = np.array([0.16009188964529208])
    y0, xi0 = np.array([-1.7132235093151809]), np.array([-0.6110969237136499])
    norms = []
    for k in range(51):
        y, mu, xi, ok = solve_lower(p3, x, y0=y0, xi0=xi0, max_iter=k)
        norms.append(float(np.linalg.norm(kkt_residual(p3, x, y, mu, xi))))
    assert not ok
    assert all(later <= earlier for earlier, later in zip(norms, norms[1:])), norms
