import numpy as np
import pytest

from bilevelkit.lower import active_sets, solve_lower
from bilevelkit.numerics import fd_jacobian
from bilevelkit.problem import fixture
from bilevelkit.sensitivity import (
    NotKkt,
    StrictComplementarityViolated,
    build_w,
    implicit_jacobians,
)


def test_build_w_masks():
    p1 = fixture("P1")
    act = active_sets(p1, np.array([0.0]), np.array([1.0]), np.array([1.0]))
    assert np.array_equal(build_w(act), [0.0])
    act = active_sets(p1, np.array([2.0]), np.array([2.0]), np.array([0.0]))
    assert np.array_equal(build_w(act), [1.0])


def test_build_w_rejects_biactive():
    p1 = fixture("P1")
    act = active_sets(p1, np.array([0.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(StrictComplementarityViolated):
        build_w(act)


def test_build_k_p1_active():
    p1 = fixture("P1")
    sr = implicit_jacobians(p1, np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0]))
    # rows: grad_y L jacobian [hess_yy, J_yg^T]; complementarity [(1-w) J_yg, -w]
    assert np.allclose(sr.K, [[1.0, -1.0], [-1.0, 0.0]])


def test_implicit_jacobians_hand_values():
    p1 = fixture("P1")
    sr = implicit_jacobians(p1, np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0]))
    assert np.allclose(sr.Jy, [[0.0]])
    assert np.allclose(sr.Jxi, [[-1.0]])

    sr = implicit_jacobians(p1, np.array([2.0]), np.array([2.0]), np.zeros(0), np.array([0.0]))
    assert np.allclose(sr.Jy, [[1.0]])
    assert np.allclose(sr.Jxi, [[0.0]])

    p2 = fixture("P2")
    sr = implicit_jacobians(p2, np.zeros(2), np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(0))
    assert np.allclose(sr.Jy, np.eye(2) - 0.5)
    assert np.allclose(sr.Jmu, [[0.5, 0.5]])

    p4 = fixture("P4")
    sr = implicit_jacobians(p4, np.array([-1.0]), np.array([0.0]), np.zeros(0), np.array([1.0]))
    assert np.allclose(sr.Jy, [[0.0]])
    assert np.allclose(sr.Jxi, [[-1.0]])


@pytest.mark.parametrize(
    "name,x,y,mu,xi",
    [
        ("P1", [0.0], [1.0], [], [1.0]),
        ("P1", [2.0], [2.0], [], [0.0]),
        ("P2", [0.0, 0.0], [0.5, 0.5], [-0.5], []),
        ("P4", [-1.0], [0.0], [], [1.0]),
    ],
)
def test_implicit_jacobians_match_fd(name, x, y, mu, xi):
    problem = fixture(name)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    mu = np.asarray(mu, float)
    xi = np.asarray(xi, float)
    sr = implicit_jacobians(problem, x, y, mu, xi)

    def resolve(xv):
        yy, mm, ss, ok = solve_lower(problem, xv, y0=y, mu0=mu, xi0=xi, tol=1e-12)
        assert ok
        return np.concatenate([yy, mm, ss])

    fd = fd_jacobian(resolve, x, h=1e-5)
    exact = np.vstack([sr.Jy, sr.Jmu, sr.Jxi])
    assert np.abs(exact - fd).max(initial=0.0) <= 1e-6


def test_not_kkt_rejected():
    p1 = fixture("P1")
    with pytest.raises(NotKkt):
        implicit_jacobians(p1, np.array([0.0]), np.array([0.5]), np.zeros(0), np.array([0.0]))


def test_biactive_rejected():
    p1 = fixture("P1")
    # x = 1 puts the solution exactly at the constraint with zero multiplier
    with pytest.raises(StrictComplementarityViolated):
        implicit_jacobians(p1, np.array([1.0]), np.array([1.0]), np.zeros(0), np.array([0.0]))


def test_w_diag_and_cond_reported():
    p1 = fixture("P1")
    sr = implicit_jacobians(p1, np.array([0.0]), np.array([1.0]), np.zeros(0), np.array([1.0]))
    assert sr.W.shape == (1, 1)
    assert sr.W[0, 0] == 0.0
    assert np.isfinite(sr.cond_estimate)
