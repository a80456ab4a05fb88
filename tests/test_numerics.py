import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelkit.numerics import (
    Infeasible,
    LpProblem,
    NotSymmetric,
    Singular,
    fd_hessian,
    fd_jacobian,
    lp_maximize,
    lu_factor,
    min_eig_sym,
    nullspace_basis,
)


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5, 9):
        a = rng.normal(size=(k, k)) + k * np.eye(k)
        b = rng.normal(size=k)
        assert np.allclose(lu_factor(a).solve(b), np.linalg.solve(a, b), atol=1e-10)


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=(4, 3))
    x = lu_factor(a).solve(b)
    assert x.shape == (4, 3)
    assert np.allclose(a @ x, b, atol=1e-10)


def _ill_conditioned(cond):
    q = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
    return q @ np.diag([1.0, 0.5, 0.1, 1.0 / cond]) @ q.T


def test_lu_singular_raises():
    for a in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)), _ill_conditioned(1e14)):
        with pytest.raises(Singular):
            lu_factor(a)


def test_lu_cond_estimate_is_2norm_condition_number():
    rng = np.random.default_rng(4)
    for k in (1, 3, 6):
        a = rng.normal(size=(k, k)) + k * np.eye(k)
        assert lu_factor(a).cond_estimate == pytest.approx(np.linalg.cond(a), rel=1e-10)
    assert lu_factor(_ill_conditioned(1e9)).cond_estimate == pytest.approx(1e9, rel=1e-4)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_lu_roundtrip_random(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, k)) + (k + 1) * np.eye(k)
    x_true = rng.normal(size=k)
    x = lu_factor(a).solve(a @ x_true)
    assert np.allclose(x, x_true, atol=1e-8)


def test_nullspace_orthonormal_and_annihilating():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    z = nullspace_basis(a)
    assert z.shape == (3, 1)
    assert np.allclose(a @ z, 0.0, atol=1e-12)
    assert np.allclose(z.T @ z, np.eye(1), atol=1e-12)


def test_nullspace_full_rank_square_is_empty():
    assert nullspace_basis(np.eye(3)).shape == (3, 0)


def test_nullspace_zero_rows():
    z = nullspace_basis(np.zeros((0, 4)))
    assert z.shape == (4, 4)


def test_min_eig_sym_matches_numpy():
    rng = np.random.default_rng(2)
    for k in (1, 2, 3, 6, 8):
        a = rng.normal(size=(k, k))
        s = 0.5 * (a + a.T)
        assert min_eig_sym(s) == pytest.approx(np.linalg.eigvalsh(s)[0], abs=1e-10)


def test_min_eig_sym_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        min_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lp_simple_box():
    # maximize x + y over the unit box
    p = LpProblem(
        objective=np.array([1.0, 1.0]),
        eq_matrix=np.zeros((0, 2)),
        eq_rhs=np.zeros(0),
        lower_bounds=np.zeros(2),
        upper_bounds=np.ones(2),
    )
    val, x = lp_maximize(p)
    assert val == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(x, 1.0, atol=1e-9)


def test_lp_equality_binding():
    # maximize t subject to d + t = 0.5, d in [-1, 1], t in [0, 1]
    p = LpProblem(
        objective=np.array([0.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([0.5]),
        lower_bounds=np.array([-1.0, 0.0]),
        upper_bounds=np.array([1.0, 1.0]),
    )
    val, x = lp_maximize(p)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert x[0] == pytest.approx(-0.5, abs=1e-9)


def test_lp_matches_scipy_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        meq = int(rng.integers(0, n))
        a = rng.normal(size=(meq, n))
        lo = -rng.uniform(0.1, 3.0, n)
        hi = rng.uniform(0.1, 3.0, n)
        b = a @ rng.uniform(lo, hi)
        c = rng.normal(size=n)
        val, x = lp_maximize(LpProblem(c, a, b, lo, hi))
        ref = linprog(-c, A_eq=a if meq else None, b_eq=b if meq else None,
                      bounds=list(zip(lo, hi)), method="highs")
        assert ref.status == 0
        assert val == pytest.approx(-ref.fun, abs=1e-8)
        assert np.allclose(a @ x, b, atol=1e-9)
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)


def test_lp_infeasible():
    p = LpProblem(
        objective=np.array([1.0]),
        eq_matrix=np.array([[1.0]]),
        eq_rhs=np.array([5.0]),
        lower_bounds=np.array([0.0]),
        upper_bounds=np.array([1.0]),
    )
    with pytest.raises(Infeasible):
        lp_maximize(p)


def test_fd_jacobian_quadratic():
    def fn(v):
        return np.array([v[0] ** 2 + v[1], 3.0 * v[1]])

    j = fd_jacobian(fn, np.array([2.0, -1.0]))
    assert np.allclose(j, [[4.0, 1.0], [0.0, 3.0]], atol=1e-7)


def test_fd_hessian_symmetrized():
    def grad(v):
        return np.array([2.0 * v[0] + v[1], v[0] + 6.0 * v[1]])

    h = fd_hessian(grad, np.array([0.3, 0.7]))
    assert np.allclose(h, [[2.0, 1.0], [1.0, 6.0]], atol=1e-6)
    assert np.array_equal(h, h.T)
