"""Parser, differentiation, and printer tests for the expression core."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelkit import expr
from bilevelkit.expr import (
    FUNCTIONS,
    ONE,
    ZERO,
    Add,
    Call,
    Const,
    Div,
    DomainError,
    Mul,
    Neg,
    ParseError,
    PowInt,
    Sub,
    Var,
    compile_expr,
    diff,
    evaluate,
    evaluate_array,
    parse,
    to_string,
)
from bilevelkit.problem import load_problem


def ev(text, x, y, n=2, m=2):
    return evaluate(parse(text, n, m), np.asarray(x, float), np.asarray(y, float))


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3", [0, 0], [0, 0]) == 7.0
    assert ev("(1 + 2)*3", [0, 0], [0, 0]) == 9.0
    assert ev("-2^2", [0, 0], [0, 0]) == -4.0  # unary minus binds looser than ^
    assert ev("6/3/2", [0, 0], [0, 0]) == 1.0
    with pytest.raises(ParseError):
        parse("2^3^1", 1, 1)  # power does not chain


def test_variables_one_based():
    assert ev("x1 + 10*x2 + 100*y1 + 1000*y2", [1, 2], [3, 4]) == 4321.0
    with pytest.raises(IndexError):
        parse("x3", 2, 2)
    with pytest.raises(IndexError):
        parse("y1", 2, 0)


def test_calls_and_domains():
    assert ev("sin(0) + cos(0) + exp(0)", [0, 0], [0, 0]) == 2.0
    assert ev("sqrt(4) + log(1)", [0, 0], [0, 0]) == 2.0
    with pytest.raises(DomainError):
        ev("log(x1 - 5)", [0, 0], [0, 0])
    with pytest.raises(DomainError):
        ev("1/x1", [0, 0], [0, 0])
    with pytest.raises(DomainError):
        ev("sqrt(-1 + x1)", [0, 0], [0, 0])


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError):
        parse("1 + * 2", 1, 1)
    with pytest.raises(ParseError):
        parse("(1 + 2", 1, 1)
    with pytest.raises(ParseError):
        parse("x1^y1", 1, 1)  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse("", 1, 1)


def test_diff_product_chain():
    e = parse("x1^2 * sin(y1)", 1, 1)
    dx = diff(e, "x", 1)
    dy = diff(e, "y", 1)
    x = np.array([1.3])
    y = np.array([0.4])
    assert evaluate(dx, x, y) == pytest.approx(2 * 1.3 * np.sin(0.4), rel=1e-12)
    assert evaluate(dy, x, y) == pytest.approx(1.3 ** 2 * np.cos(0.4), rel=1e-12)


def test_diff_quotient_and_negative_power():
    e = parse("y1 / (1 + x1^2)", 1, 1)
    d = diff(e, "x", 1)
    x = np.array([0.7])
    y = np.array([2.0])
    expect = -2.0 * 2 * 0.7 / (1 + 0.49) ** 2
    assert evaluate(d, x, y) == pytest.approx(expect, rel=1e-12)


# a small pool of well-formed expressions over x1..x2, y1..y2
_POOL = [
    "x1 + y1", "x1*y2 - 3", "(x2 - y1)^2", "sin(x1)*cos(y2)",
    "exp(0.5*x1) + y1^3", "x1^4 - 2*x1^2*y1 + y1^2", "1 + x2/(2 + y2^2)",
    "-x1 + 0.25*(y1 - x2)^2", "log(4 + x1^2) * y2",
]


@pytest.mark.parametrize("text", _POOL)
def test_print_parse_round_trip_structural(text):
    e = parse(text, 2, 2)
    again = parse(to_string(e), 2, 2)
    assert again == e


@pytest.mark.parametrize("text", _POOL)
def test_compiled_gradients_match_fd(text):
    fn = compile_expr(parse(text, 2, 2), 2, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-1.2, 1.2, 2)
        y = rng.uniform(-1.2, 1.2, 2)
        h = 1e-6
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = h
            fd = (fn.value(x + dx, y) - fn.value(x - dx, y)) / (2 * h)
            assert fn.grad_x(x, y)[i] == pytest.approx(fd, abs=2e-8, rel=1e-6)
            fd = (fn.value(x, y + dx) - fn.value(x, y - dx)) / (2 * h)
            assert fn.grad_y(x, y)[i] == pytest.approx(fd, abs=2e-8, rel=1e-6)


@pytest.mark.parametrize("text", _POOL)
def test_compiled_hessian_blocks_match_fd(text):
    fn = compile_expr(parse(text, 2, 2), 2, 2)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 2)
    y = rng.uniform(-1.0, 1.0, 2)
    h = 1e-5

    def grad_all(v):
        return np.concatenate([fn.grad_x(v[:2], v[2:]), fn.grad_y(v[:2], v[2:])])

    v0 = np.concatenate([x, y])
    fd = np.zeros((4, 4))
    for i in range(4):
        dv = np.zeros(4)
        dv[i] = h
        fd[:, i] = (grad_all(v0 + dv) - grad_all(v0 - dv)) / (2 * h)
    exact = np.block([
        [fn.hess_xx(x, y), fn.hess_xy(x, y)],
        [fn.hess_xy(x, y).T, fn.hess_yy(x, y)],
    ])
    assert np.allclose(exact, fd, atol=5e-6)


def test_evaluate_array_matches_scalar():
    e = parse("x1^2 + sin(y1)*y2", 1, 2)
    ys1 = np.linspace(-2, 2, 11)
    ys2 = np.linspace(0, 1, 11)
    vals = evaluate_array(e, [np.array([0.5])], [ys1, ys2])
    for k in range(11):
        assert vals[k] == pytest.approx(
            evaluate(e, np.array([0.5]), np.array([ys1[k], ys2[k]])), rel=1e-14
        )


def test_evaluate_array_tolerates_domain_holes():
    e = parse("log(y1)", 0, 1)
    ys = np.array([-1.0, 0.0, 1.0, np.e])
    vals = evaluate_array(e, [], [ys])
    assert not np.isfinite(vals[0]) and not np.isfinite(vals[1])
    assert vals[2] == pytest.approx(0.0, abs=1e-15)
    assert vals[3] == pytest.approx(1.0, rel=1e-15)


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_polynomial_identity_hypothesis(a, b):
    # (x1 + y1)^2 == x1^2 + 2 x1 y1 + y1^2 for all inputs
    lhs = parse("(x1 + y1)^2", 1, 1)
    rhs = parse("x1^2 + 2*x1*y1 + y1^2", 1, 1)
    x = np.array([a])
    y = np.array([b])
    assert evaluate(lhs, x, y) == pytest.approx(evaluate(rhs, x, y), abs=1e-9)


def _composed_text(seed):
    # deterministic random trees built from the pool by composition
    rng = np.random.default_rng(seed)
    parts = [("(" + _POOL[rng.integers(len(_POOL))] + ")") for _ in range(3)]
    ops = [" + ", " - ", " * "]
    return parts[0] + ops[rng.integers(3)] + parts[1] + ops[rng.integers(3)] + parts[2]


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10**6))
def test_fixture_expression_round_trips_random_trees(seed):
    e = parse(_composed_text(seed), 2, 2)
    assert parse(to_string(e), 2, 2) == e


def _family_text(n, m):
    """The benchmark's (n, m) problem family at its unperturbed seed, as problem-file text."""
    pair = [f"x{(i + 1) % n + 1}" for i in range(m)]
    upper = " + ".join(f"({pair[i]} - {(i + 1) / 10!r})^2 + y{i + 1}^2" for i in range(m))
    lower = " + ".join(f"0.5*(y{i + 1} - {pair[i]})^2 + 0.1*y{i + 1}^4" for i in range(m))
    rows = [f"dims n={n} m={m}", f"upper.objective {upper}", f"lower.objective {lower}"]
    return "\n".join(rows + [f"lower.ineq 0.2 - y{i + 1}" for i in range(m)]) + "\n"


def _nodes(e):
    yield e
    for field in dataclasses.fields(e):
        child = getattr(e, field.name)
        if dataclasses.is_dataclass(child):
            yield from _nodes(child)


def test_load_problem_differentiates_nothing(monkeypatch):
    calls = []
    original = expr.diff

    def counted(e, axis, index):
        calls.append(axis)
        return original(e, axis, index)

    monkeypatch.setattr(expr, "diff", counted)
    problem = load_problem(_family_text(5, 40))
    assert calls == []
    fns = (problem.F, problem.f) + problem.g
    # nor are free sets or zero derivatives stored: that work starts at the first diff
    stored = [node for fn in fns for node in _nodes(fn.expr)
              if "_free" in vars(node) or "_zero" in vars(node)]
    assert stored == []
    # 130 of the 76,650 dense Hessian entries are not Const(+0.0)
    assert sum(len(fn._hxx) + len(fn._hxy) + len(fn._hyy) for fn in fns) == 130
    assert calls  # the tables were built on that first request


def _plain_diff(e, axis, index):
    """The recursive diff without free sets or stored zero derivatives: the oracle for expr.diff."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if (e.axis == axis and e.index == index) else ZERO
    if isinstance(e, Neg):
        return expr.neg(_plain_diff(e.arg, axis, index))
    if isinstance(e, Add):
        return expr.add(_plain_diff(e.left, axis, index), _plain_diff(e.right, axis, index))
    if isinstance(e, Sub):
        return expr.sub(_plain_diff(e.left, axis, index), _plain_diff(e.right, axis, index))
    if isinstance(e, Mul):
        return expr.add(
            expr.mul(_plain_diff(e.left, axis, index), e.right),
            expr.mul(e.left, _plain_diff(e.right, axis, index)),
        )
    if isinstance(e, Div):
        return expr.div(
            expr.sub(
                expr.mul(_plain_diff(e.left, axis, index), e.right),
                expr.mul(e.left, _plain_diff(e.right, axis, index)),
            ),
            expr.powi(e.right, 2),
        )
    if isinstance(e, PowInt):
        return expr.mul(
            expr.mul(Const(float(e.exponent)), expr.powi(e.base, e.exponent - 1)),
            _plain_diff(e.base, axis, index),
        )
    inner = _plain_diff(e.arg, axis, index)
    if e.name == "sin":
        return expr.mul(expr.call("cos", e.arg), inner)
    if e.name == "cos":
        return expr.mul(expr.neg(expr.call("sin", e.arg)), inner)
    if e.name == "exp":
        return expr.mul(expr.call("exp", e.arg), inner)
    if e.name == "log":
        return expr.div(inner, e.arg)
    return expr.div(inner, expr.mul(Const(2.0), expr.call("sqrt", e.arg)))


_VARIABLES = [("x", 1), ("x", 2), ("y", 1), ("y", 2)]


def _plain_tables(e, n, m):
    """The three Hessian tables from _plain_diff over every (i, k), without exact Const(+0.0) trees."""
    def table(axis_i, size_i, axis_k, size_k, symmetric):
        return tuple(
            (i, k, t)
            for i in range(size_i)
            for k in range(i if symmetric else 0, size_k)
            for t in [_plain_diff(_plain_diff(e, axis_i, i + 1), axis_k, k + 1)]
            if not (isinstance(t, Const) and t.value == 0.0 and math.copysign(1.0, t.value) > 0)
        )

    return table("x", n, "x", n, True), table("x", n, "y", m, False), table("y", m, "y", m, True)


def _assert_diff_matches_plain_oracle(e):
    """diff and the Hessian tables equal the plain oracle by repr, so zero and NaN signs count."""
    for axis, index in _VARIABLES:
        first = diff(e, axis, index)
        assert repr(first) == repr(_plain_diff(e, axis, index))
        for axis2, index2 in _VARIABLES:
            assert repr(diff(first, axis2, index2)) == repr(_plain_diff(first, axis2, index2))
    fn = compile_expr(e, 2, 2)
    assert repr((fn._hxx, fn._hxy, fn._hyy)) == repr(_plain_tables(e, 2, 2))


def _dense_oracle(e, n, m, x, y):
    """Every Hessian entry from the plain oracle, upper triangle mirrored on symmetric blocks."""
    def block(axis_i, size_i, axis_k, size_k, symmetric):
        out = np.zeros((size_i, size_k))
        for i in range(size_i):
            for k in range(i if symmetric else 0, size_k):
                t = _plain_diff(_plain_diff(e, axis_i, i + 1), axis_k, k + 1)
                out[i, k] = evaluate(t, x, y)
                if symmetric:
                    out[k, i] = out[i, k]
        return out

    return block("x", n, "x", n, True), block("x", n, "y", m, False), block("y", m, "y", m, True)


def _assert_hessians_match_oracle(text):
    e = parse(text, 2, 2)
    _assert_diff_matches_plain_oracle(e)
    fn = compile_expr(e, 2, 2)
    for tables in (fn._hxx, fn._hxy, fn._hyy):
        assert not any(t == ZERO and math.copysign(1.0, t.value) > 0 for _, _, t in tables)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x, y = rng.uniform(-1.2, 1.2, 2), rng.uniform(-1.2, 1.2, 2)
        got = (fn.hess_xx(x, y), fn.hess_xy(x, y), fn.hess_yy(x, y))
        for a, b in zip(got, _dense_oracle(e, 2, 2, x, y)):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# -x1*y1 has hess_yy == [[-0.0]]: a Const(-0.0) entry must stay in the table
@pytest.mark.parametrize("text", _POOL + ["-x1*y1"])
def test_sparse_hessians_equal_dense_oracle_bitwise(text):
    _assert_hessians_match_oracle(text)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_sparse_hessians_equal_dense_oracle_on_composed_trees(seed):
    _assert_hessians_match_oracle(_composed_text(seed))


# raw nodes, not smart constructors, so -0.0, NaN and inf constants sit anywhere in a tree
_LEAVES = st.one_of(
    st.builds(Var, st.sampled_from("xy"), st.integers(min_value=1, max_value=2)),
    st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan, math.inf])),
)


def _branches(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda node, a, b: node(a, b), st.sampled_from([Add, Sub, Mul, Div]),
                  children, children),
        st.builds(PowInt, children, st.integers(min_value=-2, max_value=3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.recursive(_LEAVES, _branches, max_leaves=8))
def test_diff_equals_plain_oracle_on_composed_trees(e):
    _assert_diff_matches_plain_oracle(e)


@pytest.mark.parametrize("e", [
    Const(-0.0),
    Const(math.nan),
    Neg(Var("y", 1)),  # its zero derivative is Const(-0.0)
    Mul(Const(-0.0), Var("x", 1)),
    Add(Const(math.nan), Mul(Var("x", 1), Var("y", 2))),
    Mul(Mul(Const(math.inf), Var("x", 1)), Var("y", 1)),  # zero derivative Const(nan)*y1
    Mul(Mul(Const(math.nan), Var("x", 1)), Var("y", 1)),  # rows with a +NaN zero derivative
    Neg(Mul(Var("x", 2), Var("y", 1))),
    Div(Var("y", 2), Const(-0.0)),
], ids=repr)
def test_diff_equals_plain_oracle_on_signed_zero_and_nan_leaves(e):
    _assert_diff_matches_plain_oracle(e)


@pytest.mark.parametrize("scale", [math.inf, math.nan])
def test_zero_derivative_rows_list_every_k(scale):
    # d/dx1 = scale*y1 reads only y1, but its zero derivative is a NaN constant (of either
    # sign bit, so copysign alone cannot tell it from +0.0): every k is listed
    fn = compile_expr(Mul(Mul(Const(scale), Var("x", 1)), Var("y", 1)), 2, 2)
    assert [(i, k) for i, k, _ in fn._hxy] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # free set skipping: x1^2*y2 lists only the k its partial trees read
    fn = compile_expr(parse("x1^2*y2", 2, 2), 2, 2)
    assert [(i, k) for i, k, _ in fn._hxy] == [(0, 1)]
