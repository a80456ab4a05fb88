"""Scalar expression trees over upper variables x1..xn and lower variables y1..ym.

Grammar (lowest to highest precedence):

    additive        := multiplicative (('+' | '-') multiplicative)*
    multiplicative  := unary (('*' | '/') unary)*
    unary           := '-' unary | power
    power           := atom ('^' ['-'] INTEGER)?
    atom            := NUMBER | VARIABLE | NAME '(' additive ')' | '(' additive ')'

Variables are x<k> / y<k> with 1-based indices; recognized calls are sin, cos,
exp, log, sqrt.  Whitespace is insignificant.  Differentiation is symbolic
with constant folding and 0/1 identities only, so printing and reparsing any
tree built here reproduces it node for node.

Differentiating a node stores two things on it, outside its dataclass fields
(so equality, hashing and repr ignore them): its free-variable set, and its
zero derivative, the tree `diff` gives for any variable the node does not
read.  `diff` returns that stored tree at once for such a variable, and the
result is the same tree, -0.0 included, that full recursion would build.
Parsing and `compile_expr` store nothing and differentiate nothing: a
`CompiledFunction` builds its derivative trees on first request, its Hessian
tables list only the entries that are not Const(+0.0), and their rows visit
only the variables in the row tree's free set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Syntax error with the character offset where scanning stopped."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the domain (division by zero, log/sqrt range, overflow)."""

    def __init__(self, message: str, expr):
        super().__init__(message)
        self.expr = expr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    axis: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PowInt:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Const | Var | Neg | Add | Sub | Mul | Div | PowInt | Call

ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# ---- smart constructors: constant folding and 0/1 identities only ----

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return ZERO
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base) and not (base.value == 0.0 and exponent < 0):
        try:
            return Const(float(base.value) ** exponent)
        except OverflowError:
            pass
    return PowInt(base, exponent)


def call(name: str, arg: Expr) -> Expr:
    if _is_const(arg):
        try:
            return Const(getattr(math, name)(arg.value))
        except (ValueError, OverflowError):
            pass  # leave the node intact; evaluation will report the domain error
    return Call(name, arg)


# ---- parsing ----

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_VAR_RE = re.compile(r"^([xy])(\d+)$")


class _Parser:
    def __init__(self, text: str, n: int, m: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.m = m

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.take()

    def parse(self) -> Expr:
        e = self.additive()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.multiplicative()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.unary()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            sign = 1
            kind, text, off = self.peek()
            if kind == "op" and text == "-":
                self.take()
                sign = -1
                kind, text, off = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ParseError("exponent must be an integer literal", off)
            self.take()
            return powi(base, sign * int(text))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.take()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            m = _VAR_RE.match(text)
            if m:
                axis, idx = m.group(1), int(m.group(2))
                bound = self.n if axis == "x" else self.m
                if not 1 <= idx <= bound:
                    raise IndexError(
                        f"variable {text} out of range ({axis} has {bound} components)"
                    )
                return Var(axis, idx)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.additive()
                self.expect_op(")")
                return call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            e = self.additive()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(text: str, n: int, m: int) -> Expr:
    """Parse an expression over x1..xn, y1..ym into a tree.

    Raises ParseError (with character offset) on bad syntax and IndexError
    when a variable index exceeds the declared dimensions.
    """
    return _Parser(text, n, m).parse()


# ---- differentiation ----

def _children(e: Expr) -> tuple:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, PowInt):
        return (e.base,)
    if isinstance(e, (Const, Var)):
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _free(e: Expr) -> frozenset:
    """The (axis, index) variables e reads, stored on the node at first use."""
    kept = getattr(e, "__dict__", {}).get("_free")
    if kept is None:
        if isinstance(e, Var):
            kept = frozenset([(e.axis, e.index)])
        else:
            kept = frozenset().union(*map(_free, _children(e)))
        e.__dict__["_free"] = kept
    return kept


def _zero_derivative(e: Expr) -> Expr:
    """diff(e, v) for every v that e does not read, stored on the node at first use.

    diff tells variables apart only at Var nodes, so this one tree serves
    every such v; it is built from the children's stored zero derivatives.
    """
    kept = e.__dict__.get("_zero")
    if kept is None:
        kept = e.__dict__["_zero"] = _diff(e, None, 0)
    return kept


def _is_plus_zero(e: Expr) -> bool:
    """Exactly Const(+0.0): not -0.0, and not NaN, which compares unequal to everything."""
    return isinstance(e, Const) and e.value == 0.0 and math.copysign(1.0, e.value) > 0


def diff(e: Expr, axis: str, index: int) -> Expr:
    """Exact partial derivative with respect to x<index> or y<index>.

    A variable outside e's free set gets e's stored zero derivative at once.
    """
    if (axis, index) in _free(e):
        return _diff(e, axis, index)
    return _zero_derivative(e)


def _diff(e: Expr, axis, index) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if (e.axis == axis and e.index == index) else ZERO
    if isinstance(e, Neg):
        return neg(diff(e.arg, axis, index))
    if isinstance(e, Add):
        return add(diff(e.left, axis, index), diff(e.right, axis, index))
    if isinstance(e, Sub):
        return sub(diff(e.left, axis, index), diff(e.right, axis, index))
    if isinstance(e, Mul):
        return add(
            mul(diff(e.left, axis, index), e.right),
            mul(e.left, diff(e.right, axis, index)),
        )
    if isinstance(e, Div):
        return div(
            sub(
                mul(diff(e.left, axis, index), e.right),
                mul(e.left, diff(e.right, axis, index)),
            ),
            powi(e.right, 2),
        )
    if isinstance(e, PowInt):
        return mul(
            mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)),
            diff(e.base, axis, index),
        )
    if isinstance(e, Call):
        inner = diff(e.arg, axis, index)
        if e.name == "sin":
            outer = call("cos", e.arg)
        elif e.name == "cos":
            outer = neg(call("sin", e.arg))
        elif e.name == "exp":
            outer = call("exp", e.arg)
        elif e.name == "log":
            return div(inner, e.arg)
        elif e.name == "sqrt":
            return div(inner, mul(Const(2.0), call("sqrt", e.arg)))
        else:  # pragma: no cover - parser restricts names
            raise ValueError(f"unknown function {e.name}")
        return mul(outer, inner)
    raise TypeError(f"not an expression node: {e!r}")


# ---- evaluation ----

def evaluate(e: Expr, x, y) -> float:
    """Evaluate at concrete points, raising DomainError on domain violations."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        vec = x if e.axis == "x" else y
        return float(vec[e.index - 1])
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, y)
    if isinstance(e, Add):
        return evaluate(e.left, x, y) + evaluate(e.right, x, y)
    if isinstance(e, Sub):
        return evaluate(e.left, x, y) - evaluate(e.right, x, y)
    if isinstance(e, Mul):
        return evaluate(e.left, x, y) * evaluate(e.right, x, y)
    if isinstance(e, Div):
        den = evaluate(e.right, x, y)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, x, y) / den
    if isinstance(e, PowInt):
        base = evaluate(e.base, x, y)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        try:
            return float(base ** e.exponent)
        except OverflowError:
            raise DomainError("overflow in power", e) from None
    if isinstance(e, Call):
        v = evaluate(e.arg, x, y)
        if e.name == "log" and v <= 0.0:
            raise DomainError(f"log of non-positive value {v}", e)
        if e.name == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v}", e)
        try:
            return getattr(math, e.name)(v)
        except (ValueError, OverflowError):
            raise DomainError(f"{e.name} evaluation failed at {v}", e) from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_array(e: Expr, x_cols, y_cols):
    """Vectorized evaluation over numpy arrays (broadcasting, nan-tolerant).

    x_cols and y_cols are sequences of arrays (or scalars), one per variable.
    Domain violations produce nan/inf instead of raising; callers filter.
    """
    with np.errstate(all="ignore"):
        return _eval_array(e, x_cols, y_cols)


def _eval_array(e, x_cols, y_cols):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        cols = x_cols if e.axis == "x" else y_cols
        return cols[e.index - 1]
    if isinstance(e, Neg):
        return -_eval_array(e.arg, x_cols, y_cols)
    if isinstance(e, Add):
        return _eval_array(e.left, x_cols, y_cols) + _eval_array(e.right, x_cols, y_cols)
    if isinstance(e, Sub):
        return _eval_array(e.left, x_cols, y_cols) - _eval_array(e.right, x_cols, y_cols)
    if isinstance(e, Mul):
        return _eval_array(e.left, x_cols, y_cols) * _eval_array(e.right, x_cols, y_cols)
    if isinstance(e, Div):
        return _eval_array(e.left, x_cols, y_cols) / _eval_array(e.right, x_cols, y_cols)
    if isinstance(e, PowInt):
        return np.power(_eval_array(e.base, x_cols, y_cols), float(e.exponent))
    if isinstance(e, Call):
        v = _eval_array(e.arg, x_cols, y_cols)
        if e.name == "log":
            return np.log(np.where(np.asarray(v) > 0, v, np.nan))
        if e.name == "sqrt":
            return np.sqrt(np.where(np.asarray(v) >= 0, v, np.nan))
        return getattr(np, e.name)(v)
    raise TypeError(f"not an expression node: {e!r}")


# ---- printing ----

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, PowInt):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_UNARY  # prints with a leading minus
    return _PREC_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render a tree so that parse(to_string(e)) reproduces it exactly."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"{e.axis}{e.index}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_UNARY)
    if isinstance(e, Add):
        return f"{to_string(e.left)} + {_wrap(e.right, _PREC_MUL)}"
    if isinstance(e, Sub):
        return f"{to_string(e.left)} - {_wrap(e.right, _PREC_MUL)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_UNARY)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_UNARY)}"
    if isinstance(e, PowInt):
        base = _wrap(e.base, _PREC_ATOM)
        return f"{base}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({to_string(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---- compiled bundles ----

@dataclass(frozen=True)
class CompiledFunction:
    """An expression whose derivative trees are built on first request, then kept.

    A Hessian table is a tuple of (i, k, tree) entries without the trees equal
    to Const(+0.0); a symmetric block lists its upper triangle (k >= i) in
    row-major order and is mirrored when evaluated.  Row i differentiates
    partial tree i only in the variables that tree reads, unless its zero
    derivative is not exactly Const(+0.0): then every k is listed, so a
    Const(-0.0) or NaN entry stays.  The dense return shapes do not change.
    """

    expr: Expr
    n: int
    m: int

    @cached_property
    def x_partials(self) -> tuple:
        """Symbolic first-partial trees d/dx1..d/dxn."""
        return tuple(diff(self.expr, "x", i + 1) for i in range(self.n))

    @cached_property
    def y_partials(self) -> tuple:
        """Symbolic first-partial trees d/dy1..d/dym."""
        return tuple(diff(self.expr, "y", j + 1) for j in range(self.m))

    @cached_property
    def _hxx(self) -> tuple:
        return _entries(enumerate(self.x_partials), "x", self.n, upper=True)

    @cached_property
    def _hxy(self) -> tuple:
        return _entries(enumerate(self.x_partials), "y", self.m, upper=False)

    @cached_property
    def _hyy(self) -> tuple:
        return _entries(enumerate(self.y_partials), "y", self.m, upper=True)

    @cached_property
    def _dy_hess(self) -> tuple:
        # per j, the Hessian tables of d/dyj joined over the (x, y) index, x first;
        # only the partial rows that may differ from Const(+0.0) are built
        n, m, tables = self.n, self.m, []
        for t in self.y_partials:
            x_rows, y_rows = _rows(t, "x", n), _rows(t, "y", m)
            tables.append(_entries(x_rows, "x", n, upper=True)
                          + tuple((i, n + k, e) for i, k, e in _entries(x_rows, "y", m, upper=False))
                          + tuple((n + i, n + k, e) for i, k, e in _entries(y_rows, "y", m, upper=True)))
        return tuple(tables)

    def value(self, x, y) -> float:
        return evaluate(self.expr, x, y)

    def grad_x(self, x, y) -> np.ndarray:
        return np.array([evaluate(t, x, y) for t in self.x_partials])

    def grad_y(self, x, y) -> np.ndarray:
        return np.array([evaluate(t, x, y) for t in self.y_partials])

    def hess_xx(self, x, y) -> np.ndarray:
        return _eval_table(self._hxx, x, y, (self.n, self.n), mirror=True)

    def hess_xy(self, x, y) -> np.ndarray:
        return _eval_table(self._hxy, x, y, (self.n, self.m), mirror=False)

    def hess_yy(self, x, y) -> np.ndarray:
        return _eval_table(self._hyy, x, y, (self.m, self.m), mirror=True)

    def dy_hessian(self, j: int, x, y) -> list:
        """Third derivatives: the (x, y) Hessian of d/dy<j+1> as sparse (a, b, value) entries.

        a <= b index the joint vector (x1..xn, y1..ym); unlisted entries are 0.
        """
        return [(a, b, evaluate(t, x, y)) for a, b, t in self._dy_hess[j]]


def _candidates(e: Expr, axis: str, lo: int, size: int):
    """The 0-based k in [lo, size) whose partial of e may differ from Const(+0.0).

    Those e reads, when its zero derivative is exactly Const(+0.0); else every k.
    """
    if _is_plus_zero(_zero_derivative(e)):
        return sorted(k - 1 for ax, k in _free(e) if ax == axis and lo < k <= size)
    return range(lo, size)


def _rows(e: Expr, axis: str, size: int) -> list:
    """(i, partial tree) for the i of _candidates: every other partial is exactly Const(+0.0)."""
    return [(i, diff(e, axis, i + 1)) for i in _candidates(e, axis, 0, size)]


def _entries(rows, axis, size, upper) -> tuple:
    table = [(i, k, diff(g, axis, k + 1))
             for i, g in rows for k in _candidates(g, axis, i if upper else 0, size)]
    # Const(-0.0) stays: np.zeros would turn it into +0.0
    return tuple(entry for entry in table if not _is_plus_zero(entry[2]))


def _eval_table(entries, x, y, shape, mirror) -> np.ndarray:
    out = np.zeros(shape)
    for i, k, t in entries:
        out[i, k] = evaluate(t, x, y)
        if mirror:
            out[k, i] = out[i, k]
    return out


def compile_expr(e: Expr, n: int, m: int) -> CompiledFunction:
    """Bundle an expression with its dimensions; derivatives come on first use."""
    return CompiledFunction(expr=e, n=n, m=m)
