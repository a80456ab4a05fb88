"""Bilevel problem data model, the line-oriented problem-file format, and fixtures.

A problem has upper-level data F, H (equalities), G (inequalities, expr <= 0)
over (x, y) and lower-level data f, h, g over the same variables.  Files look
like::

    dims n=1 m=1
    upper.objective y1
    lower.objective x1^2 + y1^2
    lower.ineq x1 - y1

with `#` comments and blank lines ignored.  Constraint order is file order and
every index set downstream refers to these positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .expr import CompiledFunction, ParseError, compile_expr, parse, to_string


class FormatError(ValueError):
    """Malformed problem file."""


class UnknownFixture(KeyError):
    """Requested fixture name is not registered."""


class DimensionMismatch(ValueError):
    """Vector length does not match the problem dimensions."""


@dataclass(frozen=True)
class BilevelProblem:
    """Immutable problem data; all functions compiled against the same (n, m).

    Dimensions: x in R^n, y in R^m, H: R^p, G: R^q (upper), h: R^r, g: R^s
    (lower).  Inequalities mean expr <= 0.
    """

    n: int
    m: int
    F: CompiledFunction
    H: tuple
    G: tuple
    f: CompiledFunction
    h: tuple
    g: tuple
    # the lower.PointEval of the last evaluated point
    _last_eval: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def p(self) -> int:
        return len(self.H)

    @property
    def q(self) -> int:
        return len(self.G)

    @property
    def r(self) -> int:
        return len(self.h)

    @property
    def s(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class PrimalDualPoint:
    """A lower-level primal-dual point u = (x, y, mu, xi).

    mu are equality multipliers, xi inequality multipliers.  No sign
    restriction is enforced here; solver iterates roam freely.
    """

    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class UpperMultiplier:
    """Multiplier blocks for the reformulated single-level problem.

    Flattening order is (lam_H, lam_G, lam_L, lam_h, lam_g).  Membership in
    the polar cone means lam_G >= 0 with every other block free.
    """

    lam_H: np.ndarray
    lam_G: np.ndarray
    lam_L: np.ndarray
    lam_h: np.ndarray
    lam_g: np.ndarray


_DIMS_RE = re.compile(r"^dims\s+n=(\d+)\s+m=(\d+)\s*$")

_SECTION_KEYS = (
    "upper.objective",
    "upper.eq",
    "upper.ineq",
    "lower.objective",
    "lower.eq",
    "lower.ineq",
)


def load_problem(text: str) -> BilevelProblem:
    """Parse problem-file text into a compiled BilevelProblem.

    Raises FormatError for structural problems (missing or duplicate dims or
    objectives, unknown keys, bad expressions; messages carry line numbers).
    """
    dims = None
    upper_obj = None
    lower_obj = None
    uppers_eq, uppers_ineq, lowers_eq, lowers_ineq = [], [], [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dims is None:
            m = _DIMS_RE.match(line)
            if m is None:
                raise FormatError(f"line {lineno}: expected `dims n=<int> m=<int>` first")
            dims = (int(m.group(1)), int(m.group(2)))
            if dims[0] < 1 or dims[1] < 1:
                raise FormatError(f"line {lineno}: dims must be at least 1")
            continue
        parts = line.split(None, 1)
        key = parts[0]
        if key not in _SECTION_KEYS:
            raise FormatError(f"line {lineno}: unknown entry {key!r}")
        if len(parts) < 2:
            raise FormatError(f"line {lineno}: {key} needs an expression")
        try:
            tree = parse(parts[1], dims[0], dims[1])
        except (ParseError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if key == "upper.objective":
            if upper_obj is not None:
                raise FormatError(f"line {lineno}: duplicate upper.objective")
            upper_obj = tree
        elif key == "lower.objective":
            if lower_obj is not None:
                raise FormatError(f"line {lineno}: duplicate lower.objective")
            lower_obj = tree
        elif key == "upper.eq":
            uppers_eq.append(tree)
        elif key == "upper.ineq":
            uppers_ineq.append(tree)
        elif key == "lower.eq":
            lowers_eq.append(tree)
        else:
            lowers_ineq.append(tree)

    if dims is None:
        raise FormatError("missing dims line")
    if upper_obj is None:
        raise FormatError("missing upper.objective")
    if lower_obj is None:
        raise FormatError("missing lower.objective")

    n, m = dims
    comp = lambda t: compile_expr(t, n, m)
    return BilevelProblem(
        n=n,
        m=m,
        F=comp(upper_obj),
        H=tuple(comp(t) for t in uppers_eq),
        G=tuple(comp(t) for t in uppers_ineq),
        f=comp(lower_obj),
        h=tuple(comp(t) for t in lowers_eq),
        g=tuple(comp(t) for t in lowers_ineq),
    )


def format_problem(problem: BilevelProblem) -> str:
    """Render a problem back to canonical file text.

    The output reloads to a problem whose functions agree with the original
    everywhere; it is also the canonical byte stream used for hashing.
    """
    lines = [f"dims n={problem.n} m={problem.m}"]
    lines.append(f"upper.objective {to_string(problem.F.expr)}")
    lines.extend(f"upper.eq {to_string(c.expr)}" for c in problem.H)
    lines.extend(f"upper.ineq {to_string(c.expr)}" for c in problem.G)
    lines.append(f"lower.objective {to_string(problem.f.expr)}")
    lines.extend(f"lower.eq {to_string(c.expr)}" for c in problem.h)
    lines.extend(f"lower.ineq {to_string(c.expr)}" for c in problem.g)
    return "\n".join(lines) + "\n"


FIXTURE_SOURCES = {
    # Smooth clip: lower level pushes y to max(x, 1); bilevel optimum sits on
    # the constraint boundary at x = y = 1.5.
    "P1": """\
dims n=1 m=1
upper.objective (x1 - 2)^2 + y1
upper.ineq -x1 - 3
lower.objective 0.5*(y1 - x1)^2
lower.ineq 1 - y1
""",
    # Projection of x onto the plane y1 + y2 = 1; equality-only lower level.
    "P2": """\
dims n=2 m=2
upper.objective 0.5*(x1^2 + x2^2) + 0.5*(y1^2 + y2^2)
lower.objective 0.5*((y1 - x1)^2 + (y2 - x2)^2)
lower.eq y1 + y2 - 1
""",
    # Degenerate product constraint: the lower feasible set at fixed x is a
    # circle arc plus an isolated parabola point; global optimum (0, -1).
    "P3": """\
dims n=1 m=1
upper.objective y1
upper.ineq x1 - 1
upper.ineq -x1 - 1
lower.objective x1^2 + y1^2
lower.ineq (x1^2 - y1 - 1)*(x1^2 + y1^2 - 1)
""",
    # Clip at zero with active inequality at the optimum x = -1, y = 0.
    "P4": """\
dims n=1 m=1
upper.objective (x1 + 1)^2 + y1^2
upper.ineq -x1 - 2
lower.objective 0.5*(y1 - x1)^2
lower.ineq -y1
""",
}


def fixture(name: str) -> BilevelProblem:
    """Return a built-in problem (P1..P4); raises UnknownFixture otherwise."""
    try:
        source = FIXTURE_SOURCES[name]
    except KeyError:
        raise UnknownFixture(name) from None
    return load_problem(source)


def flatten(point: PrimalDualPoint) -> np.ndarray:
    """Concatenate (x, y, mu, xi) into one vector."""
    return np.concatenate([point.x, point.y, point.mu, point.xi])


def unflatten(problem: BilevelProblem, u: np.ndarray) -> PrimalDualPoint:
    """Split a flat vector back into a PrimalDualPoint for this problem."""
    u = np.asarray(u, dtype=float)
    n, m, r, s = problem.n, problem.m, problem.r, problem.s
    if u.ndim != 1 or u.shape[0] != n + m + r + s:
        raise DimensionMismatch(
            f"expected length {n + m + r + s}, got shape {u.shape}"
        )
    return PrimalDualPoint(
        x=u[:n].copy(),
        y=u[n:n + m].copy(),
        mu=u[n + m:n + m + r].copy(),
        xi=u[n + m + r:].copy(),
    )


def flatten_multiplier(lam: UpperMultiplier) -> np.ndarray:
    """Concatenate multiplier blocks in the order (H, G, L, h, g)."""
    return np.concatenate([lam.lam_H, lam.lam_G, lam.lam_L, lam.lam_h, lam.lam_g])


def unflatten_multiplier(problem: BilevelProblem, v: np.ndarray) -> UpperMultiplier:
    """Split a flat multiplier vector into blocks for this problem."""
    v = np.asarray(v, dtype=float)
    p, q, m, r, s = problem.p, problem.q, problem.m, problem.r, problem.s
    if v.ndim != 1 or v.shape[0] != p + q + m + r + s:
        raise DimensionMismatch(
            f"expected length {p + q + m + r + s}, got shape {v.shape}"
        )
    cuts = np.cumsum([p, q, m, r])
    lam_H, lam_G, lam_L, lam_h, lam_g = np.split(v, cuts)
    return UpperMultiplier(
        lam_H=lam_H.copy(),
        lam_G=lam_G.copy(),
        lam_L=lam_L.copy(),
        lam_h=lam_h.copy(),
        lam_g=lam_g.copy(),
    )
