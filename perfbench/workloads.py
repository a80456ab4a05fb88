"""Seeded inputs, operations and output checks for the bilevelkit benchmark.

Nothing here imports bilevelkit: problems are written as problem-file text,
start points and evaluation points come from `random.Random`, and every
check recomputes what it can (closed-form lower solutions, the lower-level
KKT residual of the generated family) instead of trusting the program.

An operation ("op") is one user-visible action: one or two calls of
`bilevelkit.cli.main(argv)`.  `run_op` times it; `check_op` judges the JSON
reports it left behind and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# the ROADMAP problem family

FAMILY_A = 0.1
FAMILY_B = 0.2
FAMILY_C_JITTER = 0.05  # absolute, added to c_i
FAMILY_A_JITTER = 0.2  # relative, a_i = 0.1 (1 + u)


@dataclass(frozen=True)
class Family:
    """upper sum_i (x_{i%n+1} - c_i)^2 + y_i^2, lower sum_i 0.5 (y_i - x_{i%n+1})^2 + a_i y_i^4,
    lower inequalities b - y_i <= 0, for i = 1..m."""

    n: int
    m: int
    c: tuple
    a: tuple
    b: float = FAMILY_B

    def x_index(self, i: int) -> int:
        """0-based x component paired with 0-based y component i."""
        return (i + 1) % self.n

    def text(self) -> str:
        upper = " + ".join(
            f"(x{self.x_index(i) + 1} - {self.c[i]!r})^2 + y{i + 1}^2" for i in range(self.m)
        )
        lower = " + ".join(
            f"0.5*(y{i + 1} - x{self.x_index(i) + 1})^2 + {self.a[i]!r}*y{i + 1}^4"
            for i in range(self.m)
        )
        lines = [f"dims n={self.n} m={self.m}", f"upper.objective {upper}",
                 f"lower.objective {lower}"]
        lines += [f"lower.ineq {self.b!r} - y{i + 1}" for i in range(self.m)]
        return "\n".join(lines) + "\n"

    def kkt_residual(self, x, y, xi) -> float:
        """Infinity norm of (grad_y L; g - min(g + xi, 0)), computed here, not by bilevelkit."""
        worst = 0.0
        for i in range(self.m):
            grad = (y[i] - x[self.x_index(i)]) + 4.0 * self.a[i] * y[i] ** 3 - xi[i]
            g = self.b - y[i]
            comp = g - min(g + xi[i], 0.0)
            worst = max(worst, abs(grad), abs(comp))
        return worst


def family(n: int, m: int, seed: int) -> Family:
    """Seed 0 is the unperturbed ROADMAP family; any other seed jitters c_i and a_i.

    Seeds are never filtered by outcome: whatever the solver does on an
    instance is what the benchmark measures.
    """
    if seed == 0:
        return Family(n, m, tuple(i / 10 for i in range(1, m + 1)),
                      (FAMILY_A,) * m)
    rng = random.Random(f"family:{n}:{m}:{seed}")
    c = tuple(i / 10 + rng.uniform(-FAMILY_C_JITTER, FAMILY_C_JITTER)
              for i in range(1, m + 1))
    a = tuple(FAMILY_A * (1.0 + rng.uniform(-FAMILY_A_JITTER, FAMILY_A_JITTER))
              for _ in range(m))
    return Family(n, m, c, a)


def away_from_kink(rng: random.Random, lo: float, hi: float, kink: float, gap: float) -> float:
    """Uniform draw from [lo, kink - gap] or [kink + gap, hi], each side equally likely.

    At the kink the lower-level solution switches branch and strict
    complementarity fails, so sensitivities do not exist there.
    """
    if rng.random() < 0.5:
        return rng.uniform(lo, kink - gap)
    return rng.uniform(kink + gap, hi)


def family_kink(fam: Family, j: int) -> float:
    """x value where some y_i paired with x_j switches between b and the interior root."""
    a_max = max(fam.a[i] for i in range(fam.m) if fam.x_index(i) == j)
    return fam.b + 4.0 * a_max * fam.b ** 3


def vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# fixtures: hand solutions and closed forms

# (x, y, mu, xi) at the bilevel optimum, as in tests/test_acceptance.py
HAND_SOLUTIONS = {
    "P1": ((1.5,), (1.5,), (), (0.0,)),
    "P2": ((0.0, 0.0), (0.5, 0.5), (-0.5,), ()),
    "P4": ((-1.0,), (0.0,), (), (1.0,)),
}
# (x, y, F) at the bilevel optimum; P3's is the isolated point the grid must find
FIXTURE_OPTIMA = {
    "P1": ((1.5,), (1.5,), 1.75),
    "P2": ((0.0, 0.0), (0.5, 0.5), 0.25),
    "P3": ((0.0,), (-1.0,), -1.0),
    "P4": ((-1.0,), (0.0,), 0.0),
}


def upper_objective(name: str, x, y) -> float:
    """F of the fixtures, written out by hand."""
    if name == "P1":
        return (x[0] - 2.0) ** 2 + y[0]
    if name == "P2":
        return 0.5 * (x[0] ** 2 + x[1] ** 2) + 0.5 * (y[0] ** 2 + y[1] ** 2)
    if name == "P3":
        return y[0]
    if name == "P4":
        return (x[0] + 1.0) ** 2 + y[0] ** 2
    raise KeyError(name)


def lower_solution(name: str, x) -> tuple:
    """Closed-form lower-level solution y(x) for the fixtures whose lower level is a projection."""
    if name == "P1":
        return (max(x[0], 1.0),)
    if name == "P2":
        shift = 0.5 * (1.0 - x[0] - x[1])
        return (x[0] + shift, x[1] + shift)
    if name == "P4":
        return (max(x[0], 0.0),)
    raise KeyError(name)


def fixture_kkt_residual(name: str, x, y, mu, xi) -> float:
    """Lower-level KKT residual of P1, P2 or P4, written out by hand."""
    if name == "P1":
        g = 1.0 - y[0]
        return max(abs(y[0] - x[0] - xi[0]), abs(g - min(g + xi[0], 0.0)))
    if name == "P2":
        return max(abs(y[0] - x[0] + mu[0]), abs(y[1] - x[1] + mu[0]),
                   abs(y[0] + y[1] - 1.0))
    if name == "P4":
        g = -y[0]
        return max(abs(y[0] - x[0] - xi[0]), abs(g - min(g + xi[0], 0.0)))
    raise KeyError(name)


# ---------------------------------------------------------------------------
# operations

@dataclass(frozen=True)
class Op:
    """One user-visible action.  `kind` selects how it runs and how it is checked."""

    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    ops: tuple  # one pass, in order
    setup: tuple  # problems set-up loads: "fixture:<name>" or a problem-file path


FIXTURE_SETUP = tuple(f"fixture:{name}" for name in ("P1", "P2", "P3", "P4"))


def _fixture_argv(command: str, name: str, *rest) -> tuple:
    return (command, "--fixture", name) + tuple(rest)


# sens ops per pass.  Checks and P1/P4 sens ops are the fastest calls and
# solves and verify the slowest; with this many P2 sens calls the median op
# falls inside the P2 sens cluster instead of on the edge between clusters.
QUICKSTART_SENS = {"P1": 2, "P2": 12, "P4": 2}


def quickstart_fixtures(seed: int, work: Path) -> Workload:
    """README-style calls on P1-P4: per-call fixed cost dominates.

    Solves start where the README and the CLI defaults start; the seed picks
    the sensitivity points and the order.  A seeded ALM start would make one
    pass in forty cost fifteen times more (a capped inner solve), which is
    what solve-family measures instead.
    """
    rng = random.Random(f"quickstart:{seed}")
    ops = []
    for _ in range(2):
        for name, (x, y, mu, xi) in HAND_SOLUTIONS.items():
            argv = _fixture_argv("check", name, "--x", vec(x), "--y", vec(y))
            argv += (("--mu", vec(mu)) if mu else ()) + (("--xi", vec(xi)) if xi else ())
            ops.append(Op("check", argv, {"fixture": name, "true": (
                "kkt_ok", "multipliers_recovered", "mfcq_holds", "first_order_holds")}))
        ops.append(Op("check", _fixture_argv("check", "P3", "--x", "0", "--y", "-1", "--xi", "0"),
                      {"fixture": "P3", "false": ("kkt_ok", "licq_ok")}))
    draws = {
        "P1": lambda: (away_from_kink(rng, -1.0, 3.0, 1.0, 0.2),),
        "P2": lambda: (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        "P4": lambda: (away_from_kink(rng, -2.0, 2.0, 0.0, 0.2),),
    }
    for name, count in QUICKSTART_SENS.items():
        for _ in range(count):
            x = draws[name]()
            ops.append(Op("sens", _fixture_argv("sens", name, "--x", vec(x)),
                          {"fixture": name, "x": x}))
    for _ in range(2):
        ops.append(Op("solve", _fixture_argv("solve", "P2", "--x0", "1,1", "--y0", "0.3,0.3",
                                             "--rho0", "10", "--rate-sweep"), {"fixture": "P2"}))
        ops.append(Op("solve", _fixture_argv("solve", "P1"), {"fixture": "P1"}))
        ops.append(Op("solve", _fixture_argv("solve", "P4"), {"fixture": "P4"}))
        ops.append(Op("verify", ("verify",), {"checks": 16}))
    rng.shuffle(ops)
    return Workload(tuple(ops), FIXTURE_SETUP)


# fixture -> (x range, y range, step); steps as in the README and ROADMAP
GRID_SPECS = {
    "P1": ((-3.0, 3.0), (-3.0, 3.0), 0.01),
    "P2": ((-1.0, 1.0), (-1.0, 1.0), 0.02),
    "P3": ((-1.0, 1.0), (-2.0, 2.0), 0.001),
    "P4": ((-2.0, 2.0), (-2.0, 2.0), 0.01),
}
GRID_SHIFT_STEPS = 10  # x ranges shift by up to this many whole steps
GRID_Y_SHIFT = 0.2  # y ranges shift by up to this much


def grid_tolerances(step: float) -> tuple:
    """(value, distance) tolerances for a grid winner against the exact optimum.

    Value: the winner's F is within `step` of the optimal F.  Near each
    fixture's optimum the gradient of F has 1-norm at most 2, so a lattice
    node half a step away costs at most `step`; P2's equality band
    (|h| <= eq_tol = step) lets F drop by at most step/2 more, and its
    gradient there has 1-norm 1.  Distance: the winner is within sqrt(step)
    (max norm), since where F is flat in a direction (P3 along x: F = x^2 - 1
    on the lower solution set) a value gap of `step` allows that much.
    The distance actually reached, in steps, is reported as
    grid.winner_error_steps: P2's equality-band bias (ROADMAP item 4) shows
    there.
    """
    return step, math.sqrt(step)


# ops per pass; P3 gets one more so the median op is a P3 grid, not the
# mean of two fixtures' ops
GRID_REPEATS = {"P1": 2, "P2": 2, "P3": 3, "P4": 2}


def grid_fixtures(seed: int, work: Path) -> Workload:
    """grid on P1-P4, ranges shifted by the seed.

    x ranges shift by whole steps, so a lattice node stays at x = 0 (up to
    rounding), where P3's lower level has its isolated point y = -1.  y
    ranges shift by any amount; the known optimum stays inside every range.
    """
    rng = random.Random(f"grid:{seed}")
    ops = []
    for name, ((xl, xh), (yl, yh), step) in GRID_SPECS.items():
        for _ in range(GRID_REPEATS[name]):
            dx = rng.randint(-GRID_SHIFT_STEPS, GRID_SHIFT_STEPS) * step
            dy = rng.uniform(-GRID_Y_SHIFT, GRID_Y_SHIFT)
            argv = _fixture_argv("grid", name, "--x-range", vec((xl + dx, xh + dx)),
                                 "--y-range", vec((yl + dy, yh + dy)), "--step", repr(step))
            ops.append(Op("grid", argv, {"fixture": name, "step": step}))
    rng.shuffle(ops)
    return Workload(tuple(ops), FIXTURE_SETUP)


DIAGNOSE_N, DIAGNOSE_M, DIAGNOSE_POINTS = 5, 40, 40


def diagnose_family(seed: int, work: Path) -> Workload:
    """sens then check on family (5, 40) at seeded x, the ROADMAP's scale target.

    Seed 0 uses the unperturbed family.
    """
    fam = family(DIAGNOSE_N, DIAGNOSE_M, seed)
    path = work / "family-5-40.txt"
    path.write_text(fam.text())
    rng = random.Random(f"diagnose:{seed}")
    ops = []
    for _ in range(DIAGNOSE_POINTS):
        x = tuple(away_from_kink(rng, -0.5, 1.0, family_kink(fam, j), 0.15)
                  for j in range(fam.n))
        ops.append(Op("diagnose", ("sens", "--problem", str(path), "--x", vec(x)),
                      {"family": fam, "x": x}))
    return Workload(tuple(ops), (str(path),))


SOLVE_N, SOLVE_M, SOLVE_INSTANCES = 4, 10, 4


def solve_family(seed: int, work: Path) -> Workload:
    """solve on seeded instances of family (4, 10) from generated starts.

    With seed 0 the first instance is the unperturbed family.
    """
    rng = random.Random(f"solve:{seed}")
    ops, paths = [], []
    for k in range(SOLVE_INSTANCES):
        fam = family(SOLVE_N, SOLVE_M, seed * SOLVE_INSTANCES + k)
        path = work / f"family-4-10-{k}.txt"
        path.write_text(fam.text())
        paths.append(str(path))
        x0 = tuple(rng.uniform(-0.5, 1.5) for _ in range(fam.n))
        y0 = tuple(rng.uniform(fam.b, fam.b + 1.0) for _ in range(fam.m))
        ops.append(Op("solve", ("solve", "--problem", str(path), "--x0", vec(x0), "--y0", vec(y0)),
                      {"family": fam}))
    return Workload(tuple(ops), tuple(paths))


WORKLOADS = {
    "quickstart-fixtures": quickstart_fixtures,
    "grid-fixtures": grid_fixtures,
    "diagnose-family": diagnose_family,
    "solve-family": solve_family,
}


# ---------------------------------------------------------------------------
# running and checking

@dataclass
class Call:
    argv: tuple
    code: int | None = None
    error: str | None = None  # exception raised out of main()
    report_path: Path | None = None

    def report(self):
        return json.loads(self.report_path.read_text())


def run_op(op: Op, cli, work: Path) -> list:
    """Run the op's CLI calls through `cli.main`; returns one Call per call made.

    For diagnose the check call's (y, mu, xi) come from the sens report,
    so reading it is part of the op, as it would be for a user.
    """
    calls = [_call(cli, op.argv, work / "sens.json" if op.kind == "diagnose" else work / "op.json")]
    if op.kind == "diagnose" and calls[0].code == 0 and calls[0].report_path.exists():
        mats = calls[0].report()["matrices"]
        argv = ("check",) + op.argv[1:5] + ("--y", vec(mats["y"]))
        if mats["mu"]:
            argv += ("--mu", vec(mats["mu"]))
        if mats["xi"]:
            argv += ("--xi", vec(mats["xi"]))
        calls.append(_call(cli, argv, work / "check.json"))
    return calls


def _call(cli, argv, report_path: Path) -> Call:
    call = Call(tuple(argv), report_path=report_path)
    if report_path.exists():
        report_path.unlink()
    try:
        # looked up per call so a traced cli.main is the one called
        call.code = cli.main(list(argv) + ["--json", str(report_path)])
    except SystemExit as exc:  # argparse usage errors
        call.code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed op, not a failed run
        call.error = f"{type(exc).__name__}: {exc}"
    return call


def check_op(op: Op, calls: list) -> list:
    """Problems with the op's outputs; an empty list means the op is correct."""
    problems = []
    for call in calls:
        if call.error is not None:
            problems.append(f"{call.argv[0]} raised {call.error}")
        elif call.code != 0:
            problems.append(f"{call.argv[0]} exited with code {call.code}")
        elif not call.report_path.exists():
            problems.append(f"{call.argv[0]} wrote no report")
    if problems:
        return problems
    try:
        reports = [c.report() for c in calls]
        return CHECKS[op.kind](op, *reports)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]


def _verdicts(report, true=(), false=()) -> list:
    v = report["verdicts"]
    out = [f"{k} is {v.get(k)!r}, expected true" for k in true if v.get(k) is not True]
    out += [f"{k} is {v.get(k)!r}, expected false" for k in false if v.get(k) is not False]
    return out


def _distance(a, b) -> float:
    if len(a) != len(b):
        return math.inf
    return max((abs(p - q) for p, q in zip(a, b)), default=0.0)


def check_check(op: Op, report) -> list:
    # the second-order min eigenvalue is not judged: its required value is disputed
    return _verdicts(report, op.expect.get("true", ()), op.expect.get("false", ()))


def check_sens(op: Op, report) -> list:
    problems = _verdicts(report, ("lower_solver_converged", "fd_consistent"))
    if problems:
        return problems
    y = report["matrices"]["y"]
    want = lower_solution(op.expect["fixture"], op.expect["x"])
    if _distance(y, want) > 1e-8:
        problems.append(f"y = {y}, closed form gives {list(want)}")
    return problems


SOLVE_TOL = 1e-6  # as acceptance criterion 7


def check_solve(op: Op, report) -> list:
    problems = _verdicts(report, ("converged",))
    if "--rate-sweep" in op.argv:
        problems += _verdicts(report, ("sweep_monotone",))
    if problems:
        return problems
    mats = report["matrices"]
    x, y, mu, xi = mats["x"], mats["y"], mats["mu"], mats["xi"]
    if "family" in op.expect:
        res = op.expect["family"].kkt_residual(x, y, xi)
    else:
        name = op.expect["fixture"]
        hx, hy, hmu, _ = HAND_SOLUTIONS[name]
        dist = _distance(x + y + mu, hx + hy + hmu)
        if dist > SOLVE_TOL:
            problems.append(f"final point is {dist:.3g} from the hand solution")
        res = fixture_kkt_residual(name, x, y, mu, xi)
    if not res <= SOLVE_TOL:
        problems.append(f"lower-level KKT residual {res:.3g} at the final point")
    return problems


def check_verify(op: Op, report) -> list:
    verdicts = report["verdicts"]
    passed = sum(1 for v in verdicts.values() if v is True)
    if len(verdicts) != op.expect["checks"] or passed != len(verdicts):
        return [f"verify passed {passed}/{len(verdicts)}, expected "
                f"{op.expect['checks']}/{op.expect['checks']}"]
    return []


def grid_error(op: Op, report) -> float:
    """Max-norm distance of the grid winner from the fixture optimum."""
    ox, oy, _ = FIXTURE_OPTIMA[op.expect["fixture"]]
    mats = report["matrices"]
    return max(_distance(mats["best_x"], ox), _distance(mats["best_y"], oy))


def check_grid(op: Op, report) -> list:
    problems = _verdicts(report, ("found_feasible",))
    if problems:
        return problems
    name = op.expect["fixture"]
    value_tol, dist_tol = grid_tolerances(op.expect["step"])
    mats = report["matrices"]
    gap = abs(upper_objective(name, mats["best_x"], mats["best_y"]) - FIXTURE_OPTIMA[name][2])
    if not gap <= value_tol:
        problems.append(f"winner's F is {gap:.3g} from the optimum, tolerance {value_tol:.3g}")
    err = grid_error(op, report)
    if not err <= dist_tol:
        problems.append(f"winner is {err:.3g} from the optimum, tolerance {dist_tol:.3g}")
    return problems


DIAGNOSE_KKT_TOL = 1e-9


def check_diagnose(op: Op, sens, check) -> list:
    problems = _verdicts(sens, ("lower_solver_converged", "fd_consistent"))
    problems += _verdicts(check, ("kkt_ok", "multipliers_recovered"))
    mats = sens["matrices"]
    res = op.expect["family"].kkt_residual(op.expect["x"], mats["y"], mats["xi"])
    if not res <= DIAGNOSE_KKT_TOL:
        problems.append(f"lower-level KKT residual {res:.3g} at the sens solution")
    return problems


CHECKS = {
    "check": check_check,
    "sens": check_sens,
    "solve": check_solve,
    "verify": check_verify,
    "grid": check_grid,
    "diagnose": check_diagnose,
}
