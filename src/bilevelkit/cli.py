"""Command line front end: check, sens, solve, grid, verify.

Every command prints a human-readable summary and optionally writes a JSON
report (--json PATH).  Reports use a fixed key order and 17-significant-digit
floats so identical invocations produce identical bytes; the only field that
varies between runs is wall_time_s.

Exit codes: 0 ok (verdict failures included), 2 load/usage error or a
problem function undefined at an evaluated point, 3 dimension error,
4 unsupported grid request.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import alm as alm_mod
from .expr import DomainError
from .grid import GridUnsupported, run_grid
from .lower import Inconsistent, SingularJacobian, check_jacobian_uniqueness, solve_lower
from .numerics import Infeasible, NonFinite, Singular, fd_jacobian
from .optimality import (
    SECOND_ORDER_MODES,
    NondifferentiablePoint,
    check_first_order_fp,
    check_mfcq_fp,
    check_second_order_fp,
    recover_multipliers,
    second_order_holds,
)
from .problem import (
    DimensionMismatch,
    FIXTURE_SOURCES,
    FormatError,
    PrimalDualPoint,
    UnknownFixture,
    UpperMultiplier,
    fixture,
    flatten_multiplier,
    format_problem,
    load_problem,
    unflatten_multiplier,
)
from .sensitivity import NotKkt, SingularK, StrictComplementarityViolated, implicit_jacobians
from .verify import run_all

_STAGE_ERRORS = (
    SingularK,
    StrictComplementarityViolated,
    NotKkt,
    Inconsistent,
    SingularJacobian,
    NondifferentiablePoint,
    Infeasible,
    Singular,
    NonFinite,
)


class CliError(Exception):
    """Fatal command error carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# argument plumbing

_NUMERIC_START = re.compile(r"^-[\d.,]")


def _value_flags(parser: argparse.ArgumentParser) -> set:
    """Every option string, in the parser and its subparsers, whose action takes a value."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.nargs != 0:
            flags.update(action.option_strings)
    return flags


def _absorb_negative_values(argv, value_flags):
    """Join value flags with a following negative-number token using '='.

    argparse would otherwise read "-1,1" as an option string, so
    `--x-range -1,1` becomes `--x-range=-1,1` before parsing.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv) and _NUMERIC_START.match(argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_vector(text, dim: int, name: str) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    try:
        vals = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise CliError(2, f"could not parse --{name} value {text!r} as a comma-separated vector")
    if vals.size != dim:
        raise CliError(3, f"--{name} expects {dim} component(s), got {vals.size}")
    if not np.isfinite(vals).all():
        raise CliError(2, f"--{name} components must be finite, got {text!r}")
    return vals


def _parse_range(text, name: str):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise CliError(2, f"--{name} expects 'lo,hi', got {text!r}")
    return lo, hi


def _load(args):
    if getattr(args, "fixture", None):
        try:
            return fixture(args.fixture)
        except UnknownFixture:
            known = ", ".join(sorted(FIXTURE_SOURCES))
            raise CliError(2, f"unknown fixture {args.fixture!r} (known: {known})")
    try:
        text = Path(args.problem).read_text()
    except OSError as exc:
        raise CliError(2, f"cannot read problem file: {exc}")
    try:
        return load_problem(text)
    except FormatError as exc:
        raise CliError(2, f"problem file rejected: {exc}")


def _add_problem_source(sub):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="path to a problem description file")
    src.add_argument("--fixture", help="built-in fixture name (P1..P4)")


# ---------------------------------------------------------------------------
# deterministic JSON

def _pyify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if v == math.inf:
        return '"inf"'
    if v == -math.inf:
        return '"-inf"'
    return "%.17g" % v


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_dumps(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [_dumps(v, indent + 1) for v in obj]
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat and sum(len(r) for r in rendered) <= 72:
            return "[" + ", ".join(rendered) + "]"
        rows = [f"{pad}  {r}" for r in rendered]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_report(path, command, problem, inputs, verdicts, evidence, matrices, trace, wall):
    report = {
        "command": list(command),
        "problem_hash": _problem_hash(problem) if problem is not None else None,
        "inputs": inputs,
        "verdicts": verdicts,
        "evidence": evidence,
        "matrices": matrices,
        "trace": trace,
        "wall_time_s": float(wall),
    }
    Path(path).write_text(_dumps(_pyify(report)) + "\n")


def _problem_hash(problem) -> str:
    return hashlib.sha256(format_problem(problem).encode()).hexdigest()


# ---------------------------------------------------------------------------
# printing helpers

def _print_kv(rows):
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")


def _show(v) -> str:
    if isinstance(v, bool):
        return "pass" if v else "FAIL"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _show_evidence(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _print_matrix(name, a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    print(f"  {name} =")
    for row in a:
        print("      " + "  ".join(f"{v: .10g}" for v in row))


# ---------------------------------------------------------------------------
# check

def cmd_check(args, argv) -> int:
    t0 = time.perf_counter()
    problem = _load(args)
    x = _parse_vector(args.x, problem.n, "x")
    y = _parse_vector(args.y, problem.m, "y")
    mu = _parse_vector(args.mu, problem.r, "mu")
    xi = _parse_vector(args.xi, problem.s, "xi")
    lam_h_up = _parse_vector(args.lamH, problem.p, "lamH") if args.lamH else None
    lam_g_up = _parse_vector(args.lamG, problem.q, "lamG") if args.lamG else None
    u = PrimalDualPoint(x=x, y=y, mu=mu, xi=xi)

    verdicts = {}
    evidence = {}
    matrices = {}

    rep = check_jacobian_uniqueness(problem, x, y, mu, xi)
    verdicts["kkt_ok"] = rep.kkt_ok
    verdicts["licq_ok"] = rep.licq_ok
    verdicts["strict_comp_ok"] = rep.strict_comp_ok
    verdicts["sosc_ok"] = rep.sosc_ok
    verdicts["jacobian_uniqueness"] = rep.all_ok
    evidence["kkt_residual_norm"] = rep.kkt_residual_norm
    evidence["min_singular_active"] = rep.min_singular_active
    evidence["strict_comp_margin"] = rep.strict_comp_margin
    evidence["reduced_hessian_min_eig"] = rep.reduced_hessian_min_eig

    lam = None
    try:
        lam_l, lam_h, lam_g = recover_multipliers(problem, u, lam_h_up, lam_g_up)
        lam = UpperMultiplier(
            lam_H=lam_h_up if lam_h_up is not None else np.zeros(problem.p),
            lam_G=lam_g_up if lam_g_up is not None else np.zeros(problem.q),
            lam_L=lam_l,
            lam_h=lam_h,
            lam_g=lam_g,
        )
        verdicts["multipliers_recovered"] = True
        matrices["lam_L"] = lam_l
        matrices["lam_h"] = lam_h
        matrices["lam_g"] = lam_g
    except _STAGE_ERRORS as exc:
        verdicts["multipliers_recovered"] = f"skipped: {type(exc).__name__}: {exc}"

    try:
        mf = check_mfcq_fp(problem, u)
        verdicts["mfcq_holds"] = mf.holds
        evidence["mfcq_min_singular"] = mf.min_singular_value
        evidence["mfcq_t_opt"] = mf.t_opt
        matrices["mfcq_direction"] = mf.d
    except _STAGE_ERRORS as exc:
        verdicts["mfcq_holds"] = f"skipped: {type(exc).__name__}: {exc}"

    if lam is not None:
        fo = check_first_order_fp(problem, u, lam)
        verdicts["first_order_holds"] = fo.holds
        evidence["sigma"] = fo.sigma
        evidence["stationarity_norm"] = fo.stationarity_norm
        evidence["feasibility_norm"] = fo.feasibility_norm
        try:
            so = check_second_order_fp(problem, u, lam)
            for mode in SECOND_ORDER_MODES:
                verdicts[f"second_order_{mode}"] = second_order_holds(so.min_eigenvalue, mode)
                evidence[f"second_order_{mode}_min_eig"] = so.min_eigenvalue
            evidence["cone_dimension"] = so.cone_dimension
            evidence["cone_over_approximation"] = so.over_approximation
            evidence["multiplier_unique"] = so.multiplier_unique
        except _STAGE_ERRORS as exc:
            for mode in SECOND_ORDER_MODES:
                verdicts[f"second_order_{mode}"] = f"skipped: {type(exc).__name__}: {exc}"
    else:
        note = "skipped: no multipliers"
        verdicts["first_order_holds"] = note
        verdicts["second_order_necessary"] = note
        verdicts["second_order_sufficient"] = note

    print(f"condition checks at x={args.x} y={args.y} mu={args.mu or ''} xi={args.xi or ''}")
    _print_kv([(k, _show(v)) for k, v in verdicts.items()])
    print("evidence:")
    _print_kv([(k, _show_evidence(v)) for k, v in evidence.items()])

    if args.json:
        inputs = {
            "x": x, "y": y, "mu": mu, "xi": xi,
            "lamH": lam_h_up, "lamG": lam_g_up,
            "fixture": args.fixture, "problem": args.problem,
        }
        _write_report(args.json, argv, problem, inputs, verdicts, evidence,
                      matrices, [], time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------------------
# sens

def cmd_sens(args, argv) -> int:
    t0 = time.perf_counter()
    if not 0.0 < args.fd_step < math.inf:
        raise CliError(2, f"--fd-step must be positive and finite, got {args.fd_step!r}")
    problem = _load(args)
    x = _parse_vector(args.x, problem.n, "x")
    y0 = _parse_vector(args.y, problem.m, "y") if args.y else None
    mu0 = _parse_vector(args.mu, problem.r, "mu") if args.mu else None
    xi0 = _parse_vector(args.xi, problem.s, "xi") if args.xi else None

    verdicts = {}
    evidence = {}
    matrices = {}

    y, mu, xi, converged = solve_lower(problem, x, y0=y0, mu0=mu0, xi0=xi0, tol=1e-12)
    verdicts["lower_solver_converged"] = bool(converged)
    matrices["y"] = y
    matrices["mu"] = mu
    matrices["xi"] = xi
    if converged:
        try:
            sr = implicit_jacobians(problem, x, y, mu, xi)
            matrices["Jy"] = sr.Jy
            matrices["Jmu"] = sr.Jmu
            matrices["Jxi"] = sr.Jxi
            evidence["cond_estimate"] = sr.cond_estimate

            def resolve(xv):
                yy, mm, ss, ok = solve_lower(problem, xv, y0=y, mu0=mu, xi0=xi, tol=1e-13)
                if not ok:
                    raise NonFinite("lower solve failed during finite differencing")
                return np.concatenate([yy, mm, ss])

            fd = fd_jacobian(resolve, x, h=args.fd_step)
            blocks = {
                "Jy": (sr.Jy, fd[: problem.m]),
                "Jmu": (sr.Jmu, fd[problem.m: problem.m + problem.r]),
                "Jxi": (sr.Jxi, fd[problem.m + problem.r:]),
            }
            print(f"lower solution at x={args.x}: y={y} mu={mu} xi={xi}")
            deltas = []
            rows = []
            for name, (exact, approx) in blocks.items():
                delta = float(np.abs(exact - approx).max(initial=0.0))
                deltas.append(delta)
                evidence[f"fd_delta_{name}"] = delta
                matrices[f"fd_{name}"] = approx
                rows.append((name, f"max |exact - fd| = {delta:.3e}"))
            worst = float(np.max(deltas))  # a NaN delta makes worst NaN and the verdict false
            verdicts["fd_consistent"] = worst <= args.fd_tol
            evidence["fd_delta_max"] = worst
            for name in ("Jy", "Jmu", "Jxi"):
                _print_matrix(name, blocks[name][0])
            print("finite-difference agreement:")
            _print_kv(rows)
            print(f"  fd_consistent: {_show(verdicts['fd_consistent'])} (tol {args.fd_tol:g})")
        except _STAGE_ERRORS as exc:
            verdicts["sensitivities"] = f"skipped: {type(exc).__name__}: {exc}"
            print(f"sensitivities unavailable: {type(exc).__name__}: {exc}")
    else:
        print("lower-level solver did not converge; no sensitivities computed")

    if args.json:
        inputs = {
            "x": x, "fd_step": args.fd_step, "fd_tol": args.fd_tol,
            "fixture": args.fixture, "problem": args.problem,
        }
        _write_report(args.json, argv, problem, inputs, verdicts, evidence,
                      matrices, [], time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------------------
# solve

def _run_alm(problem, u0, lam0, config):
    """alm_solve that returns the trace even when the outer loop stalls."""
    try:
        return alm_mod.alm_solve(problem, u0, lam0, config)
    except alm_mod.Stalled as exc:
        return exc.trace


def _trace_rows(trace):
    rows = []
    for it in trace.iterations:
        rows.append({
            "k": it.k,
            "sigma": it.sigma,
            "eps": it.eps,
            "rho": it.rho,
            "inner_iterations": it.inner_iterations,
            "accepted": it.accepted,
        })
    return rows


def _median_quotient(trace, u_ref, lam_ref):
    try:
        q = alm_mod.rate_diagnostics(trace, u_ref, lam_ref)
    except (ValueError, alm_mod.ReferenceTooClose):
        return None, []
    if q.size == 0:
        return None, []
    return float(statistics.median(q.tolist())), q.tolist()


def cmd_solve(args, argv) -> int:
    t0 = time.perf_counter()
    problem = _load(args)
    x0 = _parse_vector(args.x0, problem.n, "x0")
    y0 = _parse_vector(args.y0, problem.m, "y0")
    mu0 = _parse_vector(args.mu0, problem.r, "mu0")
    xi0 = _parse_vector(args.xi0, problem.s, "xi0")
    lam_dim = problem.p + problem.q + problem.m + problem.r + problem.s
    lam0 = unflatten_multiplier(problem, _parse_vector(args.lam0, lam_dim, "lam0"))
    u0 = PrimalDualPoint(x=x0, y=y0, mu=mu0, xi=xi0)
    try:
        config = alm_mod.AlmConfig(
            rho0=args.rho0, rho_growth=args.rho_growth,
            outer_tol=args.tol, max_outer=args.max_outer,
        )
    except ValueError as exc:
        raise CliError(2, f"invalid solve settings: {exc}")

    trace = _run_alm(problem, u0, lam0, config)

    print(f"outer loop finished: status={trace.status} "
          f"sigma={trace.sigma_final:.3e} rho={trace.rho_final:g}")
    print("   k       sigma         eps         rho  inner  accepted")
    for it in trace.iterations:
        print(f"  {it.k:>2}  {it.sigma:10.3e}  {it.eps:10.3e}  {it.rho:10.3g}"
              f"  {it.inner_iterations:>5}  {'yes' if it.accepted else 'no'}")
    uf = trace.u_final
    print(f"final point: x={uf.x} y={uf.y} mu={uf.mu} xi={uf.xi}")

    verdicts = {"converged": trace.status == "converged"}
    evidence = {"sigma_final": trace.sigma_final, "rho_final": trace.rho_final,
                "outer_iterations": len(trace.iterations)}
    matrices = {"x": uf.x, "y": uf.y, "mu": uf.mu, "xi": uf.xi,
                "lam": flatten_multiplier(trace.lam_final)}

    med, quotients = _median_quotient(trace, trace.u_final, trace.lam_final)
    if quotients:
        print("rate quotients vs final point: "
              + ", ".join(f"{q:.3e}" for q in quotients)
              + f"  (median {med:.3e})")
        evidence["median_q"] = med
        matrices["rate_quotients"] = quotients

    if args.rate_sweep:
        if trace.status != "converged":
            print("rate sweep skipped: main run did not converge")
            verdicts["sweep_monotone"] = "skipped: main run did not converge"
        else:
            medians = []
            print("rho sweep (fixed rho, rate vs main solution):")
            for rho in (10.0, 100.0, 1000.0):
                cfg = alm_mod.AlmConfig(
                    rho0=rho, rho_growth=1.0,
                    outer_tol=args.tol, max_outer=args.max_outer,
                )
                tr = _run_alm(problem, u0, lam0, cfg)
                m, qs = _median_quotient(tr, trace.u_final, trace.lam_final)
                medians.append(m)
                label = "n/a" if m is None else f"{m:.3e}"
                print(f"  rho={rho:<6g} status={tr.status:<10} outers={len(tr.iterations):>3}"
                      f"  median q={label}")
                evidence[f"median_q_rho_{int(rho)}"] = math.nan if m is None else m
                matrices[f"rate_quotients_rho_{int(rho)}"] = qs
            ok = all(m is not None for m in medians) and all(
                a > b for a, b in zip(medians, medians[1:])
            )
            verdicts["sweep_monotone"] = bool(ok)
            print(f"  median q strictly decreasing in rho: {_show(bool(ok))}")

    if args.json:
        inputs = {
            "x0": x0, "y0": y0, "mu0": mu0, "xi0": xi0,
            "lam0": flatten_multiplier(lam0),
            "rho0": args.rho0, "rho_growth": args.rho_growth,
            "tol": args.tol, "max_outer": args.max_outer,
            "rate_sweep": bool(args.rate_sweep),
            "fixture": args.fixture, "problem": args.problem,
        }
        _write_report(args.json, argv, problem, inputs, verdicts, evidence,
                      matrices, _trace_rows(trace), time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------------------
# grid

def cmd_grid(args, argv) -> int:
    t0 = time.perf_counter()
    problem = _load(args)
    x_range = _parse_range(args.x_range, "x-range")
    y_range = _parse_range(args.y_range, "y-range")

    verdicts = {}
    evidence = {}
    matrices = {}
    trace = []

    try:
        result = run_grid(problem, x_range, y_range, args.step,
                          feas_tol=args.feas_tol, eq_tol=args.eq_tol)
    except GridUnsupported as exc:
        print(f"grid: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        raise CliError(2, f"grid: {exc}")
    except RuntimeError as exc:
        verdicts["found_feasible"] = False
        print(f"grid: {exc}")
        if args.json:
            inputs = {"x_range": list(x_range), "y_range": list(y_range),
                      "step": args.step, "fixture": args.fixture, "problem": args.problem}
            _write_report(args.json, argv, problem, inputs, verdicts, evidence,
                          matrices, trace, time.perf_counter() - t0)
        return 0

    verdicts["found_feasible"] = True
    evidence["best_upper_value"] = result.best_upper_value
    evidence["best_lower_value"] = result.best_lower_value
    evidence["feasible_x_count"] = result.feasible_x_count
    matrices["best_x"] = result.best_x
    matrices["best_y"] = result.best_y

    print(f"best pair: x={result.best_x} y={result.best_y}")
    print(f"upper objective {result.best_upper_value:.10g}, "
          f"lower objective {result.best_lower_value:.10g}, "
          f"{result.feasible_x_count} feasible x nodes")
    print("lower-level local minimizers at the winning x:")
    print("      y                f            F        selected  isolated  upper_feasible")
    for rec in result.local_minimizers:
        ystr = ",".join(f"{v:.6g}" for v in rec.y)
        print(f"  {ystr:>12}  {rec.f_value:12.6g}  {rec.upper_value:12.6g}"
              f"  {'yes' if rec.selected else 'no':>8}"
              f"  {'yes' if rec.isolated else 'no':>8}"
              f"  {'yes' if rec.upper_feasible else 'no':>14}")
        trace.append({
            "y": rec.y,
            "f_value": rec.f_value,
            "upper_value": rec.upper_value,
            "selected": rec.selected,
            "isolated": rec.isolated,
            "upper_feasible": rec.upper_feasible,
        })

    if args.json:
        inputs = {"x_range": list(x_range), "y_range": list(y_range), "step": args.step,
                  "feas_tol": args.feas_tol, "eq_tol": args.eq_tol,
                  "fixture": args.fixture, "problem": args.problem}
        _write_report(args.json, argv, problem, inputs, verdicts, evidence,
                      matrices, trace, time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args, argv) -> int:
    t0 = time.perf_counter()
    results = run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"  {tag}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")

    if args.json:
        verdicts = {r.name: r.passed for r in results}
        evidence = {r.name: r.detail for r in results}
        _write_report(args.json, argv, None, {}, verdicts, evidence, {}, [],
                      time.perf_counter() - t0)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevelkit",
        description="bilevel problems via the lower-level KKT reformulation: "
                    "condition checks, sensitivities, an augmented Lagrangian "
                    "solver, and brute-force grid verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run regularity and optimality condition checks")
    _add_problem_source(p_check)
    p_check.add_argument("--x", required=True, help="upper variables, comma separated")
    p_check.add_argument("--y", required=True, help="lower variables, comma separated")
    p_check.add_argument("--mu", help="lower equality multipliers (default 0)")
    p_check.add_argument("--xi", help="lower inequality multipliers (default 0)")
    p_check.add_argument("--lamH", help="upper equality multipliers (default 0)")
    p_check.add_argument("--lamG", help="upper inequality multipliers (default 0)")
    p_check.add_argument("--json", help="write a JSON report to this path")
    p_check.set_defaults(func=cmd_check)

    p_sens = sub.add_parser("sens", help="implicit sensitivities of the lower-level solution")
    _add_problem_source(p_sens)
    p_sens.add_argument("--x", required=True, help="upper variables, comma separated")
    p_sens.add_argument("--y", help="warm start for the lower solve")
    p_sens.add_argument("--mu", help="warm start multipliers")
    p_sens.add_argument("--xi", help="warm start multipliers")
    p_sens.add_argument("--fd-step", type=float, default=1e-5)
    p_sens.add_argument("--fd-tol", type=float, default=1e-6)
    p_sens.add_argument("--json", help="write a JSON report to this path")
    p_sens.set_defaults(func=cmd_sens)

    p_solve = sub.add_parser("solve", help="augmented Lagrangian solve of the reformulation")
    _add_problem_source(p_solve)
    p_solve.add_argument("--x0", help="initial upper variables (default 0)")
    p_solve.add_argument("--y0", help="initial lower variables (default 0)")
    p_solve.add_argument("--mu0", help="initial lower equality multipliers (default 0)")
    p_solve.add_argument("--xi0", help="initial lower inequality multipliers (default 0)")
    p_solve.add_argument("--lam0", help="initial outer multiplier, flat order H,G,L,h,g (default 0)")
    p_solve.add_argument("--rho0", type=float, default=10.0)
    p_solve.add_argument("--rho-growth", type=float, default=10.0)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-outer", type=int, default=50)
    p_solve.add_argument("--rate-sweep", action="store_true",
                         help="rerun with fixed rho in {10,100,1000} and compare rates")
    p_solve.add_argument("--json", help="write a JSON report to this path")
    p_solve.set_defaults(func=cmd_solve)

    p_grid = sub.add_parser("grid", help="brute-force grid search (n,m <= 2)")
    _add_problem_source(p_grid)
    p_grid.add_argument("--x-range", required=True, help="'lo,hi' for every x axis")
    p_grid.add_argument("--y-range", required=True, help="'lo,hi' for every y axis")
    p_grid.add_argument("--step", type=float, required=True)
    p_grid.add_argument("--feas-tol", type=float, default=1e-9)
    p_grid.add_argument("--eq-tol", type=float, default=None,
                        help="equality feasibility band (default: step)")
    p_grid.add_argument("--json", help="write a JSON report to this path")
    p_grid.set_defaults(func=cmd_grid)

    p_verify = sub.add_parser("verify", help="run the internal invariant suite")
    p_verify.add_argument("--json", help="write a JSON report to this path")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser():
    """One (parser, value flags) pair per process: parsing leaves a parser unchanged."""
    parser = build_parser()
    return parser, _value_flags(parser)


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser, value_flags = _shared_parser()
    args = parser.parse_args(_absorb_negative_values(raw, value_flags))
    try:
        return args.func(args, raw)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: problem function undefined at an evaluated point: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
