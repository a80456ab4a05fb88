"""Tests of the benchmark itself: seeded inputs, tracing, output checks, BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = bench.load_cli(ROOT / "src")


def _run_and_reports(op, work):
    calls = wl.run_op(op, cli, work)
    return calls, [c.report() for c in calls]


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_bytes(name, tmp_path):
    runs = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        workload = wl.WORKLOADS[name](7, work)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        argv = [tuple(a.replace(str(work), "<work>") for a in op.argv) for op in workload.ops]
        runs.append((argv, [s.replace(str(work), '<work>') for s in workload.setup], files))
    assert runs[0] == runs[1]
    other = wl.WORKLOADS[name](8, tmp_path / "a")
    assert [op.argv for op in other.ops] != [
        tuple(a.replace("<work>", str(tmp_path / "a")) for a in argv) for argv in runs[0][0]]


def test_seed_zero_is_the_unperturbed_family():
    fam = wl.family(4, 10, 0)
    assert fam.c == tuple(i / 10 for i in range(1, 11))
    assert fam.a == (0.1,) * 10 and fam.b == 0.2
    upper = fam.text().splitlines()[1]
    assert upper.startswith("upper.objective (x2 - 0.1)^2 + y1^2 + (x3 - 0.2)^2")
    assert wl.family(4, 10, 3) != fam


def _lower_solution(fam, x):
    """(y, xi) solving the family's lower level, by bisection on y - x + 4 a y^3 = 0."""
    y, xi = [], []
    for i in range(fam.m):
        xv, a = x[fam.x_index(i)], fam.a[i]
        if xv < wl.family_kink(fam, fam.x_index(i)):
            y.append(fam.b)
            xi.append(fam.b - xv + 4 * a * fam.b ** 3)
        else:
            lo, hi = fam.b, max(xv, fam.b) + 1.0
            for _ in range(200):  # bisection on y - x + 4 a y^3
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid - xv + 4 * a * mid ** 3 < 0 else (lo, mid)
            y.append(0.5 * (lo + hi))
            xi.append(0.0)
    return y, xi


def test_family_kkt_residual_is_zero_at_closed_form_solution():
    fam = wl.family(2, 3, 5)
    x = (-0.3, 0.9)
    y, xi = _lower_solution(fam, x)
    assert fam.kkt_residual(x, y, xi) < 1e-12
    y[0] += 1e-3
    assert fam.kkt_residual(x, y, xi) > 1e-4


# -- tracing ------------------------------------------------------------------

def _small_ops(tmp_path):
    ops = [op for op in wl.quickstart_fixtures(3, tmp_path).ops if op.kind != "verify"][:12]
    ops += list(wl.grid_fixtures(3, tmp_path).ops[:2])
    ops += list(wl.diagnose_family(3, tmp_path).ops[:1])
    return ops


def test_traced_calls_repeat_exactly(tmp_path):
    ops = _small_ops(tmp_path)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            result = bench.run_pass(ops, cli, tmp_path, tracer)
        assert result.failures == []
        traced.append((dict(tracer.calls), dict(tracer.counts), dict(tracer.edges)))
    assert traced[0] == traced[1]
    calls = traced[0][0]
    for name in ("cli.main", "problem.load_problem", "lower.solve_lower", "alm.aug_lagrangian",
                 "grid.run_grid", "expr.value", "expr.evaluate_array"):
        assert calls.get(name, 0) > 0, name


def _without_wall_time(text):
    return [line for line in text.splitlines() if '"wall_time_s"' not in line]


def test_traced_reports_match_untraced_and_originals_return(tmp_path):
    from bilevelkit import expr, lower

    originals = (cli.main, cli.solve_lower, lower.solve_lower, expr.CompiledFunction.value)
    for op in _small_ops(tmp_path):
        plain_calls, _ = _run_and_reports(op, tmp_path)
        plain = [c.report_path.read_text() for c in plain_calls]
        tracer = Tracer()
        with tracer.installed():
            assert cli.solve_lower is not originals[1]
            with tracer.op(0, op.kind):
                traced_calls, _ = _run_and_reports(op, tmp_path)
            traced = [c.report_path.read_text() for c in traced_calls]
        assert [_without_wall_time(t) for t in traced] == [_without_wall_time(p) for p in plain]
    assert (cli.main, cli.solve_lower, lower.solve_lower, expr.CompiledFunction.value) == originals


def test_spans_have_parents_within_one_op(tmp_path):
    op = wl.quickstart_fixtures(1, tmp_path).ops[0]
    tracer = Tracer()
    with tracer.installed():
        with tracer.op(4, op.kind):
            wl.run_op(op, cli, tmp_path)
    tracer.write_spans(tmp_path / "spans.csv")
    rows = (tmp_path / "spans.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[:4] == ["0", "-1", "4", f"op.{op.kind}"]
    for row in rows[1:]:
        span, parent, op_id = (int(v) for v in row.split(",")[:3])
        assert 0 <= parent < span and op_id == 4


# -- output checks ------------------------------------------------------------

def _problems(op, reports):
    return wl.CHECKS[op.kind](op, *reports)


def _first(ops, kind, fixture=None):
    return next(op for op in ops if op.kind == kind
                and (fixture is None or op.expect.get("fixture") == fixture))


def _mutated(reports, index, path, value):
    out = copy.deepcopy(reports)
    node = out[index]
    for key in path[:-1]:
        node = node[key]
    if callable(value):
        node[path[-1]] = value(node[path[-1]])
    else:
        node[path[-1]] = value
    return out


def _shift(delta):
    return lambda v: [v[0] + delta] + v[1:]


def test_checks_accept_real_outputs_and_reject_wrong_ones(tmp_path):
    qs = wl.quickstart_fixtures(2, tmp_path).ops
    grid = wl.grid_fixtures(2, tmp_path).ops
    diag = wl.diagnose_family(2, tmp_path).ops
    cases = [
        (_first(qs, "check", "P2"), [(0, ("verdicts", "kkt_ok"), False),
                                     (0, ("verdicts", "multipliers_recovered"), "skipped: x")]),
        (_first(qs, "check", "P3"), [(0, ("verdicts", "licq_ok"), True)]),
        (_first(qs, "sens", "P1"), [(0, ("matrices", "y"), _shift(1e-3)),
                                    (0, ("verdicts", "fd_consistent"), False)]),
        (_first(qs, "sens", "P2"), [(0, ("matrices", "y"), _shift(-1e-3))]),
        (_first(qs, "solve", "P2"), [(0, ("verdicts", "converged"), False),
                                     (0, ("verdicts", "sweep_monotone"), False),
                                     (0, ("matrices", "x"), _shift(1e-4))]),
        (_first(qs, "solve", "P4"), [(0, ("matrices", "xi"), _shift(0.5))]),
        (_first(qs, "verify"), [(0, ("verdicts", "natural-residual"), False)]),
        (_first(grid, "grid", "P2"), [(0, ("matrices", "best_y"), [0.5 + 2.5 * 0.02, 0.5]),
                                      (0, ("verdicts", "found_feasible"), False)]),
        (_first(grid, "grid", "P3"), [(0, ("matrices", "best_y"), [0.0])]),
        (diag[0], [(1, ("verdicts", "kkt_ok"), False),
                   (0, ("verdicts", "fd_consistent"), False),
                   (0, ("matrices", "y"), _shift(1e-6))]),
    ]
    for op, mutations in cases:
        calls, reports = _run_and_reports(op, tmp_path)
        assert wl.check_op(op, calls) == [], op.argv
        for index, path, value in mutations:
            assert _problems(op, _mutated(reports, index, path, value)), (op.argv, path)
        calls[-1].code = 1
        assert wl.check_op(op, calls), op.argv
        calls[-1].code, calls[-1].error = 0, "DomainError: log of 0"
        assert wl.check_op(op, calls), op.argv


def test_family_solve_check_uses_independent_residual():
    fam = wl.family(4, 10, 0)
    op = wl.Op("solve", ("solve",), {"family": fam})
    x = [0.6, -0.2, 0.9, 0.4]
    y, xi = _lower_solution(fam, x)
    report = {"verdicts": {"converged": True},
              "matrices": {"x": x, "y": y, "mu": [], "xi": xi}}
    assert _problems(op, [report]) == []
    assert _problems(op, _mutated([report], 0, ("matrices", "y"), _shift(1e-4)))


def test_grid_check_rejects_a_winner_far_away_on_a_flat_objective():
    op = wl.Op("grid", ("grid",), {"fixture": "P3", "step": 0.001})
    near = {"verdicts": {"found_feasible": True},
            "matrices": {"best_x": [-0.005], "best_y": [-0.999986]}}
    assert _problems(op, [near]) == []
    far = _mutated([near], 0, ("matrices", "best_x"), [0.04])
    assert _problems(op, far)


# -- the benchmark as a program -----------------------------------------------

def test_benchmark_json_matches_the_metrics_the_program_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in bench.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(wl.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    value, pct = bench.tail(values)
    assert value == 89.0 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart-fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
