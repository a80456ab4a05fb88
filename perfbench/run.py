"""bilevelkit benchmark: seeded CLI workloads, output checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is an in-process call of `bilevelkit.cli.main(argv)` with stdout
captured, so an op times the program and not interpreter start-up.  One
pass runs the workload's ops once, in a fixed order; passes repeat, closed
loop on one thread, while the next one is expected to finish within
--seconds.  Every op's JSON report is checked (workloads.py); an op fails
on a non-zero exit code, an exception, or a wrong answer.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh processes of import + loading every problem
  wall_s       median over passes of the summed op latencies of one pass
  op_p50_ms    median op latency over all ops of the run
  op_tail_ms   the largest latency with ten ops beyond it (its percentile
               and the op count are printed above the result line)
  peak_rss_mb  peak resident memory of this process
The fail ratio is `failed / attempted` in the result line.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of PER_LAYER.  Counts come from the traced passes and must repeat
exactly from pass to pass; times are medians over traced passes.  Spans
of the first traced pass go to .perfbench_run/spans-<workload>-<seed>.csv.

The last line of stdout is the JSON result.  Exit code 2 means the
checkout holds no bilevelkit sources.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, check_op, grid_error, run_op  # noqa: E402

SETUP_SAMPLES = 9
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(name):
    return lambda t, x: t.calls[name]


def _secs(name):
    return lambda t, x: t.seconds[name]


def _self(name):
    return lambda t, x: t.self_seconds[name]


def _count(name):
    return lambda t, x: t.counts[name]


QS, GRID, DIAG, SOLVE = ("quickstart-fixtures", "grid-fixtures", "diagnose-family",
                         "solve-family")
LOAD = f"setup_s on all; op_p50_ms on {QS}, {DIAG}"
EVAL = f"wall_s on {SOLVE} (main effect), {DIAG}; on {GRID} only value (golden section)"
ARRAY = f"wall_s on {GRID} only"
LAGR = f"wall_s on {SOLVE}, {DIAG}"
NEWTON = f"op_p50_ms on {DIAG}"
ALM = f"wall_s, op_p50_ms on {SOLVE}; {QS} (fixture solves)"
FP = f"wall_s on {SOLVE}; {QS} (fixture solves)"
NUM = f"op_p50_ms on {DIAG}; about zero elsewhere"
CLI = f"op_p50_ms, op_tail_ms on {QS}"

# (metric, unit, better, value from (tracer, extras), end-to-end metric it should move)
PER_LAYER = (
    ("problem.load_problem.calls", "count", "lower", _calls("problem.load_problem"), LOAD),
    ("problem.load_problem.s", "s", "lower", _secs("problem.load_problem"), LOAD),
    ("expr.compile_expr.s", "s", "lower", _secs("expr.compile_expr"), LOAD),
    ("expr.value.calls", "count", "lower", _calls("expr.value"), EVAL),
    ("expr.grad.calls", "count", "lower", _calls("expr.grad"), EVAL),
    ("expr.hess.calls", "count", "lower", _calls("expr.hess"), EVAL),
    ("expr.hess.s", "s", "lower", _secs("expr.hess"), EVAL),
    ("expr.evaluate_array.calls", "count", "lower", _calls("expr.evaluate_array"), ARRAY),
    ("expr.evaluate_array.s", "s", "lower", _secs("expr.evaluate_array"), ARRAY),
    ("grid.run_grid.calls", "count", "lower", _calls("grid.run_grid"), ARRAY),
    ("grid.run_grid.s", "s", "lower", _secs("grid.run_grid"), ARRAY),
    ("grid.run_grid.self_s", "s", "lower", _self("grid.run_grid"), ARRAY),
    ("grid.winner_error_steps", "step", "lower", lambda t, x: x["grid_error_steps"],
     f"none (accuracy): the P2 equality-band bias on {GRID}"),
    ("lower.lower_lagrangian.calls", "count", "lower", _calls("lower.lower_lagrangian"), LAGR),
    ("lower.lower_lagrangian.s", "s", "lower", _secs("lower.lower_lagrangian"), LAGR),
    ("lower.kkt_residual.calls", "count", "lower", _calls("lower.kkt_residual"), LAGR),
    ("lower.kkt_residual.s", "s", "lower", _secs("lower.kkt_residual"), LAGR),
    ("lower.solve_lower.calls", "count", "lower", _calls("lower.solve_lower"), NEWTON),
    ("lower.solve_lower.s", "s", "lower", _secs("lower.solve_lower"), NEWTON),
    ("lower.solve_lower.converged_ratio", "ratio", "higher",
     lambda t, x: _ratio(t.counts["lower.solve_lower.converged"], t.calls["lower.solve_lower"]),
     NEWTON),
    ("lower.kkt_residual.per_newton_iter", "ratio", "lower",
     lambda t, x: _ratio(t.edges[("lower.solve_lower", "lower.kkt_residual")],
                         t.edges[("lower.solve_lower", "lower.newton_weights")]), NEWTON),
    ("lower.check_jacobian_uniqueness.s", "s", "lower",
     _secs("lower.check_jacobian_uniqueness"), NEWTON),
    ("sensitivity.implicit_jacobians.calls", "count", "lower",
     _calls("sensitivity.implicit_jacobians"), NEWTON),
    ("sensitivity.implicit_jacobians.s", "s", "lower", _secs("sensitivity.implicit_jacobians"),
     NEWTON),
    ("numerics.fd_jacobian.s", "s", "lower", _secs("numerics.fd_jacobian"), NEWTON),
    ("optimality.recover_multipliers.s", "s", "lower", _secs("optimality.recover_multipliers"),
     NEWTON),
    ("optimality.check_mfcq_fp.s", "s", "lower", _secs("optimality.check_mfcq_fp"), NEWTON),
    ("optimality.fp_hessian.calls", "count", "lower", _calls("optimality.fp_hessian"), NEWTON),
    ("optimality.fp_hessian.s", "s", "lower", _secs("optimality.fp_hessian"), NEWTON),
    ("optimality.check_second_order_fp.s", "s", "lower",
     _secs("optimality.check_second_order_fp"), NEWTON),
    ("optimality.fp_constraints.calls", "count", "lower", _calls("optimality.fp_constraints"), FP),
    ("optimality.fp_constraint_jacobian.calls", "count", "lower",
     _calls("optimality.fp_constraint_jacobian"), FP),
    ("optimality.fp_constraint_jacobian.s", "s", "lower",
     _secs("optimality.fp_constraint_jacobian"), FP),
    ("optimality.check_first_order_fp.calls", "count", "lower",
     _calls("optimality.check_first_order_fp"), FP),
    ("optimality.check_first_order_fp.s", "s", "lower", _secs("optimality.check_first_order_fp"),
     FP),
    ("numerics.lu_factor.calls", "count", "lower", _calls("numerics.lu_factor"), NUM),
    ("numerics.lu_factor.s", "s", "lower", _secs("numerics.lu_factor"), NUM),
    ("numerics.lu_factor.flops", "flop_computed", "lower", _count("numerics.lu_factor.flops"), NUM),
    ("numerics.min_eig_sym.calls", "count", "lower", _calls("numerics.min_eig_sym"), NUM),
    ("numerics.min_eig_sym.s", "s", "lower", _secs("numerics.min_eig_sym"), NUM),
    ("numerics.nullspace_basis.s", "s", "lower", _secs("numerics.nullspace_basis"), NUM),
    ("numerics.lp_maximize.calls", "count", "lower", _calls("numerics.lp_maximize"), NUM),
    ("numerics.lp_maximize.s", "s", "lower", _secs("numerics.lp_maximize"), NUM),
    ("alm.alm_solve.calls", "count", "lower", _calls("alm.alm_solve"), ALM),
    ("alm.alm_solve.s", "s", "lower", _secs("alm.alm_solve"), ALM),
    ("alm.outer_rounds", "count", "lower", _count("alm.outer_rounds"), ALM),
    ("alm.inner_minimize.calls", "count", "lower", _calls("alm.inner_minimize"), ALM),
    ("alm.inner_minimize.s", "s", "lower", _secs("alm.inner_minimize"), ALM),
    ("alm.inner.iterations", "count", "lower", _count("alm.inner.iterations"), ALM),
    ("alm.inner.capped_ratio", "ratio", "lower",
     lambda t, x: _ratio(t.counts["alm.inner.capped"], t.calls["alm.inner_minimize"]), ALM),
    ("alm.aug_lagrangian.calls", "count", "lower", _calls("alm.aug_lagrangian"), ALM),
    ("alm.aug_lagrangian.s", "s", "lower", _secs("alm.aug_lagrangian"), ALM),
    ("alm.aug_lagrangian.us_per_call", "us", "lower",
     lambda t, x: 1e6 * _ratio(t.seconds["alm.aug_lagrangian"], t.calls["alm.aug_lagrangian"]),
     ALM),
    ("alm.aug_lagrangian.per_inner_iter", "ratio", "lower",
     lambda t, x: _ratio(t.calls["alm.aug_lagrangian"], t.counts["alm.inner.iterations"]), ALM),
    ("verify.run_all.s", "s", "lower", _secs("verify.run_all"), CLI),
    ("cli.main.calls", "count", "lower", _calls("cli.main"), CLI),
    ("cli.main.self_s", "s", "lower", _self("cli.main"), CLI),
    ("trace.overhead_ratio", "ratio", "lower", lambda t, x: x["overhead_ratio"],
     "none: traced wall_s / untraced wall_s of the same run"),
)
# values that must repeat exactly between traced passes of the same inputs
EXACT_UNITS = ("count", "flop_computed", "step")


class MissingSources(RuntimeError):
    """The checkout has no bilevelkit package under src/."""


def load_cli(src: Path):
    """Import bilevelkit from this checkout's src/ and return its cli module."""
    if not (src / PACKAGE / "__init__.py").is_file():
        raise MissingSources(f"no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise MissingSources(f"{PACKAGE} was imported from {cli.__file__}, not from {src}")
    return cli


def measure_setup(src: Path, items) -> list:
    """Set-up seconds of SETUP_SAMPLES fresh processes, each loading every problem once."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src)] + list(items),
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, argv, problems, op output)
    grid_error_steps: float = 0.0  # largest grid winner distance, in steps
    tracer: Tracer | None = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, cli, work: Path, tracer: Tracer | None = None) -> PassResult:
    """Run and check every op once; only the CLI calls are timed."""
    result = PassResult(tracer=tracer)
    for index, op in enumerate(ops):
        sink = io.StringIO()
        scope = tracer.op(index, op.kind) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            with scope:
                calls = run_op(op, cli, work)
            latency = time.perf_counter() - start
        result.latencies.append(latency)
        problems = check_op(op, calls)
        if problems:
            result.failures.append((index, op.argv, problems, sink.getvalue()[-2000:]))
        elif op.kind == "grid":
            err = grid_error(op, calls[0].report()) / op.expect["step"]
            result.grid_error_steps = max(result.grid_error_steps, err)
    return result


def tail(latencies):
    """(value, percentile) of the largest latency with TAIL_BEYOND latencies above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_passes(make_unit, seconds: float) -> list:
    """Run units while the next is expected to end within `seconds`; at least one."""
    start = time.perf_counter()
    units = []
    while True:
        begin = time.perf_counter()
        units.append(make_unit())
        took = time.perf_counter() - begin
        if time.perf_counter() - start + took > seconds:
            return units


def end_to_end(passes, setup_samples) -> tuple:
    latencies = [lat for p in passes for lat in p.latencies]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "wall_s": f"median of {len(passes)} passes of {len(passes[0].latencies)} ops",
        "op_p50_ms": f"{len(latencies)} ops",
        "op_tail_ms": f"p{tail_pct:.1f}, {min(TAIL_BEYOND, len(latencies) - 1)} of "
                      f"{len(latencies)} ops beyond it",
        "peak_rss_mb": "getrusage of this process",
    }
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            {k: f"{metrics[k]:.6g} {units[k]}  ({notes[k]})" for k in metrics})


def per_layer(pairs) -> tuple:
    """Per-layer metrics from (untraced, traced) pass pairs; also the names that did not repeat."""
    overhead = _ratio(statistics.median(t.wall for _, t in pairs),
                      statistics.median(u.wall for u, _ in pairs))
    per_pass = [
        {name: fn(t.tracer, {"grid_error_steps": t.grid_error_steps, "overhead_ratio": overhead})
         for name, _, _, fn, _ in PER_LAYER}
        for _, t in pairs
    ]
    unstable = [name for name, unit, *_ in PER_LAYER
                if unit in EXACT_UNITS and len({p[name] for p in per_pass}) > 1]
    metrics = {
        name: {"value": per_pass[0][name] if unit in EXACT_UNITS
               else statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, unit, *_ in PER_LAYER
    }
    return metrics, unstable


def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, work)
    ops = workload.ops
    cli = load_cli(ROOT / "src")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"trace {args.trace}")

    if args.trace:
        def pair():
            untraced = run_pass(ops, cli, work)
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(ops, cli, work, tracer)
            return untraced, traced

        pairs = run_passes(pair, args.seconds)
        passes = [p for pr in pairs for p in pr]
        metrics, unstable = per_layer(pairs)
        spans = ROOT / ".perfbench_run" / f"spans-{args.workload}-{args.seed}.csv"
        pairs[0][1].tracer.write_spans(spans)
        for name, _, _, _, moves in PER_LAYER:
            print(f"  {name:<42} {metrics[name]['value']:<14.6g} {metrics[name]['unit']:<13}"
                  f" -> {moves}")
        print(f"  {len(pairs)} traced passes; spans of the first in {spans.relative_to(ROOT)}")
        for name in unstable:
            print(f"error: {name} differs between traced passes", file=sys.stderr)
    else:
        setup = measure_setup(ROOT / "src", workload.setup)
        passes = run_passes(lambda: run_pass(ops, cli, work), args.seconds)
        metrics, lines = end_to_end(passes, setup)
        unstable = []
        for name, line in lines.items():
            print(f"  {name:<12} {line}")

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"  fail_ratio   {failed}/{attempted} = {_ratio(failed, attempted):.6g}")
    shown = 0
    for p in passes:
        for index, argv, problems, output in p.failures:
            if shown < 5:
                print(f"failed op {index}: {' '.join(argv)}: {'; '.join(problems)}\n{output}",
                      file=sys.stderr)
                shown += 1
    return {"correct": failed == 0 and not unstable, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
