"""In-memory layer tracing for bilevelkit, installed from outside the package.

`Tracer.installed()` replaces public functions of the package with timing
wrappers in every module namespace that bound them (so `cli.solve_lower`
and `alm.fp_constraints` are traced as well as the originals) and puts the
originals back on exit.  Each wrapped call is a span with a parent span and
the op it belongs to; spans stay in memory until `write_spans`.  The hot
`CompiledFunction` methods and `evaluate_array` get aggregate counters
instead of spans.

Flags that callers only see in return values are read here too:
`solve_lower`'s converged flag, `InnerResult.converged`/`iterations`, and
the length of the ALM trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

PACKAGE = "bilevelkit"

SPANNED = (
    ("problem", "load_problem"),
    ("expr", "compile_expr"),
    ("lower", "lower_lagrangian"),
    ("lower", "kkt_residual"),
    ("lower", "newton_weights"),
    ("lower", "solve_lower"),
    ("lower", "check_jacobian_uniqueness"),
    ("sensitivity", "implicit_jacobians"),
    ("numerics", "fd_jacobian"),
    ("numerics", "lu_factor"),
    ("numerics", "min_eig_sym"),
    ("numerics", "nullspace_basis"),
    ("numerics", "lp_maximize"),
    ("optimality", "recover_multipliers"),
    ("optimality", "check_mfcq_fp"),
    ("optimality", "fp_hessian"),
    ("optimality", "check_second_order_fp"),
    ("optimality", "fp_constraints"),
    ("optimality", "fp_constraint_jacobian"),
    ("optimality", "check_first_order_fp"),
    ("alm", "alm_solve"),
    ("alm", "inner_minimize"),
    ("alm", "aug_lagrangian"),
    ("grid", "run_grid"),
    ("verify", "run_all"),
    ("cli", "main"),
)

# CompiledFunction method -> counter name
AGGREGATED_METHODS = {
    "value": "expr.value",
    "grad_x": "expr.grad",
    "grad_y": "expr.grad",
    "hess_xx": "expr.hess",
    "hess_xy": "expr.hess",
    "hess_yy": "expr.hess",
}
AGGREGATED_FUNCTIONS = (("expr", "evaluate_array"),)


def _solve_lower_flags(counts, args, result, exc):
    if exc is None:
        counts["lower.solve_lower.converged"] += bool(result[3])


def _inner_flags(counts, args, result, exc):
    if exc is None:
        counts["alm.inner.iterations"] += result.iterations
        counts["alm.inner.capped"] += not result.converged


def _alm_flags(counts, args, result, exc):
    trace = result if exc is None else getattr(exc, "trace", None)
    if trace is not None:
        counts["alm.outer_rounds"] += len(trace.iterations)


def _lu_flags(counts, args, result, exc):
    k = len(args[0])
    counts["numerics.lu_factor.flops"] += 2.0 * k ** 3 / 3.0  # computed, not counted


FLAG_HOOKS = {
    "lower.solve_lower": _solve_lower_flags,
    "alm.inner_minimize": _inner_flags,
    "alm.alm_solve": _alm_flags,
    "numerics.lu_factor": _lu_flags,
}


class Tracer:
    """Spans, per-layer totals and counters for one traced stretch of work."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        # one entry per span, column-wise to keep memory small
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, name, start, child seconds]
        self._depth = Counter()
        self._op = -1
        self.calls = Counter()
        self.seconds = Counter()  # inclusive, outermost call of each name only
        self.self_seconds = Counter()
        self.counts = Counter()  # flags read from return values
        self.edges = Counter()  # (parent name, child name) -> calls
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _begin(self, name):
        span = len(self.span_start)
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else None
        self.span_parent.append(parent[0] if parent else -1)
        self.span_op.append(self._op)
        self.span_name.append(index)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([span, name, start, 0.0])
        self.calls[name] += 1
        self.edges[(parent[1] if parent else None, name)] += 1
        self._depth[name] += 1

    def _end(self):
        end = time.perf_counter()
        span, name, start, child = self._stack.pop()
        self.span_end[span] = end
        duration = end - start
        self.self_seconds[name] += duration - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.seconds[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one op; every span inside it carries op_id."""
        self._op = op_id
        self._begin(f"op.{kind}")
        try:
            yield
        finally:
            self._end()
            self._op = -1

    def _spanned(self, name, fn):
        hook = FLAG_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._end()
                if hook is not None:
                    hook(self.counts, args, result, exc)

        return wrapper

    def _aggregated(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.calls[name] += 1
                self.seconds[name] += duration
                self.self_seconds[name] += duration
                if self._stack:
                    self._stack[-1][3] += duration

        return wrapper

    # -- installation ---------------------------------------------------------

    def _bind_everywhere(self, original, wrapper):
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    @contextmanager
    def installed(self):
        """Wrap the package's layers for the duration of the block."""
        importlib.import_module(f"{PACKAGE}.cli")  # binds every module's names
        try:
            for mod_name, fn_name in SPANNED:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(mod, fn_name)
                self._bind_everywhere(original, self._spanned(f"{mod_name}.{fn_name}", original))
            for mod_name, fn_name in AGGREGATED_FUNCTIONS:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(mod, fn_name)
                self._bind_everywhere(original, self._aggregated(f"{mod_name}.{fn_name}", original))
            cls = importlib.import_module(f"{PACKAGE}.expr").CompiledFunction
            for method, name in AGGREGATED_METHODS.items():
                original = cls.__dict__[method]
                setattr(cls, method, self._aggregated(name, original))
                self._patches.append((cls, method, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """One CSV row per span: id, parent id, op id, name, start and end seconds."""
        with open(path, "w") as out:
            out.write("span,parent,op,name,start_s,end_s\n")
            for span in range(len(self.span_start)):
                out.write(f"{span},{self.span_parent[span]},{self.span_op[span]},"
                          f"{self.names[self.span_name[span]]},{self.span_start[span]!r},"
                          f"{self.span_end[span]!r}\n")
