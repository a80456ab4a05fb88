"""One evaluation record per point: each Hessian block is built once, and only on request."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from bilevelkit import optimality
from bilevelkit.cli import main
from bilevelkit.expr import CompiledFunction
from bilevelkit.lower import kkt_residual, point_eval
from bilevelkit.problem import fixture

HESSIANS = ("hess_xx", "hess_xy", "hess_yy")


@pytest.fixture
def evaluations(monkeypatch):
    """Calls per (method, function, x bits, y bits) over every CompiledFunction method."""
    counts = Counter()
    alive = []  # keeps counted functions alive, so no two share an id

    for name in ("value", "grad_x", "grad_y") + HESSIANS:
        original = getattr(CompiledFunction, name)

        def counted(self, x, y, _name=name, _original=original):
            alive.append(self)
            key = (_name, id(self), np.asarray(x, float).tobytes(), np.asarray(y, float).tobytes())
            counts[key] += 1
            return _original(self, x, y)

        monkeypatch.setattr(CompiledFunction, name, counted)
    return counts


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv", [
    ["check", "--fixture", "P2", "--x", "0,0", "--y", "0.5,0.5", "--mu", "-0.5"],
    ["check", "--fixture", "P4", "--x", "-1", "--y", "0", "--xi", "1"],
], ids=["P2", "P4"])
def test_check_builds_each_hessian_block_once(evaluations, monkeypatch, capsys, argv):
    calls = Counter()
    for name in ("fp_hessian", "critical_cone_fp"):
        _count_calls(monkeypatch, optimality, name, calls)
    assert main(argv) == 0
    hessians = {key: n for key, n in evaluations.items() if key[0] in HESSIANS}
    assert hessians, "check evaluates Hessian blocks"
    assert max(hessians.values()) == 1
    assert calls == {"fp_hessian": 1, "critical_cone_fp": 1}


def test_kkt_residual_builds_no_hessian(evaluations):
    p2 = fixture("P2")
    kkt_residual(p2, np.array([0.3, -0.2]), np.array([0.1, 0.4]), np.array([0.2]), np.zeros(0))
    assert evaluations
    assert not [key for key in evaluations if key[0] in HESSIANS]


def test_kept_arrays_are_read_only():
    p4 = fixture("P4")
    rec = point_eval(p4, np.array([-1.0]), np.array([0.0]))
    for kept in (rec.x, rec.grad_y(p4.f), rec.hess_yy(p4.f), rec.values("g"), rec.jac_y("g")):
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 1.0


def test_record_is_reused_only_at_the_same_bits():
    p4 = fixture("P4")
    x = np.array([-1.0])
    rec = point_eval(p4, x, np.array([0.0]))
    assert point_eval(p4, x.copy(), np.array([0.0])) is rec
    assert point_eval(p4, x, np.array([-0.0])) is not rec
    # the kept record is invisible to equality and repr
    assert p4 == fixture("P4")
    assert "_last_eval" not in repr(p4)


def test_dropped_problem_is_freed_without_a_collection():
    p4 = fixture("P4")
    point_eval(p4, np.array([-1.0]), np.array([0.0])).hess_yy(p4.f)
    ref = weakref.ref(p4)
    gc.disable()
    try:
        del p4
        assert ref() is None
    finally:
        gc.enable()
