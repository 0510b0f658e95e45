"""The tracer's wrapping and self times.

Run with: python3 -m pytest bench/test_spans.py
"""

import os
import sys
import time
import types

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from milp_safeguard import nn_model, planner  # noqa: E402
from spans import Spans, Tracer  # noqa: E402


def test_wrap_replaces_every_binding_and_uninstall_restores_them():
    original = nn_model.forward_batch
    tracer = Tracer()
    tracer.wrap("milp_safeguard.nn_model", "forward_batch", "fb",
                note=lambda args, result: {"rows": len(result)})
    try:
        # planner binds forward_batch with `from ... import`.
        assert planner.forward_batch is nn_model.forward_batch
        assert planner.forward_batch is not original
        net = nn_model.ReluNetwork((nn_model.LayerParams(np.eye(2), np.zeros(2)),))
        planner.forward_batch(net, np.ones((3, 2)))
    finally:
        tracer.uninstall()
    assert planner.forward_batch is original and nn_model.forward_batch is original
    assert Spans(tracer).count("fb") == 1 and tracer.notes["rows"] == [3]


def test_spans_record_parents_and_self_time():
    mod = types.ModuleType("milp_safeguard._spans_test")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    try:
        tracer.wrap(mod.__name__, "inner", "inner")
        tracer.wrap(mod.__name__, "outer", "outer")
        mod.outer()
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    sp = Spans(tracer)
    assert sp.count("outer") == 1 and sp.count_under("inner", "outer") == 2
    outer_total = sp.total("outer")
    assert outer_total >= 0.05
    assert sp.total("outer", "self") == outer_total - sp.total("inner")
    assert 0.01 <= sp.total("outer", "self") < sp.total("inner")
