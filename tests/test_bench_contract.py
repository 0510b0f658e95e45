"""The benchmark's tracer must find every function it wraps.

bench/workload.py wraps the package functions listed in its TRACED table
by name; a renamed or deleted one would crash only the traced benchmark run.
"""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_every_traced_function_resolves(monkeypatch):
    # workload.py imports its sibling modules (checker, spans) by bare name.
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location(
        "bench_workload", os.path.join(BENCH, "workload.py"))
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    assert workload.TRACED
    for module, func, _span, _note in workload.TRACED:
        mod = importlib.import_module("milp_safeguard." + module)
        assert callable(getattr(mod, func, None)), f"{module}.{func}"
