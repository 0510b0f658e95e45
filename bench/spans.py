"""Spans around the package's module-level functions, installed from outside.

Each traced function is replaced by a wrapper in every module of the
package that binds it, under whatever name: the package imports most
callees with ``from ... import``, so patching only the defining module
would miss those calls.  Spans (name, start, end, parent) go into flat
arrays in memory and are written once, when the run ends.  A ``note``
callback may record a number taken from a call's arguments or result,
such as the simplex iterations an LP took.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes = defaultdict(list)
        self._stack = []
        self._undo = []

    def wrap(self, module_name, attr, span, note=None):
        """Trace module_name.attr as span; note(args, result) -> dict."""
        original = getattr(sys.modules[module_name], attr)
        name_id = len(self.names)
        self.names.append(span)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if note is not None:
                for key, value in note(args, result).items():
                    self.notes[key].append(value)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "milp_safeguard":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def arrays(self):
        """Spans as numpy arrays, with each span's self time."""
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "start": start,
                "duration": dur, "self": dur - child}

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=a["name"],
                            parent=a["parent"], start=a["start"],
                            duration=a["duration"])


class Spans:
    """Queries over a tracer's spans by span name."""

    def __init__(self, tracer: Tracer):
        self.a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(self, span):
        return self.a["name"] == self.ids[span]

    def count(self, span):
        return int(np.count_nonzero(self.mask(span)))

    def total(self, span, field="duration"):
        return float(np.sum(self.a[field][self.mask(span)]))

    def durations(self, span):
        return self.a["duration"][self.mask(span)]

    def count_under(self, span, parent_span):
        """Calls of span made directly by parent_span."""
        m = self.mask(span)
        par = self.a["parent"][m]
        par = par[par >= 0]
        return int(np.count_nonzero(self.a["name"][par] == self.ids[parent_span]))
