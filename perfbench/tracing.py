"""Span recorder for the traced benchmark run.

Wraps the public entry function of each fpsearch layer from outside the
package and records one span per call: function, item (the benchmark request
that caused it), parent span, start and end in nanoseconds, and a work count
taken from the call's arguments or result.  Spans stay in memory until the run
ends; ``summary`` then reduces them to per-function totals and ``write_spans``
stores them.

A function is patched at every module that binds it, not only where it is
defined: ``cli`` imports ``run_search`` and ``make_schedule`` by name, ``sim2d``
imports ``chebyshev_T`` by name and the package re-exports most of them, so
patching only the defining module would silently miss those calls.

Helpers that run once per 2x2 step or per angle (``iteration_G``,
``rotation_R``, ``phi_angle``, ``arccot``) and the statevector step functions
are not wrapped: a span per step would cost a large share of the step and move
the per-iteration cost of ``run_search`` and ``run_full_search`` out of their
self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _iterations(args, kwargs, result):
    return _arg(args, kwargs, 1, "schedule").l


def _elements(args, kwargs, result):
    return getattr(_arg(args, kwargs, 1, "x"), "size", 1)


def _amp_updates(args, kwargs, result):
    # one marked-phase and one initial-state-phase pass over 2^n amplitudes per iteration
    n = _arg(args, kwargs, 0, "n_qubits")
    return 2 * (1 << n) * _arg(args, kwargs, 2, "schedule").l


def _tilings(args, kwargs, result):
    return len(result)


def _table_size(args, kwargs, result):
    return _arg(args, kwargs, 0, "L")


PACKAGE = "fpsearch"

# module -> {function: work count taken from (args, kwargs, result), or None}
TRACED = {
    "cli": {"main": None},
    "schedule": {"make_schedule": None},
    "sim2d": {
        "run_search": _iterations,
        "success_probability_closed": None,
    },
    "complexpoly": {
        "chebyshev_T": _elements,
        "quasi_cheb_recursive": None,
    },
    "statevector": {"run_full_search": _amp_updates},
    "combinat": {
        "tan_table": _table_size,
        "enumerate_tilings": _tilings,
        "tiling_weight": None,
        "coefficient_compare": None,
        "tangent_sum_terms": None,
        "vieta_terms": None,
    },
}


def verify_checks(verify_module) -> list:
    """Names of the suite's check functions, in source order."""
    return [
        name
        for name, obj in vars(verify_module).items()
        if name.startswith("check_") and callable(obj) and obj.__module__ == verify_module.__name__
    ]


def traced_functions() -> dict:
    """Qualified name ("sim2d.run_search") -> work count function for every wrapped function."""
    out = {}
    for mod, funcs in TRACED.items():
        for fname, spec in funcs.items():
            out[f"{mod}.{fname}"] = spec
    verify = importlib.import_module(f"{PACKAGE}.verify")
    for fname in verify_checks(verify):
        out[f"verify.{fname}"] = None
    return out


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.item = -1
        self._stack = []
        self._name = array("i")
        self._parent = array("i")
        self._item = array("i")
        self._start = array("q")
        self._end = array("q")
        self._work = array("q")
        self._undo = []
        self.bindings = {}

    def _wrapper(self, name_id, fn, count):
        stack = self._stack
        names, parents, items = self._name, self._parent, self._item
        starts, ends, work = self._start, self._end, self._work
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            starts.append(0)
            ends.append(0)
            work.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                work[idx] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every fpsearch module that binds it."""
        specs = traced_functions()
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for qualname, count in specs.items():
            mod_name, fname = qualname.split(".")
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fname)
            wrapper = self._wrapper(len(self.names), original, count)
            self.names.append(qualname)
            sites = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
                        sites.append(f"{module.__name__}.{attr}")
            self.bindings[qualname] = sites

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self._start)

    def summary(self) -> dict:
        """Per function: calls, inclusive and self seconds, work total, distinct work values.

        Self time is the span's duration minus the durations of its direct
        child spans, i.e. minus the time spent in other wrapped functions.
        """
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(self._start, dtype=np.int64)
        work = np.frombuffer(self._work, dtype=np.int64)
        self_ns = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_ns, parent[has_parent], dur[has_parent])
        out = {}
        for i, qualname in enumerate(self.names):
            sel = name == i
            out[qualname] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel].sum()) / 1e9,
                "self_s": float(self_ns[sel].sum()) / 1e9,
                "work": int(work[sel].sum()),
                "distinct_work": int(np.unique(work[sel]).size),
            }
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: span,parent,item,function,start_ns,end_ns,work."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,item,function,start_ns,end_ns,work\n")
            names = self.names
            rows = zip(self._parent, self._item, self._name, self._start, self._end, self._work)
            fh.writelines(
                f"{i},{p},{it},{names[n]},{s},{e},{w}\n" for i, (p, it, n, s, e, w) in enumerate(rows)
            )
