"""Outside-in span recorder for capspec's public functions.

The recorder wraps each listed function under every name a capspec module
binds it to (``capspec.spectral.gauss_jacobi_rule`` as well as
``capspec.quadrature.gauss_jacobi_rule``), so calls are seen however the
caller looks the function up. Each call becomes one span: name, start, end,
parent span and request id, kept in compact in-memory columns until the run
writes them out. Self time is a span's duration minus the time covered by its
child spans. The originals are restored when the ``installed()`` block ends.

A listed function that no longer exists is reported in ``absent`` and gets no
metrics; the run goes on without it.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module under capspec, function): the public entry points of each layer.
# linalg's compiled or numpy kernels run inside generalized_sym_eigen and are
# counted in its self time.
WRAPPED = (
    ("quadrature", "gauss_jacobi_rule"),
    ("radial", "operator_coeffs"),
    ("spectral", "assemble_mode"),
    ("spectral", "solve_spectrum"),
    ("linalg", "generalized_sym_eigen"),
    ("bounds", "evaluate_predicate"),
    ("bounds", "implied_bound"),
    ("bounds", "best_delta_bound"),
    ("bounds", "closed_form_bound"),
    ("verify", "check_spectrum"),
    ("verify", "compare_sharpness"),
    ("io", "read_spectrum"),
    ("io", "write_spectrum"),
    ("io", "write_report_csv"),
    ("cli", "main"),
)

RULE = "quadrature.gauss_jacobi_rule"
EIGEN = "linalg.generalized_sym_eigen"


def _rule_key(gamma, m, *_args, **_kwargs):
    return float(gamma), int(m)


def _order(a_mat, *_args, **_kwargs):
    entries = getattr(a_mat, "entries", a_mat)
    return len(entries)


class Recorder:
    """Spans and per-function counters of one traced run."""

    def __init__(self, functions=WRAPPED):
        self.functions = tuple(functions)
        self.names = [f"{module}.{func}" for module, func in self.functions]
        self.absent = []
        self.request = -1
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.rule_keys = set()
        self.order3_sum = 0
        self._stack = []  # [span id, start, child time]
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._request = array.array("q")
        self._patches = []

    @contextmanager
    def installed(self):
        """Wrap the listed functions for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def _install(self):
        originals = []
        for index, ((module_name, func), name) in enumerate(
                zip(self.functions, self.names)):
            try:
                module = importlib.import_module(f"capspec.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, func, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            originals.append((index, name, original))
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "capspec" or key.startswith("capspec.")]
        for index, name, original in originals:
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def _wrap(self, index, name, func):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter
        observe = {RULE: self._observe_rule, EIGEN: self._observe_eigen}.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            sid = len(self._name)
            self._name.append(index)
            self._parent.append(stack[-1][0] if stack else -1)
            self._request.append(self.request)
            self._end.append(0.0)
            start = perf()
            self._start.append(start)
            stack.append([sid, start, 0.0])
            try:
                return func(*args, **kwargs)
            finally:
                end = perf()
                _, _, child = stack.pop()
                duration = end - start
                self._end[sid] = end
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _observe_rule(self, args, kwargs):
        try:
            self.rule_keys.add(_rule_key(*args, **kwargs))
        except (TypeError, ValueError):
            pass  # signature changed: the counter goes stale, the call goes on

    def _observe_eigen(self, args, kwargs):
        try:
            self.order3_sum += _order(*args, **kwargs) ** 3
        except (TypeError, ValueError):
            pass

    def metrics(self) -> dict:
        """Every counter as '<module>.<function>.<stat>' -> value."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        if RULE in self.stats:
            out[f"{RULE}.distinct_keys"] = len(self.rule_keys)
        if EIGEN in self.stats:
            out[f"{EIGEN}.order3_sum"] = self.order3_sum
        return out

    def spans(self) -> dict:
        """The recorded spans as columns; parent is a row index or -1."""
        return {
            "names": list(self.names),
            "name": self._name.tolist(),
            "start": self._start.tolist(),
            "end": self._end.tolist(),
            "parent": self._parent.tolist(),
            "request": self._request.tolist(),
        }


def merge_metrics(total: dict, part: dict) -> None:
    """Add one process's counters into a running total. Distinct rule keys
    are counted per process, since each process has its own rule cache."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def merge_spans(total: dict, part: dict) -> None:
    """Append one process's span columns, re-basing parent rows and names."""
    names = total.setdefault("names", [])
    remap = []
    for name in part["names"]:
        if name not in names:
            names.append(name)
        remap.append(names.index(name))
    base = len(total.setdefault("name", []))
    total["name"].extend(remap[i] for i in part["name"])
    for key in ("start", "end", "request"):
        total.setdefault(key, []).extend(part[key])
    total.setdefault("parent", []).extend(
        p + base if p >= 0 else -1 for p in part["parent"])
