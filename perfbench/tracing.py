"""Span tracing at fmspace's module boundaries, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods listed in
``_targets`` and undoes it on exit.  A wrapped module-level function is
rebound in every ``fmspace`` module that holds it, because ``cli``, ``fmt``
and ``algebra`` import names with ``from .x import y`` and would otherwise
call the unwrapped function.

Each call of a wrapped function while the tracer is active records one span:
its name, its parent span, the request it belongs to, and its start and end.
Spans are kept in flat arrays in memory; self time (span time minus the time
of its child spans) is derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.request = -1
        self.counters: dict[str, float] = {}
        self._name = array("i")
        self._parent = array("i")
        self._req = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop recorded spans and counters (in place: wrappers hold the arrays)."""
        for arr in (self._name, self._parent, self._req, self._start, self._end):
            del arr[:]
        self._stack[:] = [-1]
        self.counters.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, choose=None, adapt=None, observe=None):
        """A traced stand-in for fn.

        choose(args, kwargs) picks the span name per call; adapt(args) may
        replace the arguments; observe(result) sees the return value.
        """
        tracer = self
        fixed = self.span_id(name)
        names, parents, reqs, starts, ends = self._name, self._parent, self._req, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if adapt is not None:
                args = adapt(args)
            idx = len(names)
            names.append(fixed if choose is None else choose(args, kwargs))
            parents.append(stack[-1])
            reqs.append(tracer.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def install(self):
        """Wrap every target in place; restore the originals on exit."""
        undo = []
        try:
            for owner, attr, name, choose, adapt, observe in _targets(self):
                if isinstance(owner, dict):
                    original = owner[attr]
                    owner[attr] = self.wrap(original, name, choose, adapt, observe)
                    undo.append((owner.__setitem__, attr, original))
                elif isinstance(owner, type):
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self.wrap(original, name, choose, adapt, observe))
                    undo.append((functools.partial(setattr, owner), attr, original))
                else:
                    original = getattr(owner, attr)
                    traced = self.wrap(original, name, choose, adapt, observe)
                    for module in _fmspace_modules():
                        for key in [k for k, v in vars(module).items() if v is original]:
                            setattr(module, key, traced)
                            undo.append((functools.partial(setattr, module), key, original))
            yield self
        finally:
            self.active = False
            for setter, key, original in reversed(undo):
                setter(key, original)

    def spans(self) -> dict:
        """Recorded spans as numpy arrays (one entry per span)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "request": np.frombuffer(self._req, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, self seconds and inclusive seconds."""
        s = self.spans()
        n, k = len(s["name"]), len(self.names)
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=n)
        own = dur - child
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=own, minlength=k)
        total_s = np.bincount(s["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }


def _fmspace_modules():
    return [m for name, m in list(sys.modules.items()) if name == "fmspace" or name.startswith("fmspace.")]


def _targets(tracer: Tracer):
    """(owner, attribute, span name, choose, adapt, observe) for every boundary."""
    from fmspace import algebra, catalog, cli, flows, fmt, matrices, ring

    full_basis = tuple(catalog.BASIS_IDS)
    decompose_full = tracer.span_id("algebra.decompose_full")
    decompose_shift = tracer.span_id("algebra.decompose_shift")
    flow_float = tracer.span_id("flows.closed_flow")
    flow_mp = tracer.span_id("flows.closed_flow_mp")

    def choose_basis(args, kwargs):
        basis = args[1] if len(args) > 1 else kwargs.get("basis")
        return decompose_full if basis is None or tuple(basis) == full_basis else decompose_shift

    def choose_precision(args, kwargs):
        prec = args[3] if len(args) > 3 else kwargs.get("prec")
        return flow_float if prec is None else flow_mp

    def count_hat(args):
        hat = args[0]

        def counted(q):
            tracer.count("fmt.inverse_ft_radial.hat_calls")
            return hat(q)

        return (counted,) + args[1:]

    def count_cells(report):
        tracer.count("algebra.cells_checked", report.cells_checked)

    targets = []
    for attr in ("__mul__", "__rmul__"):
        targets.append((ring.RingElem, attr, "ring.mul", None, None, None))
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        targets.append((ring.RingElem, attr, "ring.addsub", None, None, None))
    targets.append((ring.RingElem, "evaluate", "ring.evaluate", None, None, None))
    for attr in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "invert", "to_ring"):
        targets.append((ring.FieldElem, attr, "ring.field", None, None, None))
    targets += [
        (matrices.Mat4, "__matmul__", "matrices.matmul", None, None, None),
        (matrices, "eval_mat", "matrices.eval_mat", None, None, None),
        (catalog, "classify_square", "catalog.classify_square", None, None, None),
        (catalog, "get_generator", "catalog.get_generator", None, None, None),
        (algebra, "decompose", "algebra.decompose_full", choose_basis, None, None),
        (algebra, "build_table", "algebra.build_table", None, None, None),
        (algebra, "verify_reference_tables", "algebra.verify_reference_tables", None, None, count_cells),
        (flows, "closed_flow", "flows.closed_flow", choose_precision, None, None),
        (flows, "expm_oracle", "flows.expm_oracle", None, None, None),
        (flows, "invariance_residual", "flows.invariance_residual", None, None, None),
        (flows, "group_law_residual", "flows.group_law_residual", None, None, None),
        (flows, "reference_discrepancies", "flows.reference_discrepancies", None, None, None),
        (fmt, "kr_weights", "fmt.weights", None, None, None),
        (fmt, "step_hat", "fmt.weights", None, None, None),
        (fmt, "mayer_bond", "fmt.weights", None, None, None),
        (fmt, "kernel_matrix", "fmt.kernel_matrix", None, None, None),
        (fmt, "inverse_ft_radial", "fmt.inverse_ft_radial", None, count_hat, None),
        (fmt, "jeffrey_identities", "fmt.jeffrey_identities", None, None, None),
        (cli, "main", "cli.main", None, None, None),
        (cli, "build_parser", "cli.build_parser", None, None, None),
    ]
    for suite in list(cli._SUITES):
        targets.append((cli._SUITES, suite, f"cli.verify.{suite}", None, None, None))
    return targets


class GcMeter:
    """Collections and pause time of the cyclic garbage collector."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._t0

    @contextlib.contextmanager
    def measuring(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
