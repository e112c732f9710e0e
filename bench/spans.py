"""In-process span recorder and the wrappers that feed it.

The recorder keeps one span per call into a wrapped function: its name,
start, end, parent span and command id, in flat arrays so a pass of half a
million spans stays small.  ``install`` wraps every public function of the
package's computational modules and rebinds each name in every loaded
``coherence_bath`` module that holds it, so calls made through
``from .x import f`` are seen too; ``uninstall`` puts the originals back.
The package source is not edited.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, call order), so children never
overlap and the subtraction is exact.  A layer is the module part of a
span's name; ``cli.main`` is the root span the harness opens around each
command, so ``cli.self_s`` is CLI time (argument handling, row building,
rendering, writing) not covered by any other layer.

The wrappers cost time of their own, and most of it would land in the
callers' self time: the call into the wrapper and the bookkeeping before
the child's start and after its end lie inside the parent's span but
outside the child's.  ``calibrate`` times an empty wrapped function against
the bare one and splits the cost of one wrapper into ``inner_s`` (inside
the span it opens) and ``outer_s`` (the rest, charged to the parent).
Every wrapped span's self time is reduced by ``inner_s`` and every span's
by ``outer_s`` per direct child; an inclusive time is reduced by the full
cost of each span nested in it.  The hooks that count rate keys and RK4
steps run in the wrapper too and are not in the calibration, so the
callers of ``rate_coefficients``, ``suppression_factor`` and ``integrate``
keep their cost.
"""

import functools
import inspect
import math
import statistics
import sys
import time
from array import array

import numpy as np

WRAPPED_MODULES = ("boundary", "qmath", "single_qubit", "two_qubit", "lindblad")
LAYERS = WRAPPED_MODULES + ("cli",)
ROOT_SPAN = "cli.main"
TRACE_SPAN = "single_qubit.CoherenceTrace"
CALIBRATION_SPAN = "trace.calibration"
# Counts that repeat exactly for a given seed; a change may rest a count
# claim on them.
EXACT_COUNTS = (
    "boundary.calls",
    "qmath.entropy_calls",
    "lindblad.integrate_calls",
    "lindblad.rk4_steps",
    "cli.bytes_out",
)


class SpanRecorder:
    """Spans of one traced pass, kept in memory; the run writes out the last one."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.current_command = -1
        self._stack = [-1]
        self.inner_s = self.outer_s = 0.0
        self.begin_pass()

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        index = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.command.append(self.current_command)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_pass(self):
        """Drop the previous pass's spans and tallies."""
        self.name_id = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rate_keys = set()
        self.rk4_steps = 0

    def calibrate(self, calls=20000, repeats=5):
        """Measure the per-span wrapper cost (inner_s, outer_s); clears the pass."""

        def empty():
            return None

        wrapped = _wrap(self, "trace.empty", empty)
        parent_nid = self.name_index(CALIBRATION_SPAN)
        inner, outer = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                empty()
            bare = time.perf_counter() - start
            self.begin_pass()
            index = self.open(parent_nid)
            for _ in range(calls):
                wrapped()
            self.close(index)
            duration = np.array(self.end) - np.array(self.start)
            per_span = max(0.0, (duration[0] - bare) / calls)
            inside = min(per_span, float(duration[1:].mean()))
            inner.append(inside)
            outer.append(per_span - inside)
        self.begin_pass()
        self.inner_s, self.outer_s = statistics.median(inner), statistics.median(outer)
        return self.inner_s, self.outer_s

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since begin_pass."""
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start)
        duration = np.array(self.end) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(nid))
        children = np.bincount(parent[has_parent], minlength=len(nid))
        # Spans are stored in the order they open, so the spans nested in
        # span i are the ones that open before it closes.
        nested = np.searchsorted(start, np.array(self.end), side="left") - np.arange(len(nid)) - 1
        wrapped = nid != self._ids.get(ROOT_SPAN, -2)
        cost = self.inner_s + self.outer_s
        self_time = duration - child - self.inner_s * wrapped - self.outer_s * children
        duration = duration - self.inner_s * wrapped - cost * nested
        parent_nid = np.full_like(nid, -1)
        parent_nid[has_parent] = nid[parent[has_parent]]
        layer = np.array([name.split(".", 1)[0] for name in self.names] or [""])[nid]

        def spans(name):
            return nid == self._ids.get(name, -2)

        def inclusive(name):
            return float(duration[spans(name) & (parent_nid != self._ids.get(name, -2))].sum())

        calls = int(np.count_nonzero(spans("boundary.rate_coefficients"))) + int(
            np.count_nonzero(
                spans("boundary.suppression_factor")
                & (parent_nid != self._ids.get("boundary.rate_coefficients", -2))
            )
        )
        metrics = {f"{name}.self_s": max(0.0, float(self_time[layer == name].sum())) for name in LAYERS}
        metrics.update(
            {
                "trace.span_cost_s": cost,
                "boundary.calls": calls,
                "boundary.rate_reuse": len(self.rate_keys) / calls if calls else 0.0,
                "qmath.entropy_calls": int(np.count_nonzero(spans("qmath.entropy_bits"))),
                "single_qubit.trace_s": inclusive(TRACE_SPAN),
                "single_qubit.freeze_s": inclusive("single_qubit.freezing_report"),
                "two_qubit.freeze_s": inclusive("two_qubit.freezing_report_bd"),
                "lindblad.integrate_calls": int(np.count_nonzero(spans("lindblad.integrate"))),
                "lindblad.rk4_steps": self.rk4_steps,
                "lindblad.liouvillian_s": inclusive("lindblad.liouvillian_matrix"),
            }
        )
        return metrics

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            command=np.array(self.command, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )


def _rate_key(recorder):
    def hook(args, kwargs):
        recorder.rate_keys.add((args + tuple(kwargs.values()))[:2])

    return hook


def _rk4_hook(recorder, integrate):
    signature = inspect.signature(integrate)

    def hook(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tau = float(bound.arguments["tau"])
        if tau > 0.0:
            recorder.rk4_steps += max(1, math.ceil(tau / bound.arguments["cfg"].step))

    return hook


def _wrap(recorder, name, fn, hook=None):
    nid = recorder.name_index(name)
    open_span, close_span = recorder.open, recorder.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(args, kwargs)
        index = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    return wrapper


def install(recorder):
    """Wrap the package's public functions; returns the undo list for uninstall."""
    loaded = [m for n, m in list(sys.modules.items()) if n == "coherence_bath" or n.startswith("coherence_bath.")]
    undo = []
    for short in WRAPPED_MODULES:
        module = sys.modules[f"coherence_bath.{short}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            hook = None
            if (short, attr) in (("boundary", "rate_coefficients"), ("boundary", "suppression_factor")):
                hook = _rate_key(recorder)
            elif (short, attr) == ("lindblad", "integrate"):
                hook = _rk4_hook(recorder, fn)
            wrapper = _wrap(recorder, f"{short}.{attr}", fn, hook)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, fn))
    trace_cls = sys.modules["coherence_bath.single_qubit"].CoherenceTrace
    undo.append((trace_cls, "__init__", trace_cls.__init__))
    trace_cls.__init__ = _wrap(recorder, TRACE_SPAN, trace_cls.__init__)
    return undo


def uninstall(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
