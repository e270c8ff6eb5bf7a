"""Spans around the calls into benctrl's public functions, taken from outside.

``Tracer.install`` replaces each function named in ``LAYERS``, wherever a
benctrl module holds a reference to it, with a wrapper that records a span
(id, parent id, name, case, start, end); ``uninstall`` puts the originals
back.  Spans are taken only while ``active`` is set, which the caller does
around the timed part of a case, and stay in memory until ``write``.  A
function's self time is its span's duration minus the time covered by the
spans of the wrapped functions it called, so summed self times never count
an interval twice.

``scipy.linalg.expm`` is counted, not spanned: its time stays in the self
time of the benctrl function that calls it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import scipy.linalg

#: wrapped functions per benctrl module; ``Class.method`` names a method
LAYERS = {
    "moment_control": (
        "synthesize_control", "reduce_to_zero_start", "build_biorthogonal",
        "solve_coefficients", "assemble_control", "terminal_residual",
        "evolve_controlled", "verify_moments", "controllability_gramian",
        "hum_control", "ControlSignal.l2_hs_norm", "ControlSignal.sample_grid",
        "ControlSignal.hermitian_defect"),
    "stabilization": (
        "feedback_simple", "build_L_lambda", "feedback_gramian",
        "spectral_abscissa", "simulate_closed_loop", "norm_history",
        "estimate_decay_rate", "energy_identity_defect",
        "observability_constant"),
    "spectrum": ("analyze", "clusters", "gap_gamma", "spectrum_report"),
    "operators": ("build_bump", "bump_from_coefficients", "m_matrix",
                  "gg_star_matrix", "evolve_free"),
    "cli": ("main", "load_scenario", "run"),
}

#: span names, "<module>.<function>", in report order
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

EXPM = "scipy.expm"


class Tracer:
    def __init__(self):
        self.case = None                # set by the caller before each case
        self.active = False             # spans are taken only while set
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.top_level_s = 0.0          # time inside outermost spans
        self._stack = []                # [span id, seconds of child spans]
        self._next_id = 0
        self._undo = []

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_level_s += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append((span_id, parent, name, tracer.case,
                                     start, end))
        return traced

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and
                   (name == "benctrl" or name.startswith("benctrl."))]
        for mod_name, functions in LAYERS.items():
            module = sys.modules[f"benctrl.{mod_name}"]
            for qualname in functions:
                name = f"{mod_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    self._replace(cls, attr,
                                  self._span(name, getattr(cls, attr)))
                    continue
                original = getattr(module, qualname)
                wrapper = self._span(name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, attr, wrapper)
        self._replace(scipy.linalg, "expm",
                      self._count(EXPM, scipy.linalg.expm))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, name, case, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "case": case, "start": start - origin,
                    "end": end - origin}) + "\n")
