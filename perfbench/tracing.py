"""Spans and counts around the calls into robinwall's layers.

The program carries no tracing of its own, so a traced run wraps, from
outside, the public functions and ``HalfLineFourierTable`` methods each
layer exposes.  Every wrapped call becomes a span (name, start, end,
parent span, thread); counts are taken at the same boundaries.  Spans
stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its child spans.

Stacks are per thread, so the wrappers stay correct under the CLI's
``--jobs 2`` worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PER_LAYER_UNITS = {
    "special.airy_points": "count",
    "spectrum.energy_calls": "count",
    "spectrum.energy_s": "s",
    "observables.closed_form_s": "s",
    "states.build_s": "s",
    "states.x_cut_total": "length",
    "quadrature.table_build_s": "s",
    "quadrature.fourier_nodes": "count",
    "quadrature.transform_calls": "count",
    "quadrature.transform_points": "count",
    "quadrature.transform_s": "s",
    "infomeasures.measure_s": "s",
    "infomeasures.fisher_s": "s",
    "infomeasures.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.sweep_rows": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, thread id)
        self.counts = Counter()
        self.adds = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def add(self, key: str, amount) -> None:
        if self._paused:
            return
        with self._lock:
            self.counts[key] += amount
            self.adds += 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, threading.get_ident())
            if after is not None and not tracer._paused:
                after(args, result)
            return result

        return traced

    def overhead_estimate(self, calls: int = 20000) -> tuple:
        """(seconds, span cost, count cost): this run's spans and counts priced on no-ops."""
        probe = Tracer()
        noop = probe.wrap("probe", lambda: None)
        start = perf_counter()
        for _ in range(calls):
            noop()
        span_cost = (perf_counter() - start) / calls
        start = perf_counter()
        for _ in range(calls):
            probe.add("probe", 1)
        add_cost = (perf_counter() - start) / calls
        return len(self.spans) * span_cost + self.adds * add_cost, span_cost, add_cost

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,thread\n")
            for i, (name, start, end, parent, thread) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{thread}\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals; ``cli.*`` entries are filled in by the workload."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        count = Counter()
        self_s = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            count[name] += 1
            self_s[name] += (end - start) - child_time[i]
        measure_s = 0.0
        fisher_s = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == "infomeasures.measure":
                measure_s += end - start
            elif name == "infomeasures.fisher" and (
                    parent < 0 or not self.spans[parent][0].startswith("infomeasures.")):
                fisher_s += end - start
        return {
            "special.airy_points": self.counts["special.airy_points"],
            "spectrum.energy_calls": count["spectrum.energy"],
            "spectrum.energy_s": self_s["spectrum.energy"],
            "observables.closed_form_s": self_s["observables.closed_form"],
            "states.build_s": self_s["states.build"],
            "states.x_cut_total": self.counts["states.x_cut_total"],
            "quadrature.table_build_s": self_s["quadrature.table_build"],
            "quadrature.fourier_nodes": self.counts["quadrature.fourier_nodes"],
            "quadrature.transform_calls": count["quadrature.transform"],
            "quadrature.transform_points": self.counts["quadrature.transform_points"],
            "quadrature.transform_s": self_s["quadrature.transform"],
            "infomeasures.measure_s": measure_s,
            "infomeasures.fisher_s": fisher_s,
            "infomeasures.self_s": self_s["infomeasures.measure"] + self_s["infomeasures.fisher"],
        }


class _AiryCounter:
    """Stands in for ``scipy.special`` inside a robinwall module."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def airy(self, z):
        self._tracer.add("special.airy_points", np.size(z))
        return self._module.airy(z)

    def airye(self, z):
        self._tracer.add("special.airy_points", np.size(z))
        return self._module.airye(z)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every robinwall module-level name that refers to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname == "robinwall" or modname.startswith("robinwall."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported robinwall."""
    from robinwall import infomeasures, observables, quadrature, special, spectrum, states

    for module in (special, spectrum, states):
        module.sp = _AiryCounter(module.sp, tracer)

    functions = (
        (spectrum.energy, "spectrum.energy"),
        (observables.polarization, "observables.closed_form"),
        (observables.dipole_matrix, "observables.closed_form"),
        (infomeasures.measure_state, "infomeasures.measure"),
        (infomeasures.fisher, "infomeasures.fisher"),
    )
    for fn, name in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn))

    def built(args, _):
        tracer.add("states.x_cut_total", abs(args[0].x_cut))

    def tabled(args, _):
        tracer.add("quadrature.fourier_nodes", args[0].node_count)

    def one_point(args, _):
        tracer.add("quadrature.transform_points", 1)

    def many_points(args, _):
        tracer.add("quadrature.transform_points", np.size(args[1]))

    sf = states.StateFunctions
    sf.__init__ = tracer.wrap("states.build", sf.__init__, built)
    table = quadrature.HalfLineFourierTable
    table.__init__ = tracer.wrap("quadrature.table_build", table.__init__, tabled)
    table.transform = tracer.wrap("quadrature.transform", table.transform, one_point)
    table.transform_k_derivative = tracer.wrap(
        "quadrature.transform", table.transform_k_derivative, one_point)
    table.transform_many = tracer.wrap("quadrature.transform", table.transform_many, many_points)
