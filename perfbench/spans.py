"""Span tracing around hopcav's layer functions, from outside the package.

Each wrapped function records a span (name, start, end, parent) in memory;
a layer's self time is its spans' duration minus the time their child spans
cover.  Wrappers replace the names as they are bound in ``hopcav.engine``,
``hopcav.stability`` and ``hopcav.cli``, which is where the pipeline looks
them up, and are removed again when the ``installed`` block ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

# (module, bound name, span name).  Span names are the layer names used in
# the per-layer metrics.  A binding that no longer exists is an error: its
# layer's metrics would read 0 and its time move into its caller's.
PATCHES = (
    ("cli", "main", "cli"),
    ("engine", "run_point", "engine.run_point"),
    ("engine", "solve_fixed_detuning", "steady_state"),
    ("engine", "solve_self_consistent", "steady_state"),
    ("engine", "figure_drift", "dynamics"),
    ("engine", "build_diffusion", "dynamics"),
    ("engine", "is_hurwitz", "lyapunov.gate"),
    ("engine", "solve_lyapunov", "lyapunov.solve"),
    ("engine", "extract_pair", "measures"),
    ("engine", "log_negativity", "measures"),
    ("engine", "teleportation_fidelity", "measures"),
    ("engine", "fidelity_bound", "measures"),
    ("engine", "routh_hurwitz_reduced", "stability"),
    ("stability", "stability_point", "stability"),
    ("stability", "routh_hurwitz_reduced", "stability"),
    ("stability", "solve_fixed_detuning", "steady_state"),
    ("stability", "build_reduced", "dynamics"),
    ("stability", "figure_drift", "dynamics"),
    ("stability", "is_hurwitz", "lyapunov.gate"),
    ("cli", "load_config", "config"),
    ("cli", "run_point", "engine.run_point"),
    ("cli", "run_sweep", "engine.sweep"),
    ("cli", "csv_text", "engine.csv"),
    ("cli", "stability_map", "stability"),
    ("cli", "solve_fixed_detuning", "steady_state"),
    ("cli", "solve_self_consistent", "steady_state"),
    ("cli", "figure_drift", "dynamics"),
    ("cli", "build_diffusion", "dynamics"),
    ("cli", "solve_lyapunov", "lyapunov.solve"),
)


def _observe_branches(tracer, result):
    tracer.add("steady_state.branches", len(result) if isinstance(result, list) else 1)


def _observe_gate(tracer, result):
    tracer.add("lyapunov.stable", 1 if result[0] else 0)


def _observe_residual(tracer, result):
    tracer.peak("lyapunov.worst_residual", result.residual_norm)


def _observe_csv(tracer, result):
    tracer.add("engine.csv_bytes", len(result.encode("utf-8")))


OBSERVERS = {
    "solve_fixed_detuning": _observe_branches,
    "solve_self_consistent": _observe_branches,
    "is_hurwitz": _observe_gate,
    "solve_lyapunov": _observe_residual,
    "csv_text": _observe_csv,
}


class Tracer:
    """In-memory span store for one process; spans nest through a stack, so
    it serves one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def layer_totals(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Layer name -> calls, total seconds and self seconds; with
        ``within``, only spans inside a span of that name (or that span)."""
        selfs = self_times(self.start, self.end, self.parent)
        inside = [within is None] * len(selfs)
        if within is not None:
            # a parent is opened, and stored, before its children
            for i, nid in enumerate(self.name_id):
                p = self.parent[i]
                inside[i] = self.names[nid] == within or (p >= 0 and inside[p])
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_id):
            if not inside[i]:
                continue
            entry = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += self.end[i] - self.start[i]
            entry["self_s"] += selfs[i]
        return out


@contextlib.contextmanager
def installed(tracer: Tracer, hopcav_modules: dict):
    """Replace the bindings in ``PATCHES`` with traced wrappers for the
    duration of the block; raises ``LookupError``, and replaces nothing, if
    one of them is missing."""
    missing = [f"hopcav.{m}.{attr}" for m, attr, _ in PATCHES
               if getattr(hopcav_modules[m], attr, None) is None]
    if missing:
        raise LookupError(f"no longer bound, update spans.PATCHES: {', '.join(missing)}")
    saved = []
    try:
        for module_name, attr, span_name in PATCHES:
            module = hopcav_modules[module_name]
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span_name, fn, OBSERVERS.get(attr)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], cursor), min(end[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out
