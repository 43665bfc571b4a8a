"""Outside-in tracing of the kerrdimer layers.

The library carries no instrumentation of its own. ``Tracer.install`` wraps
each public function in ``TARGETS`` wherever it is looked up: the defining
module's attribute, every ``from .x import`` alias in other kerrdimer
modules, and the class attribute for methods. Each call records a span
(name, start, end, parent) in memory; hooks read a few extra counts from
arguments and results. ``uninstall`` puts the originals back, and
``summarise`` turns spans into per-function calls, self and total time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TARGETS = {
    "cli": ("main",),
    "experiments": ("sweep_loss", "spectrum_map", "ep_agreement", "resolve_delta",
                    "write_csv"),
    "validation": ("run_validation",),
    "observables": ("photon_statistics", "excitation_spectrum", "detect_peaks"),
    "analytic": ("steady_amplitudes", "analytic_observables"),
    "liouvillian": ("build_liouvillian", "steady_state", "coherence_sector_pair",
                    "lep_locate"),
    "spectral": ("one_photon_eigensystem_closed",),
    "model": ("build_hamiltonian", "SystemParams.with_"),
    "hilbert": ("build_basis", "mode_operator"),
    "search": ("golden_section_minimize", "bisect_root"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
EXTRA_METRICS = {
    "liouvillian.steady_state.unknowns_max": "count",
    "liouvillian.steady_state.residual_max": "1",
    "liouvillian.generator_fill": "ratio",
    "liouvillian.lep_locate.evals_per_search": "count",
    "analytic.steady_amplitudes.singular": "count",
    "experiments.write_csv.bytes": "B",
    "trace.overhead_s": "s",
    "trace.attributed_share": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _stored_fill(data) -> float:
    """Nonzeros over stored entries: 1 for sparse storage, nnz/n^2 for dense."""
    if hasattr(data, "nnz"):
        return data.count_nonzero() / max(data.nnz, 1)
    return np.count_nonzero(data) / data.size


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.fill: list[float] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        def steady_state(args, rho):
            self.maxima["unknowns"] = max(self.maxima["unknowns"], args[0].data.shape[0])
            self.maxima["residual"] = max(self.maxima["residual"], rho.residual)

        def build_liouvillian(args, sop):
            self.fill.append(_stored_fill(sop.data))

        def write_csv(args, _):
            self.counts["write_csv.bytes"] += os.path.getsize(args[0])

        return {"liouvillian.steady_state": steady_state,
                "liouvillian.build_liouvillian": build_liouvillian,
                "experiments.write_csv": write_csv}

    def install(self) -> None:
        import importlib

        modules = {mod: importlib.import_module(f"kerrdimer.{mod}") for mod in TARGETS}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "kerrdimer" or n.startswith("kerrdimer."))]
        hooks = self._hooks()
        for mod, fns in TARGETS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                owner = modules[mod]
                if "." in fn:  # a method: wrap it on its class
                    cls, attr = fn.split(".")
                    owner = getattr(owner, cls)
                    original = vars(owner)[attr]
                    wrapped = self._wrap(name, original, hooks.get(name))
                    self._patch(owner, attr, wrapped)
                    continue
                original = getattr(owner, fn)
                wrapped = self._wrap(name, original, hooks.get(name))
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def dump(self) -> dict:
        """Spans and counts as plain data, written out when the run ends."""
        return {"spans": self.spans, "counts": dict(self.counts),
                "unknowns_max": self.maxima["unknowns"],
                "residual_max": self.maxima["residual"],
                "fill": self.fill}


def summarise(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from a dumped trace.

    Self time is a span's duration minus the durations of its direct
    children (calls are single-threaded, so children never overlap). Total
    time counts only the outermost span of a function, so recursion is not
    counted twice.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total_s[name] += end - start

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.total_s"] = total_s[name]
    counts = trace["counts"]
    searches = calls["liouvillian.lep_locate"]
    metrics.update({
        "liouvillian.steady_state.unknowns_max": trace["unknowns_max"],
        "liouvillian.steady_state.residual_max": trace["residual_max"],
        "liouvillian.generator_fill": (sum(trace["fill"]) / len(trace["fill"])
                                       if trace["fill"] else 0.0),
        "liouvillian.lep_locate.evals_per_search": (
            calls["liouvillian.coherence_sector_pair"] / searches if searches else 0.0),
        "analytic.steady_amplitudes.singular": counts.get(
            "analytic.steady_amplitudes.raised.SingularParameterError", 0),
        "experiments.write_csv.bytes": counts.get("write_csv.bytes", 0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.attributed_share": (
            1.0 - self_s["cli.main"] / traced_wall if traced_wall > 0 else 0.0),
    })
    return metrics
