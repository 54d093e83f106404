"""In-memory span tracer installed over effdim's public functions.

``Tracer.installed()`` replaces each public layer function in LAYERS with
a timing wrapper, wherever a module of the effdim package holds a
reference to it: the defining module, the package namespace, and names
re-bound by ``from ... import`` such as ``filters.solve_dare``,
``balance.solve_dare`` and ``filters.psd_factor``.  It also counts calls
to ``scipy.special.logsumexp`` as effdim sees it and to
``numpy.linalg.eigh``/``eigvalsh``.  On exit every reference is restored,
so untraced passes in the same process run the program unchanged.

Spans are kept per thread (``collapse-sweep`` runs cells in a thread
pool) and written only when the run ends.  A span's self time is its
duration minus the time of the spans it directly contains.  Work the
wrappers do themselves, such as the DARE residual of a returned
solution, is timed and kept out of every span and self time.

Which per-command time (and through it ``wall_s``) each layer should
move, and where:

    kalman     cmd.effdim_s on analysis, cmd.collapse-sweep_s on sweep;
               not montecarlo
    bounds     wall_s on analysis
    balance    cmd.map_s on analysis only
    filters    cmd.filter_s on montecarlo, cmd.collapse-sweep_s on sweep;
               not analysis beyond its canary
    smoothing  cmd.smooth_s on analysis, lib.smoother_sample_s on montecarlo
    model      cmd.filter_s and cmd.collapse-sweep_s
    cli        cli.self_s: cmd.map_s on analysis; cli.sweep_pool_speedup:
               cmd.collapse-sweep_s and cpu_s on sweep
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from workloads import dare_rel_residual

LAYERS = {
    "kalman": ("solve_dare",),
    "bounds": ("p_upper_bound",),
    "balance": ("build_map", "build_max_dim_curve",
                "general_sufficient_conditions"),
    "filters": ("run_filter", "sir_step", "optimal_step", "resample",
                "diagnostics", "simulate", "collapse_stat"),
    "smoothing": ("weak_precision", "weak_mode", "optimal_smoother_sample"),
    "model": ("psd_factor", "validate"),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    meta: dict = field(default_factory=dict)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _meta(name: str, args, kwargs, result) -> dict:
    """Facts about one call, taken from its arguments and result."""
    if name == "kalman.solve_dare":
        p = _arg(args, kwargs, 0, "problem")
        X = np.asarray(result.X, dtype=float)
        return {"iterations": int(result.iterations),
                "residual": dare_rel_residual(p.A, p.Q, p.H, p.R, X)}
    if name == "balance.build_map":
        return {"points": sum(len(ls.points) for ls in result.level_sets)}
    if name == "smoothing.weak_precision":
        return {"lower_bound": bool(getattr(result, "frob_cov_is_lower_bound",
                                            False))}
    if name in ("filters.sir_step", "filters.optimal_step"):
        ensemble = _arg(args, kwargs, 1, "ensemble")
        return {"particles": int(ensemble.positions.shape[0])}
    if name == "cli.main":
        argv = list(_arg(args, kwargs, 0, "argv") or [])
        i = argv.index("--command") if "--command" in argv else -1
        return {"command": argv[i + 1] if 0 <= i < len(argv) - 1 else None}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.excluded: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.excluded, self.counts = [], [], Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [name, time.perf_counter(), 0.0]  # name, start, child time
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                span = Span(name, threading.get_ident(), frame[1], end,
                            duration - frame[2])
                self.spans.append(span)
            span.meta = _meta(name, args, kwargs, result)
            done = time.perf_counter()
            if stack:  # keep the wrapper's own work out of the parent
                stack[-1][2] += done - end
            self.excluded.append((end, done))
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_filter = any(f[0] == "filters.run_filter"
                            for f in self._stack())
            with self._lock:
                self.counts[(name, in_filter)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, holders, original, wrapper) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patches.append((holder, attr, original))

    @contextmanager
    def installed(self):
        package = [mod for key, mod in list(sys.modules.items())
                   if mod is not None
                   and (key == "effdim" or key.startswith("effdim."))]
        try:
            for layer, names in LAYERS.items():
                module = sys.modules.get(f"effdim.{layer}")
                for fname in names:
                    original = getattr(module, fname, None)
                    if callable(original):
                        self._patch(package, original,
                                    self._span(f"{layer}.{fname}", original))
            lse = scipy.special.logsumexp
            self._patch(package, lse, self._counter("logsumexp", lse))
            for fname in ("eigh", "eigvalsh"):
                original = getattr(np.linalg, fname)
                self._patch(package + [np.linalg], original,
                            self._counter("eigh", original))
            yield self
        finally:
            for holder, attr, original in reversed(self._patches):
                setattr(holder, attr, original)
            self._patches = []

    def write(self, path: str) -> None:
        """Spans of the last traced pass as JSON lines, in start order."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"name": s.name, "thread": s.thread,
                                     "start_s": s.start - t0,
                                     "dur_s": s.end - s.start,
                                     "self_s": s.self_s, **s.meta}) + "\n")


def _uncovered(outer: list[Span], covered: list[tuple[float, float]]) -> float:
    """Summed time of ``outer`` spans not inside any ``covered`` interval."""
    merged: list[list[float]] = []
    for start, end in sorted(covered):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for span in outer:
        inside = sum(max(0.0, min(end, span.end) - max(start, span.start))
                     for start, end in merged)
        total += (span.end - span.start) - inside
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (units in PER_LAYER_UNITS)."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return float(sum(s.self_s for s in spans(name)))

    def meta_sum(name, key):
        return sum(s.meta.get(key, 0) for s in spans(name))

    def step_ms(name, q):
        d = [(s.end - s.start) * 1e3 for s in spans(name)]
        return float(np.percentile(d, q)) if d else 0.0

    dare = spans("kalman.solve_dare")
    steps = spans("filters.sir_step") + spans("filters.optimal_step")
    n_steps = len(steps)
    step_time = sum(s.end - s.start for s in steps)
    per_step = (lambda n: n / n_steps) if n_steps else (lambda n: 0.0)
    cli = spans("cli.main")
    covered = [(s.start, s.end) for s in tracer.spans
               if s.name != "cli.main"] + tracer.excluded
    out = {
        "kalman.solve_dare.calls": len(dare),
        "kalman.solve_dare.self_s": self_s("kalman.solve_dare"),
        "kalman.solve_dare.iterations": meta_sum("kalman.solve_dare",
                                                 "iterations"),
        "kalman.solve_dare.max_call_s": max((s.end - s.start for s in dare),
                                            default=0.0),
        "kalman.dare_residual_max": max((s.meta.get("residual", 0.0)
                                         for s in dare), default=0.0),
        "bounds.p_upper_bound.calls": len(spans("bounds.p_upper_bound")),
        "bounds.p_upper_bound.self_s": self_s("bounds.p_upper_bound"),
        "balance.build_map.calls": len(spans("balance.build_map")),
        "balance.build_map.self_s": self_s("balance.build_map"),
        "balance.level_set_points": meta_sum("balance.build_map", "points"),
        "balance.build_max_dim_curve.self_s":
            self_s("balance.build_max_dim_curve"),
        "balance.general_sufficient_conditions.self_s":
            self_s("balance.general_sufficient_conditions"),
        "filters.run_filter.calls": len(spans("filters.run_filter")),
        "filters.run_filter.self_s": self_s("filters.run_filter"),
        "filters.steps": n_steps,
        "filters.sir_step.ms_p50": step_ms("filters.sir_step", 50),
        "filters.sir_step.ms_p90": step_ms("filters.sir_step", 90),
        "filters.sir_step.samples": len(spans("filters.sir_step")),
        "filters.optimal_step.ms_p50": step_ms("filters.optimal_step", 50),
        "filters.optimal_step.ms_p90": step_ms("filters.optimal_step", 90),
        "filters.optimal_step.samples": len(spans("filters.optimal_step")),
        "filters.resample.self_s": self_s("filters.resample"),
        "filters.diagnostics.self_s": self_s("filters.diagnostics"),
        "filters.simulate.self_s": self_s("filters.simulate"),
        "filters.collapse_stat.self_s": self_s("filters.collapse_stat"),
        "filters.normalizations_per_step":
            per_step(tracer.counts[("logsumexp", True)]),
        "filters.eigh_per_step": per_step(tracer.counts[("eigh", True)]),
        "filters.particle_steps_per_s":
            (sum(s.meta.get("particles", 0) for s in steps) / step_time
             if step_time > 0 else 0.0),
        "smoothing.weak_precision.self_s": self_s("smoothing.weak_precision"),
        "smoothing.weak_mode.self_s": self_s("smoothing.weak_mode"),
        "smoothing.optimal_smoother_sample.self_s":
            self_s("smoothing.optimal_smoother_sample"),
        "smoothing.frob_cov_lower_bound_calls":
            sum(1 for s in spans("smoothing.weak_precision")
                if s.meta.get("lower_bound")),
        "model.psd_factor.calls": len(spans("model.psd_factor")),
        "model.psd_factor.self_s": self_s("model.psd_factor"),
        "model.validate.self_s": self_s("model.validate"),
        "cli.self_s": _uncovered(cli, covered),
    }
    return {key: float(value) for key, value in out.items()}
