#!/usr/bin/env python3
"""The effdim benchmark: end-to-end times per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 28 --trace 0

Workloads (see ``workloads.py``): ``analysis`` (is assimilation feasible:
effdim, bounds, map, maxdim, smooth), ``montecarlo`` (paper-scale
filters and the smoother draw, BLAS-bound) and ``sweep`` (collapse
sweeps over many small problems, per-call overhead).  A closed loop
runs the workload's operations back to back, through ``effdim.cli.main``
and the public library functions, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with tracing off: set-up
from fresh interpreters (``cold.py``), then the loop in one fresh
process (``worker.py``), after one untimed warm-up pass.  It also
prints, by name but outside the result line, the time of each command
the workload runs at scale.  ``--trace 1`` alternates untraced and
traced passes in this process and reports the per-layer metrics, among
them every command's untraced time (``cmd.*_s``, ``lib.*_s``); see
``tracer.py``.  Every output is checked against an oracle outside the
timed spans; a failed check or an unexpected exit code counts in
``failed``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, the sample counts, ``failed_fraction`` and the
environment.  The result and the spans of the last traced pass are also
written under ``.perfbench/out`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

COLD_STARTS = 5          # fresh interpreters timed for setup_s
SUBPROCESS_TIMEOUT = 120

# Every end-to-end metric must read on every workload, and a command that
# a workload runs only as a millisecond canary reads too unsteadily for a
# bound.  So per-command times are per-layer metrics, and at --trace 0
# they are printed only for the commands the workload runs at scale.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
EXACT_UNITS = ("count", "B", "1/step")  # must repeat exactly across runs
# first matching suffix wins
PER_LAYER_UNITS = {"_per_step": "1/step", "_per_s": "1/s", "_s": "s",
                   "ms_p50": "ms", "ms_p90": "ms",
                   "dare_residual_max": "rel", "output_bytes": "B",
                   "speedup": "ratio", "overhead_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class ProgramMissing(RuntimeError):
    pass


def import_effdim():
    """Import effdim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "effdim" / "__init__.py").is_file():
        raise ProgramMissing(f"no effdim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import effdim
    import effdim.cli
    if Path(effdim.__file__).resolve().parent != SRC / "effdim":
        raise ProgramMissing(f"effdim imported from {effdim.__file__}")
    return effdim


def environment(effdim) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from effdim import _kernels
        numba_enabled = bool(_kernels.NUMBA_ENABLED)
    except (ImportError, AttributeError):
        numba_enabled = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "EFFDIM_THREADS": os.environ.get("EFFDIM_THREADS"),
        "EFFDIM_NUMBA": os.environ.get("EFFDIM_NUMBA"),
        "numba_enabled": numba_enabled,
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@dataclass
class PassStats:
    """Per-operation wall and CPU times of one pass, in operation order."""

    ops: list
    wall: list
    cpu: list
    output_bytes: int


def op_samples(ops: list, passes: list[PassStats],
               cpu: bool = False) -> dict[int, list[float]]:
    """Wall (or CPU) times of each operation, keyed by its index in ``ops``."""
    index = {id(op): i for i, op in enumerate(ops)}
    out: dict = defaultdict(list)
    for p in passes:
        for op, w, c in zip(p.ops, p.wall, p.cpu):
            out[index[id(op)]].append(c if cpu else w)
    return dict(out)


def typical(samples: dict, groups: list[str],
            group: str | None = None) -> float:
    """Sum over operations of the median of each one's execution times.

    Taking the median per operation, not of pass totals, keeps a stall
    in one operation of one pass out of every other operation's figure.
    """
    return float(sum(statistics.median(v) for i, v in samples.items()
                     if group is None or groups[i] == group))


class Runner:
    """Runs operations, checks each outcome and counts failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, group: str | None = None) -> PassStats:
        stats = PassStats([], [], [], 0)
        for op in (op for op in self.ops for _ in range(op.repeats)):
            if group is not None and op.group != group:
                continue
            # start every operation from an empty collector, so that the
            # garbage collections it pays for are its own
            gc.collect()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                raw, raised = op.call(), None
            except Exception as exc:  # counted as a failed operation
                raw, raised = None, exc
            stats.wall.append(time.perf_counter() - w0)
            stats.cpu.append(time.process_time() - c0)
            stats.ops.append(op)
            self.attempted += 1
            if raised is not None:
                error = f"raised {type(raised).__name__}: {raised}"
            else:
                outcome = op.inspect(raw)
                stats.output_bytes += outcome.output_bytes
                error = outcome.error
                if error is None and op.pinned is None:
                    op.pinned = outcome.digest
                elif error is None and op.pinned != outcome.digest:
                    error = "output bytes differ from the first execution"
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.label}: {error}")
        return stats


def cold_starts(workdir: str, count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "cold.py"), workdir],
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return times


def anchors(effdim, seed: int, small: bool):
    """ROADMAP item 1 anchors: (name, repeats, call) on fixed inputs."""
    iso = effdim.LinearGaussianProblem.isotropic
    m, N, steps = (8, 50, 5) if small else (100, 1000, 50)
    grid = effdim.balance.log_grid(n=20 if small else 200)
    sir = iso(m, 1.0, 1.0)
    opt = iso(m, 1.0, 0.01, sigma0=workloads.iso_p(1.0, 0.01))
    dare = iso(m, 1e-4, 1.0)
    bnd = iso(m, 1e-2, 1.0)
    return [
        ("anchor.solve_dare_m100_qr1e-4_s", 1,
         lambda: effdim.kalman.solve_dare(dare)),
        ("anchor.build_map_feasibility_s", 1,
         lambda: effdim.balance.build_map("feasibility", grid, grid,
                                          [5, 10, 100])),
        ("anchor.p_upper_bound_m100_s", 10,
         lambda: effdim.bounds.p_upper_bound(bnd)),
        ("anchor.run_filter_sir_s", 1,
         lambda: effdim.filters.run_filter(sir, "sir", steps, N, seed)),
        ("anchor.run_filter_optimal_s", 1,
         lambda: effdim.filters.run_filter(opt, "optimal", steps, N, seed)),
    ]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def laps(seconds: float):
    """Yield lap numbers for about ``seconds``, at least one.

    Stops before a lap that, as long as the last one, would end more than
    half its length past the deadline.
    """
    deadline = time.perf_counter() + seconds
    lap = 0
    while True:
        start = time.perf_counter()
        yield lap
        lap += 1
        now = time.perf_counter()
        if now + (now - start) / 2 >= deadline:
            return


def measure_end_to_end(workload: str, seed: int, seconds: float,
                       small: bool, workdir: str) -> dict:
    """Cold starts, then the loop in one fresh process (``worker.py``).

    The process times its passes after one untimed warm-up pass: with
    six to nine passes in a run, cold ones would move the medians, and
    runs of ``analysis`` with more cold samples read up to a quarter
    slower.
    """
    setup = cold_starts(workdir, 3 if small else COLD_STARTS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         repr(seconds), str(int(small)), workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    groups = rep["groups"]
    wall = {int(key): times for key, times in rep["wall"].items()}
    cpu = {int(key): times for key, times in rep["cpu"].items()}
    values = {
        "setup_s": _median(setup),
        "wall_s": typical(wall, groups),
        "cpu_s": typical(cpu, groups),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    scaled = {g for g, r in zip(groups, rep["repeats"]) if r == 1}
    commands = {f"{group}_s": typical(wall, groups, group)
                for group in workloads.CMD_METRICS if group in scaled}
    return {"values": values, "commands": commands, "labels": rep["labels"],
            "attempted": rep["attempted"], "failed": rep["failed"],
            "errors": rep["errors"],
            "samples": {"setup_s": len(setup), "passes": rep["passes"]}}


def _set_threads(value: str | None) -> None:
    if value is None:
        os.environ.pop("EFFDIM_THREADS", None)
    else:
        os.environ["EFFDIM_THREADS"] = value


def measure_per_layer(effdim, workload: str, seed: int, seconds: float,
                      small: bool, workdir: str, spans_path: Path) -> dict:
    runner = Runner(workloads.build(effdim, workload, workdir, seed, small))
    runner.run_pass()  # warm-up
    tracer = tracing.Tracer()
    anchor_calls = anchors(effdim, seed, small)
    untraced, traced, layer_runs = [], [], []
    serial, pooled = [], []
    anchor_times: dict = defaultdict(list)
    threads_env = os.environ.get("EFFDIM_THREADS")
    for cycle in laps(seconds):
        untraced.append(runner.run_pass())
        with tracer.installed():
            tracer.reset()
            stats = runner.run_pass()
        traced.append(stats)
        layer_runs.append({**tracing.layer_metrics(tracer),
                           "cli.output_bytes": float(stats.output_bytes)})
        # serial and pooled sweeps, alternating which goes first
        for threads in (("1", threads_env) if cycle % 2 == 0
                        else (threads_env, "1")):
            _set_threads(threads)
            sweep = runner.run_pass(group="cmd.collapse-sweep")
            (serial if threads == "1" else pooled).append(sweep)
        _set_threads(threads_env)
        for name, repeats, call in anchor_calls:
            for _ in range(repeats):
                t0 = time.perf_counter()
                call()
                anchor_times[name].append(time.perf_counter() - t0)
    tracer.write(str(spans_path))

    ops = runner.ops
    groups = [op.group for op in ops]
    values = {}
    first = layer_runs[0]
    exact = [key for key in first if per_layer_unit(key) in EXACT_UNITS]
    for key in first:
        values[key] = (first[key] if key in exact
                       else _median([run[key] for run in layer_runs]))
    traced_s = op_samples(ops, traced)
    untraced_s = op_samples(ops, untraced)
    for group in workloads.CMD_METRICS:
        values[f"{group}_s"] = typical(untraced_s, groups, group)
    values["cli.bounds_s"] = typical(traced_s, groups, "cli.bounds")
    values["cli.maxdim_s"] = typical(traced_s, groups, "cli.maxdim")
    values["cli.sweep_pool_speedup"] = (typical(op_samples(ops, serial), groups)
                                        / typical(op_samples(ops, pooled),
                                                  groups))
    values["trace.overhead_frac"] = (typical(traced_s, groups)
                                     / typical(untraced_s, groups) - 1.0)
    for name, _, _ in anchor_calls:
        values[name] = _median(anchor_times[name])
    return {"values": values, "labels": [op.label for op in ops],
            "attempted": runner.attempted, "failed": runner.failed,
            "errors": runner.errors,
            "samples": {"cycles": len(layer_runs), "count_mismatch": [
                key for key in exact if any(run[key] != first[key]
                                            for run in layer_runs)]}}


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    effdim = import_effdim()
    OUT.joinpath("out").mkdir(parents=True, exist_ok=True)
    stem = OUT / "out" / f"{workload}_seed{seed}_trace{int(trace)}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if trace:
            measured = measure_per_layer(effdim, workload, seed, seconds,
                                         small, workdir,
                                         stem.with_suffix(".spans.jsonl"))
        else:
            measured = measure_end_to_end(workload, seed, seconds, small,
                                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = measured["values"]
    units = (END_TO_END if not trace
             else {key: per_layer_unit(key) for key in values})
    metrics = {key: {"value": values[key], "unit": units[key]}
               for key in units}
    attempted, failed = measured["attempted"], measured["failed"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "operations": measured["labels"],
              "commands": measured.get("commands", {}),
              "failed_fraction": failed / attempted,
              "errors": measured["errors"][:20],
              "samples": measured["samples"],
              "environment": environment(effdim), "result": result}
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return result, report


def main(argv=None, small: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), small)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in report["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in report["commands"].items():
        print(f"{name:<44} {value:>16.6g} s")
    print(f"{'failed_fraction':<44} {report['failed_fraction']:>16.6g} "
          f"fraction ({result['failed']}/{result['attempted']})")
    print("samples " + json.dumps(report["samples"]))
    print("environment " + json.dumps(report["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
