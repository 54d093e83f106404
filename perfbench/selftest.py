#!/usr/bin/env python3
"""Self-test of the benchmark at shrunken shapes.

    python3 perfbench/selftest.py

Checks, on every workload, that every metric named in BENCHMARK.json is
printed by name with its unit (``--trace 0`` and ``--trace 1``), that the
counts of two traced runs with one seed are identical, and that a
corrupted oracle is counted in ``failed``.  Exits 0 when all hold.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import run
import workloads

SEED = 7
SECONDS = 0.5


def bench(workload: str, trace: int) -> tuple[dict, str]:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", str(SECONDS), "--trace", str(trace)],
                        small=True)
    text = buf.getvalue()
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}")
    return json.loads(text.splitlines()[-1]), text


def check_metrics(label: str, result: dict, text: str, spec: list[dict],
                  problems: list[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    names = [m["name"] for m in spec]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{label}: metrics {sorted(result['metrics'])} "
                        f"differ from BENCHMARK.json")
    table = text.splitlines()[:-1]
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{label}: {m['name']} = {got}")
        if not any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in table):
            problems.append(f"{label}: {m['name']} not printed with "
                            f"{m['unit']}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        result, text = bench(workload, 0)
        check_metrics(f"{workload} trace 0", result, text,
                      spec["end_to_end"], problems)
        first, text = bench(workload, 1)
        check_metrics(f"{workload} trace 1", first, text, spec["per_layer"],
                      problems)
        second, _ = bench(workload, 1)
        for name, metric in first["metrics"].items():
            if (metric["unit"] in run.EXACT_UNITS and metric
                    != second["metrics"].get(name)):
                problems.append(f"{workload}: count {name} differs between "
                                f"traced runs: {metric['value']} vs "
                                f"{second['metrics'][name]['value']}")

    # A wrong closed form must show up as failed operations.  The traced
    # run checks outputs in this process, where the patch is seen.
    iso_p = workloads.iso_p
    workloads.iso_p = lambda q, r: 1.001 * iso_p(q, r)
    try:
        result, text = bench("analysis", 1)
    finally:
        workloads.iso_p = iso_p
    if result["correct"] or result["failed"] < 1:
        problems.append("corrupted oracle not counted in failed")
    elif "failed_fraction" not in text:
        problems.append("failed_fraction not printed")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'PASS'} "
          f"({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
