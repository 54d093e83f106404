"""The measuring process of an end-to-end run, started by ``run.py``.

Usage:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS SMALL WORKDIR

Builds the workload in WORKDIR, runs one untimed warm-up pass, then
passes for SECONDS, and prints one JSON line: each operation's group,
repeats, and wall and CPU times, the failure counts and the process's
peak RSS.
"""

import json
import resource
import sys

import run
import workloads


def main(workload: str, seed: int, seconds: float, small: bool,
         workdir: str) -> int:
    effdim = run.import_effdim()
    ops = workloads.build(effdim, workload, workdir, seed, small)
    runner = run.Runner(ops)
    runner.run_pass()  # warm-up: lazy imports, caches, first-call costs
    passes = [runner.run_pass() for _ in run.laps(seconds)]
    print(json.dumps({
        "labels": [op.label for op in ops],
        "groups": [op.group for op in ops],
        "repeats": [op.repeats for op in ops],
        "wall": run.op_samples(ops, passes),
        "cpu": run.op_samples(ops, passes, cpu=True),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "passes": len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                  sys.argv[4] == "1", sys.argv[5]))
