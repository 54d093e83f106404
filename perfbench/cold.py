"""Cold start: import effdim and run an m=1 invocation of every command.

Started as a fresh interpreter by ``run.py`` to time set-up: interpreter
start, imports and any one-off cost of a first call.  Usage:

    python3 perfbench/cold.py WORKDIR

Exits non-zero if any invocation fails.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import effdim.cli  # noqa: E402
from workloads import cold_argvs  # noqa: E402


def main(workdir: str) -> int:
    with redirect_stdout(io.StringIO()):
        for argv in cold_argvs(workdir):
            code = effdim.cli.main(argv)
            if code != 0:
                print(f"cold start: {argv[1]} exited {code}", file=sys.stderr)
                return 1
    problem = effdim.LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    effdim.smoothing.optimal_smoother_sample(problem, np.zeros((2, 1)), 10, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
