"""A fixed battery of CLI invocations, digested for byte-for-byte diffs.

Run it from the repository root:

    PYTHONPATH=src python tests/cli_battery.py > battery.txt

The battery has 338 invocations.  Every invocation runs in-process
through ``effdim.cli.main`` in a fresh working directory that holds the
battery's problem and trajectory files, so the config each output
echoes names them by relative path.  For each invocation the battery
prints one line per output file, then one each for stdout, stderr and
warnings:

    <sha256> <exit code> <argv> [<output>]

The exit code is ``traceback`` when ``main`` raised.  A last line per
invocation digests its warnings: the set of distinct categories and
messages, without the file and line that raised them or their count, so
that it does not move with the source lines or with the number of
operations that overflow.
Two trees write the same outputs exactly when their batteries' outputs
``diff`` clean.  The battery exits 1 when an invocation ended in a
traceback, which the CLI should never end in, and 0 otherwise, whatever
the invocations' exit codes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings

import numpy as np

from effdim.cli import main

# --- problems, written as <name>.json into every working directory --------


def _problem(A, Q, H, R, mu0, Sigma0) -> dict:
    return {key: np.asarray(value, dtype=float).tolist() for key, value in
            (("A", A), ("Q", Q), ("H", H), ("R", R), ("mu0", mu0),
             ("Sigma0", Sigma0))}


def _random_dense(seed: int, m: int) -> dict:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    L = rng.standard_normal((m, m))
    G = rng.standard_normal((m, m))
    H = rng.standard_normal((m, m))
    return _problem(A, L @ L.T / m + 0.1 * np.eye(m), H,
                    G @ G.T / m + 0.1 * np.eye(m), rng.standard_normal(m),
                    np.eye(m))


def _scaled(doc: dict, j: int) -> dict:
    """The problem ``doc`` with Q, R and Sigma0 multiplied by 2^j."""
    return {key: np.ldexp(value, j).tolist() if key in ("Q", "R", "Sigma0")
            else value for key, value in doc.items()}


_EYE2, _EYE3 = np.eye(2), np.eye(3)
_DENSE = _problem(
    [[0.9, 0.1, 0.0], [0.2, 0.5, 0.1], [0.0, 0.3, 0.7]],
    [[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.5]],
    [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]], [[0.5, 0.1], [0.1, 0.4]],
    [0.0, 0.5, -0.5], [[1.0, 0.0, 0.0], [0.0, 2.0, 0.3], [0.0, 0.3, 1.0]])
PROBLEMS = {
    "dense": _DENSE,
    # the DARE is homogeneous in (Q, R, Sigma0): the outputs scale exactly
    "dense-2pow900": _scaled(_DENSE, 900),
    "dense-2pow-900": _scaled(_DENSE, -900),
    # non-isotropic diagonal with an unstable component
    "diagonal": _problem(np.diag([0.9, -0.5, 1.1]), np.diag([0.5, 2.0, 0.1]),
                         np.diag([1.0, 0.5, -2.0]), np.diag([0.3, 1.0, 4.0]),
                         [0.1, -0.2, 0.3], np.diag([1.0, 0.2, 3.0])),
    "dense8": _random_dense(8, 8),
    "dense60": _random_dense(60, 60),
    # stable A and full-rank H: the upper bound's a > 0 branch
    "stable": _problem(0.5 * _EYE3, np.diag([1.0, 0.5, 0.2]), _EYE3,
                       np.diag([0.5, 1.0, 2.0]), np.zeros(3), _EYE3),
    # a > 0 with b c far below a^2: the quadratic root cancels when formed
    # as (sqrt(a^2 + b c) - a) / b
    "small-noise": _problem(0.5 * _EYE2, 1e-10 * _EYE2, _EYE2, 1e10 * _EYE2,
                            np.zeros(2), _EYE2),
    # rank-deficient H with a stable and an unstable A
    "rank-deficient": _problem(0.5 * _EYE2, _EYE2, [[1.0, 0.0]], [[1.0]],
                               np.zeros(2), _EYE2),
    "rank-deficient-unstable": _problem(1.2 * _EYE2, _EYE2, [[1.0, 1.0]],
                                        [[1.0]], np.zeros(2), _EYE2),
    "singular-q": _problem(0.9 * _EYE2, np.diag([1.0, 0.0]), _EYE2, _EYE2,
                           np.zeros(2), _EYE2),
    "wide": _problem(0.5 * _EYE2, _EYE2, np.ones((3, 2)), np.eye(3),
                     np.zeros(2), _EYE2),
    "singular-r": _problem(0.5 * _EYE2, _EYE2, _EYE2, np.zeros((2, 2)),
                           np.zeros(2), _EYE2),
    "nan-mu0": _problem(0.5 * _EYE2, _EYE2, _EYE2, _EYE2, [np.nan, 0.0],
                        _EYE2),
    "negative-sigma0": _problem(0.5 * _EYE2, _EYE2, _EYE2, _EYE2,
                                np.zeros(2), -_EYE2),
    "asymmetric-q": _problem(0.5 * _EYE2, [[1.0, 0.5], [0.0, 1.0]], _EYE2,
                             _EYE2, np.zeros(2), _EYE2),
    "overflowing-h": _problem(0.5 * _EYE2, _EYE2, 1e200 * _EYE2, _EYE2,
                              np.zeros(2), _EYE2),
    # a diagonal problem whose G = H'R^-1 H overflows: the sweep that takes
    # over from the doubling cycles between two iterates
    "overflowing-diagonal": _problem(
        np.diag([4.0e39, 1.1e-220]), np.diag([2.1e48, 7.0e-73]),
        np.diag([-5.7e34, -1.2e151]), np.diag([7.5e-215, 1.7e-155]),
        np.zeros(2), np.diag([5.1e-63, 2.2e-204])),
    # a diagonal problem whose first component overflows to inf in some
    # particles at the first filter step, while the others keep finite
    # log-weights
    "exploding-diagonal": _problem(np.diag([1e158, 0.5]), _EYE2,
                                   1e-300 * _EYE2, 1e16 * _EYE2, np.zeros(2),
                                   1e300 * _EYE2),
    # a dense problem with a PSD but singular Q: the optimal filter's
    # innovation form
    "singular-q-dense": _problem([[0.9, 0.1], [0.0, 0.8]],
                                 [[1.0, 1.0], [1.0, 1.0]], _EYE2, _EYE2,
                                 np.zeros(2), _EYE2),
}
# invalid 2x2 problems for the smoother's --trajectory and --seeds paths
_ASYMMETRIC = [[1.0, 0.5], [0.0, 1.0]]
SMOOTH_INVALID = {
    "smooth-nan-mu0": _problem(0.5 * _EYE2, _EYE2, _EYE2, _EYE2,
                               [np.nan, 0.0], _EYE2),
    "smooth-asymmetric-sigma0": _problem(0.5 * _EYE2, _EYE2, _EYE2, _EYE2,
                                         np.zeros(2), _ASYMMETRIC),
    "smooth-nan-a": _problem([[np.nan, 0.0], [0.0, 0.5]], _EYE2, _EYE2,
                             _EYE2, np.zeros(2), _EYE2),
    "smooth-negative-r": _problem(0.5 * _EYE2, _EYE2, _EYE2, -_EYE2,
                                  np.zeros(2), _EYE2),
    "smooth-asymmetric-q": _problem(0.5 * _EYE2, _ASYMMETRIC, _EYE2, _EYE2,
                                    np.zeros(2), _EYE2),
}
# trajectory seeds that are not integers >= 0
_BAD_SEEDS = {"list": [1], "null": None, "float": 1.5, "bool": True,
              "string": "7", "negative": -1}
# problem files that are not problems, and trajectories for the smoother
RAW_FILES = {
    **{name + ".json": json.dumps(doc)
       for name, doc in SMOOTH_INVALID.items()},
    "missing-key.json": json.dumps({"A": [[1.0]], "Q": [[1.0]]}),
    "not-object.json": "[1, 2]",
    "not-json.json": "{not json",
    "trajectory.json": json.dumps({
        "truth": [[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [0.2, 0.1, -0.1]],
        "observations": [[0.1, -0.1], [0.3, 0.0]], "seed": 7}),
    "trajectory-missing.json": json.dumps({"truth": [[0.0]], "seed": 1}),
    # Q just below what psd_factor accepts: invalid before any factoring
    "negative-q.json": json.dumps(_problem([[0.5]], [[-1.00000000005e-10]],
                                           [[1.0]], [[1.0]], [0.0], [[1.0]])),
    "trajectory2.json": json.dumps({
        "truth": [[0.0, 0.0], [0.1, -0.2], [0.2, 0.1]],
        "observations": [[0.1, -0.1], [0.3, 0.0]], "seed": 7}),
    **{f"trajectory-seed-{name}.json": json.dumps({
        "truth": [[0, 0]], "observations": [[0.1, 0.2]], "seed": seed})
       for name, seed in _BAD_SEEDS.items()},
}

# --- invocations -----------------------------------------------------------

_ISO = [("1", "0.5", "1"), ("3", "0.5", "1"), ("4", "1e-4", "1"),
        ("10", "100", "1"), ("2", "0", "1"), ("100", "1e-4", "1"),
        # ||P||_F sums more squares than OpenBLAS's dot keeps on one thread
        ("300", "1e-2", "1")]
# the ends of the float range
_ISO_EDGE = [("1", "1e-300", "1"), ("3", "1e-300", "1"),
             ("1", "1e-300", "1e-100"), ("4", "1e-200", "1"),
             ("1", "1e300", "1"), ("1", "1e20", "1"),
             ("1", "1e200", "1e200"), ("2", "1e210", "1e210"),
             ("2", "1e250", "1e250"), ("3", "1e-250", "1e-250"),
             ("1", "1e-160", "1e-160"),
             ("1", "1e-60", "1e-300")]
_ISO_BAD = [("2", "1", "-1"), ("2", "-1", "1"), ("2", "nan", "1"),
            ("0", "1", "1"), ("2", "inf", "1")]
_GRIDS = [[], ["--grid-points", "2"], ["--grid-points", "40"],
          ["--grid-points", "77", "--dims", "3,30"],
          ["--grid-min", "1e-300", "--grid-max", "1e300"],
          ["--grid-min", "1e-320", "--grid-max", "1e308",
           "--grid-points", "50"]]
_RUN = ["--particles", "40", "--steps", "4", "--resample-every", "2"]
_STRADDLING_SEEDS = f"0,{2 ** 32 - 1},{2 ** 32},{2 ** 64 + 5}"
# priors so wide that some particles' first log-weights overflow
_WIDE_SIGMA0 = {"sir": repr(2e-10 * 1.7e308 / 1.5),
                "optimal": repr(2e-10 * 1.7e308 / 0.75)}


def invocations() -> list[list[str]]:
    out = []
    for fmt in ("json", "csv"):
        f = ["--format", fmt]
        for command in ("effdim", "bounds"):
            for m, q, r in _ISO + _ISO_EDGE:
                out.append(["--command", command, "--m", m, "--q", q,
                            "--r", r, *f, "--out", "out." + fmt])
            for name in PROBLEMS:
                out.append(["--command", command, "--problem", name + ".json",
                            *f, "--out", "out." + fmt])
        for kind in ("feasibility", "optimal", "sir", "strong"):
            for grid in _GRIDS:
                out.append(["--command", "map", "--kind", kind, *grid, *f,
                            "--out", "out." + fmt])
        for kind in ("optimal", "sir"):
            for grid in _GRIDS:
                out.append(["--command", "maxdim", "--kind", kind, *grid, *f,
                            "--out", "out." + fmt])
    for command in ("effdim", "bounds"):
        for m, q, r in _ISO_BAD:
            out.append(["--command", command, "--m", m, "--q", q, "--r", r])
        for name in ("missing-key", "not-object", "not-json", "absent"):
            out.append(["--command", command, "--problem", name + ".json"])
        out.append(["--command", command, "--m", "3", "--q", "0.5",
                    "--r", "1"])
    out.append(["--command", "map", "--kind", "strong", "--balance-constant",
                "2", "--grid-points", "30"])
    out.append(["--command", "maxdim", "--kind", "optimal",
                "--balance-constant", "0.25", "--grid-points", "30"])
    for kind in ("sir", "optimal"):
        for source in (["--m", "3", "--q", "0.5", "--r", "1"],
                       ["--problem", "dense.json"],
                       ["--problem", "diagonal.json"],
                       ["--problem", "dense8.json"]):
            out.append(["--command", "filter", "--kind", kind, *source, *_RUN,
                        "--seeds", "1,2", "--out", "run"])
            out.append(["--command", "filter", "--kind", kind, *source, *_RUN,
                        "--seeds", "3", "--format", "csv"])
        out.append(["--command", "filter", "--kind", kind, "--m", "2",
                    "--q", "1", "--r", "1", "--particles", "2", "--steps", "3",
                    "--seeds", "1", "--out", "run"])
        # seeds on both sides of 2^32 and of 2^64, and a one-step run
        for fmt in ("json", "csv"):
            for source in (["--m", "3", "--q", "0.5", "--r", "1"],
                           ["--problem", "dense.json"]):
                out.append(["--command", "filter", "--kind", kind, *source,
                            *_RUN, "--seeds", _STRADDLING_SEEDS,
                            "--format", fmt])
            out.append(["--command", "filter", "--kind", kind,
                        "--problem", "diagonal.json", "--particles", "40",
                        "--steps", "1", "--seeds", "9", "--format", fmt])
        out.append(["--command", "collapse-sweep", "--kind", kind, "--m", "4",
                    "--grid-min", "0.1", "--grid-max", "10",
                    "--grid-points", "3", "--particles", "30", "--steps", "3",
                    "--seeds", "1,2", "--out", "run"])
        out.append(["--command", "collapse-sweep", "--kind", kind,
                    "--sweep", "m", "--q", "0.5", "--r", "1", "--dims", "1,5",
                    "--particles", "30", "--steps", "3", "--seeds", "4"])
        # eps sweeps whose cells run as rows of shared batches: seeds
        # beyond one word and repeated, and seeds 1 and 7 degenerate
        out.append(["--command", "collapse-sweep", "--kind", kind, "--m", "3",
                    "--grid-min", "0.01", "--grid-max", "100",
                    "--grid-points", "7", "--particles", "30", "--steps", "4",
                    "--resample-every", "2", "--seeds", f"1,5,{2 ** 32 + 1},5",
                    "--format", "csv"])
        out.append(["--command", "collapse-sweep", "--kind", kind, "--m", "1",
                    "--r", "2e-10", "--sigma0", _WIDE_SIGMA0[kind],
                    "--grid-min", "1e-3", "--grid-max", "1e300",
                    "--grid-points", "6", "--particles", "2", "--steps", "4",
                    "--resample-every", "2",
                    "--seeds", f"1,2,3,4,5,6,7,8,{2 ** 32 + 1}",
                    "--out", "run"])
        # N m above the batch bound: a thread per CPU, one row a batch
        out.append(["--command", "collapse-sweep", "--kind", kind,
                    "--m", "66", "--grid-min", "0.1", "--grid-max", "10",
                    "--grid-points", "3", "--particles", "1000",
                    "--steps", "2", "--seeds", "1,2", "--out", "run"])
    for kind in ("sir", "optimal"):
        for fmt in ("json", "csv"):
            out.append(["--command", "filter", "--kind", kind,
                        "--problem", "exploding-diagonal.json",
                        "--particles", "200", "--steps", "3",
                        "--seeds", "3,4", "--format", fmt])
    for name in ("singular-q", "singular-q-dense"):
        out.append(["--command", "filter", "--kind", "optimal",
                    "--problem", name + ".json", *_RUN, "--seeds", "1,2",
                    "--out", "run"])
    out.append(["--command", "filter", "--kind", "sir", "--m", "2", "--q", "1",
                "--r", "1", "--steps", "2"])
    out.append(["--command", "nope"])
    for source in (["--m", "3", "--q", "0.5", "--r", "1"],
                   ["--problem", "dense.json"],
                   ["--problem", "diagonal.json"],
                   ["--problem", "dense8.json"]):
        out.append(["--command", "smooth", *source, "--steps", "4",
                    "--seeds", "1", "--out", "run"])
        out.append(["--command", "smooth", *source, "--steps", "4",
                    "--seeds", "1", "--format", "csv"])
    out.append(["--command", "smooth", "--problem", "dense.json",
                "--trajectory", "trajectory.json", "--out", "run"])
    out.append(["--command", "smooth", "--problem", "dense.json",
                "--trajectory", "trajectory-missing.json"])
    for name in _BAD_SEEDS:
        out.append(["--command", "smooth", "--m", "2", "--q", "1", "--r", "1",
                    "--trajectory", f"trajectory-seed-{name}.json"])
    for name in SMOOTH_INVALID:
        for source in (["--trajectory", "trajectory2.json"],
                       ["--seeds", "1", "--steps", "2"]):
            out.append(["--command", "smooth", "--problem", name + ".json",
                        *source, "--out", "run"])
    for fmt in ("json", "csv"):
        f = ["--format", fmt]
        for m in ("0", "-2"):
            out.append(["--command", "collapse-sweep", "--kind", "sir",
                        "--m", m, "--particles", "5", "--steps", "2",
                        "--seeds", "1", *f])
        out.append(["--command", "effdim", "--problem", "negative-q.json", *f])
        out.append(["--command", "filter", "--kind", "sir",
                    "--problem", "negative-q.json", "--particles", "5",
                    "--steps", "2", "--seeds", "1", *f])
        out.append(["--command", "smooth", "--problem", "negative-q.json",
                    "--steps", "2", "--seeds", "1", *f])
    # files that cannot be read or written: a directory as an input, and
    # outputs into a directory that does not exist
    out.append(["--command", "effdim", "--problem", "."])
    out.append(["--command", "smooth", "--problem", "dense.json",
                "--trajectory", "."])
    out.append(["--command", "effdim", "--m", "1", "--q", "1", "--r", "1",
                "--out", "missing/out.json"])
    out.append(["--command", "filter", "--kind", "sir", "--m", "2",
                "--q", "1", "--r", "1", "--steps", "2", "--seeds", "1",
                "--out", "missing/run"])
    return out


# --- running ---------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], workdir: str) -> list[tuple[str, str]]:
    """(output name, sha256) of each output file, stdout, stderr and the
    warnings of one invocation, after its exit code as ('exit', code)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    before = set(os.listdir("."))
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = str(main(argv))
            except SystemExit as exc:
                code = str(exc.code)
            except Exception:  # the battery reports it and goes on
                code = "traceback"
                stderr.write(traceback.format_exc(limit=0))
        warned = sorted({f"{w.category.__name__}: {w.message}\n"
                         for w in caught})
        written = sorted(set(os.listdir(".")) - before)
        files = []
        for name in written:
            with open(name, "rb") as fh:
                files.append((name, _digest(fh.read())))
            os.remove(name)
    finally:
        os.chdir(cwd)
    return [("exit", code), *files,
            ("stdout", _digest(stdout.getvalue().encode())),
            ("stderr", _digest(stderr.getvalue().encode())),
            ("warnings", _digest("".join(warned).encode()))]


def main_battery() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, doc in PROBLEMS.items():
            with open(os.path.join(workdir, name + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh)
        for name, text in RAW_FILES.items():
            with open(os.path.join(workdir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        status = 0
        for argv in invocations():
            (_, code), *outputs = run(argv, workdir)
            for name, digest in outputs:
                print(f"{digest} {code} {' '.join(argv)} [{name}]")
            if code == "traceback":
                print(f"battery: {' '.join(argv)} ended in a traceback",
                      file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main_battery())
