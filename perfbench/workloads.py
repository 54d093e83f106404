"""Workload scripts for the effdim benchmark, with their inputs and oracles.

A workload is a fixed list of operations.  Each operation is one
``effdim.cli.main`` invocation or one public library call, tagged with
the end-to-end metric group its time counts towards.  Inputs (problem
JSON, trajectories, seed lists) are generated here from the workload
seed with the benchmark's own RNG; effdim only ever sees the generated
files and arguments.  Reference values for the output checks are
computed at build time, outside every timed span.

Each workload also carries a *canary*: a small invocation of every
command it does not run at scale.  It keeps every per-layer metric,
the per-command times among them, defined on every workload (each is
reported on each), at 5-15 % of the pass time, so the workload's own
layers still dominate its wall time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

WORKLOADS = ("analysis", "montecarlo", "sweep")

# End-to-end per-command groups; every workload reports all of them.
CMD_METRICS = ("cmd.effdim", "cmd.map", "cmd.smooth", "cmd.filter",
               "cmd.collapse-sweep", "lib.smoother_sample")

LEVEL_TOL = 1e-7      # |g - level| allowed at emitted level-set points
FEAS_RTOL = 1e-5      # feasibility points against r = l + l^2/q
ORACLE_RTOL = 1e-8    # closed-form and scipy DARE references
SOLVER_TOL = 1e-10    # effdim's default DARE step tolerance
SMOOTH_ATOL = 1e-8    # 4D-Var final block against the Kalman filter mean
CANARY_REPEATS = 5


# ---------------------------------------------------------------------------
# Closed forms for the isotropic family A = H = I, Q = qI, R = rI.

def iso_p(q: float, r: float) -> float:
    """Per-component steady posterior variance, (sqrt(q^2 + 4qr) - q)/2."""
    return 2.0 * q * r / (math.sqrt(q * q + 4.0 * q * r) + q)


def iso_sigma_frob(m: int, q: float, r: float, kind: str) -> float:
    """||Sigma||_F of the collapse statistic for the isotropic model."""
    p = iso_p(q, r)
    if kind == "optimal":
        return math.sqrt(m) * p / (q + r)
    return math.sqrt(m) * (q + p) / r


def iso_eff_dim_tol(q: float, r: float, eff_dim: float) -> float:
    """Absolute error allowed on sqrt(m) * iso_p for effdim's DARE output.

    ORACLE_RTOL, or, where larger, twice the a-posteriori error bound of
    a contraction with rate rho stopped on a step of SOLVER_TOL*(1+|P|):
    rho/(1-rho) * step.  For the scalar map p -> r(p+q)/(p+q+r) the rate
    is rho = r^2/(p+q+r)^2, about 0.98 at q/r = 1e-4, where a solver that
    stops on the step size is up to ~50 steps away from the fixed point.
    """
    p = iso_p(q, r)
    rho = r * r / (p + q + r) ** 2
    contraction = 2.0 * rho / (1.0 - rho) * SOLVER_TOL * (1.0 + eff_dim)
    return max(ORACLE_RTOL * eff_dim, contraction)


def g_kind(kind: str, q, r):
    """The scalar balance criteria, written independently of effdim."""
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    root = np.sqrt(q * q + 4.0 * q * r)
    if kind == "feasibility":
        return 2.0 * q * r / (root + q)
    if kind == "optimal":
        return 2.0 * q * r / ((root + q) * (q + r))
    if kind == "sir":
        return (root + q) / (2.0 * r)
    return q * r / (q + r)  # strong: q plays the prior variance sigma0


def kalman_means(A, Q, H, R, mu0, Sigma0, observations) -> np.ndarray:
    """Kalman filter posterior means mu_1..mu_n (oracle for the 4D-Var mode)."""
    mu, P = mu0.copy(), Sigma0.copy()
    out = []
    for z in observations:
        X = A @ P @ A.T + Q
        S = H @ X @ H.T + R
        K = np.linalg.solve(S, H @ X).T
        mu = A @ mu + K @ (z - H @ (A @ mu))
        P = X - K @ H @ X
        P = 0.5 * (P + P.T)
        out.append(mu.copy())
    return np.asarray(out)


def dare_rel_residual(A, Q, H, R, X) -> float:
    """||X - (A X A' - A X H'(H X H' + R)^{-1} H X A' + Q)||_F / ||X||_F."""
    S = H @ X @ H.T + R
    HXA = H @ X @ A.T
    rhs = A @ X @ A.T - HXA.T @ np.linalg.solve(S, HXA) + Q
    return float(np.linalg.norm(X - rhs) / max(np.linalg.norm(X), 1e-300))


# ---------------------------------------------------------------------------
# Generated inputs.

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _seed_list(seed: int, tag: int, count: int) -> str:
    values = _rng(seed, tag).integers(0, 2 ** 31 - 1, size=count)
    return ",".join(str(int(v)) for v in values)


def _random_spd(rng, m: int) -> np.ndarray:
    L = rng.standard_normal((m, m))
    return L @ L.T / m + 0.1 * np.eye(m)


def general_problem(seed: int, m: int, k: int) -> dict:
    """A stable, detectable (A, Q, H, R): spectral radius of A below 0.9."""
    rng = _rng(seed, 1)
    A = rng.standard_normal((m, m))
    A *= 0.9 * rng.uniform(0.3, 1.0) / np.max(np.abs(np.linalg.eigvals(A)))
    return {"A": A, "Q": _random_spd(rng, m), "H": rng.standard_normal((k, m)),
            "R": _random_spd(rng, k), "mu0": rng.standard_normal(m),
            "Sigma0": _random_spd(rng, m)}


def iso_observations(seed: int, tag: int, m: int, q: float, r: float,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Truth and data of x' = x + sqrt(q) w, z = x + sqrt(r) v, x0 ~ N(0, I)."""
    rng = _rng(seed, tag)
    truth = np.empty((n + 1, m))
    truth[0] = rng.standard_normal(m)
    for i in range(n):
        truth[i + 1] = truth[i] + math.sqrt(q) * rng.standard_normal(m)
    obs = truth[1:] + math.sqrt(r) * rng.standard_normal((n, m))
    return truth, obs


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({key: np.asarray(val).tolist() if isinstance(val, np.ndarray)
                   else val for key, val in doc.items()}, fh)
    return path


# ---------------------------------------------------------------------------
# Operations.

@dataclass
class Outcome:
    """What one execution produced: a check failure or None, and its bytes."""

    error: str | None
    digest: str
    output_bytes: int


@dataclass
class Op:
    """One timed call and the inspection of its output.

    ``call`` returns an opaque result; ``inspect`` turns it into an
    Outcome outside the timed span.  ``pinned`` is the digest of the
    first execution: later executions must reproduce it exactly.
    """

    group: str
    label: str
    call: Callable[[], object]
    inspect: Callable[[object], Outcome]
    pinned: str | None = None
    repeats: int = 1  # executions per pass; metrics take their median


@dataclass
class CliResult:
    code: int
    stdout: str
    files: dict  # path -> bytes


def cli_op(effdim, group: str, label: str, argv: list[str],
           outputs: list[str], check) -> Op:
    """An ``effdim.cli.main`` invocation writing ``outputs``."""

    def call():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = effdim.cli.main(list(argv))
        return code, buf.getvalue()

    def inspect(raw) -> Outcome:
        code, stdout = raw
        files = {}
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[path] = fh.read()
                os.remove(path)  # a later execution must write it afresh
        h = hashlib.sha256(stdout.encode())
        for path in outputs:
            h.update(files.get(path, b""))
        nbytes = len(stdout.encode()) + sum(len(b) for b in files.values())
        missing = [p for p in outputs if p not in files]
        if code != 0:
            error = f"exit code {code}"
        elif missing:
            error = f"missing output {os.path.basename(missing[0])}"
        else:
            error = check(CliResult(code, stdout, files))
        return Outcome(error, h.hexdigest(), nbytes)

    return Op(group, label, call, inspect)


def _load(res: CliResult, suffix: str) -> dict:
    path = next(p for p in res.files if p.endswith(suffix))
    return json.loads(res.files[path])


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want),
                                                  1e-300))


class Builder:
    """Builds the operations of one workload inside a work directory."""

    def __init__(self, effdim, workdir: str, seed: int, small: bool):
        self.effdim = effdim
        self.workdir = workdir
        self.seed = seed
        self.small = small
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, group, label, argv, outputs, check):
        self.ops.append(cli_op(self.effdim, group, label, argv, outputs,
                               check))

    # -- commands -----------------------------------------------------------

    def effdim_iso(self, m: int, q: float, r: float):
        out = self.path(f"effdim_m{m}_q{q:g}_r{r:g}.json")
        want = math.sqrt(m) * iso_p(q, r)
        tol = iso_eff_dim_tol(q, r, want)

        def check(res):
            got = _load(res, ".json")["steady_state"]["eff_dim"]
            if not abs(got - want) <= tol:
                return (f"eff_dim {got!r} vs closed form {want!r} "
                        f"(tol {tol:.3g})")
            return None

        self.cli("cmd.effdim", f"effdim m={m} q={q:g} r={r:g}",
                 ["--command", "effdim", "--m", str(m), "--q", repr(q),
                  "--r", repr(r), "--out", out], [out], check)

    def effdim_general(self, m: int, k: int):
        doc = general_problem(self.seed, m, k)
        problem = _write_json(self.path(f"general_m{m}_k{k}.json"), doc)
        out = self.path(f"effdim_general_m{m}.json")
        X_ref = scipy.linalg.solve_discrete_are(doc["A"].T, doc["H"].T,
                                                doc["Q"], doc["R"])

        def check(res):
            got = _load(res, ".json")["steady_state"]["X"]
            err = _rel_err(got, X_ref)
            if not err <= ORACLE_RTOL:
                return f"X vs scipy DARE rel err {err:.3g}"
            return None

        self.cli("cmd.effdim", f"effdim general m={m} k={k}",
                 ["--command", "effdim", "--problem", problem, "--out", out],
                 [out], check)

    def bounds(self, m: int, q: float, r: float):
        out = self.path(f"bounds_m{m}.json")
        psd_compare = self.effdim.psd_compare
        ok = ("LessOrEqual", "Equal")

        def check(res):
            doc = _load(res, ".json")
            ss, b = doc["steady_state"], doc["bounds"]
            pairs = ((b["X_lower"], ss["X"], "X_lower <= X"),
                     (ss["X"], b["X_upper"], "X <= X_upper"),
                     (ss["P"], b["P_upper"], "P <= P_upper"))
            for lo, hi, what in pairs:
                verdict = psd_compare(np.asarray(lo), np.asarray(hi)).verdict
                if getattr(verdict, "value", verdict) not in ok:
                    return f"bounds sandwich violated: {what}"
            return None

        self.cli("cli.bounds", f"bounds m={m} q={q:g} r={r:g}",
                 ["--command", "bounds", "--m", str(m), "--q", repr(q),
                  "--r", repr(r), "--out", out], [out], check)

    def map(self, kind: str, dims: str, grid_points: int | None):
        out = self.path(f"map_{kind}_{grid_points}.json")
        argv = ["--command", "map", "--kind", kind, "--dims", dims,
                "--out", out]
        if grid_points is not None:
            argv += ["--grid-points", str(grid_points)]

        def check(res):
            doc = _load(res, ".json")
            for ls in doc["level_sets"]:
                level = 1.0 / math.sqrt(ls["m"])
                pts = np.asarray(ls["points"], dtype=float).reshape(-1, 2)
                q, r = pts[:, 0], pts[:, 1]
                if kind == "feasibility":
                    want = level + level * level / q
                    err = float(np.max(np.abs(r - want) / want))
                    if not err <= FEAS_RTOL:
                        return f"feasibility point off r = l + l^2/q by {err:.3g}"
                else:
                    err = float(np.max(np.abs(g_kind(kind, q, r) - level)))
                    if not err <= LEVEL_TOL:
                        return f"{kind} level-set point off by {err:.3g}"
            return None

        self.cli("cmd.map", f"map {kind}", argv, [out], check)

    def maxdim(self, kind: str, points: int):
        out = self.path(f"maxdim_{kind}_{points}.json")

        def check(res):
            doc = _load(res, ".json")
            eps = np.asarray(doc["eps_grid"], dtype=float)
            want = (1.0 / g_kind(kind, eps, 1.0)) ** 2
            err = float(np.max(np.abs(np.asarray(doc["m_max"]) - want)
                               / want))
            if not err <= ORACLE_RTOL:
                return f"m_max vs (c/g)^2 rel err {err:.3g}"
            return None

        self.cli("cli.maxdim", f"maxdim {kind}",
                 ["--command", "maxdim", "--kind", kind, "--grid-min", "1e-3",
                  "--grid-max", "1e3", "--grid-points", str(points),
                  "--out", out], [out], check)

    def smooth(self, m: int, q: float, r: float, steps: int):
        truth, obs = iso_observations(self.seed, 100 + steps, m, q, r, steps)
        traj = _write_json(self.path(f"traj_m{m}_n{steps}.json"),
                           {"truth": truth, "observations": obs,
                            "seed": int(self.seed)})
        stem = self.path(f"smooth_m{m}_n{steps}")
        eye = np.eye(m)
        want = kalman_means(eye, q * eye, eye, r * eye, np.zeros(m), eye,
                            obs)[-1]

        def check(res):
            got = np.asarray(_load(res, ".json")["mode_final"], dtype=float)
            err = float(np.linalg.norm(got - want))
            if not err <= SMOOTH_ATOL * (1.0 + np.linalg.norm(want)):
                return f"4D-Var final mode vs Kalman mean off by {err:.3g}"
            return None

        self.cli("cmd.smooth", f"smooth m={m} n={steps}",
                 ["--command", "smooth", "--m", str(m), "--q", repr(q),
                  "--r", repr(r), "--trajectory", traj, "--out", stem],
                 [stem + ".csv", stem + ".json"], check)

    def filter(self, kind: str, m: int, q: float, r: float, N: int,
               steps: int, n_seeds: int, sigma0: float = 1.0):
        tag = 200 + len(self.ops)
        stem = self.path(f"filter_{kind}_m{m}_{tag}")
        want = iso_sigma_frob(m, q, r, kind)

        def check(res):
            doc = _load(res, ".json")
            err = abs(doc["sigma_frob"] - want) / want
            if not err <= ORACLE_RTOL:
                return f"sigma_frob vs closed form rel err {err:.3g}"
            if len(doc["runs"]) != n_seeds:
                return "filter summary lost a seed"
            return None

        self.cli("cmd.filter", f"filter {kind} m={m} N={N}",
                 ["--command", "filter", "--m", str(m), "--q", repr(q),
                  "--r", repr(r), "--sigma0", repr(sigma0), "--kind", kind,
                  "--particles", str(N), "--steps", str(steps),
                  "--seeds", _seed_list(self.seed, tag, n_seeds),
                  "--out", stem],
                 [stem + ".csv", stem + ".json"], check)

    def sweep(self, kind: str, axis_args: list[str], cells: int, N: int,
              steps: int, n_seeds: int):
        tag = 300 + len(self.ops)
        stem = self.path(f"sweep_{kind}_{tag}")

        def check(res):
            doc = _load(res, ".json")
            if len(doc["cells"]) != cells:
                return f"{len(doc['cells'])} sweep cells, expected {cells}"
            for cell in doc["cells"]:
                if any("error" in run for run in cell["runs"]):
                    return f"sweep cell eps={cell['eps']} m={cell['m']} failed"
                want = iso_sigma_frob(cell["m"], cell["q"], cell["r"], kind)
                err = abs(cell["sigma_frob"] - want) / want
                if not err <= ORACLE_RTOL:
                    return f"cell sigma_frob vs closed form rel err {err:.3g}"
            return None

        self.cli("cmd.collapse-sweep", f"collapse-sweep {kind}",
                 ["--command", "collapse-sweep", "--kind", kind] + axis_args
                 + ["--particles", str(N), "--steps", str(steps),
                    "--seeds", _seed_list(self.seed, tag, n_seeds),
                    "--out", stem],
                 [stem + ".csv", stem + ".json"], check)

    def smoother_sample(self, m: int, n: int, N: int):
        """The library call optimal_smoother_sample (weak constraint)."""
        effdim = self.effdim
        problem = effdim.LinearGaussianProblem.isotropic(m, 1.0, 1.0)
        _, obs = iso_observations(self.seed, 400 + n, m, 1.0, 1.0, n)
        sample_seed = int(_rng(self.seed, 401).integers(2 ** 31 - 1))
        mode = np.asarray(effdim.smoothing.weak_mode(problem, obs))

        def call():
            return effdim.smoothing.optimal_smoother_sample(problem, obs, N,
                                                            sample_seed)

        def check(result):
            samples, weights = result
            if samples.shape != (N, mode.size):
                return f"smoother samples have shape {samples.shape}"
            if not np.allclose(weights, 1.0 / N, rtol=0, atol=1e-15):
                return "smoother weights are not uniform"
            # Every coordinate within 5 standard errors is the intent; with
            # thousands of coordinates that is tested as a chi-square mean
            # within 5 of its standard errors, plus a Bonferroni-safe
            # bound on the worst coordinate.
            se = samples.std(axis=0, ddof=1) / math.sqrt(N)
            z = (samples.mean(axis=0) - mode) / se
            d = z.size
            chi = float(np.mean(z * z))
            if not abs(chi - 1.0) <= 5.0 * math.sqrt(2.0 / d) + 5.0 / N:
                return f"smoother sample mean off weak_mode (chi2/d {chi:.3g})"
            if not float(np.max(np.abs(z))) <= 7.0:
                return "smoother sample mean coordinate beyond 7 SE"
            return None

        def inspect(result):
            digest = hashlib.sha256(np.ascontiguousarray(result[0]))
            return Outcome(check(result), digest.hexdigest(), 0)

        self.ops.append(Op("lib.smoother_sample",
                           f"optimal_smoother_sample m={m} n={n} N={N}",
                           call, inspect))

    # -- workloads ----------------------------------------------------------

    def canary(self, skip: tuple[str, ...]):
        """Smallest invocation of every command group not in ``skip``.

        Each runs CANARY_REPEATS times a pass: at a few milliseconds a
        call, one sample a pass leaves their medians at the mercy of
        scheduler and BLAS-thread jitter.
        """
        first = len(self.ops)
        if "cmd.effdim" not in skip:
            self.effdim_iso(10, 1.0, 1.0)
        if "cli.bounds" not in skip:
            self.bounds(10, 0.5, 1.0)
        if "cmd.map" not in skip:
            self.map("sir", "10", 20)
        if "cli.maxdim" not in skip:
            self.maxdim("optimal", 20)
        if "cmd.smooth" not in skip:
            self.smooth(5, 1.0, 1.0, 10)
        if "cmd.filter" not in skip:
            self.filter("sir", 10, 1.0, 1.0, 100, 10, 1)
            self.filter("optimal", 10, 1.0, 0.1, 100, 10, 1)
        if "cmd.collapse-sweep" not in skip:
            # one cell, so no thread pool: pooled canaries swing with load
            self.sweep("sir", ["--sweep", "m", "--dims", "5", "--q", "1",
                               "--r", "1"], 1, 200, 10, 2)
        if "lib.smoother_sample" not in skip:
            self.smoother_sample(20, 20, 500)
        for op in self.ops[first:]:
            op.repeats = CANARY_REPEATS

    def analysis(self):
        s = self.small
        m = 8 if s else 100
        for q in (1e-4, 1e-2, 1.0):
            self.effdim_iso(m, q, 1.0)
        self.effdim_general(6 if s else 60, 3 if s else 30)
        # X_upper is exact for the isotropic family, so the sandwich holds
        # only within the solver's tolerance; m = 100 at any scale
        self.bounds(100, 1e-2, 1.0)
        for kind in ("feasibility", "optimal", "sir", "strong"):
            self.map(kind, "5,10,100", 20 if s else None)
        for kind in ("optimal", "sir"):
            self.maxdim(kind, 20 if s else 200)
        # (n+1)m = 2000 is the largest dense frob_cov; 50 steps is blockwise
        for steps in ((3, 6) if s else (19, 50)):
            self.smooth(m, 1.0, 1.0, steps)
        self.canary(skip=("cmd.effdim", "cli.bounds", "cmd.map",
                          "cli.maxdim", "cmd.smooth"))

    def montecarlo(self):
        s = self.small
        m, N, steps = (8, 50, 5) if s else (100, 1000, 50)
        self.filter("sir", m, 1.0, 1.0, N, steps, 2)
        self.filter("optimal", m, 1.0, 0.01, N, steps, 2,
                    sigma0=iso_p(1.0, 0.01))
        self.smoother_sample(m, steps, N)
        self.canary(skip=("cmd.filter", "lib.smoother_sample"))

    def sweep_workload(self):
        s = self.small
        self.sweep("optimal", ["--m", "5" if s else "20", "--grid-min", "0.01",
                               "--grid-max", "100", "--grid-points", "9"],
                   9, 20 if s else 200, 5 if s else 20, 2 if s else 8)
        self.sweep("sir", ["--sweep", "m", "--dims", "5,10,20,50", "--q", "1",
                           "--r", "1"],
                   4, 20 if s else 500, 3 if s else 10, 2 if s else 8)
        self.canary(skip=("cmd.collapse-sweep",))


def build(effdim, name: str, workdir: str, seed: int,
          small: bool = False) -> list[Op]:
    """The operations of workload ``name`` with inputs generated from ``seed``."""
    builder = Builder(effdim, workdir, seed, small)
    {"analysis": builder.analysis, "montecarlo": builder.montecarlo,
     "sweep": builder.sweep_workload}[name]()
    return builder.ops


def cold_argvs(workdir: str) -> list[list[str]]:
    """m=1 invocations of every command, for the cold-start subprocess."""
    out = os.path.join(workdir, "cold")
    common = ["--m", "1", "--q", "1", "--r", "1"]
    return [
        ["--command", "effdim", *common, "--out", out + "_effdim.json"],
        ["--command", "bounds", *common, "--out", out + "_bounds.json"],
        ["--command", "map", "--kind", "feasibility", "--dims", "1",
         "--grid-points", "5", "--out", out + "_map.json"],
        ["--command", "maxdim", "--kind", "optimal", "--grid-points", "5",
         "--out", out + "_maxdim.json"],
        ["--command", "smooth", *common, "--steps", "2", "--seeds", "1",
         "--out", out + "_smooth"],
        ["--command", "filter", *common, "--kind", "optimal",
         "--particles", "10", "--steps", "2", "--seeds", "1",
         "--out", out + "_filter"],
        ["--command", "collapse-sweep", "--kind", "sir", "--m", "1",
         "--grid-points", "2", "--particles", "10", "--steps", "2",
         "--seeds", "1", "--out", out + "_sweep"],
    ]
