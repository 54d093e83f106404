"""Shared helpers for the test suite."""

import dataclasses
import json
from contextlib import contextmanager

import numpy as np

from cli_battery import PROBLEMS
from effdim import filters, model
from effdim.filters import (_TAG_RESAMPLE, _TAG_STEP, CollapseReport,
                            FilterKind, TrajectoryData, WeightCollapseError,
                            _log_likelihood, init_ensemble, optimal_step,
                            resample, simulate, sir_step, step_plan)
from effdim.kalman import SteadyState
from effdim.model import LinearGaussianProblem, SymMatrix


def random_spd(rng, m, scale=1.0):
    L = rng.standard_normal((m, m))
    return scale * (L @ L.T / m + 0.1 * np.eye(m))


def random_orthogonal(rng, m):
    M = rng.standard_normal((m, m))
    U, _ = np.linalg.qr(M)
    return U


def random_problem(rng, m=None, k=None, symmetric_a=False, radius=0.9):
    """A random detectable instance: stable A, PD Q and R, full-rank H.

    Stability of A makes the pair (H, A) detectable for any H and the
    PD Q makes (A, Q^{1/2}) stabilizable, so the DARE iteration converges.
    """
    if m is None:
        m = int(rng.integers(1, 9))
    if k is None:
        k = m
    A = rng.standard_normal((m, m))
    if symmetric_a:
        A = 0.5 * (A + A.T)
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho > 0:
        A = A * (radius * rng.uniform(0.3, 1.0) / rho)
    H = rng.standard_normal((k, m))
    return LinearGaussianProblem(
        A=A, Q=random_spd(rng, m), H=H, R=random_spd(rng, k),
        mu0=rng.standard_normal(m), Sigma0=random_spd(rng, m))


# powers of two by which the scale-covariance tests multiply Q, R, Sigma0
SCALES = tuple(s * j for j in (300, 500, 700, 900, 1000) for s in (1, -1))


def scale_problems() -> dict:
    """The battery's dense, dense8, diagonal and stable problems, and an
    isotropic m = 5 problem."""
    problems = {name: LinearGaussianProblem(**PROBLEMS[name])
                for name in ("dense", "dense8", "diagonal", "stable")}
    problems["isotropic"] = LinearGaussianProblem.isotropic(5, 0.3, 1.7, 0.9)
    return problems


def scaled(problem: LinearGaussianProblem, j: int) -> LinearGaussianProblem:
    """The problem with Q, R and Sigma0 multiplied by 2^j, exactly."""
    return dataclasses.replace(problem, Q=np.ldexp(problem.Q, j),
                               R=np.ldexp(problem.R, j),
                               Sigma0=np.ldexp(problem.Sigma0, j))


def kalman_filter_means(problem: LinearGaussianProblem,
                        observations) -> np.ndarray:
    """Kalman filter posterior means mu_0..mu_n (equivalence oracle).

    The smoothing tests compare the final 4D-Var block against mu_n, and
    the filter tests compare particle means against it.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    mu = problem.mu0.copy()
    P = problem.Sigma0.copy()
    A, Q, H, R = problem.A, problem.Q, problem.H, problem.R
    means = [mu.copy()]
    eye = np.eye(problem.m)
    for z in observations:
        X = A @ P @ A.T + Q
        S = H @ X @ H.T + R
        K = np.linalg.solve(S, H @ X).T
        mu = A @ mu + K @ (z - H @ (A @ mu))
        P = (eye - K @ H) @ X
        P = 0.5 * (P + P.T)
        means.append(mu.copy())
    return np.asarray(means)


def dense_precision(posterior) -> np.ndarray:
    """The dense (n+1)m x (n+1)m precision of a WeakConstraintPosterior.

    The oracle for the blockwise weak-constraint computations: tests
    invert or factor it directly.
    """
    diag, off = posterior.diag_blocks, posterior.off_block
    if off.ndim == 1:  # blocks stored as their diagonals
        diag, off = np.array([np.diag(d) for d in diag]), np.diag(off)
    n1, m, _ = diag.shape
    out = np.zeros((n1 * m, n1 * m))
    for i in range(n1):
        out[i * m:(i + 1) * m, i * m:(i + 1) * m] = diag[i]
    for i in range(n1 - 1):
        out[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = off
        out[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = off.T
    return out


@contextmanager
def dense_path():
    """Run effdim with every matrix in dense storage.

    ``model.storage`` asks ``model.diagonal`` for each matrix, so a
    ``diagonal`` that finds none keeps every computation dense: the
    reference the diagonal form is checked against.
    """
    original = model.diagonal
    model.diagonal = lambda M: None
    try:
        yield
    finally:
        model.diagonal = original


def optimal_log_weight_increment(problem: LinearGaussianProblem,
                                 positions: np.ndarray, z) -> np.ndarray:
    """Optimal-filter log-weight increments: a function of x^n only.

    -0.5 (z - H A x)' (H Q H' + R)^{-1} (z - H A x), constant dropped.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    plan = step_plan(problem, FilterKind.OPTIMAL, float("nan"))
    innov = np.empty(positions.shape[:-1] + z.shape)
    return _log_likelihood(positions, z, plan.HA_T, plan.S_inv, innov,
                           np.empty_like(innov))


def trajectory_to_json(trajectory: TrajectoryData, indent: int = 2) -> str:
    doc = {
        "truth": trajectory.truth.tolist(),
        "observations": trajectory.observations.tolist(),
        "seed": trajectory.seed,
    }
    return json.dumps(doc, indent=indent)


def _tolist(value):
    """A SymMatrix or an array as its nested lists, for json's default."""
    return (value.a if isinstance(value, SymMatrix) else value).tolist()


def steady_state_to_json(state: SteadyState, indent: int = 2) -> str:
    doc = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    return json.dumps(doc, indent=indent, default=_tolist)


def _generator(seed: int, *key) -> np.random.Generator:
    """Seed ``seed``'s generator for spawn ``key``, made as the module
    docstring of :mod:`effdim.filters` states."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=key))


def serial_run_filter(problem: LinearGaussianProblem, kind, n_steps: int,
                      N: int, seed: int, resample_every: int = 1):
    """One seed's filter run, step by step on its own (N, m) ensemble:
    the oracle for the batched ``filters.run_filters``.

    Built from the public simulate, init_ensemble, step_plan, steps,
    normalize and resample alone, with each report's reductions in their
    1-D form.  Returns (reports, means, trajectory).
    """
    kind = FilterKind(kind)
    trajectory = simulate(problem, n_steps, seed)
    ensemble = init_ensemble(problem, N, seed)
    plan = step_plan(problem, kind)
    step = sir_step if kind is FilterKind.SIR else optimal_step
    reports, means = [], []
    for n in range(n_steps):
        ensemble = step(problem, ensemble, trajectory.observations[n],
                        _generator(seed, _TAG_STEP, n), plan=plan)
        try:
            norm = ensemble.normalize()
        except WeightCollapseError:
            reports.append(CollapseReport(
                ess=1.0, max_weight=1.0, var_log_w=float("inf"),
                sigma_frob=plan.sigma_frob, kind=kind, step=n + 1,
                degenerate=True))
            break
        weights = np.exp(norm.log_weights)
        mean = weights @ norm.positions
        if not np.isfinite(mean).all():  # a weight-0 particle adds nothing
            mean = weights @ np.where(weights[:, None] == 0.0, 0.0,
                                      norm.positions)
        means.append(mean)
        finite = np.isfinite(ensemble.log_weights)
        var_log_w = (float(np.var(ensemble.log_weights[finite], ddof=1))
                     if np.count_nonzero(finite) >= 2 else float("inf"))
        reports.append(CollapseReport(
            ess=1.0 / float(np.sum(weights ** 2)),
            max_weight=float(np.max(weights)), var_log_w=var_log_w,
            sigma_frob=float(plan.sigma_frob), kind=kind, step=n + 1))
        if (n + 1) % resample_every == 0:
            ensemble = resample(norm, _generator(seed, _TAG_RESAMPLE, n))
        else:
            ensemble = norm
    return reports, np.reshape(means, (-1, problem.m)), trajectory


def batch_widths(monkeypatch) -> list:
    """The number of plans of each batch the filters run from now on."""
    widths = []
    run_batch = filters._run_batch

    def spy(problems, plans, *args):
        widths.append(len(plans))
        return run_batch(problems, plans, *args)

    monkeypatch.setattr(filters, "_run_batch", spy)
    return widths
