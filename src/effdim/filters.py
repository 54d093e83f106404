"""Seeded Monte Carlo particle filters and weight-collapse diagnostics.

Two importance functions are implemented for the linear-Gaussian model:

* SIR: propagate through the model, weight by the observation likelihood,
  W ~ N(z; H x', R) evaluated at the propagated particle x'.
* optimal: weight by W ~ N(z; H A x, H Q H' + R) as a function of the
  particle position x at the previous step only, then move the particle
  with a draw from the exact conditional N(mu_j, Sigma_o),
  Sigma_o = (Q^{-1} + H' R^{-1} H)^{-1},
  mu_j = Sigma_o (Q^{-1} A x_j + H' R^{-1} z).

All weight arithmetic is in log space with log-sum-exp normalization;
per-step constants common to every particle are dropped.  Collapse is
diagnosed by the effective sample size, the largest normalized weight
and the variance of the log-weights; the theoretical collapse statistic
||Sigma||_F puts each run on the balance maps:

    optimal:  Sigma = H A P A' H' (H Q H' + R)^{-1}
    SIR:      Sigma = H (Q + A P A') H' R^{-1}

with P the steady-state Kalman posterior covariance.

Noise streams derive from (seed, stage tag, step); the row index of each
vectorized draw is the particle index, so results do not depend on
scheduling.  Resampling is systematic (lowest variance of the standard
schemes).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .kalman import DareConvergenceError, solve_dare
from .model import (LinearGaussianProblem, as_matrix, psd_factor, validate)

PD_COND_LIMIT = 1e14

_TAG_SIM = 0
_TAG_INIT = 1
_TAG_STEP = 2
_TAG_RESAMPLE = 3


class FilterKind(str, enum.Enum):
    SIR = "sir"
    OPTIMAL = "optimal"


class WeightCollapseError(RuntimeError):
    """Total importance weight underflowed to zero."""


def _rng(seed, *key) -> np.random.Generator:
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return np.random.default_rng(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed),
                               spawn_key=tuple(int(k) for k in key)))


def _pd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] <= 0.0 or w[-1] / w[0] > PD_COND_LIMIT:
        raise np.linalg.LinAlgError(what)
    return (V / w) @ V.T


@dataclass(frozen=True)
class ParticleEnsemble:
    """Particle positions plus log-weights at one time step."""

    step: int
    positions: np.ndarray   # (N, m)
    log_weights: np.ndarray  # (N,)
    normalized: bool = False

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def state_dim(self) -> int:
        return self.positions.shape[1]

    def normalize(self) -> "ParticleEnsemble":
        """Shift log-weights so the weights sum to one (log-sum-exp)."""
        total = logsumexp(self.log_weights)
        if not np.isfinite(total):
            raise WeightCollapseError("ensemble collapsed to measure zero")
        return replace(self, log_weights=self.log_weights - total,
                       normalized=True)

    def weights(self) -> np.ndarray:
        """Normalized weights, computed on demand."""
        if self.normalized:
            return np.exp(self.log_weights)
        return np.exp(self.log_weights - logsumexp(self.log_weights))


@dataclass(frozen=True)
class CollapseReport:
    """Collapse diagnostics for one ensemble at one step.

    ``sigma_frob`` is the theoretical steady-state collapse statistic of
    the filter kind; NaN when the caller did not supply one.
    """

    ess: float
    max_weight: float
    var_log_w: float
    sigma_frob: float
    kind: FilterKind | None
    step: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class TrajectoryData:
    """One simulated truth/observation pair, reproducible from its seed."""

    truth: np.ndarray         # (n_steps + 1, m); truth[0] is x^0
    observations: np.ndarray  # (n_steps, k); observations[i] is z^{i+1}
    seed: int

    @property
    def n_steps(self) -> int:
        return self.observations.shape[0]


def simulate(problem: LinearGaussianProblem, n_steps: int,
             seed: int) -> TrajectoryData:
    """Draw x^0 ~ N(mu0, Sigma0) and run the model/data recursions."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    report = validate(problem)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))
    rng = _rng(seed, _TAG_SIM)
    L0 = psd_factor(problem.Sigma0)
    Lq = psd_factor(problem.Q)
    Lr = psd_factor(problem.R)
    m, k = problem.m, problem.k
    truth = np.empty((n_steps + 1, m))
    observations = np.empty((n_steps, k))
    x = problem.mu0 + L0 @ rng.standard_normal(m)
    truth[0] = x
    w = rng.standard_normal((n_steps, m))
    v = rng.standard_normal((n_steps, k))
    for n in range(n_steps):
        x = problem.A @ x + Lq @ w[n]
        truth[n + 1] = x
        observations[n] = problem.H @ x + Lr @ v[n]
    return TrajectoryData(truth=truth, observations=observations,
                          seed=int(seed))


def init_ensemble(problem: LinearGaussianProblem, N: int,
                  seed) -> ParticleEnsemble:
    """N particles from the prior N(mu0, Sigma0) with uniform weights."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = _rng(seed, _TAG_INIT)
    L0 = psd_factor(problem.Sigma0)
    positions = problem.mu0 + rng.standard_normal((N, problem.m)) @ L0.T
    return ParticleEnsemble(step=0, positions=positions,
                            log_weights=np.full(N, -np.log(N)),
                            normalized=True)


def sir_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
             z, seed) -> ParticleEnsemble:
    """Propagate through the model, weight by the observation likelihood.

    The log-weight increment is -0.5 (z - Hx')' R^{-1} (z - Hx') per
    particle (common normalization constant dropped); the returned
    ensemble is unnormalized.
    """
    rng = _rng(seed)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    R_inv = _pd_inverse(problem.R, "R singular")
    Lq = psd_factor(problem.Q)
    noise = rng.standard_normal(ensemble.positions.shape) @ Lq.T
    positions = ensemble.positions @ problem.A.T + noise
    innov = z - positions @ problem.H.T
    incr = -0.5 * np.einsum("ij,ij->i", innov, innov @ R_inv)
    return ParticleEnsemble(step=ensemble.step + 1, positions=positions,
                            log_weights=ensemble.log_weights + incr,
                            normalized=False)


def optimal_log_weight_increment(problem: LinearGaussianProblem,
                                 positions: np.ndarray, z) -> np.ndarray:
    """Optimal-filter log-weight increments: a function of x^n only.

    -0.5 (z - H A x)' (H Q H' + R)^{-1} (z - H A x), constant dropped.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    S = problem.H @ problem.Q @ problem.H.T + problem.R
    S_inv = _pd_inverse(S, "singular HQH'+R")
    innov = z - positions @ (problem.H @ problem.A).T
    return -0.5 * np.einsum("ij,ij->i", innov, innov @ S_inv)


def optimal_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
                 z, seed) -> ParticleEnsemble:
    """Weight by N(z; HAx, HQH'+R), move with the exact conditional draw.

    For positive-definite Q the conditional is N(mu_j, Sigma_o) with
    Sigma_o = (Q^{-1} + H'R^{-1}H)^{-1}; a merely PSD Q falls back to the
    algebraically equivalent innovation form
    mu_j = A x_j + Q H' S^{-1} (z - H A x_j), cov Q - Q H' S^{-1} H Q,
    which needs no Q^{-1} (partial-noise models).
    """
    rng = _rng(seed)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    A, Q, H, R = problem.A, problem.Q, problem.H, problem.R
    incr = optimal_log_weight_increment(problem, ensemble.positions, z)
    wq = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    q_is_pd = wq[0] > 0.0 and wq[-1] / wq[0] <= PD_COND_LIMIT
    if q_is_pd:
        Q_inv = _pd_inverse(Q, "singular Q")
        R_inv = _pd_inverse(R, "R singular")
        Sigma_o = np.linalg.inv(Q_inv + H.T @ R_inv @ H)
        Sigma_o = 0.5 * (Sigma_o + Sigma_o.T)
        mean = (ensemble.positions @ (Sigma_o @ Q_inv @ A).T
                + Sigma_o @ (H.T @ (R_inv @ z)))
        L = psd_factor(Sigma_o)
    else:
        S = H @ Q @ H.T + R
        S_inv = _pd_inverse(S, "singular HQH'+R")
        G = Q @ H.T @ S_inv
        innov = z - ensemble.positions @ (H @ A).T
        mean = ensemble.positions @ A.T + innov @ G.T
        cov = Q - G @ H @ Q
        L = psd_factor(0.5 * (cov + cov.T))
    positions = mean + rng.standard_normal(mean.shape) @ L.T
    return ParticleEnsemble(step=ensemble.step + 1, positions=positions,
                            log_weights=ensemble.log_weights + incr,
                            normalized=False)


def resample(ensemble: ParticleEnsemble, seed) -> ParticleEnsemble:
    """Systematic resampling; the result has uniform weights.

    Expected copy counts equal N * W_j up to the +-1 rounding inherent in
    systematic resampling.  Raises WeightCollapseError when the total
    weight has underflowed to zero.
    """
    rng = _rng(seed)
    norm = ensemble if ensemble.normalized else ensemble.normalize()
    w = np.exp(norm.log_weights)
    cdf = np.cumsum(w)
    N = norm.n_particles
    points = (np.arange(N) + rng.random()) / N
    # point p picks the first i with cdf[i] >= p; the clamp absorbs a
    # cdf top that round-off left just below the last point
    idx = np.minimum(np.searchsorted(cdf, points, side="left"), N - 1)
    return ParticleEnsemble(step=norm.step, positions=norm.positions[idx],
                            log_weights=np.full(N, -np.log(N)),
                            normalized=True)


def diagnostics(ensemble: ParticleEnsemble, kind=None,
                sigma_frob: float = float("nan"),
                step: int | None = None) -> CollapseReport:
    """ESS, max normalized weight, and variance of the raw log-weights."""
    if ensemble.n_particles < 2:
        raise ValueError("diagnostics need at least 2 particles")
    w = ensemble.weights()
    ess = 1.0 / float(np.sum(w ** 2))
    max_weight = float(np.max(w))
    lw = ensemble.log_weights
    finite = np.isfinite(lw)
    if np.count_nonzero(finite) >= 2:
        var_log_w = float(np.var(lw[finite], ddof=1))
    else:
        var_log_w = float("inf")
    return CollapseReport(ess=ess, max_weight=max_weight,
                          var_log_w=var_log_w, sigma_frob=float(sigma_frob),
                          kind=FilterKind(kind) if kind is not None else None,
                          step=ensemble.step if step is None else step)


def collapse_stat(problem: LinearGaussianProblem, P, kind) -> float:
    """||Sigma||_F of the collapse statistic for the given filter kind.

    P is typically the steady-state posterior covariance from the Kalman
    recursion.
    """
    kind = FilterKind(kind)
    Pa = as_matrix(P)
    A, Q, H, R = problem.A, problem.Q, problem.H, problem.R
    APA = A @ Pa @ A.T
    if kind is FilterKind.OPTIMAL:
        S = H @ Q @ H.T + R
        S_inv = _pd_inverse(S, "singular HQH'+R")
        Sigma = H @ APA @ H.T @ S_inv
    else:
        R_inv = _pd_inverse(R, "R singular")
        Sigma = H @ (Q + APA) @ H.T @ R_inv
    return float(np.linalg.norm(Sigma))


@dataclass(frozen=True)
class FilterRun:
    """Per-step collapse reports plus the weighted filter mean per step."""

    kind: FilterKind
    seed: int
    n_particles: int
    resample_every: int
    reports: list[CollapseReport]
    means: np.ndarray  # (n_reported_steps, m), weighted mean before resampling
    trajectory: TrajectoryData
    sigma_frob: float
    degenerate: bool = False


def run_filter(problem: LinearGaussianProblem, kind, n_steps: int, N: int,
               seed: int, resample_every: int = 1) -> FilterRun:
    """Full seeded filtering run over a freshly simulated trajectory.

    A total-weight underflow does not raise: the run stops with a final
    report flagged ``degenerate``.
    """
    kind = FilterKind(kind)
    if N < 2:
        raise ValueError("N must be >= 2")
    if resample_every < 1:
        raise ValueError("resample_every must be >= 1")
    trajectory = simulate(problem, n_steps, seed)
    ensemble = init_ensemble(problem, N, seed)
    try:
        steady = solve_dare(problem)
        sigma_frob = collapse_stat(problem, steady.P, kind)
    except (DareConvergenceError, np.linalg.LinAlgError):
        sigma_frob = float("nan")
    step_fn = sir_step if kind is FilterKind.SIR else optimal_step
    reports: list[CollapseReport] = []
    means = np.empty((n_steps, problem.m))
    degenerate = False
    n_done = 0
    for n in range(n_steps):
        z = trajectory.observations[n]
        step_seed = np.random.SeedSequence(entropy=int(seed),
                                           spawn_key=(_TAG_STEP, n))
        ensemble = step_fn(problem, ensemble, z, step_seed)
        try:
            norm = ensemble.normalize()
        except WeightCollapseError:
            reports.append(CollapseReport(
                ess=1.0, max_weight=1.0, var_log_w=float("inf"),
                sigma_frob=sigma_frob, kind=kind, step=n + 1,
                degenerate=True))
            degenerate = True
            break
        means[n] = norm.weights() @ norm.positions
        n_done = n + 1
        reports.append(diagnostics(ensemble, kind=kind,
                                   sigma_frob=sigma_frob, step=n + 1))
        if (n + 1) % resample_every == 0:
            resample_seed = np.random.SeedSequence(
                entropy=int(seed), spawn_key=(_TAG_RESAMPLE, n))
            ensemble = resample(norm, resample_seed)
        else:
            ensemble = norm
    return FilterRun(kind=kind, seed=int(seed), n_particles=N,
                     resample_every=resample_every, reports=reports,
                     means=means[:n_done], trajectory=trajectory,
                     sigma_frob=sigma_frob, degenerate=degenerate)


# ---------------------------------------------------------------------------
# TrajectoryData JSON interchange.

_TRAJECTORY_KEYS = ("truth", "observations", "seed")


def trajectory_to_json(trajectory: TrajectoryData, indent: int = 2) -> str:
    doc = {
        "truth": trajectory.truth.tolist(),
        "observations": trajectory.observations.tolist(),
        "seed": trajectory.seed,
    }
    return json.dumps(doc, indent=indent)


def trajectory_from_json(text: str) -> TrajectoryData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("invalid JSON: expected a top-level object")
    missing = [key for key in _TRAJECTORY_KEYS if key not in doc]
    if missing:
        raise ValueError(f"trajectory JSON missing key: {missing[0]}")
    truth = np.atleast_2d(np.asarray(doc["truth"], dtype=float))
    observations = np.atleast_2d(np.asarray(doc["observations"], dtype=float))
    return TrajectoryData(truth=truth, observations=observations,
                          seed=int(doc["seed"]))
