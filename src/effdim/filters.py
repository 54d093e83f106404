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

When every matrix a computation uses is diagonal, it runs on the
matrices' 1-D diagonals elementwise (see :func:`effdim.model.storage`),
and the collapse statistic of a diagonal problem comes from the closed
form of each component's scalar DARE instead of SDA.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace

import numpy as np

from ._util import logsumexp
from .kalman import DareConvergenceError, solve_dare
from .model import (LinearGaussianProblem, frobenius, inverse, mul,
                    pd_inverse, psd_factor, storage, validate)

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


def simulate(problem: LinearGaussianProblem, n_steps: int,
             seed: int) -> TrajectoryData:
    """Draw x^0 ~ N(mu0, Sigma0) and run the model/data recursions."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    report = validate(problem)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))
    rng = _rng(seed, _TAG_SIM)
    A, Q, H, R, Sigma0 = storage(problem.A, problem.Q, problem.H, problem.R,
                                 problem.Sigma0)
    L0_T = psd_factor(Sigma0).T
    Lq_T = psd_factor(Q).T
    Lr_T = psd_factor(R).T
    m, k = problem.m, problem.k
    truth = np.empty((n_steps + 1, m))
    observations = np.empty((n_steps, k))
    x = problem.mu0 + mul(rng.standard_normal(m), L0_T)
    truth[0] = x
    w = rng.standard_normal((n_steps, m))
    v = rng.standard_normal((n_steps, k))
    for n in range(n_steps):
        x = mul(x, A.T) + mul(w[n], Lq_T)
        truth[n + 1] = x
        observations[n] = mul(x, H.T) + mul(v[n], Lr_T)
    return TrajectoryData(truth=truth, observations=observations,
                          seed=int(seed))


def init_ensemble(problem: LinearGaussianProblem, N: int,
                  seed) -> ParticleEnsemble:
    """N particles from the prior N(mu0, Sigma0) with uniform weights."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = _rng(seed, _TAG_INIT)
    (Sigma0,) = storage(problem.Sigma0)
    positions = problem.mu0 + mul(rng.standard_normal((N, problem.m)),
                                  psd_factor(Sigma0).T)
    return ParticleEnsemble(step=0, positions=positions,
                            log_weights=np.full(N, -np.log(N)),
                            normalized=True)


@dataclass(frozen=True)
class StepPlan:
    """What every step of one filter kind on one problem reuses.

    ``A_T`` and ``H_T`` are A' and H'.  ``L_T`` is L' for the move noise
    L L' (Q, or the optimal conditional covariance); ``mean_T`` is
    (Sigma_o Q^{-1} A)'.  A PSD-only Q leaves the optimal filter in
    innovation form, with ``G_T`` = (Q H' S^{-1})'.  When A, Q, H and R
    are all diagonal, every matrix is stored as its 1-D diagonal.
    """

    kind: FilterKind
    sigma_frob: float  # steady-state collapse statistic, NaN if none
    A_T: np.ndarray
    H_T: np.ndarray
    L_T: np.ndarray
    R_inv: np.ndarray | None = None
    S_inv: np.ndarray | None = None
    HA_T: np.ndarray | None = None
    Sigma_o: np.ndarray | None = None
    mean_T: np.ndarray | None = None
    G_T: np.ndarray | None = None


def _steady_posterior(A, Q, H, R) -> np.ndarray:
    """Steady posterior variances of independent scalar components.

    Each component's prior x solves h^2 x^2 + (r(1 - a^2) - q h^2) x - q r
    = 0, whose positive root is taken without cancellation; the
    posterior is x r / (h^2 x + r).  Needs q > 0 and h != 0.
    """
    h2 = H * H
    b = R * (1.0 - A * A) - Q * h2
    disc = np.hypot(b, 2.0 * np.abs(H) * np.sqrt(Q) * np.sqrt(R))
    x = np.where(b > 0.0, 2.0 * Q * R / (b + disc), (disc - b) / (2.0 * h2))
    return x * R / (h2 * x + R)


def steady_collapse_stat(problem: LinearGaussianProblem, kind) -> float:
    """:func:`collapse_stat` at the steady state; NaN if none exists.

    A diagonal problem (k = m) with q > 0 and h != 0 in every component
    takes its steady state from the per-component closed form; any other
    problem solves the DARE by SDA.
    """
    A, Q, H, R = storage(problem.A, problem.Q, problem.H, problem.R)
    try:
        if A.ndim == 1 and np.all(Q > 0.0) and np.all(H != 0.0):
            with np.errstate(all="ignore"):
                P = _steady_posterior(A, Q, H, R)
            if np.all(np.isfinite(P)):
                return collapse_stat(problem, P, kind)
        return collapse_stat(problem, solve_dare(problem).P, kind)
    except (DareConvergenceError, np.linalg.LinAlgError):
        return float("nan")


def step_plan(problem: LinearGaussianProblem, kind,
              sigma_frob: float | None = None) -> StepPlan:
    """Factor a validated problem once for a ``kind`` filter's steps.

    A missing factor raises LinAlgError.  ``sigma_frob=None`` computes
    :func:`steady_collapse_stat`; a given value is carried.
    """
    kind = FilterKind(kind)
    if sigma_frob is None:
        sigma_frob = steady_collapse_stat(problem, kind)
    A, Q, H, R = storage(problem.A, problem.Q, problem.H, problem.R)
    common = dict(kind=kind, sigma_frob=sigma_frob, A_T=A.T, H_T=H.T)
    if kind is FilterKind.SIR:
        return StepPlan(**common, R_inv=pd_inverse(R, "R singular"),
                        L_T=psd_factor(Q).T)
    S_inv = pd_inverse(mul(mul(H, Q), H.T) + R, "singular HQH'+R")
    HA_T = mul(H, A).T
    try:
        Q_inv = pd_inverse(Q, "singular Q")
    except np.linalg.LinAlgError:
        G = mul(mul(Q, H.T), S_inv)
        cov = Q - mul(mul(G, H), Q)
        return StepPlan(**common, S_inv=S_inv, HA_T=HA_T, G_T=G.T,
                        L_T=psd_factor(0.5 * (cov + cov.T)).T)
    R_inv = pd_inverse(R, "R singular")
    Sigma_o = inverse(Q_inv + mul(mul(H.T, R_inv), H))
    Sigma_o = 0.5 * (Sigma_o + Sigma_o.T)
    return StepPlan(**common, S_inv=S_inv, HA_T=HA_T, R_inv=R_inv,
                    Sigma_o=Sigma_o, mean_T=mul(mul(Sigma_o, Q_inv), A).T,
                    L_T=psd_factor(Sigma_o).T)


def _spare(buffer: np.ndarray, shape) -> np.ndarray | None:
    """``buffer`` if it has ``shape``, for reuse as an output, else None.

    A step reuses its spent (N, m) arrays: on this scale a fresh array
    costs about as much as the arithmetic that fills it.
    """
    return buffer if buffer.shape == shape else None


def _log_likelihood(x, z, obs_T, W_inv, out=None):
    """Innovations z - x obs_T and log-weights -0.5 innov' W_inv innov.

    The innovations go to ``out`` when given.
    """
    innov = mul(x, obs_T, out=out)
    np.subtract(z, innov, out=innov)
    return innov, -0.5 * np.einsum("ij,ij->i", innov, mul(innov, W_inv))


def sir_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
             z, seed, plan: StepPlan | None = None) -> ParticleEnsemble:
    """Propagate through the model, weight by the observation likelihood.

    The log-weight increment is -0.5 (z - Hx')' R^{-1} (z - Hx') per
    particle (common normalization constant dropped); the returned
    ensemble is unnormalized.  Without a ``plan`` one is factored here.
    """
    rng = _rng(seed)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    plan = plan or step_plan(problem, FilterKind.SIR, float("nan"))
    noise = rng.standard_normal(ensemble.positions.shape)
    mul(noise, plan.L_T, out=noise)
    positions = mul(ensemble.positions, plan.A_T)
    positions += noise
    _, incr = _log_likelihood(positions, z, plan.H_T, plan.R_inv,
                              out=_spare(noise, (noise.shape[0], z.size)))
    return ParticleEnsemble(step=ensemble.step + 1, positions=positions,
                            log_weights=ensemble.log_weights + incr,
                            normalized=False)


def optimal_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
                 z, seed, plan: StepPlan | None = None) -> ParticleEnsemble:
    """Weight by N(z; HAx, HQH'+R), move with the exact conditional draw.

    For positive-definite Q the conditional is N(mu_j, Sigma_o) with
    Sigma_o = (Q^{-1} + H'R^{-1}H)^{-1}; a merely PSD Q falls back to the
    algebraically equivalent innovation form
    mu_j = A x_j + Q H' S^{-1} (z - H A x_j), cov Q - Q H' S^{-1} H Q,
    which needs no Q^{-1} (partial-noise models).  Without a ``plan``
    one is factored here.
    """
    rng = _rng(seed)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    plan = plan or step_plan(problem, FilterKind.OPTIMAL, float("nan"))
    x = ensemble.positions
    innov, incr = _log_likelihood(x, z, plan.HA_T, plan.S_inv)
    if plan.G_T is None:
        # Sigma_o (H' (R^{-1} z)) as a row vector, in that association
        data = mul(mul(mul(z, plan.R_inv.T), plan.H_T.T), plan.Sigma_o.T)
        positions = mul(x, plan.mean_T)
        positions += data
    else:
        positions = mul(x, plan.A_T)
        positions += mul(innov, plan.G_T, out=_spare(innov, positions.shape))
    noise = rng.standard_normal(positions.shape,
                                out=_spare(innov, positions.shape))
    positions += mul(noise, plan.L_T, out=noise)
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


def _report(weights: np.ndarray, log_weights: np.ndarray, kind,
            sigma_frob: float, step: int) -> CollapseReport:
    """ESS and max weight of normalized ``weights``; variance of the raw
    ``log_weights``."""
    ess = 1.0 / float(np.sum(weights ** 2))
    max_weight = float(np.max(weights))
    finite = np.isfinite(log_weights)
    if np.count_nonzero(finite) >= 2:
        var_log_w = float(np.var(log_weights[finite], ddof=1))
    else:
        var_log_w = float("inf")
    return CollapseReport(ess=ess, max_weight=max_weight,
                          var_log_w=var_log_w, sigma_frob=float(sigma_frob),
                          kind=FilterKind(kind) if kind is not None else None,
                          step=step)


def diagnostics(ensemble: ParticleEnsemble, kind=None,
                sigma_frob: float = float("nan"),
                step: int | None = None) -> CollapseReport:
    """ESS, max normalized weight, and variance of the raw log-weights."""
    if ensemble.n_particles < 2:
        raise ValueError("diagnostics need at least 2 particles")
    return _report(ensemble.weights(), ensemble.log_weights, kind,
                   sigma_frob, ensemble.step if step is None else step)


def collapse_stat(problem: LinearGaussianProblem, P, kind) -> float:
    """||Sigma||_F of the collapse statistic for the given filter kind.

    P is typically the steady-state posterior covariance from the Kalman
    recursion.
    """
    kind = FilterKind(kind)
    A, Q, H, R, P = storage(problem.A, problem.Q, problem.H, problem.R, P)
    APA = mul(mul(A, P), A.T)
    if kind is FilterKind.OPTIMAL:
        S_inv = pd_inverse(mul(mul(H, Q), H.T) + R, "singular HQH'+R")
        Sigma = mul(mul(mul(H, APA), H.T), S_inv)
    else:
        Sigma = mul(mul(mul(H, Q + APA), H.T), pd_inverse(R, "R singular"))
    return frobenius(Sigma)


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
    plan: StepPlan  # reusable for further seeds on the same problem
    degenerate: bool = False
    sigma_frob = property(lambda self: self.plan.sigma_frob)


def run_filter(problem: LinearGaussianProblem, kind, n_steps: int, N: int,
               seed: int, resample_every: int = 1,
               plan: StepPlan | None = None) -> FilterRun:
    """Full seeded filtering run over a freshly simulated trajectory.

    The steps share ``plan``; without one, a plan is built once the
    problem has passed validation.  A total-weight underflow does not
    raise: the run stops with a final report flagged ``degenerate``.
    """
    kind = FilterKind(kind)
    if N < 2:
        raise ValueError("N must be >= 2")
    if resample_every < 1:
        raise ValueError("resample_every must be >= 1")
    if plan is not None and plan.kind is not kind:
        raise ValueError(f"plan is for the {plan.kind.value} filter")
    trajectory = simulate(problem, n_steps, seed)
    ensemble = init_ensemble(problem, N, seed)
    plan = plan or step_plan(problem, kind)
    sigma_frob = plan.sigma_frob
    step_fn = sir_step if kind is FilterKind.SIR else optimal_step
    reports: list[CollapseReport] = []
    means = np.empty((n_steps, problem.m))
    degenerate = False
    n_done = 0
    for n in range(n_steps):
        z = trajectory.observations[n]
        step_seed = np.random.SeedSequence(entropy=int(seed),
                                           spawn_key=(_TAG_STEP, n))
        ensemble = step_fn(problem, ensemble, z, step_seed, plan=plan)
        try:
            norm = ensemble.normalize()
        except WeightCollapseError:
            reports.append(CollapseReport(
                ess=1.0, max_weight=1.0, var_log_w=float("inf"),
                sigma_frob=sigma_frob, kind=kind, step=n + 1,
                degenerate=True))
            degenerate = True
            break
        weights = norm.weights()
        means[n] = weights @ norm.positions
        n_done = n + 1
        reports.append(_report(weights, ensemble.log_weights, kind,
                               sigma_frob, n + 1))
        if (n + 1) % resample_every == 0:
            resample_seed = np.random.SeedSequence(
                entropy=int(seed), spawn_key=(_TAG_RESAMPLE, n))
            ensemble = resample(norm, resample_seed)
        else:
            ensemble = norm
    return FilterRun(kind=kind, seed=int(seed), n_particles=N,
                     resample_every=resample_every, reports=reports,
                     means=means[:n_done], trajectory=trajectory,
                     plan=plan, degenerate=degenerate)


# ---------------------------------------------------------------------------
# TrajectoryData JSON interchange.

_TRAJECTORY_KEYS = ("truth", "observations", "seed")


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
