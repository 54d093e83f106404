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

The seeds of one problem run together: :func:`run_filters` stacks the
ensembles of S seeds on a leading axis, positions (S, N, m) and
log-weights (S, N), and the steps, resampling and reports work on every
row at once.  Each seed draws its noise from its own streams into its
own row, products are stacked per row and reductions run along each
row, so a seed's run is bit for bit the same whichever seeds share its
batch; :func:`run_filter` is the one-seed case.  When each batch holds
one seed and the problem runs elementwise (below), the batches run on a
thread per CPU; every other run takes its batches one after another.
Dense plans already spread their products over BLAS's threads, and
batches of several seeds are too small to gain from threads.  Since each
batch draws from its own seeds' streams alone, the results do not depend
on the thread count.

When every matrix a computation uses is diagonal, it runs on the
matrices' 1-D diagonals elementwise (see :func:`effdim.model.storage`),
and the collapse statistic of a diagonal problem comes from the closed
form of each component's scalar DARE instead of SDA.
"""

from __future__ import annotations

import contextvars
import enum
import json
import os
from concurrent.futures import ThreadPoolExecutor
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

# Largest S * N * m of one batch of seeds.  A batch pays each step's
# Python work once for all its seeds: timed on collapse-sweep cells, 8
# seeds ran 20-40 % faster in batches, and two seeds of N m = 10^5 ran
# no faster together than apart.  Batches beyond 2^16 elements saved no
# more time and raised the peak memory.
BATCH_ELEMENTS = 2 ** 16


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


def _generators(seed, positions: np.ndarray) -> list:
    """The generator of each ensemble in ``positions``: ``seed`` for an
    (N, m) ensemble, ``seed[s]`` for row s of an (S, N, m) batch."""
    return [_rng(s) for s in (seed if positions.ndim == 3 else (seed,))]


def _normals(generators, out: np.ndarray) -> np.ndarray:
    """Standard normals into ``out``, row s from ``generators[s]``."""
    rows = out.reshape(len(generators), -1)
    for rng, row in zip(generators, rows, strict=True):
        rng.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class ParticleEnsemble:
    """Particle positions plus log-weights at one time step.

    A batch of S ensembles of one problem stacks them on a leading axis;
    every method works on each row.
    """

    step: int
    positions: np.ndarray   # (N, m), or (S, N, m) for a batch
    log_weights: np.ndarray  # (N,), or (S, N)
    normalized: bool = False

    @property
    def n_particles(self) -> int:
        return self.positions.shape[-2]

    def normalize(self) -> "ParticleEnsemble":
        """Shift log-weights so the weights sum to one (log-sum-exp)."""
        total = logsumexp(self.log_weights)
        if not np.all(np.isfinite(total)):
            raise WeightCollapseError("ensemble collapsed to measure zero")
        return replace(self, log_weights=self.log_weights
                       - np.expand_dims(total, -1), normalized=True)

    def weights(self) -> np.ndarray:
        """Normalized weights, computed on demand."""
        if self.normalized:
            return np.exp(self.log_weights)
        return np.exp(self.log_weights
                      - np.expand_dims(logsumexp(self.log_weights), -1))


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


def _check(problem: LinearGaussianProblem) -> None:
    report = validate(problem)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))


def _model_factors(problem: LinearGaussianProblem) -> tuple:
    """(A', H', L0', Lq', Lr') for :func:`simulate`, L L' factoring
    Sigma0, Q and R, all in the storage form of the five matrices."""
    A, Q, H, R, Sigma0 = storage(problem.A, problem.Q, problem.H, problem.R,
                                 problem.Sigma0)
    return (A.T, H.T, psd_factor(Sigma0).T, psd_factor(Q).T,
            psd_factor(R).T)


def _simulate(mu0: np.ndarray, factors: tuple, n_steps: int,
              seeds) -> list[TrajectoryData]:
    """One trajectory per seed, the seeds' states stacked as (S, 1, m).

    Each seed draws x^0, then every model noise, then every data noise,
    from its own stream; the (1, m) rows keep every product a
    vector-matrix product, as for one seed alone.
    """
    A_T, H_T, L0_T, Lq_T, Lr_T = factors
    S, m, k = len(seeds), mu0.size, Lr_T.shape[0]
    x0 = np.empty((S, 1, m))
    w = np.empty((S, n_steps, m))
    v = np.empty((S, n_steps, k))
    for s, seed in enumerate(seeds):
        rng = _rng(seed, _TAG_SIM)
        for out in (x0[s], w[s], v[s]):
            rng.standard_normal(out=out)
    truth = np.empty((S, n_steps + 1, m))
    observations = np.empty((S, n_steps, k))
    x = mu0 + mul(x0, L0_T)
    truth[:, 0] = x[:, 0]
    for n in range(n_steps):
        x = mul(x, A_T) + mul(w[:, n, None], Lq_T)
        truth[:, n + 1] = x[:, 0]
        observations[:, n] = (mul(x, H_T) + mul(v[:, n, None], Lr_T))[:, 0]
    return [TrajectoryData(truth=truth[s], observations=observations[s],
                           seed=int(seed)) for s, seed in enumerate(seeds)]


def simulate(problem: LinearGaussianProblem, n_steps: int,
             seed: int) -> TrajectoryData:
    """Draw x^0 ~ N(mu0, Sigma0) and run the model/data recursions."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check(problem)
    return _simulate(problem.mu0, _model_factors(problem), n_steps,
                     [seed])[0]


def _prior_factor(problem: LinearGaussianProblem) -> np.ndarray:
    """L0' with L0 L0' = Sigma0, in Sigma0's own storage form."""
    (Sigma0,) = storage(problem.Sigma0)
    return psd_factor(Sigma0).T


def _prior_positions(mu0: np.ndarray, prior_T: np.ndarray, N: int,
                     seeds) -> np.ndarray:
    """(S, N, m) draws from N(mu0, Sigma0), row s from seed s."""
    noise = _normals([_rng(seed, _TAG_INIT) for seed in seeds],
                     np.empty((len(seeds), N, mu0.size)))
    positions = mul(noise, prior_T, out=noise)
    positions += mu0
    return positions


def init_ensemble(problem: LinearGaussianProblem, N: int,
                  seed) -> ParticleEnsemble:
    """N particles from the prior N(mu0, Sigma0) with uniform weights."""
    if N < 1:
        raise ValueError("N must be >= 1")
    positions = _prior_positions(problem.mu0, _prior_factor(problem), N,
                                 [seed])[0]
    return ParticleEnsemble(step=0, positions=positions,
                            log_weights=np.full(N, -np.log(N)),
                            normalized=True)


@dataclass(frozen=True)
class StepPlan:
    """What every run of one filter kind on one problem reuses.

    ``A_T`` and ``H_T`` are A' and H'.  ``L_T`` is L' for the move noise
    L L' (Q, or the optimal conditional covariance); ``mean_T`` is
    (Sigma_o Q^{-1} A)'.  A PSD-only Q leaves the optimal filter in
    innovation form, with ``G_T`` = (Q H' S^{-1})'.  When A, Q, H and R
    are all diagonal, every matrix is stored as its 1-D diagonal.
    ``prior_T`` factors Sigma0 for the initial ensemble, and ``model``
    holds the factors the truth and data are simulated with (see
    :func:`simulate`); each keeps the storage form its own matrices give.
    """

    kind: FilterKind
    sigma_frob: float  # steady-state collapse statistic, NaN if none
    A_T: np.ndarray
    H_T: np.ndarray
    L_T: np.ndarray
    prior_T: np.ndarray
    model: tuple  # (A', H', L0', Lq', Lr')
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
    """Factor a validated problem once for a ``kind`` filter's runs.

    A missing factor raises LinAlgError; Sigma0, Q and R are factored
    first.  ``sigma_frob=None`` computes :func:`steady_collapse_stat`; a
    given value is carried.
    """
    kind = FilterKind(kind)
    model = _model_factors(problem)
    prior_T = _prior_factor(problem)
    if sigma_frob is None:
        sigma_frob = steady_collapse_stat(problem, kind)
    A, Q, H, R = storage(problem.A, problem.Q, problem.H, problem.R)
    common = dict(kind=kind, sigma_frob=sigma_frob, A_T=A.T, H_T=H.T,
                  prior_T=prior_T, model=model)
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


def _head(buffer: np.ndarray, k: int) -> np.ndarray:
    """The leading elements of contiguous ``buffer`` as its shape with the
    last axis cut to ``k`` entries: room for the (..., k) data vectors
    of the (..., m) particles."""
    shape = buffer.shape[:-1] + (k,)
    return buffer.reshape(-1)[:int(np.prod(shape))].reshape(shape)


def _workspace(work, positions: np.ndarray, count: int) -> tuple:
    """The first ``count`` arrays of ``work``, else fresh ones, shaped like
    ``positions``.

    Runs reuse one workspace: on this scale a fresh array costs about as
    much as the arithmetic that fills it, mostly in page faults.
    """
    if work is None:
        return tuple(np.empty(positions.shape) for _ in range(count))
    return tuple(work[:count])


def _log_likelihood(x, z, obs_T, W_inv, innov, work):
    """Innovations z - x obs_T into ``innov``, and the log-weights
    -0.5 innov' W_inv innov, with ``work`` as scratch.

    ``z`` is one row per ensemble of ``x``, shaped to broadcast against
    its particles.
    """
    mul(x, obs_T, out=innov)
    np.subtract(z, innov, out=innov)
    return -0.5 * np.einsum("...j,...j->...", innov,
                            mul(innov, W_inv, out=work))


def _observation_rows(z) -> np.ndarray:
    """``z`` of one ensemble (k,) or a batch (S, k) as (1, k) rows that
    broadcast against the particles."""
    return np.atleast_1d(np.asarray(z, dtype=float))[..., None, :]


def sir_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
             z, seed, plan: StepPlan | None = None,
             work=None) -> ParticleEnsemble:
    """Propagate through the model, weight by the observation likelihood.

    The log-weight increment is -0.5 (z - Hx')' R^{-1} (z - Hx') per
    particle (common normalization constant dropped); the returned
    ensemble is unnormalized.  A batch takes one row of ``z`` and one
    seed per ensemble.  Without a ``plan`` one is factored here.
    ``work``, three contiguous arrays shaped like the positions and apart
    from them, holds the new positions and the scratch.
    """
    z = _observation_rows(z)
    plan = plan or step_plan(problem, FilterKind.SIR, float("nan"))
    x = ensemble.positions
    positions, noise, scratch = _workspace(work, x, 3)
    mul(_normals(_generators(seed, x), scratch), plan.L_T, out=noise)
    mul(x, plan.A_T, out=positions)
    positions += noise
    k = z.shape[-1]
    incr = _log_likelihood(positions, z, plan.H_T, plan.R_inv,
                           _head(noise, k), _head(scratch, k))
    return ParticleEnsemble(step=ensemble.step + 1, positions=positions,
                            log_weights=ensemble.log_weights + incr,
                            normalized=False)


def optimal_step(problem: LinearGaussianProblem, ensemble: ParticleEnsemble,
                 z, seed, plan: StepPlan | None = None,
                 work=None) -> ParticleEnsemble:
    """Weight by N(z; HAx, HQH'+R), move with the exact conditional draw.

    For positive-definite Q the conditional is N(mu_j, Sigma_o) with
    Sigma_o = (Q^{-1} + H'R^{-1}H)^{-1}; a merely PSD Q falls back to the
    algebraically equivalent innovation form
    mu_j = A x_j + Q H' S^{-1} (z - H A x_j), cov Q - Q H' S^{-1} H Q,
    which needs no Q^{-1} (partial-noise models).  A batch takes one row
    of ``z`` and one seed per ensemble.  Without a ``plan`` one is
    factored here.  ``work``, contiguous arrays shaped like the positions
    and apart from them, holds the new positions and the scratch in its
    first two.
    """
    z = _observation_rows(z)
    plan = plan or step_plan(problem, FilterKind.OPTIMAL, float("nan"))
    x = ensemble.positions
    noise, positions = _workspace(work, x, 2)
    # the weights' scratch is the positions' buffer, which the move then
    # overwrites while it is still in cache
    innov = _head(noise, z.shape[-1])
    incr = _log_likelihood(x, z, plan.HA_T, plan.S_inv, innov,
                           _head(positions, z.shape[-1]))
    if plan.G_T is None:
        # Sigma_o (H' (R^{-1} z)) as a row vector, in that association
        data = mul(mul(mul(z, plan.R_inv.T), plan.H_T.T), plan.Sigma_o.T)
        mul(x, plan.mean_T, out=positions)
        positions += data
    else:
        mul(x, plan.A_T, out=positions)
        positions += mul(innov, plan.G_T, out=noise)
    positions += mul(_normals(_generators(seed, x), noise), plan.L_T,
                     out=noise)
    return ParticleEnsemble(step=ensemble.step + 1, positions=positions,
                            log_weights=ensemble.log_weights + incr,
                            normalized=False)


def resample(ensemble: ParticleEnsemble, seed,
             out: np.ndarray | None = None) -> ParticleEnsemble:
    """Systematic resampling; the result has uniform weights.

    Expected copy counts equal N * W_j up to the +-1 rounding inherent in
    systematic resampling.  Raises WeightCollapseError when the total
    weight has underflowed to zero.  A batch takes one seed per
    ensemble; the resampled positions go to ``out``, a contiguous array
    shaped like them, when given.
    """
    norm = ensemble if ensemble.normalized else ensemble.normalize()
    positions = norm.positions
    N, m = positions.shape[-2:]
    cdf = np.cumsum(np.exp(norm.log_weights), axis=-1).reshape(-1, N)
    offsets = np.array([[rng.random()]
                        for rng in _generators(seed, positions)])
    points = (np.arange(N) + offsets) / N
    # point p picks the first i with cdf[i] >= p; the clamp absorbs a
    # cdf top that round-off left just below the last point
    idx = np.stack([np.searchsorted(row, p, side="left")
                    for row, p in zip(cdf, points)])
    np.minimum(idx, N - 1, out=idx)
    idx += N * np.arange(len(idx))[:, None]  # rows of the flattened batch
    out = np.empty(positions.shape) if out is None else out
    # every index is in range; "clip" writes to ``out`` without buffering
    np.take(positions.reshape(-1, m), idx.ravel(), axis=0,
            out=out.reshape(-1, m), mode="clip")
    return ParticleEnsemble(step=norm.step, positions=out,
                            log_weights=np.full(norm.log_weights.shape,
                                                -np.log(N)),
                            normalized=True)


def _reports(weights: np.ndarray, log_weights: np.ndarray, kind,
             sigma_frob: float, step: int) -> list[CollapseReport]:
    """One report per row of (S, N) normalized ``weights``: ESS and max
    weight, and the variance of the row's finite raw ``log_weights``."""
    ess = 1.0 / np.sum(weights ** 2, axis=-1)
    max_weight = np.max(weights, axis=-1)
    finite = np.isfinite(log_weights)
    if finite.all():
        var_log_w = np.var(log_weights, axis=-1, ddof=1)
    else:
        var_log_w = np.array([
            np.var(row[keep], ddof=1) if np.count_nonzero(keep) >= 2
            else np.inf for row, keep in zip(log_weights, finite)])
    kind = FilterKind(kind) if kind is not None else None
    return [CollapseReport(ess=e, max_weight=w, var_log_w=v,
                           sigma_frob=float(sigma_frob), kind=kind, step=step)
            for e, w, v in zip(ess.tolist(), max_weight.tolist(),
                               var_log_w.tolist())]


def diagnostics(ensemble: ParticleEnsemble, kind=None,
                sigma_frob: float = float("nan"),
                step: int | None = None) -> CollapseReport:
    """ESS, max normalized weight, and variance of the raw log-weights."""
    if ensemble.n_particles < 2:
        raise ValueError("diagnostics need at least 2 particles")
    return _reports(ensemble.weights()[None], ensemble.log_weights[None],
                    kind, sigma_frob,
                    ensemble.step if step is None else step)[0]


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


def run_filters(problem: LinearGaussianProblem, kind, n_steps: int, N: int,
                seeds, resample_every: int = 1,
                plan: StepPlan | None = None) -> list[FilterRun]:
    """One seeded filtering run per seed, each over its own simulated
    trajectory, in the order of ``seeds``.

    The problem is validated once, and every run shares ``plan``; without
    one, a plan is built once the problem has passed validation.  Seeds
    run together in batches of at most BATCH_ELEMENTS / (N m) seeds (at
    least one), and each run is bit for bit the run its seed makes alone.
    When every batch holds one seed (N m > BATCH_ELEMENTS / 2) and the
    plan is elementwise, the batches run on min(batches, CPUs) threads;
    otherwise one after another.  The runs come back in seed order
    either way, and an exception in one batch cancels those not yet
    started and propagates.
    A total-weight underflow does not raise: that seed's run stops with a
    final report flagged ``degenerate``, and the others run on.
    """
    kind = FilterKind(kind)
    if N < 2:
        raise ValueError("N must be >= 2")
    if resample_every < 1:
        raise ValueError("resample_every must be >= 1")
    if plan is not None and plan.kind is not kind:
        raise ValueError(f"plan is for the {plan.kind.value} filter")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check(problem)
    plan = plan or step_plan(problem, kind)
    seeds = [int(seed) for seed in seeds]
    size = max(1, BATCH_ELEMENTS // (N * problem.m))
    batches = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    workers = min(len(batches), _cpu_count())
    if size > 1 or plan.A_T.ndim != 1 or workers < 2:
        return [run for batch in batches
                for run in _run_batch(problem, plan, n_steps, N, batch,
                                      resample_every)]
    # each batch runs in a copy of the caller's context, so that its
    # np.errstate holds in the workers too
    contexts = [contextvars.copy_context() for _ in batches]
    pool = ThreadPoolExecutor(workers)
    try:
        return [run for runs in pool.map(
            lambda context, batch: context.run(
                _run_batch, problem, plan, n_steps, N, batch,
                resample_every), contexts, batches)
            for run in runs]
    finally:
        pool.shutdown(cancel_futures=True)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no affinity call
        return os.cpu_count() or 1


def run_filter(problem: LinearGaussianProblem, kind, n_steps: int, N: int,
               seed: int, resample_every: int = 1,
               plan: StepPlan | None = None) -> FilterRun:
    """Full seeded filtering run over a freshly simulated trajectory:
    :func:`run_filters` for one seed."""
    return run_filters(problem, kind, n_steps, N, [seed],
                       resample_every=resample_every, plan=plan)[0]


def _buffers(positions: np.ndarray) -> list:
    """``positions`` and three spare arrays shaped like them."""
    return [positions] + [np.empty(positions.shape) for _ in range(3)]


def _free(buffers: list, positions: np.ndarray) -> list:
    """The buffers that do not hold ``positions``."""
    return [b for b in buffers if b is not positions]


def _run_batch(problem: LinearGaussianProblem, plan: StepPlan, n_steps: int,
               N: int, seeds: list[int],
               resample_every: int) -> list[FilterRun]:
    """The runs of ``seeds`` as one batch of ensembles.

    ``live`` maps the batch's rows to seeds; a seed whose total weight
    underflows leaves it.  The batch keeps four (S, N, m) buffers, one of
    which holds the positions; the steps and resampling work in the
    others.
    """
    kind = plan.kind
    step_fn = sir_step if kind is FilterKind.SIR else optimal_step
    trajectories = _simulate(problem.mu0, plan.model, n_steps, seeds)
    observations = np.stack([t.observations for t in trajectories])
    ensemble = ParticleEnsemble(
        step=0, positions=_prior_positions(problem.mu0, plan.prior_T, N,
                                           seeds),
        log_weights=np.full((len(seeds), N), -np.log(N)), normalized=True)
    buffers = _buffers(ensemble.positions)
    reports: list[list[CollapseReport]] = [[] for _ in seeds]
    means = np.empty((len(seeds), n_steps, problem.m))
    live = np.arange(len(seeds))
    for n in range(n_steps):
        ensemble = step_fn(
            problem, ensemble, observations[live, n],
            [_rng(seeds[i], _TAG_STEP, n) for i in live], plan=plan,
            work=_free(buffers, ensemble.positions))
        totals = logsumexp(ensemble.log_weights)
        dead = ~np.isfinite(totals)
        if dead.any():
            for i in live[dead]:
                reports[i].append(CollapseReport(
                    ess=1.0, max_weight=1.0, var_log_w=float("inf"),
                    sigma_frob=plan.sigma_frob, kind=kind, step=n + 1,
                    degenerate=True))
            keep = ~dead
            live, totals = live[keep], totals[keep]
            if not live.size:
                break
            ensemble = replace(ensemble, positions=ensemble.positions[keep],
                               log_weights=ensemble.log_weights[keep])
            buffers = _buffers(ensemble.positions)
        norm = replace(ensemble, normalized=True,
                       log_weights=ensemble.log_weights - totals[:, None])
        weights = np.exp(norm.log_weights)
        means[live, n] = np.matmul(weights[:, None], norm.positions)[:, 0]
        for i, report in zip(live, _reports(weights, ensemble.log_weights,
                                            kind, plan.sigma_frob, n + 1)):
            reports[i].append(report)
        if (n + 1) % resample_every == 0:
            ensemble = resample(
                norm, [_rng(seeds[i], _TAG_RESAMPLE, n) for i in live],
                out=_free(buffers, norm.positions)[0])
        else:
            ensemble = norm
    runs = []
    for s, seed in enumerate(seeds):
        degenerate = reports[s][-1].degenerate
        runs.append(FilterRun(
            kind=kind, seed=seed, n_particles=N,
            resample_every=resample_every, reports=reports[s],
            means=means[s, :len(reports[s]) - degenerate],
            trajectory=trajectories[s], plan=plan, degenerate=degenerate))
    return runs


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
