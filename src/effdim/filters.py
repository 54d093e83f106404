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

Noise streams derive from (seed, stage tag, step).  In a run, seed s
draws the noise of stage ``tag`` at step n from

    np.random.default_rng(np.random.SeedSequence(entropy=s,
                                                 spawn_key=(tag, n)))

with tag 2 for the move and tag 3 for resampling; the truth and data
come from spawn_key=(0,) and the initial ensemble from spawn_key=(1,).
The row index of each vectorized draw is the particle index, so results
do not depend on scheduling.  Resampling is systematic (lowest variance
of the standard schemes).

Runs go in batches of ensembles stacked on a leading axis, positions
(R, N, m) and log-weights (R, N); the steps, resampling and reports work
on every row at once.  A row is a (seed, plan) pair: :func:`run_plans`
runs the seeds of several plans of one kind and storage form together,
each plan's factors stacked one per row, and the rows of one seed side
by side.  The streams hold no plan in their keys, so a seed's rows share
its draws: each noise is drawn once per seed and batch, and each row
multiplies it by its own plan's factor (common random numbers across
the plans).  Products are stacked per row and reductions run along each
row, so a row's run is bit for bit the same whichever rows share its
batch; :func:`run_filters` is the one-plan case and :func:`run_filter`
the one-seed case of that.  When each batch holds one row and the plans
run elementwise (below), the batches run on a thread per CPU; every
other run takes its batches one after another.  Dense plans already
spread their products over BLAS's threads, and batches of several rows
are too small to gain from threads.  Since each batch draws from its own
seeds' streams alone, the results do not depend on the thread count.

When every matrix a computation uses is diagonal, it runs on the
matrices' 1-D diagonals elementwise (see :func:`effdim.model.storage`),
and the collapse statistic of a diagonal problem comes from the closed
form of each component's scalar DARE instead of SDA.
"""

from __future__ import annotations

import contextvars
import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from ._util import logsumexp
from .kalman import DareConvergenceError, solve_dare
from .model import (LinearGaussianProblem, RowDiagonals, frobenius, inverse,
                    json_object, mul, pd_inverse, psd_factor,
                    require_valid, storage)

_TAG_SIM = 0
_TAG_INIT = 1
_TAG_STEP = 2
_TAG_RESAMPLE = 3

# Largest R * N * m of one batch of R rows, a row being a (seed, plan)
# pair; a batch of several plans counts each row's stacked factors too.
# A batch pays each step's Python work once for all its rows: timed on
# collapse-sweep cells, 8 seeds ran 20-40 % faster in batches, and two
# seeds of N m = 10^5 ran no faster together than apart.  Batches beyond
# 2^16 elements saved no more time and raised the peak memory.
BATCH_ELEMENTS = 2 ** 16


class FilterKind(str, enum.Enum):
    SIR = "sir"
    OPTIMAL = "optimal"


class WeightCollapseError(RuntimeError):
    """Total importance weight underflowed to zero."""


def _rng(seed, *key) -> np.random.Generator:
    """The generator of ``seed`` and spawn ``key``; a Generator is its
    own."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed),
                               spawn_key=tuple(int(k) for k in key)))


class _Streams:
    """The noise generators of a batch's seeds, one per seed and spawn key.

    The batch runs each seed on ``repeats`` rows side by side: row i
    runs ``seeds[i // repeats]``, and seed s with key k draws from
    ``_rng(s, *k)``.
    """

    def __init__(self, seeds, repeats=1):
        self.seeds = seeds
        self.repeats = repeats
        self.rows = len(seeds) * repeats

    def generators(self, key, rows=None):
        """The generators of the batch's ``rows`` (default all) for spawn
        ``key``, each made as it is drawn from.  A row of the seed of the
        row before it gets None: it takes that row's draw."""
        previous = None
        for row in range(self.rows) if rows is None else rows:
            i = row // self.repeats
            yield None if i == previous else _rng(self.seeds[i], *key)
            previous = i


def _generators(seed, positions: np.ndarray):
    """The generator of each ensemble in ``positions``, made as it is
    drawn from: ``seed`` for an (N, m) ensemble, ``seed[s]`` for row s of
    an (R, N, m) batch.  A run passes its streams' generators, where None
    marks a row that takes the draw of the row before it."""
    return (None if s is None else _rng(s)
            for s in (seed if positions.ndim == 3 else (seed,)))


def _normals(generators, out: np.ndarray) -> np.ndarray:
    """Standard normals into ``out``, each (N, m) ensemble from the next
    of ``generators``, or, where that is None, a copy of the ensemble
    before it."""
    rows = out.reshape(-1, out.shape[-2] * out.shape[-1])
    for i, (rng, row) in enumerate(zip(generators, rows, strict=True)):
        if rng is None:
            row[...] = rows[i - 1]
        else:
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


def _model_factors(problem: LinearGaussianProblem) -> tuple:
    """(A', H', L0', Lq', Lr') for :func:`simulate`, L L' factoring
    Sigma0, Q and R, all in the storage form of the five matrices."""
    A, Q, H, R, Sigma0 = storage(problem.A, problem.Q, problem.H, problem.R,
                                 problem.Sigma0)
    return (A.T, H.T, psd_factor(Sigma0).T, psd_factor(Q).T,
            psd_factor(R).T)


def _simulate(mu0: np.ndarray, factors: tuple, n_steps: int,
              streams: _Streams) -> list[TrajectoryData]:
    """One trajectory per row of ``streams``' batch, the rows' states
    stacked as (R, 1, m); ``mu0`` is (m,) or one (1, m) row per row.

    Each seed draws x^0, then every model noise, then every data noise,
    from its own stream, and the rows of one seed share the draws; the
    (1, m) rows keep every product a vector-matrix product, as for one
    seed alone.
    """
    A_T, H_T, L0_T, Lq_T, Lr_T = factors
    seeds = streams.seeds
    R, m, k = streams.rows, mu0.shape[-1], Lr_T.shape[-1]
    x0 = np.empty((R, 1, m))
    w = np.empty((R, n_steps, m))
    v = np.empty((R, n_steps, k))
    for r, rng in enumerate(streams.generators((_TAG_SIM,))):
        for out in (x0, w, v):
            if rng is None:
                out[r] = out[r - 1]
            else:
                rng.standard_normal(out=out[r])
    truth = np.empty((R, n_steps + 1, m))
    observations = np.empty((R, n_steps, k))
    x = mu0 + mul(x0, L0_T)
    truth[:, 0] = x[:, 0]
    for n in range(n_steps):
        x = mul(x, A_T) + mul(w[:, n, None], Lq_T)
        truth[:, n + 1] = x[:, 0]
        observations[:, n] = (mul(x, H_T) + mul(v[:, n, None], Lr_T))[:, 0]
    return [TrajectoryData(truth=truth[r], observations=observations[r],
                           seed=int(seeds[r // streams.repeats]))
            for r in range(R)]


def simulate(problem: LinearGaussianProblem, n_steps: int,
             seed: int) -> TrajectoryData:
    """Draw x^0 ~ N(mu0, Sigma0) and run the model/data recursions."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    require_valid(problem)
    return _simulate(problem.mu0, _model_factors(problem), n_steps,
                     _Streams([seed]))[0]


def _prior_factor(problem: LinearGaussianProblem) -> np.ndarray:
    """L0' with L0 L0' = Sigma0, in Sigma0's own storage form."""
    (Sigma0,) = storage(problem.Sigma0)
    return psd_factor(Sigma0).T


def _prior_positions(mu0: np.ndarray, prior_T: np.ndarray, N: int,
                     streams: _Streams) -> np.ndarray:
    """(R, N, m) draws from N(mu0, Sigma0), one per row of ``streams``'
    batch; ``mu0`` is (m,) or one (1, m) row per row."""
    noise = _normals(streams.generators((_TAG_INIT,)),
                     np.empty((streams.rows, N, mu0.shape[-1])))
    positions = mul(noise, prior_T, out=noise)
    positions += mu0
    return positions


def init_ensemble(problem: LinearGaussianProblem, N: int,
                  seed) -> ParticleEnsemble:
    """N particles from the prior N(mu0, Sigma0) with uniform weights."""
    if N < 1:
        raise ValueError("N must be >= 1")
    positions = _prior_positions(problem.mu0, _prior_factor(problem), N,
                                 _Streams([seed]))[0]
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
    posterior is x r / (h^2 x + r).  Needs q > 0 and h != 0.  The root is
    not :func:`effdim.kalman.positive_root`: its discriminant is formed as
    hypot(b, 2 |h| sqrt(q) sqrt(r)), which keeps the square of b from
    overflowing, and switching to b^2 + 4 h^2 q r moves the last bits of
    sigma_frob, the filters' steady collapse statistic.
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
        data = mul(mul(mul(z, _transpose(plan.R_inv)),
                       _transpose(plan.H_T)), _transpose(plan.Sigma_o))
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


def _transpose(M):
    """M' of a plan's factor: a diagonal, or a stack of them, is its own,
    and a stack of matrices transposes each."""
    if isinstance(M, RowDiagonals) or M.ndim == 1:
        return M
    return np.swapaxes(M, -1, -2)


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
    offsets = []
    for rng in _generators(seed, positions):
        offsets.append(offsets[-1] if rng is None else [rng.random()])
    offsets = np.array(offsets)
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
             sigma_frob, step: int) -> list[CollapseReport]:
    """One report per row of (R, N) normalized ``weights``: ESS and max
    weight, and the variance of the row's finite raw ``log_weights``;
    ``sigma_frob`` is one for all rows or one per row."""
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
    sigmas = np.broadcast_to(np.asarray(sigma_frob, dtype=float), ess.shape)
    return [CollapseReport(ess=e, max_weight=w, var_log_w=v,
                           sigma_frob=sigma, kind=kind, step=step)
            for e, w, v, sigma in zip(ess.tolist(), max_weight.tolist(),
                                      var_log_w.tolist(), sigmas.tolist())]


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


def check_run(n_steps: int, N: int, resample_every: int) -> None:
    """Raise ValueError unless a run takes ``n_steps`` >= 1 steps of
    ``N`` >= 2 particles, resampled every ``resample_every`` >= 1."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if resample_every < 1:
        raise ValueError("resample_every must be >= 1")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")


def run_filters(problem: LinearGaussianProblem, kind, n_steps: int, N: int,
                seeds, resample_every: int = 1,
                plan: StepPlan | None = None) -> list[FilterRun]:
    """One seeded filtering run per seed, each over its own simulated
    trajectory, in the order of ``seeds``: :func:`run_plans` of one plan.

    The problem is validated once, and every run shares ``plan``; without
    one, a plan is built once the problem has passed validation.
    """
    kind = FilterKind(kind)
    check_run(n_steps, N, resample_every)
    if plan is not None and plan.kind is not kind:
        raise ValueError(f"plan is for the {plan.kind.value} filter")
    require_valid(problem)
    plan = plan or step_plan(problem, kind)
    return run_plans([problem], [plan], n_steps, N, seeds,
                     resample_every=resample_every)[0]


def _factors(plan: StepPlan) -> dict:
    """The plan's matrices by field name, ``model`` a tuple of them."""
    return {f.name: getattr(plan, f.name) for f in fields(StepPlan)
            if f.name not in ("kind", "sigma_frob")}


def _matrices(plan: StepPlan) -> list:
    """Every matrix of the plan, None for each field it leaves unset."""
    return [M for value in _factors(plan).values()
            for M in (value if isinstance(value, tuple) else (value,))]


def _form(plan: StepPlan) -> tuple:
    """What plans share to run in one batch: kind and every matrix's
    shape, so m, k and storage form."""
    return plan.kind, tuple(None if M is None else M.shape
                            for M in _matrices(plan))


def run_plans(problems: list, plans: list[StepPlan], n_steps: int, N: int,
              seeds, resample_every: int = 1) -> list[list[FilterRun]]:
    """The runs of every seed on each validated problem with its plan in
    ``plans``: one list per problem, in the order of ``seeds``.

    Plans of one form (:func:`_form`) run together: a batch's rows are
    (seed, plan) pairs, the rows of one seed side by side, and each draw
    of a seed serves all its rows.  A batch takes at most BATCH_ELEMENTS
    / (N m) rows (at least one): the seeds of every plan when that many
    fit, else one seed on as many plans as fit.  Each run is bit for bit
    the run its seed makes alone on its plan.  When every batch holds one
    row (a row over BATCH_ELEMENTS / 2) and the plans are elementwise, the
    batches of a form run on min(batches, CPUs) threads; otherwise one
    after another.  The runs come back in seed order either way, and an
    exception in one batch cancels those not yet started and propagates.
    A total-weight underflow does not raise: that row's run stops with a
    final report flagged ``degenerate``, and the others run on.
    """
    check_run(n_steps, N, resample_every)
    seeds = [int(seed) for seed in seeds]
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_form(plan), []).append(i)
    runs: list = [None] * len(plans)
    for cells in groups.values():
        for i, cell_runs in zip(cells, _run_group(
                [problems[i] for i in cells], [plans[i] for i in cells],
                n_steps, N, seeds, resample_every)):
            runs[i] = cell_runs
    return runs


def _run_group(problems: list, plans: list[StepPlan], n_steps: int, N: int,
               seeds: list[int], resample_every: int) -> list[list]:
    """:func:`run_plans` of plans of one form, in batches."""
    # a row holds N m positions, and in a batch of several plans the
    # row's own factors as well
    row = N * problems[0].m
    if len(plans) > 1:
        row += sum(M.size for M in _matrices(plans[0]) if M is not None)
    size = max(1, BATCH_ELEMENTS // row)
    width = min(len(plans), size)
    depth = max(1, size // len(plans))
    batches = [(seeds[i:i + depth], j) for i in range(0, len(seeds), depth)
               for j in range(0, len(plans), width)]

    def run(batch):
        batch_seeds, j = batch
        return _run_batch(problems[j:j + width], plans[j:j + width], n_steps,
                          N, batch_seeds, resample_every)

    workers = min(len(batches), _cpu_count())
    if size > 1 or plans[0].A_T.ndim != 1 or workers < 2:
        results = [run(batch) for batch in batches]
    else:
        # each batch runs in a copy of the caller's context, so that its
        # np.errstate holds in the workers too
        contexts = [contextvars.copy_context() for _ in batches]
        pool = ThreadPoolExecutor(workers)
        try:
            results = list(pool.map(
                lambda context, batch: context.run(run, batch),
                contexts, batches))
        finally:
            pool.shutdown(cancel_futures=True)
    runs: list[list] = [[] for _ in plans]
    for (_, j), result in zip(batches, results):
        for c, cell_runs in enumerate(result, j):
            runs[c].extend(cell_runs)
    return runs


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


def _row_plan(plans: list[StepPlan], cells: np.ndarray) -> StepPlan:
    """The plan of a batch whose row i runs ``plans[cells[i]]``: the one
    plan itself, else every matrix stacked one per row (a diagonal as
    :class:`effdim.model.RowDiagonals`) and ``sigma_frob`` one per row."""
    if len(plans) == 1:
        return plans[0]

    def rows(*matrices):
        if matrices[0] is None:
            return None
        stack = np.stack(matrices)[cells]
        return RowDiagonals(stack[:, None]) if stack.ndim == 2 else stack

    stacked = {}
    for name, value in _factors(plans[0]).items():
        each = [getattr(plan, name) for plan in plans]
        stacked[name] = (tuple(map(rows, *each)) if isinstance(value, tuple)
                         else rows(*each))
    return StepPlan(kind=plans[0].kind, sigma_frob=np.array(
        [plan.sigma_frob for plan in plans])[cells], **stacked)


def _run_batch(problems: list, plans: list[StepPlan], n_steps: int, N: int,
               seeds: list[int], resample_every: int) -> list[list]:
    """The runs of ``seeds`` on each of ``plans`` as one batch of
    ensembles: one list per plan, in seed order.

    Row s C + c runs seed s on plan c of the C; ``cells`` maps rows to
    plans and ``live`` lists the rows still running: a row whose total
    weight underflows leaves it.  The batch keeps four (R, N, m) buffers,
    one of which holds the positions; the steps and resampling work in
    the others.  Every draw comes from the batch's own streams, and the
    rows of a seed share it.
    """
    kind = plans[0].kind
    step_fn = sir_step if kind is FilterKind.SIR else optimal_step
    C = len(plans)
    cells = np.tile(np.arange(C), len(seeds))
    plan = _row_plan(plans, cells)
    mu0 = np.stack([problem.mu0 for problem in problems])[cells, None]
    streams = _Streams(seeds, C)
    trajectories = _simulate(mu0, plan.model, n_steps, streams)
    observations = np.stack([t.observations for t in trajectories])
    ensemble = ParticleEnsemble(
        step=0, positions=_prior_positions(mu0, plan.prior_T, N, streams),
        log_weights=np.full((len(cells), N), -np.log(N)), normalized=True)
    buffers = _buffers(ensemble.positions)
    reports: list[list[CollapseReport]] = [[] for _ in cells]
    means = np.empty((len(cells), n_steps, problems[0].m))
    live = np.arange(len(cells))
    for n in range(n_steps):
        # the plan stands in for the problem
        ensemble = step_fn(
            None, ensemble, observations[live, n],
            streams.generators((_TAG_STEP, n), live), plan=plan,
            work=_free(buffers, ensemble.positions))
        totals = logsumexp(ensemble.log_weights)
        dead = ~np.isfinite(totals)
        if dead.any():
            sigmas = np.broadcast_to(plan.sigma_frob, live.shape)
            for i, sigma in zip(live[dead], sigmas[dead].tolist()):
                reports[i].append(CollapseReport(
                    ess=1.0, max_weight=1.0, var_log_w=float("inf"),
                    sigma_frob=sigma, kind=kind, step=n + 1,
                    degenerate=True))
            keep = ~dead
            live, totals = live[keep], totals[keep]
            if not live.size:
                break
            plan = _row_plan(plans, cells[live])
            ensemble = replace(ensemble, positions=ensemble.positions[keep],
                               log_weights=ensemble.log_weights[keep])
            buffers = _buffers(ensemble.positions)
        norm = replace(ensemble, normalized=True,
                       log_weights=ensemble.log_weights - totals[:, None])
        weights = np.exp(norm.log_weights)
        mean = np.matmul(weights[:, None], norm.positions)[:, 0]
        bad = ~np.isfinite(mean).all(axis=1)
        if bad.any():  # 0 * inf is NaN: leave out the particles of weight 0
            held = np.where(weights[bad, :, None] == 0.0, 0.0,
                            norm.positions[bad])
            mean[bad] = np.matmul(weights[bad, None], held)[:, 0]
        means[live, n] = mean
        for i, report in zip(live, _reports(weights, ensemble.log_weights,
                                            kind, plan.sigma_frob, n + 1)):
            reports[i].append(report)
        if (n + 1) % resample_every == 0:
            ensemble = resample(
                norm, streams.generators((_TAG_RESAMPLE, n), live),
                out=_free(buffers, norm.positions)[0])
        else:
            ensemble = norm
    runs: list[list] = [[] for _ in plans]
    for r, trajectory in enumerate(trajectories):
        s, c = divmod(r, C)
        degenerate = reports[r][-1].degenerate
        runs[c].append(FilterRun(
            kind=kind, seed=seeds[s], n_particles=N,
            resample_every=resample_every, reports=reports[r],
            means=means[r, :len(reports[r]) - degenerate],
            trajectory=trajectory, plan=plans[c], degenerate=degenerate))
    return runs


# ---------------------------------------------------------------------------
# TrajectoryData JSON interchange.

_TRAJECTORY_KEYS = ("truth", "observations", "seed")


def trajectory_from_json(text: str) -> TrajectoryData:
    doc = json_object(text, _TRAJECTORY_KEYS, "trajectory")
    try:
        truth, observations = (np.atleast_2d(np.asarray(doc[key], dtype=float))
                               for key in ("truth", "observations"))
        seed = doc["seed"]
        if type(seed) is not int or seed < 0:  # a bool is not a seed
            raise ValueError(f"seed must be an integer >= 0, not {seed!r}")
        return TrajectoryData(truth, observations, seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"trajectory JSON malformed: {exc}") from exc
