import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import spearmanr

from effdim import filters
from effdim._util import logsumexp
from effdim.filters import (FilterKind, ParticleEnsemble, WeightCollapseError,
                            collapse_stat, diagnostics, init_ensemble,
                            optimal_step, resample, run_filter, run_filters,
                            run_plans, simulate, sir_step, step_plan,
                            trajectory_from_json)
from effdim.kalman import isotropic_steady_p, solve_dare
from effdim.model import (PD_COND_LIMIT, LinearGaussianProblem, pd_inverse,
                          psd_factor)
from util import (batch_widths, kalman_filter_means,
                  optimal_log_weight_increment, random_problem,
                  serial_run_filter, trajectory_to_json)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def iso_steady(m, q, r):
    """Isotropic problem initialized at its steady posterior covariance."""
    return LinearGaussianProblem.isotropic(m, q, r,
                                           sigma0=isotropic_steady_p(q, r))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rejects_singular_r():
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=eye, Q=np.zeros((2, 2)), H=eye,
                                    R=np.zeros((2, 2)), mu0=np.zeros(2),
                                    Sigma0=eye)
    with pytest.raises(ValueError, match="R not positive definite"):
        simulate(problem, 5, seed=0)


def test_simulate_deterministic_model_constant_truth():
    mu0 = np.array([1.5, -2.0])
    problem = LinearGaussianProblem(A=np.eye(2), Q=np.zeros((2, 2)),
                                    H=np.eye(2), R=np.eye(2), mu0=mu0,
                                    Sigma0=np.zeros((2, 2)))
    traj = simulate(problem, 10, seed=3)
    assert np.all(traj.truth == mu0)
    assert traj.observations.shape == (10, 2)


def test_simulate_stationary_variance():
    problem = LinearGaussianProblem(A=np.array([[0.5]]),
                                    Q=np.array([[0.1]]), H=np.eye(1),
                                    R=np.eye(1), mu0=np.zeros(1),
                                    Sigma0=np.array([[0.1 / 0.75]]))
    traj = simulate(problem, 100_000, seed=11)
    var = float(np.var(traj.truth[:, 0]))
    assert var == pytest.approx(0.1 / 0.75, rel=0.03)


def test_simulate_seed_reproducibility():
    problem = LinearGaussianProblem.isotropic(3, 0.5, 2.0)
    a = simulate(problem, 20, seed=123)
    b = simulate(problem, 20, seed=123)
    np.testing.assert_array_equal(a.truth, b.truth)
    np.testing.assert_array_equal(a.observations, b.observations)
    c = simulate(problem, 20, seed=124)
    assert not np.array_equal(a.truth, c.truth)


def test_trajectory_json_roundtrip():
    problem = LinearGaussianProblem.isotropic(2, 1.0, 1.0)
    traj = simulate(problem, 4, seed=9)
    back = trajectory_from_json(trajectory_to_json(traj))
    np.testing.assert_array_equal(traj.truth, back.truth)
    np.testing.assert_array_equal(traj.observations, back.observations)
    assert back.seed == 9
    with pytest.raises(ValueError, match="missing key: truth"):
        trajectory_from_json('{"observations": [[0.0]], "seed": 1}')


@pytest.mark.parametrize("seed", ["[1]", "null", "Infinity", '"x"', "1.5",
                                  "true", '"7"', "-1"])
def test_trajectory_json_with_a_seed_not_an_integer_is_malformed(seed):
    with pytest.raises(ValueError, match="trajectory JSON malformed"):
        trajectory_from_json('{"truth": [[0, 0]], "observations": '
                             f'[[0.1, 0.2]], "seed": {seed}}}')


# ---------------------------------------------------------------------------
# steps and weights


def test_sir_step_zero_innovation_gives_zero_increment():
    # Q = 0 and A = I keep particles in place, so HX' = z exactly
    problem = LinearGaussianProblem(A=np.eye(1), Q=np.zeros((1, 1)),
                                    H=np.eye(1), R=np.eye(1),
                                    mu0=np.zeros(1), Sigma0=np.eye(1))
    ens = ParticleEnsemble(step=0, positions=np.array([[2.0]]),
                           log_weights=np.array([0.0]))
    out = sir_step(problem, ens, z=np.array([2.0]), seed=0)
    assert out.log_weights[0] == 0.0
    assert out.step == 1


def test_sir_step_two_particle_likelihood_ratio():
    problem = LinearGaussianProblem(A=np.eye(1), Q=np.zeros((1, 1)),
                                    H=np.eye(1), R=np.eye(1),
                                    mu0=np.zeros(1), Sigma0=np.eye(1))
    ens = ParticleEnsemble(step=0, positions=np.array([[0.0], [-2.0]]),
                           log_weights=np.full(2, -np.log(2)),
                           normalized=True)
    out = sir_step(problem, ens, z=np.array([0.0]), seed=0).normalize()
    w = np.exp(out.log_weights)
    expected = np.array([1.0, np.exp(-2.0)])
    expected /= expected.sum()
    np.testing.assert_allclose(w, expected, atol=1e-12)
    assert w[0] == pytest.approx(0.881, abs=5e-4)


def test_sir_one_step_collapse_at_m100():
    problem = iso_steady(100, 1.0, 1.0)
    collapsed = 0
    for seed in range(50):
        traj = simulate(problem, 1, seed)
        ens = init_ensemble(problem, 1000, seed)
        out = sir_step(problem, ens, traj.observations[0], seed + 1000)
        collapsed += diagnostics(out).max_weight > 0.5
    assert collapsed >= 45  # >= 90% of 50 runs


def test_optimal_step_no_information_limit():
    # H = 0: uniform weights and pure propagation x -> A x + N(0, Q)
    problem = LinearGaussianProblem(A=np.array([[0.7]]), Q=np.array([[2.0]]),
                                    H=np.zeros((1, 1)), R=np.eye(1),
                                    mu0=np.zeros(1), Sigma0=np.eye(1))
    N = 40_000
    positions = np.full((N, 1), 3.0)
    ens = ParticleEnsemble(step=0, positions=positions,
                           log_weights=np.full(N, -np.log(N)),
                           normalized=True)
    out = ens
    out = optimal_step(problem, out, z=np.array([5.0]), seed=4)
    assert np.ptp(out.log_weights) == 0.0  # no data, equal weights
    assert float(np.mean(out.positions)) == pytest.approx(0.7 * 3.0, abs=0.05)
    assert float(np.var(out.positions)) == pytest.approx(2.0, rel=0.05)


def test_optimal_step_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    N = 200_000
    ens = ParticleEnsemble(step=0, positions=np.zeros((N, 1)),
                           log_weights=np.full(N, -np.log(N)),
                           normalized=True)
    z = np.array([2.0])
    incr = optimal_log_weight_increment(problem, ens.positions, z)
    # W ~ N(2; 0, 2) up to the dropped constant: -0.5 * 4 / 2
    np.testing.assert_allclose(incr, -1.0, atol=1e-12)
    out = optimal_step(problem, ens, z, seed=5)
    # conditional draw N(1, 0.5)
    assert float(np.mean(out.positions)) == pytest.approx(1.0, abs=0.01)
    assert float(np.var(out.positions)) == pytest.approx(0.5, rel=0.02)


def test_optimal_step_psd_fallback_matches_precision_form_stats():
    # singular Q (partial noise): the innovation form must still move
    # particles toward the data and keep the noise-free subspace exact
    A = np.eye(2)
    Q = np.diag([1.0, 0.0])
    problem = LinearGaussianProblem(A=A, Q=Q, H=np.eye(2), R=np.eye(2),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    N = 50_000
    ens = ParticleEnsemble(step=0, positions=np.zeros((N, 2)),
                           log_weights=np.full(N, -np.log(N)),
                           normalized=True)
    out = optimal_step(problem, ens, z=np.array([2.0, 2.0]), seed=6)
    # noisy component: conditional N(z S^{-1} q, (1/q + 1/r)^{-1}) = N(1, 0.5)
    assert float(np.mean(out.positions[:, 0])) == pytest.approx(1.0, abs=0.02)
    assert float(np.var(out.positions[:, 0])) == pytest.approx(0.5, rel=0.03)
    # noise-free component stays exactly at A x = 0
    assert np.all(out.positions[:, 1] == 0.0)


def test_optimal_one_step_non_collapse_at_eps100():
    problem = iso_steady(100, 1.0, 0.01)
    ok = 0
    for seed in range(50):
        traj = simulate(problem, 1, seed)
        ens = init_ensemble(problem, 1000, seed)
        out = optimal_step(problem, ens, traj.observations[0], seed + 1000)
        ok += diagnostics(out).max_weight < 0.2
    assert ok >= 45


def test_optimal_weight_identity_function_of_previous_position():
    problem = LinearGaussianProblem.isotropic(3, 0.7, 0.4)
    traj = simulate(problem, 1, seed=2)
    base = init_ensemble(problem, 64, seed=2)
    # zero prior log-weights make the step output the increment itself
    ens = ParticleEnsemble(step=0, positions=base.positions,
                           log_weights=np.zeros(64))
    z = traj.observations[0]
    out_a = optimal_step(problem, ens, z, seed=77)
    out_b = optimal_step(problem, ens, z, seed=12345)  # different noise
    recomputed = optimal_log_weight_increment(problem, ens.positions, z)
    np.testing.assert_array_equal(out_a.log_weights, recomputed)
    np.testing.assert_array_equal(out_b.log_weights, recomputed)


# ---------------------------------------------------------------------------
# resampling


def test_resample_uniform_weights_identity():
    rng = np.random.default_rng(0)
    N = 64
    ens = ParticleEnsemble(step=0, positions=rng.standard_normal((N, 2)),
                           log_weights=np.full(N, -np.log(N)),
                           normalized=True)
    out = resample(ens, seed=5)
    np.testing.assert_array_equal(out.positions, ens.positions)
    assert np.all(out.log_weights == -np.log(N))


def test_resample_degenerate_weights_copy_winner():
    N = 16
    lw = np.full(N, -np.inf)
    lw[3] = 0.0
    positions = np.arange(N, dtype=float)[:, None]
    ens = ParticleEnsemble(step=0, positions=positions, log_weights=lw)
    out = resample(ens, seed=1)
    assert np.all(out.positions == 3.0)


def test_resample_counts_follow_weights():
    # weights (1/2, 1/4, 1/4, 0) over four slots give counts (2, 1, 1, 0)
    # for every systematic offset
    positions = np.arange(4, dtype=float)[:, None]
    with np.errstate(divide="ignore"):
        lw = np.log(np.array([0.5, 0.25, 0.25, 0.0]))
    for seed in range(10):
        ens = ParticleEnsemble(step=0, positions=positions, log_weights=lw,
                               normalized=True)
        out = resample(ens, seed=seed)
        counts = np.bincount(out.positions[:, 0].astype(int), minlength=4)
        np.testing.assert_array_equal(counts, [2, 1, 1, 0])


def test_resample_all_zero_weights_raises():
    ens = ParticleEnsemble(step=0, positions=np.zeros((3, 1)),
                           log_weights=np.full(3, -np.inf))
    with pytest.raises(WeightCollapseError, match="measure zero"):
        resample(ens, seed=0)


def test_resample_expected_counts_within_one():
    rng = np.random.default_rng(12)
    N = 256
    lw = rng.standard_normal(N)
    ens = ParticleEnsemble(step=0,
                           positions=np.arange(N, dtype=float)[:, None],
                           log_weights=lw).normalize()
    w = np.exp(ens.log_weights)
    out = resample(ens, seed=3)
    counts = np.bincount(out.positions[:, 0].astype(int), minlength=N)
    assert np.all(np.abs(counts - N * w) <= 1.0 + 1e-9)


def test_resample_flat_cdf_never_picks_zero_weights():
    # zero weights before, between and after the live particles make
    # flat stretches in the CDF; a point on a flat stretch must go to the
    # next particle with weight, never to a zero-weight one
    positions = np.arange(6, dtype=float)[:, None]
    with np.errstate(divide="ignore"):
        lw = np.log(np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0]))
    for seed in range(20):
        ens = ParticleEnsemble(step=0, positions=positions, log_weights=lw,
                               normalized=True)
        out = resample(ens, seed=seed)
        counts = np.bincount(out.positions[:, 0].astype(int), minlength=6)
        np.testing.assert_array_equal(counts, [0, 0, 3, 0, 3, 0])


class _TopOffset(np.random.Generator):
    """A generator whose systematic offset sits just below one."""

    def random(self, *args, **kwargs):
        return 1.0 - 1e-13


def test_resample_clamps_cdf_top_below_last_point():
    # round-off leaves the CDF top at 1 - 1e-12, below the last point
    # (1 + 1 - 1e-13) / 2; it must select the last particle, not overrun
    ens = ParticleEnsemble(step=0, positions=np.arange(2, dtype=float)[:, None],
                           log_weights=np.log([0.5, 0.5 - 1e-12]),
                           normalized=True)
    out = resample(ens, _TopOffset(np.random.PCG64(0)))
    np.testing.assert_array_equal(out.positions[:, 0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# diagnostics and the collapse statistic


def test_diagnostics_uniform():
    N = 100
    ens = ParticleEnsemble(step=0, positions=np.zeros((N, 1)),
                           log_weights=np.full(N, -np.log(N)),
                           normalized=True)
    rep = diagnostics(ens)
    assert rep.ess == pytest.approx(100.0)
    assert rep.max_weight == pytest.approx(0.01)
    assert rep.var_log_w == 0.0


def test_diagnostics_degenerate():
    lw = np.full(8, -np.inf)
    lw[0] = 0.0
    ens = ParticleEnsemble(step=0, positions=np.zeros((8, 1)),
                           log_weights=lw)
    rep = diagnostics(ens)
    assert rep.ess == pytest.approx(1.0)
    assert rep.max_weight == pytest.approx(1.0)


def test_diagnostics_var_log_w_consistency():
    rng = np.random.default_rng(5)
    sigma = 1.7
    lw = rng.normal(0.0, sigma, size=100_000)
    ens = ParticleEnsemble(step=0, positions=np.zeros((100_000, 1)),
                           log_weights=lw)
    rep = diagnostics(ens)
    assert rep.var_log_w == pytest.approx(sigma ** 2, rel=0.03)


@pytest.mark.parametrize("resample_every", [1, 3])
def test_run_filter_normalizes_once_per_step(monkeypatch, resample_every):
    calls = []

    def counting(a):
        calls.append(1)
        return logsumexp(a)

    problem = LinearGaussianProblem.isotropic(3, 1.0, 0.5)
    want = run_filter(problem, "optimal", 6, 50, seed=2,
                      resample_every=resample_every)
    monkeypatch.setattr("effdim.filters.logsumexp", counting)
    run = run_filter(problem, "optimal", 6, 50, seed=2,
                     resample_every=resample_every)
    assert len(calls) == 6
    assert run.reports == want.reports


def test_diagnostics_needs_two_particles():
    ens = ParticleEnsemble(step=0, positions=np.zeros((1, 1)),
                           log_weights=np.zeros(1))
    with pytest.raises(ValueError):
        diagnostics(ens)


def test_normalize_sums_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lw = rng.normal(0, 30, size=500)  # wide spread stresses log-sum-exp
        ens = ParticleEnsemble(step=0, positions=np.zeros((500, 1)),
                               log_weights=lw).normalize()
        assert abs(np.exp(ens.log_weights).sum() - 1.0) <= 1e-12


def test_collapse_stat_isotropic_values():
    problem = LinearGaussianProblem.isotropic(4, 1.0, 1.0)
    P = isotropic_steady_p(1.0, 1.0) * np.eye(4)
    assert collapse_stat(problem, P, "optimal") == pytest.approx(GOLDEN,
                                                                 abs=1e-12)
    assert collapse_stat(problem, P, "sir") == pytest.approx(
        np.sqrt(5.0) + 1.0, abs=1e-12)


def test_collapse_stat_zero_p_zero_q():
    problem = LinearGaussianProblem.isotropic(3, 0.0, 1.0)
    assert collapse_stat(problem, np.zeros((3, 3)), "optimal") == 0.0


def test_var_log_w_optimal_below_sir_scalar():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    wins = 0
    for seed in range(100):
        traj = simulate(problem, 1, seed)
        ens = init_ensemble(problem, 200, seed)
        z = traj.observations[0]
        v_opt = diagnostics(optimal_step(problem, ens, z,
                                         seed + 1)).var_log_w
        v_sir = diagnostics(sir_step(problem, ens, z, seed + 1)).var_log_w
        wins += v_opt <= v_sir
    assert wins >= 95


def test_var_log_w_tracks_collapse_stat():
    qs = np.logspace(-2, 1, 10)
    stats, variances = [], []
    for q in qs:
        problem = iso_steady(16, float(q), 1.0)
        steady = solve_dare(problem)
        stats.append(collapse_stat(problem, steady.P, "optimal"))
        vals = []
        for seed in range(5):
            traj = simulate(problem, 1, seed)
            ens = init_ensemble(problem, 500, seed)
            vals.append(diagnostics(optimal_step(
                problem, ens, traj.observations[0], seed + 1)).var_log_w)
        variances.append(float(np.mean(vals)))
    rho = spearmanr(variances, stats).statistic
    assert rho > 0.9


# ---------------------------------------------------------------------------
# full runs


def test_run_filter_matches_kalman_steady_variance():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    run = run_filter(problem, "optimal", 500, 10_000, seed=3)
    err = run.means[:, 0] - run.trajectory.truth[1:, 0]
    assert float(np.mean(err ** 2)) == pytest.approx(GOLDEN, rel=0.05)


def test_run_filter_perfect_model_tracks_truth():
    problem = LinearGaussianProblem(A=np.eye(2), Q=np.zeros((2, 2)),
                                    H=np.eye(2), R=np.eye(2),
                                    mu0=np.array([1.0, -1.0]),
                                    Sigma0=np.zeros((2, 2)))
    for kind in ("sir", "optimal"):
        run = run_filter(problem, kind, 5, 50, seed=0)
        assert all(rep.ess == pytest.approx(50.0) for rep in run.reports)
        np.testing.assert_allclose(run.means,
                                   np.tile(problem.mu0, (5, 1)), atol=1e-12)


def test_run_filter_optimal_beats_sir_ess_at_eps100():
    problem = LinearGaussianProblem.isotropic(100, 1.0, 0.01)
    med_opt, med_sir = [], []
    for seed in range(20):
        r_opt = run_filter(problem, "optimal", 50, 1000, seed)
        r_sir = run_filter(problem, "sir", 50, 1000, seed)
        med_opt.append(np.median([rep.ess for rep in r_opt.reports]))
        med_sir.append(np.median([rep.ess for rep in r_sir.reports]))
    assert np.median(med_opt) > np.median(med_sir)


def test_run_filter_sir_collapses_for_all_nontrivial_ratios():
    # at m = 50 the SIR criterion fails for every eps >= 0.1
    for eps in (0.1, 1.0, 100.0):
        problem = iso_steady(50, eps, 1.0)
        collapsed = 0
        for seed in range(5):
            run = run_filter(problem, "sir", 5, 500, seed)
            collapsed += any(rep.max_weight > 0.5 for rep in run.reports)
        assert collapsed == 5


def test_optimal_step_rejects_indefinite_q():
    problem = LinearGaussianProblem(A=np.eye(1), Q=np.array([[-1.0]]),
                                    H=np.eye(1), R=np.eye(1),
                                    mu0=np.zeros(1), Sigma0=np.eye(1))
    ens = ParticleEnsemble(step=0, positions=np.zeros((4, 1)),
                           log_weights=np.full(4, -np.log(4)),
                           normalized=True)
    with pytest.raises(np.linalg.LinAlgError):
        optimal_step(problem, ens, z=np.array([0.0]), seed=0)


def test_run_filter_consistency_rate_in_n():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    errors = {}
    for N in (100, 10_000):
        run = run_filter(problem, "optimal", 100, N, seed=0)
        km = kalman_filter_means(problem, run.trajectory.observations)
        errors[N] = float(np.mean(np.abs(run.means[:, 0] - km[1:, 0])))
    ratio = errors[100] / errors[10_000]
    # N^{-1/2} predicts a factor 10, accepted within a factor 2
    assert 5.0 <= ratio <= 20.0


def test_run_filter_degenerate_run_is_flagged_not_raised():
    # an explosive model overflows the innovation quadratic form at the
    # first step, sending every log-weight to -inf
    problem = LinearGaussianProblem(A=np.array([[1e200]]),
                                    Q=np.array([[1.0]]), H=np.eye(1),
                                    R=np.eye(1), mu0=np.zeros(1),
                                    Sigma0=np.eye(1))
    with np.errstate(over="ignore"):
        run = run_filter(problem, "sir", 3, 10, seed=1)
    assert run.degenerate
    assert run.reports[-1].degenerate
    assert run.reports[-1].max_weight == 1.0
    assert run.means.shape[0] < 3


def test_run_filter_report_invariants():
    problem = LinearGaussianProblem.isotropic(2, 0.5, 0.5)
    run = run_filter(problem, "optimal", 30, 64, seed=4, resample_every=2)
    assert len(run.reports) == 30
    for rep in run.reports:
        assert 1.0 <= rep.ess <= 64.0 + 1e-9
        assert 1.0 / 64.0 - 1e-12 <= rep.max_weight <= 1.0
        assert rep.sigma_frob == pytest.approx(run.sigma_frob)
        assert rep.kind is FilterKind.OPTIMAL


def test_run_filter_seed_reproducibility():
    problem = LinearGaussianProblem.isotropic(3, 1.0, 0.5)
    a = run_filter(problem, "optimal", 10, 128, seed=9)
    b = run_filter(problem, "optimal", 10, 128, seed=9)
    np.testing.assert_array_equal(a.means, b.means)
    assert [r.ess for r in a.reports] == [r.ess for r in b.reports]


# ---------------------------------------------------------------------------
# log-sum-exp against scipy's


_LOG_WEIGHT = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-50.0, 50.0),
    st.sampled_from([-np.inf, 0.0, -745.0, 709.0, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LOG_WEIGHT, min_size=1, max_size=40),
       st.lists(st.integers(0, 39), max_size=5))
def test_logsumexp_equals_scipy_bit_for_bit(values, tie_at):
    a = np.array(values)
    for i in tie_at:  # copy the maximum elsewhere: tied maxima
        a[i % a.size] = a.max()
    ours = np.float64(logsumexp(a))
    ref = np.float64(scipy_logsumexp(a))
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("a", [
    [3.0], [-np.inf], [2.0, 2.0, 2.0], [1e300, -1e300, 0.0],
    [-np.inf, 0.5, -np.inf, 0.5], [-745.0, -745.0, -1e300],
], ids=["single", "single-minus-inf", "all-tied", "spread-1e300",
        "tied-with-minus-inf", "underflow"])
def test_logsumexp_edge_cases_equal_scipy(a):
    ours = np.float64(logsumexp(np.array(a)))
    assert ours.tobytes() == np.float64(scipy_logsumexp(a)).tobytes()


def test_normalize_all_minus_inf_raises_weight_collapse():
    ens = ParticleEnsemble(step=0, positions=np.zeros((4, 2)),
                           log_weights=np.full(4, -np.inf))
    assert logsumexp(ens.log_weights) == -np.inf
    with pytest.raises(WeightCollapseError, match="measure zero"):
        ens.normalize()


# ---------------------------------------------------------------------------
# step plans


def _general_problem(q_pd: bool) -> LinearGaussianProblem:
    """m = 4, k = 2 with a PD Q (precision form) or rank-2 Q (innovation)."""
    rng = np.random.default_rng(29)
    problem = random_problem(rng, m=4, k=2)
    if q_pd:
        return problem
    B = rng.standard_normal((4, 2))
    return replace(problem, Q=B @ B.T)


def _factored_per_step(problem, kind, x, z, seed):
    """(positions, log-weight increments) with every factor made afresh,
    in the same association as the planned step."""
    A, Q, H, R = problem.A, problem.Q, problem.H, problem.R
    rng = np.random.default_rng(seed)
    if kind == "sir":
        x = x @ A.T + rng.standard_normal(x.shape) @ psd_factor(Q).T
        innov = z - x @ H.T
        return x, -0.5 * np.einsum("ij,ij->i", innov,
                                   innov @ pd_inverse(R, "R"))
    S_inv = pd_inverse(H @ Q @ H.T + R, "S")
    innov = z - x @ (H @ A).T
    incr = -0.5 * np.einsum("ij,ij->i", innov, innov @ S_inv)
    wq = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if wq[0] > 0.0 and wq[-1] / wq[0] <= PD_COND_LIMIT:
        Q_inv, R_inv = pd_inverse(Q, "Q"), pd_inverse(R, "R")
        Sigma_o = np.linalg.inv(Q_inv + H.T @ R_inv @ H)
        Sigma_o = 0.5 * (Sigma_o + Sigma_o.T)
        mean = x @ (Sigma_o @ Q_inv @ A).T + Sigma_o @ (H.T @ (R_inv @ z))
        L = psd_factor(Sigma_o)
    else:
        G = Q @ H.T @ S_inv
        mean = x @ A.T + innov @ G.T
        cov = Q - G @ H @ Q
        L = psd_factor(0.5 * (cov + cov.T))
    return mean + rng.standard_normal(mean.shape) @ L.T, incr


@pytest.mark.parametrize("q_pd", [True, False], ids=["pd-q", "psd-q"])
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_step_with_plan_is_bit_identical(kind, q_pd):
    problem = _general_problem(q_pd)
    plan = step_plan(problem, kind)
    assert plan.kind is FilterKind(kind)
    if kind == "optimal":
        assert (plan.G_T is None) == q_pd
    step = sir_step if kind == "sir" else optimal_step
    traj = simulate(problem, 3, seed=8)
    ens = init_ensemble(problem, 300, seed=8)
    for n in range(3):
        z = traj.observations[n]
        with_plan = step(problem, ens, z, 100 + n, plan=plan)
        without = step(problem, ens, z, 100 + n)
        positions, incr = _factored_per_step(problem, kind, ens.positions, z,
                                             100 + n)
        for out in (with_plan, without):
            np.testing.assert_array_equal(out.positions, positions)
            np.testing.assert_array_equal(out.log_weights,
                                          ens.log_weights + incr)
        ens = with_plan.normalize()


def test_step_plan_sigma_frob_is_the_steady_collapse_stat():
    problem = _general_problem(True)
    for kind in ("sir", "optimal"):
        want = collapse_stat(problem, solve_dare(problem).P, kind)
        assert step_plan(problem, kind).sigma_frob == want
        assert np.isnan(step_plan(problem, kind, float("nan")).sigma_frob)


@pytest.mark.parametrize("q_pd", [True, False], ids=["pd-q", "psd-q"])
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_run_filter_with_given_plan_equals_run_without(kind, q_pd):
    problem = _general_problem(q_pd)
    plan = step_plan(problem, kind)
    for seed in (3, 4):
        a = run_filter(problem, kind, 12, 80, seed, resample_every=2)
        b = run_filter(problem, kind, 12, 80, seed, resample_every=2,
                       plan=plan)
        assert b.plan is plan
        assert a.reports == b.reports
        assert a.sigma_frob == b.sigma_frob == plan.sigma_frob
        np.testing.assert_array_equal(a.means, b.means)


def test_run_filter_rejects_plan_of_other_kind():
    problem = LinearGaussianProblem.isotropic(2, 1.0, 1.0)
    with pytest.raises(ValueError, match="sir filter"):
        run_filter(problem, "optimal", 3, 10, seed=0,
                   plan=step_plan(problem, "sir"))


# ---------------------------------------------------------------------------
# seeds run as one batch


def _diagonal_problem() -> LinearGaussianProblem:
    return LinearGaussianProblem(
        A=np.diag([0.9, -1.1, 0.5]), Q=np.diag([0.5, 2.0, 1.0]),
        H=np.diag([1.0, 0.5, -2.0]), R=np.diag([0.3, 1.0, 4.0]),
        mu0=np.array([0.1, -0.2, 0.3]), Sigma0=np.diag([1.0, 0.2, 3.0]))


_BATCH_PROBLEMS = {
    "isotropic": lambda: LinearGaussianProblem.isotropic(3, 0.7, 0.3,
                                                         sigma0=0.45),
    "diagonal": _diagonal_problem,
    "dense-pd-q": lambda: _general_problem(True),
    "dense-rank2-q": lambda: _general_problem(False),
    # at m = k = 50 and N = 50, the product with R^{-1} or S^{-1} taken as
    # one flattened (S N, k) gemm differs in its last bits from the
    # stacked per-ensemble products
    "dense-m50": lambda: random_problem(np.random.default_rng(50), m=50),
}


def _bits(reports) -> list:
    """Every field of every report, floats as their bytes."""
    return [(np.array([r.ess, r.max_weight, r.var_log_w,
                       r.sigma_frob]).tobytes(), r.kind, r.step, r.degenerate)
            for r in reports]


def _assert_run_is_oracle(run, problem, kind, n_steps, N, resample_every):
    reports, means, trajectory = serial_run_filter(
        problem, kind, n_steps, N, run.seed, resample_every)
    assert _bits(run.reports) == _bits(reports)
    assert run.means.shape == means.shape
    assert run.means.tobytes() == means.tobytes()
    assert run.trajectory.truth.tobytes() == trajectory.truth.tobytes()
    assert (run.trajectory.observations.tobytes()
            == trajectory.observations.tobytes())
    assert run.degenerate == bool(reports and reports[-1].degenerate)


@pytest.mark.parametrize("resample_every", [1, 3])
@pytest.mark.parametrize("name", sorted(_BATCH_PROBLEMS))
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_run_filters_equals_serial_oracle(kind, name, resample_every):
    problem = _BATCH_PROBLEMS[name]()
    seeds = [5, 2, 9, 2]
    runs = run_filters(problem, kind, 7, 60, seeds,
                       resample_every=resample_every)
    assert [run.seed for run in runs] == seeds
    assert len({id(run.plan) for run in runs}) == 1
    for run in runs:
        _assert_run_is_oracle(run, problem, kind, 7, 60, resample_every)
        assert len(run.reports) == 7 and not run.degenerate


def _overflowing_problem(kind) -> LinearGaussianProblem:
    """m = 1 with Sigma0 so wide that the first log-weights overflow for
    some draws: with N = 2, seeds 1 and 7 of 1..8 go degenerate at the
    first step and the other six run on."""
    r = 2e-10
    if kind == "sir":
        q, sigma0 = 1.0, r * 1.7e308 / 1.5
    else:
        q, sigma0 = r, r * 1.7e308 / 0.75
    return LinearGaussianProblem(A=[[1.0]], Q=[[q]], H=[[1.0]], R=[[r]],
                                 mu0=[0.0], Sigma0=[[sigma0]])


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_run_filters_degenerate_seed_leaves_the_batch(kind):
    problem = _overflowing_problem(kind)
    seeds = list(range(1, 9))
    with np.errstate(over="ignore", invalid="ignore"):
        runs = run_filters(problem, kind, 4, 2, seeds, resample_every=2)
        assert [run.seed for run in runs if run.degenerate] == [1, 7]
        for run in runs:
            _assert_run_is_oracle(run, problem, kind, 4, 2, 2)
            assert len(run.reports) == (1 if run.degenerate else 4)


@pytest.mark.parametrize("batch", [1, 2 * 40 * 4, 10 ** 9],
                         ids=["alone", "pairs", "one-batch"])
def test_run_filters_results_do_not_depend_on_batching(monkeypatch, batch):
    problem = _general_problem(True)  # m = 4
    seeds = [3, 1, 4, 1, 5]
    alone = [run_filter(problem, "optimal", 5, 40, seed, resample_every=2)
             for seed in seeds]
    monkeypatch.setattr(filters, "BATCH_ELEMENTS", batch)
    together = run_filters(problem, "optimal", 5, 40, seeds,
                           resample_every=2)
    for a, b in zip(alone, together, strict=True):
        assert a.seed == b.seed
        assert _bits(a.reports) == _bits(b.reports)
        assert a.means.tobytes() == b.means.tobytes()


def test_batch_size_keeps_large_ensembles_alone():
    # N m = 10^5 (the paper's m = 100, N = 1000) runs one seed at a time;
    # eight seeds of a small sweep cell run together
    assert 2 * 1000 * 100 > filters.BATCH_ELEMENTS >= 8 * 200 * 20


@pytest.mark.parametrize("name", sorted(_BATCH_PROBLEMS))
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_batched_step_equals_each_ensemble_alone(kind, name):
    problem = _BATCH_PROBLEMS[name]()
    plan = step_plan(problem, kind)
    step = sir_step if kind == "sir" else optimal_step
    seeds = [11, 12, 13]
    alone = [init_ensemble(problem, 50, seed) for seed in seeds]
    alone = [replace(e, log_weights=np.linspace(-1.0, 0.5, 50) * i)
             for i, e in enumerate(alone)]
    z = np.stack([simulate(problem, 1, seed).observations[0]
                  for seed in seeds])
    batch = ParticleEnsemble(
        step=0, positions=np.stack([e.positions for e in alone]),
        log_weights=np.stack([e.log_weights for e in alone]))
    work = np.empty((3,) + batch.positions.shape)
    for out in (step(problem, batch, z, seeds, plan=plan),
                step(problem, batch, z, seeds, plan=plan, work=work)):
        for s, ens in enumerate(alone):
            want = step(problem, ens, z[s], seeds[s], plan=plan)
            assert out.positions[s].tobytes() == want.positions.tobytes()
            assert out.log_weights[s].tobytes() == want.log_weights.tobytes()
    assert out.positions.base is work or out.positions is work[0]


def test_batched_reductions_equal_their_1d_forms():
    rng = np.random.default_rng(17)
    N = 257
    lw = rng.normal(0.0, 30.0, size=(5, N))
    lw[1, ::3] = -np.inf  # zero weights: var_log_w over the finite ones
    lw[2] = -np.inf
    lw[2, 5] = 0.0  # one finite log-weight: var_log_w is inf
    lw[3] = 7.0  # tied maxima
    positions = rng.standard_normal((5, N, 3))
    batch = ParticleEnsemble(step=4, positions=positions, log_weights=lw)
    norm = batch.normalize()
    reports = filters._reports(norm.weights(), lw, "sir", 1.5, 4)
    seeds = [np.random.SeedSequence(entropy=9, spawn_key=(3, s))
             for s in range(5)]
    resampled = resample(norm, [np.random.default_rng(q) for q in seeds])
    for s in range(5):
        assert (np.float64(logsumexp(lw)[s]).tobytes()
                == np.float64(scipy_logsumexp(lw[s])).tobytes())
        single = ParticleEnsemble(step=4, positions=positions[s],
                                  log_weights=lw[s]).normalize()
        assert norm.log_weights[s].tobytes() == single.log_weights.tobytes()
        w = np.exp(single.log_weights)
        finite = np.isfinite(lw[s])
        want = (1.0 / float(np.sum(w ** 2)), float(np.max(w)),
                float(np.var(lw[s][finite], ddof=1))
                if np.count_nonzero(finite) >= 2 else np.inf)
        got = (reports[s].ess, reports[s].max_weight, reports[s].var_log_w)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (resampled.positions[s].tobytes()
                == resample(single, np.random.default_rng(seeds[s]))
                .positions.tobytes())
    assert reports[2].var_log_w == np.inf
    # the rows of a batch reduce alone: a row beyond double range
    # next to ordinary ones
    wide = np.array([[1e300, -1e300, 0.0], [0.5, -np.inf, 0.5],
                     [-np.inf, -np.inf, -np.inf]])
    for row, total in zip(wide, logsumexp(wide)):
        assert (np.float64(total).tobytes()
                == np.float64(scipy_logsumexp(row)).tobytes())
    with pytest.raises(WeightCollapseError, match="measure zero"):
        ParticleEnsemble(step=0, positions=np.zeros((3, 3, 1)),
                         log_weights=wide).normalize()


def test_resample_into_out_buffer():
    rng = np.random.default_rng(4)
    ens = ParticleEnsemble(step=0, positions=rng.standard_normal((2, 30, 2)),
                           log_weights=rng.standard_normal((2, 30))
                           ).normalize()
    out = np.empty_like(ens.positions)
    got = resample(ens, [1, 2], out=out)
    assert got.positions is out
    np.testing.assert_array_equal(out, resample(ens, [1, 2]).positions)


# ---------------------------------------------------------------------------
# several plans run as rows of one batch


def _dense_problems() -> list:
    """Dense, m = 4 and k = 3, PD Q: one form."""
    return [random_problem(np.random.default_rng(seed), m=4, k=3)
            for seed in (1, 2, 3)]


def _diagonal_problems() -> list:
    """Diagonal, m = 3: one form."""
    base = _diagonal_problem()
    return [base, LinearGaussianProblem.isotropic(3, 0.7, 0.3, sigma0=0.45),
            replace(base, A=-0.5 * base.A, Q=3.0 * base.Q, mu0=-base.mu0)]


def _mixed_problems() -> list:
    """Three forms, interleaved: dense PD Q, diagonal, dense rank-2 Q."""
    dense, diagonal = _dense_problems(), _diagonal_problems()
    return [dense[0], diagonal[0], _general_problem(False), dense[1],
            diagonal[1], _general_problem(False), dense[2]]


def _assert_runs_equal(runs, alone):
    for a, b in zip(alone, runs, strict=True):
        assert (a.seed, a.plan, a.degenerate) == (b.seed, b.plan,
                                                  b.degenerate)
        assert _bits(a.reports) == _bits(b.reports)
        assert a.means.tobytes() == b.means.tobytes()
        assert a.trajectory.truth.tobytes() == b.trajectory.truth.tobytes()
        assert (a.trajectory.observations.tobytes()
                == b.trajectory.observations.tobytes())


@pytest.mark.parametrize("resample_every", [1, 2])
@pytest.mark.parametrize("problems", [_dense_problems, _diagonal_problems,
                                      _mixed_problems],
                         ids=["dense", "diagonal", "mixed"])
@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_plans_run_together_equal_each_plan_alone(kind, problems,
                                                  resample_every,
                                                  monkeypatch):
    problems = problems()
    plans = [step_plan(problem, kind) for problem in problems]
    seeds = [3, 2 ** 32 + 1, 3, 8]
    widths = batch_widths(monkeypatch)
    together = run_plans(problems, plans, 5, 40, seeds,
                         resample_every=resample_every)
    # one batch per form, holding all its plans
    forms = {filters._form(plan) for plan in plans}
    assert sorted(widths) == sorted(
        sum(filters._form(plan) == form for plan in plans) for form in forms)
    for problem, plan, runs in zip(problems, plans, together, strict=True):
        _assert_runs_equal(runs, run_filters(
            problem, kind, 5, 40, seeds, resample_every=resample_every,
            plan=plan))


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_plans_split_across_batches_equal_each_plan_alone(kind,
                                                          monkeypatch):
    problems = _diagonal_problems() * 2
    plans = [step_plan(problem, kind) for problem in problems]
    seeds = [4, 5, 6]
    widths = batch_widths(monkeypatch)
    # room for four rows: four plans of a seed, then its other two
    row = 30 * 3 + sum(M.size for M in filters._matrices(plans[0])
                       if M is not None)
    monkeypatch.setattr(filters, "BATCH_ELEMENTS", 4 * row)
    together = run_plans(problems, plans, 4, 30, seeds, resample_every=2)
    assert widths == [4, 2] * len(seeds)
    for problem, plan, runs in zip(problems, plans, together, strict=True):
        _assert_runs_equal(runs, run_filters(problem, kind, 4, 30, seeds,
                                             resample_every=2, plan=plan))


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_plans_with_degenerate_rows_equal_each_plan_alone(kind):
    # seeds 1 and 7 overflow at the first step on the first plan; the
    # others have narrower priors, so a seed's rows leave the batch apart
    base = _overflowing_problem(kind)
    problems = [base, replace(base, Sigma0=[[1.0]]),
                replace(base, Sigma0=0.5 * base.Sigma0)]
    plans = [step_plan(problem, kind) for problem in problems]
    seeds = list(range(1, 9))
    with np.errstate(over="ignore", invalid="ignore"):
        together = run_plans(problems, plans, 4, 2, seeds, resample_every=2)
        alone = [run_filters(problem, kind, 4, 2, seeds, resample_every=2,
                             plan=plan)
                 for problem, plan in zip(problems, plans)]
    dead = [[run.seed for run in runs if run.degenerate] for runs in alone]
    assert dead[0] == [1, 7] and dead != [[1, 7]] * 3
    for runs, want in zip(together, alone, strict=True):
        _assert_runs_equal(runs, want)


def test_run_plans_of_no_plan_checks_its_arguments():
    assert run_plans([], [], 3, 10, [1]) == []
    with pytest.raises(ValueError, match="N must be >= 2"):
        run_plans([], [], 3, 1, [1])


# ---------------------------------------------------------------------------
# one-seed batches of a diagonal problem run on a thread per CPU

_WIDE_M, _WIDE_N = 66, 1000  # N m >= BATCH_ELEMENTS: a batch per seed


def _wide_diagonal_problem(kind) -> LinearGaussianProblem:
    """Diagonal, m = 66, with one prior variance so wide that at N = 1000
    every particle's first log-weight overflows for some draws: seeds 1
    and 4 of 1..5 go degenerate at the first step, and the other three
    run on."""
    r = 2e-10
    if kind == "sir":
        q, wide = 1.0, r * 1.7e308 / 1.5e-6
    else:
        q, wide = r, r * 1.7e308 / 0.75e-6
    eye = np.eye(_WIDE_M)
    return LinearGaussianProblem(
        A=eye, Q=q * eye, H=eye, R=r * eye, mu0=np.zeros(_WIDE_M),
        Sigma0=np.diag([wide] + [1.0] * (_WIDE_M - 1)))


def _cpus(monkeypatch, count):
    """Make this process see ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _counting_pools(monkeypatch) -> list:
    """The worker count of each thread pool that filters creates from now
    on."""
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            pools.append(max_workers)

    monkeypatch.setattr(filters, "ThreadPoolExecutor", CountingPool)
    return pools


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_threaded_runs_do_not_depend_on_the_thread_count(kind, monkeypatch):
    problem = _wide_diagonal_problem(kind)
    assert step_plan(problem, kind).A_T.ndim == 1
    seeds = [1, 2, 3, 4, 5]
    pools = _counting_pools(monkeypatch)
    _cpus(monkeypatch, 2)
    # the workers' warnings reach the caller, and so does its errstate
    with pytest.warns(RuntimeWarning, match="overflow"):
        run_filters(problem, kind, 4, _WIDE_N, [1, 2])
    with np.errstate(over="ignore", invalid="ignore"):
        for cpus in (2, 3, 1):
            _cpus(monkeypatch, cpus)
            runs = run_filters(problem, kind, 4, _WIDE_N, seeds,
                               resample_every=2)
            assert [run.seed for run in runs] == seeds
            assert [run.seed for run in runs if run.degenerate] == [1, 4]
            for run in runs:
                _assert_run_is_oracle(run, problem, kind, 4, _WIDE_N, 2)
    assert pools == [2, 2, 3]


def test_only_diagonal_one_seed_batches_use_threads(monkeypatch):
    pools = _counting_pools(monkeypatch)
    threads = threading.active_count()

    def pools_made(cpus, problem, kind, N, seeds,
                   batch=filters.BATCH_ELEMENTS) -> int:
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(filters, "BATCH_ELEMENTS", batch)
        before = len(pools)
        run_filters(problem, kind, 2, N, seeds)
        assert threading.active_count() == threads  # no worker left
        return len(pools) - before

    wide = LinearGaussianProblem.isotropic(_WIDE_M, 0.5, 1.0)
    dense = random_problem(np.random.default_rng(66), m=_WIDE_M)
    small = LinearGaussianProblem.isotropic(3, 0.5, 1.0)
    for kind in ("sir", "optimal"):
        assert pools_made(2, dense, kind, _WIDE_N, [1, 2]) == 0
        assert pools_made(2, small, kind, 60, [1, 2, 3]) == 0
        assert pools_made(2, small, kind, 60, [1, 2, 3, 4],
                          batch=2 * 60 * 3) == 0  # two batches of two
        assert pools_made(2, wide, kind, _WIDE_N, [1]) == 0
        assert pools_made(1, wide, kind, _WIDE_N, [1, 2]) == 0
        assert pools_made(2, wide, kind, _WIDE_N, [1, 2]) == 1
    assert pools == [2, 2]
    # without an affinity call, the CPU count is os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_filters(wide, "sir", 2, _WIDE_N, [1, 2, 3, 4])
    assert pools == [2, 2, 3]


def test_failing_batch_propagates_and_cancels_the_rest(monkeypatch):
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    started = []
    run_batch = filters._run_batch

    def failing(problem, plan, n_steps, N, seeds, resample_every):
        started.extend(seeds)
        if seeds == [1]:
            raise RuntimeError("batch of seed 1 failed")
        time.sleep(0.05)
        return run_batch(problem, plan, n_steps, N, seeds, resample_every)

    monkeypatch.setattr(filters, "_run_batch", failing)
    problem = LinearGaussianProblem.isotropic(_WIDE_M, 0.5, 1.0)
    seeds = list(range(1, 11))
    with pytest.raises(RuntimeError, match="seed 1 failed"):
        run_filters(problem, "sir", 2, _WIDE_N, seeds)
    assert 1 in started and len(started) < len(seeds)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# a run's noise streams: numpy's own seeding is the oracle

# seeds at the ends of the one-word range and beyond it; with tags 0-3
# and steps up to 10^4 they make 308 (seed, key) streams
_STREAM_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3,
                 2 ** 64 + 5]
_STREAM_KEYS = ([(tag,) for tag in range(4)]
                + [(tag, n) for tag in range(4)
                   for n in (0, 1, 2, 3, 19, 20, 293, 999, 4096, 10 ** 4)])


def _draws(rng) -> tuple:
    return rng.standard_normal(257).tobytes(), rng.random()


def _oracle_draws(seed, key) -> tuple:
    return _draws(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def test_bulk_streams_equal_default_rng():
    # each seed on two rows side by side: the second takes the first's draw
    streams = filters._Streams(_STREAM_SEEDS, repeats=2)
    assert streams.rows == 2 * len(_STREAM_SEEDS)
    for key in _STREAM_KEYS:
        rngs = list(streams.generators(key))
        assert rngs[1::2] == [None] * len(_STREAM_SEEDS)
        for seed, rng in zip(_STREAM_SEEDS, rngs[::2], strict=True):
            assert _draws(rng) == _oracle_draws(seed, key), (seed, key)
    # the rows still live in a batch: rows 8 and 9 are seed 2 ** 32's
    rows = [1, 2, 5, 8, 9, 13]
    for key in ((0,), (3, 10 ** 4)):
        rngs = list(streams.generators(key, rows=rows))
        assert [rng is None for rng in rngs] == [False] * 4 + [True, False]
        for row, rng in zip(rows, rngs):
            if rng is not None:
                seed = _STREAM_SEEDS[row // 2]
                assert _draws(rng) == _oracle_draws(seed, key), (seed, key)


def test_streams_of_other_seeds_and_keys_are_made_by_rng():
    seeds = [2 ** 32, 7, 2 ** 64 + 5]
    streams = filters._Streams(seeds)
    # every seed on its own stream, whichever rows are asked for
    for key in ((2, 0), (2, 11), (2, 12)):
        draws = [rng.standard_normal(5).tobytes()
                 for rng in streams.generators(key, rows=[2, 0, 1])]
        want = [np.random.default_rng(np.random.SeedSequence(
            entropy=seeds[i], spawn_key=key)).standard_normal(5).tobytes()
            for i in (2, 0, 1)]
        assert draws == want


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_runs_of_seeds_within_and_beyond_one_word_equal_serial_oracle(kind):
    problem = _BATCH_PROBLEMS["diagonal"]()
    seeds = [4, 2 ** 32 + 4, 11]
    for resample_every in (1, 2):
        for run in run_filters(problem, kind, 7, 30, seeds,
                               resample_every=resample_every):
            _assert_run_is_oracle(run, problem, kind, 7, 30, resample_every)


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_bulk_streams_raise_no_floating_point_error(kind):
    problem = _BATCH_PROBLEMS["diagonal"]()
    seeds = [0, 2 ** 32 - 1, 5, 2 ** 31 - 1]
    with np.errstate(all="raise"):
        runs = run_filters(problem, kind, 5, 40, seeds, resample_every=2)
    for run in runs:
        _assert_run_is_oracle(run, problem, kind, 5, 40, 2)


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_seed_alone_equals_seed_among_seeds_beyond_one_word(kind):
    problem = _BATCH_PROBLEMS["isotropic"]()
    seeds = [2 ** 32, 2 ** 40 + 3, 2 ** 33, 5, 2 ** 63, 2 ** 32 + 1,
             2 ** 64 + 7, 2 ** 35]
    assert len(seeds) * 60 * problem.m <= filters.BATCH_ELEMENTS
    # in the batch seed 5 is the one seed below 2^32
    alone = run_filter(problem, kind, 6, 60, 5, resample_every=2)
    runs = run_filters(problem, kind, 6, 60, seeds, resample_every=2)
    together = runs[seeds.index(5)]
    assert _bits(together.reports) == _bits(alone.reports)
    assert together.means.tobytes() == alone.means.tobytes()
    assert (together.trajectory.truth.tobytes()
            == alone.trajectory.truth.tobytes())
    for run in runs:
        _assert_run_is_oracle(run, problem, kind, 6, 60, 2)


def _exploding_problem(m) -> LinearGaussianProblem:
    """Diagonal, whose first component grows by 1e158 a step from a spread
    of 1e150: at the first step the particles beyond about 1.8 prior
    standard deviations overflow to inf, and a data scale of 1e-300 keeps
    the others' log-weights finite.  An inf particle keeps its inf in its
    own component, and its log-weight is -inf at every m."""
    eye = np.eye(m)
    return LinearGaussianProblem(
        A=np.diag([1e158, 0.5][:m]), Q=eye, H=1e-300 * eye, R=1e16 * eye,
        mu0=np.zeros(m), Sigma0=1e300 * eye)


@pytest.mark.parametrize("kind", ["sir", "optimal"])
def test_non_finite_steps_run_as_the_serial_oracle(kind):
    # one seed's weights underflow in a batch of eight ...
    problem = _overflowing_problem(kind)
    with np.errstate(over="ignore", invalid="ignore"):
        runs = run_filters(problem, kind, 4, 2, list(range(1, 9)),
                           resample_every=2)
    assert [run.seed for run in runs if run.degenerate] == [1, 7]
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            _assert_run_is_oracle(run, problem, kind, 4, 2, 2)
    # ... and particles overflow to inf; they weigh 0 at m = 2 as at
    # m = 1, so step 1 completes and the weights underflow at step 2
    for m in (1, 2):
        problem = _exploding_problem(m)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = run_filters(problem, kind, 3, 200, [3, 4])
            for run in runs:
                assert np.isfinite(run.trajectory.truth[1]).all()
                assert [r.degenerate for r in run.reports] == [False, True]
                _assert_run_is_oracle(run, problem, kind, 3, 200, 1)


def test_weighted_mean_leaves_out_particles_of_weight_zero(monkeypatch):
    # 0 * inf is NaN: an inf particle of weight 0 must not reach the mean
    problem = _exploding_problem(2)
    steps = []

    def spy(*args, **kwargs):
        ensemble = sir_step(*args, **kwargs)
        steps.append((ensemble.positions.copy(), ensemble.log_weights.copy()))
        return ensemble

    monkeypatch.setattr(filters, "sir_step", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        runs = run_filters(problem, "sir", 1, 200, [3, 4])
    [(positions, log_weights)] = steps
    for run, x, lw in zip(runs, positions, log_weights):
        w = np.exp(lw - logsumexp(lw))
        zero = w == 0.0
        assert np.isinf(x[zero]).any() and np.isfinite(x[~zero]).all()
        assert np.isfinite(run.means).all()
        np.testing.assert_allclose(run.means[0], w[~zero] @ x[~zero],
                                   rtol=1e-14)
