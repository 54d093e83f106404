import numpy as np
import pytest
from scipy.stats import spearmanr

from effdim.filters import (FilterKind, ParticleEnsemble, WeightCollapseError,
                            collapse_stat, diagnostics, init_ensemble,
                            optimal_log_weight_increment, optimal_step,
                            resample, run_filter, simulate, sir_step,
                            trajectory_from_json, trajectory_to_json)
from effdim.kalman import isotropic_steady_p, solve_dare
from effdim.model import LinearGaussianProblem
from util import kalman_filter_means

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
