import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import spearmanr

from effdim.balance import MapKind
from effdim.cli import main
from effdim.filters import simulate
from effdim.kalman import kalman_cov_step
from effdim.model import LinearGaussianProblem, frobenius, save_problem
from effdim.smoothing import (optimal_smoother_sample,
                              sir_smoother_log_weight, smoother_condition,
                              strong_balance_map, strong_mean,
                              strong_precision, weak_mode, weak_precision)
from util import (dense_precision, kalman_filter_means, random_problem,
                  random_spd)


# ---------------------------------------------------------------------------
# Brute-force joint-Gaussian oracles.  Both build the full covariance of
# (states, observations) from the model recursions and condition directly;
# they share no code with the precision assembly they check.


def joint_state_covariance(problem, n):
    """Covariance blocks C[i][j] = Cov(x^i, x^j) for i, j = 0..n."""
    m = problem.m
    C = [[None] * (n + 1) for _ in range(n + 1)]
    C[0][0] = problem.Sigma0.copy()
    for i in range(n):
        # new row from x^{i+1} = A x^i + w^i
        for j in range(i + 1):
            C[i + 1][j] = problem.A @ C[i][j]
            C[j][i + 1] = C[i + 1][j].T
        C[i + 1][i + 1] = problem.A @ C[i][i] @ problem.A.T + problem.Q
    return C


def conditional_trajectory_gaussian(problem, observations):
    """Mean and covariance of x^{0:n} | z^{1:n} by direct conditioning."""
    observations = np.atleast_2d(observations)
    n = observations.shape[0]
    m, k = problem.m, problem.k
    C = joint_state_covariance(problem, n)
    C_xx = np.block([[C[i][j] for j in range(n + 1)] for i in range(n + 1)])
    H = problem.H
    C_xz = np.block([[C[i][j] @ H.T for j in range(1, n + 1)]
                     for i in range(n + 1)])
    C_zz = np.block([[H @ C[i][j] @ H.T + (problem.R if i == j else
                                           np.zeros((k, k)))
                      for j in range(1, n + 1)] for i in range(1, n + 1)])
    mu_x = np.concatenate([np.linalg.matrix_power(problem.A, i) @ problem.mu0
                           for i in range(n + 1)])
    mu_z = np.concatenate([H @ np.linalg.matrix_power(problem.A, i)
                           @ problem.mu0 for i in range(1, n + 1)])
    gain = C_xz @ np.linalg.inv(C_zz)
    mean = mu_x + gain @ (observations.reshape(-1) - mu_z)
    cov = C_xx - gain @ C_xz.T
    return mean, 0.5 * (cov + cov.T)


def conditional_x0_gaussian_perfect_model(problem, observations):
    """Mean and covariance of x^0 | z^{1:n} with Q = 0 (strong constraint)."""
    observations = np.atleast_2d(observations)
    n = observations.shape[0]
    k = problem.k
    powers = [np.linalg.matrix_power(problem.A, j) for j in range(n + 1)]
    C_xz = np.hstack([problem.Sigma0 @ powers[j].T @ problem.H.T
                      for j in range(1, n + 1)])
    C_zz = np.block([[problem.H @ powers[i] @ problem.Sigma0 @ powers[j].T
                      @ problem.H.T + (problem.R if i == j else
                                       np.zeros((k, k)))
                      for j in range(1, n + 1)] for i in range(1, n + 1)])
    mu_z = np.concatenate([problem.H @ powers[j] @ problem.mu0
                           for j in range(1, n + 1)])
    gain = C_xz @ np.linalg.inv(C_zz)
    mean = problem.mu0 + gain @ (observations.reshape(-1) - mu_z)
    cov = problem.Sigma0 - gain @ C_xz.T
    return mean, 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# strong constraint


def test_strong_precision_isotropic_formula():
    problem = LinearGaussianProblem.isotropic(100, 0.0, 1.0, sigma0=1.0)
    post = strong_precision(problem, 1)
    assert post.frob_cov == pytest.approx(5.0, abs=1e-10)
    assert post.n_data == 1


def test_strong_precision_no_data_is_prior():
    rng = np.random.default_rng(1)
    Sigma0 = random_spd(rng, 3)
    problem = LinearGaussianProblem(A=np.eye(3), Q=np.zeros((3, 3)),
                                    H=np.eye(3), R=np.eye(3),
                                    mu0=np.zeros(3), Sigma0=Sigma0)
    post = strong_precision(problem, 0)
    assert np.allclose(post.covariance.a, Sigma0, atol=1e-10)


def test_strong_precision_matches_conditioning_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        problem = random_problem(rng, m=2, k=2)
        traj = simulate(problem, 3, seed=int(rng.integers(1 << 20)))
        post = strong_precision(problem, 3)
        mean_ref, cov_ref = conditional_x0_gaussian_perfect_model(
            problem, traj.observations)
        assert np.linalg.norm(post.covariance.a - cov_ref) <= 1e-8
        mean = strong_mean(problem, traj.observations, post)
        assert np.linalg.norm(mean - mean_ref) <= 1e-8


def test_strong_precision_requires_pd_sigma0():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0, sigma0=0.0)
    with pytest.raises(np.linalg.LinAlgError, match="Sigma0"):
        strong_precision(problem, 1)


def test_strong_frob_shrinks_with_data():
    rng = np.random.default_rng(23)
    for _ in range(5):
        problem = random_problem(rng, m=3, k=2)
        values = [strong_precision(problem, n).frob_cov for n in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_strong_balance_map_level_sets():
    grid = np.logspace(-2, 2, 60)
    bm = strong_balance_map(grid, grid, dims=[10, 100, 1000])
    assert bm.kind is MapKind.STRONG
    assert {ls.m for ls in bm.level_sets} == {10, 100, 1000}


# ---------------------------------------------------------------------------
# SIR-like smoother weights


def test_sir_smoother_zero_misfit():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    x0 = np.array([0.3, -0.4])
    obs = np.array([x0, x0, x0])  # A = H = I reproduces x0 at every step
    assert sir_smoother_log_weight(problem, x0, obs) == 0.0


def test_sir_smoother_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 0.0, 1.0)
    lw = sir_smoother_log_weight(problem, np.array([0.0]),
                                 np.array([[2.0]]))
    assert lw == pytest.approx(-2.0, abs=1e-14)


def test_sir_smoother_dimension_check():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        sir_smoother_log_weight(problem, np.zeros(3), np.zeros((1, 2)))


def test_sir_smoother_weight_variance_tracks_frobenius():
    # var of phi over draws of x0 should increase with
    # ||H A Sigma0 A' H' R^{-1}||_F across a sigma0 sweep
    rng = np.random.default_rng(3)
    sweep = np.logspace(-1, 1, 8)
    variances, frobs = [], []
    for s0 in sweep:
        problem = LinearGaussianProblem.isotropic(2, 0.0, 0.7, sigma0=float(s0))
        traj = simulate(problem, 1, seed=5)
        x0s = rng.normal(0.0, np.sqrt(s0), size=(100_000, 2))
        z = traj.observations
        d = z[0] - x0s  # A = H = I
        phi = 0.5 * np.einsum("ij,ij->i", d, d) / 0.7
        variances.append(float(np.var(phi)))
        frobs.append(frobenius(s0 * np.eye(2) / 0.7))
    rho = spearmanr(variances, frobs).statistic
    assert rho > 0.9


def test_smoother_condition_flip_aligns_with_collapse():
    # the sufficient condition carries an m^{5/2} slack factor at
    # A = H = I, so the sweep uses factor-1000 cells; the condition flip
    # and the empirical collapse onset must land in adjacent cells
    m, N = 10, 1000
    grid = [1e-6, 1e-3, 1.0, 1e3]
    holds, collapsed = [], []
    for s0 in grid:
        problem = LinearGaussianProblem.isotropic(m, 0.0, 1.0, sigma0=s0)
        holds.append(smoother_condition(problem).holds)
        fails = 0
        for seed in range(10):
            traj = simulate(problem, 1, seed)
            rng = np.random.default_rng((seed, 77))
            x0s = rng.normal(0.0, np.sqrt(s0), size=(N, m))
            lw = np.array([sir_smoother_log_weight(problem, x,
                                                   traj.observations)
                           for x in x0s])
            w = np.exp(lw - logsumexp(lw))
            fails += w.max() > 0.5
        collapsed.append(fails >= 5)
    first_violation = holds.index(False)
    first_collapse = collapsed.index(True)
    assert abs(first_violation - first_collapse) <= 1


# ---------------------------------------------------------------------------
# weak constraint


def test_weak_precision_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0, sigma0=1.0)
    post = weak_precision(problem, 1)
    np.testing.assert_allclose(dense_precision(post),
                               [[2.0, -1.0], [-1.0, 2.0]], atol=1e-14)
    assert post.frob_cov == pytest.approx(
        np.linalg.norm(np.linalg.inv([[2.0, -1.0], [-1.0, 2.0]])))


def test_weak_precision_block_sparsity():
    rng = np.random.default_rng(2)
    problem = random_problem(rng, m=2, k=2)
    post = weak_precision(problem, 4)
    dense = dense_precision(post)
    m = 2
    for i in range(5):
        for j in range(5):
            if abs(i - j) > 1:
                block = dense[i * m:(i + 1) * m, j * m:(j + 1) * m]
                assert np.all(block == 0.0)


def test_weak_precision_matches_conditioning_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        problem = random_problem(rng, m=2, k=2)
        post = weak_precision(problem, 4)
        cov = np.linalg.inv(dense_precision(post))
        traj = simulate(problem, 4, seed=int(rng.integers(1 << 20)))
        _, cov_ref = conditional_trajectory_gaussian(problem,
                                                     traj.observations)
        assert np.linalg.norm(cov - cov_ref) <= 1e-8


def test_weak_precision_marginal_matches_kalman():
    rng = np.random.default_rng(37)
    for _ in range(5):
        problem = random_problem(rng, m=2, k=2)
        n = 5
        post = weak_precision(problem, n)
        cov = np.linalg.inv(dense_precision(post))
        m = problem.m
        P = problem.Sigma0
        for _ in range(n):
            P = kalman_cov_step(problem, P).a
        last = cov[n * m:(n + 1) * m, n * m:(n + 1) * m]
        assert np.linalg.norm(last - P) <= 1e-8


@pytest.mark.parametrize("m,n,isotropic", [
    (1, 1, False), (2, 5, False), (3, 4, False), (5, 9, False),
    (8, 3, False), (20, 12, True),
    (3, 700, False),  # (n+1)m = 2103: a long window past 2000 unknowns
])
def test_weak_precision_frob_cov_matches_dense_inverse(m, n, isotropic):
    if isotropic:
        problem = LinearGaussianProblem.isotropic(m, 0.5, 2.0, sigma0=3.0)
    else:
        rng = np.random.default_rng(41 + 100 * m + n)
        problem = random_problem(rng, m=m, k=max(1, m - 1))
    post = weak_precision(problem, n)
    exact = np.linalg.norm(np.linalg.inv(dense_precision(post)))
    assert post.frob_cov == pytest.approx(exact, rel=1e-12, abs=0)


def test_weak_precision_requires_pd_q():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular Q"):
        weak_precision(problem, 2)


def test_weak_mode_no_data_propagates_prior_mean():
    mu0 = np.array([1.0, 2.0])
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    problem = LinearGaussianProblem(A=A, Q=np.eye(2), H=np.zeros((1, 2)),
                                    R=np.eye(1), mu0=mu0, Sigma0=np.eye(2))
    mode = weak_mode(problem, np.zeros((3, 1))).reshape(4, 2)
    expected = [mu0, A @ mu0, A @ A @ mu0, A @ A @ A @ mu0]
    np.testing.assert_allclose(mode, expected, atol=1e-12)


def test_weak_mode_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0, sigma0=1.0)
    mode = weak_mode(problem, np.array([[3.0]]))
    np.testing.assert_allclose(mode, [1.0, 2.0], atol=1e-12)


def test_weak_mode_final_block_equals_kalman_mean():
    rng = np.random.default_rng(53)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        problem = random_problem(rng, m=m, k=m)
        n = int(rng.integers(1, 11))
        traj = simulate(problem, n, seed=int(rng.integers(1 << 20)))
        mode = weak_mode(problem, traj.observations)
        means = kalman_filter_means(problem, traj.observations)
        assert np.linalg.norm(mode[-m:] - means[-1]) <= 1e-8


def test_weak_mode_equals_conditional_mean_oracle():
    rng = np.random.default_rng(59)
    problem = random_problem(rng, m=2, k=2)
    traj = simulate(problem, 4, seed=7)
    mode = weak_mode(problem, traj.observations)
    mean_ref, _ = conditional_trajectory_gaussian(problem, traj.observations)
    assert np.linalg.norm(mode - mean_ref) <= 1e-8


@pytest.mark.parametrize("observations", [
    np.zeros((3, 3)), np.zeros((0,)), np.array([[0.5, np.nan]]),
    np.array([[np.inf, 0.5]]), np.zeros((2, 1, 2))],
    ids=["wide", "empty", "nan", "inf", "3-d"])
def test_smoothers_reject_malformed_observations(observations):
    problem = random_problem(np.random.default_rng(97), m=3, k=2)
    calls = [lambda: weak_mode(problem, observations),
             lambda: weak_mode(problem, observations,
                               weak_precision(problem, 1)),
             lambda: optimal_smoother_sample(problem, observations, 4, 1),
             lambda: strong_mean(problem, observations),
             lambda: sir_smoother_log_weight(problem, np.zeros(3),
                                             observations)]
    for call in calls:
        with pytest.raises(ValueError, match="observations"):
            call()


def test_weak_smoothing_factors_the_precision_once(count_linalg, tmp_path,
                                                   capsys):
    problem = random_problem(np.random.default_rng(101), m=3, k=2)
    n = 4
    observations = simulate(problem, n, seed=3).observations
    for call in (lambda: weak_mode(problem, observations),
                 lambda: weak_precision(problem, n),
                 lambda: optimal_smoother_sample(problem, observations, 8,
                                                 seed=5, constraint="weak")):
        count_linalg.clear()
        call()
        assert count_linalg.count("cholesky") == n + 1
        assert "solve" not in count_linalg
    # the mode reuses a posterior's factor
    posterior = weak_precision(problem, n)
    count_linalg.clear()
    weak_mode(problem, observations, posterior)
    assert "cholesky" not in count_linalg and "solve" not in count_linalg
    # the smooth command reports frob_cov and the mode from one factor
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    count_linalg.clear()
    assert main(["--command", "smooth", "--problem", str(path),
                 "--steps", str(n), "--seeds", "3",
                 "--out", str(tmp_path / "smooth")]) == 0
    assert count_linalg.count("cholesky") == n + 1
    capsys.readouterr()


@pytest.mark.parametrize("isotropic", [False, True])
def test_weak_mode_from_a_posterior_equals_weak_mode(isotropic):
    problem = (LinearGaussianProblem.isotropic(3, 0.5, 2.0) if isotropic
               else random_problem(np.random.default_rng(103), m=3, k=2))
    observations = simulate(problem, 5, seed=4).observations
    mode = weak_mode(problem, observations, weak_precision(problem, 5))
    assert mode.tobytes() == weak_mode(problem, observations).tobytes()
    with pytest.raises(ValueError, match="posterior is for 4 data sets"):
        weak_mode(problem, observations, weak_precision(problem, 4))


def test_strong_is_schur_complement_of_weak_at_vanishing_q():
    rng = np.random.default_rng(61)
    problem = random_problem(rng, m=2, k=2)
    tiny_q = LinearGaussianProblem(A=problem.A, Q=1e-10 * np.eye(2),
                                   H=problem.H, R=problem.R,
                                   mu0=problem.mu0, Sigma0=problem.Sigma0)
    n = 3
    dense = dense_precision(weak_precision(tiny_q, n))
    m = 2
    P00 = dense[:m, :m]
    P0r = dense[:m, m:]
    Prr = dense[m:, m:]
    schur = P00 - P0r @ np.linalg.solve(Prr, P0r.T)
    strong = strong_precision(problem, n).precision.a
    assert (np.linalg.norm(schur - strong)
            <= 1e-4 * np.linalg.norm(strong))


# ---------------------------------------------------------------------------
# optimal smoother sampling


def test_optimal_smoother_weak_moments_and_uniform_weights():
    rng = np.random.default_rng(67)
    problem = random_problem(rng, m=2, k=2)
    traj = simulate(problem, 3, seed=11)
    N = 100_000
    samples, weights = optimal_smoother_sample(problem, traj.observations,
                                               N, seed=13)
    assert np.all(weights == 1.0 / N)
    mean_ref, cov_ref = conditional_trajectory_gaussian(problem,
                                                        traj.observations)
    sample_mean = samples.mean(axis=0)
    se = np.sqrt(np.diag(cov_ref) / N)
    assert np.all(np.abs(sample_mean - mean_ref) <= 3.0 * se)
    sample_cov = np.cov(samples.T)
    assert (np.linalg.norm(sample_cov - cov_ref)
            <= 0.05 * np.linalg.norm(cov_ref))


def test_optimal_smoother_strong_moments():
    rng = np.random.default_rng(71)
    problem = random_problem(rng, m=2, k=2)
    traj = simulate(problem, 3, seed=19)
    N = 100_000
    samples, weights = optimal_smoother_sample(problem, traj.observations,
                                               N, seed=23,
                                               constraint="strong")
    assert samples.shape == (N, 2)
    assert np.all(weights == 1.0 / N)
    mean_ref, cov_ref = conditional_x0_gaussian_perfect_model(
        problem, traj.observations)
    se = np.sqrt(np.diag(cov_ref) / N)
    assert np.all(np.abs(samples.mean(axis=0) - mean_ref) <= 3.0 * se)
    assert (np.linalg.norm(np.cov(samples.T) - cov_ref)
            <= 0.05 * np.linalg.norm(cov_ref))


def test_optimal_smoother_rejects_unknown_constraint():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_smoother_sample(problem, np.zeros((1, 1)), 10, seed=0,
                                constraint="medium")


def _dense_oracle_noise(precision, xi):
    """Rows y with L' y' = xi' for L = cholesky(precision), dense."""
    L = np.linalg.cholesky(precision)
    return np.linalg.solve(L.T, xi.T).T


def test_optimal_smoother_weak_draw_matches_dense_oracle():
    rng = np.random.default_rng(83)
    problem = random_problem(rng, m=3, k=2)
    n, N, seed = 4, 64, 29
    observations = simulate(problem, n, seed=5).observations
    samples, _ = optimal_smoother_sample(problem, observations, N, seed)
    xi = np.random.default_rng(seed).standard_normal((N, n + 1, 3))
    noise = _dense_oracle_noise(dense_precision(weak_precision(problem, n)),
                                xi.reshape(N, -1))
    drawn = samples - weak_mode(problem, observations)
    assert np.linalg.norm(drawn - noise) <= 1e-10 * np.linalg.norm(noise)


def test_optimal_smoother_strong_draw_matches_dense_oracle():
    rng = np.random.default_rng(89)
    problem = random_problem(rng, m=3, k=2)
    n, N, seed = 4, 64, 31
    observations = simulate(problem, n, seed=7).observations
    samples, _ = optimal_smoother_sample(problem, observations, N, seed,
                                         constraint="strong")
    xi = np.random.default_rng(seed).standard_normal((N, 3))
    posterior = strong_precision(problem, n)
    noise = _dense_oracle_noise(posterior.precision.a, xi)
    drawn = samples - strong_mean(problem, observations, posterior)
    assert np.linalg.norm(drawn - noise) <= 1e-10 * np.linalg.norm(noise)
