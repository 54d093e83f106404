import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from effdim.kalman import (DARE_MAX_ITER, DARE_TOL, DareConvergenceError,
                           _steady, dare_residual, effective_dimension,
                           isotropic_steady_p, kalman_cov_step, positive_root,
                           solve_dare, spread_stats)
from effdim.model import (LinearGaussianProblem, PsdVerdict, frobenius,
                          psd_compare, psd_factor)
from util import (SCALES, random_problem, random_spd, scale_problems,
                  scaled, steady_state_to_json)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # steady per-component P at q = r = 1


# Independent oracle for effective_dimension: sample covariance of the
# steady-state filter error e[n+1] = (I-KH)(A e[n] + w[n]) - K v[n+1],
# over independent chains run side by side past a burn-in.
def _error_chain_cov(A, IKH, K, Lq, Lr, rng, chains=1000, steps=1000,
                     burn=100):
    e = np.zeros((chains, A.shape[0]))
    s2 = np.zeros(A.shape)
    for i in range(burn + steps):
        w = rng.standard_normal(e.shape) @ Lq.T
        v = rng.standard_normal((chains, Lr.shape[0])) @ Lr.T
        e = (e @ A.T + w) @ IKH.T - v @ K.T
        if i >= burn:
            s2 += e.T @ e
    return s2 / (chains * steps)


def test_cov_step_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    P1 = kalman_cov_step(problem, np.zeros((1, 1)))
    # X = 1, K = 1/2, P1 = (1 - 1/2) * 1
    assert P1.a[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_cov_step_perfect_model_stays_perfect():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    P1 = kalman_cov_step(problem, np.zeros((2, 2)))
    assert np.allclose(P1.a, 0.0, atol=1e-15)


def test_cov_step_isotropic_converges_to_golden_ratio():
    problem = LinearGaussianProblem.isotropic(3, 1.0, 1.0)
    P = np.zeros((3, 3))
    for _ in range(100):
        P = kalman_cov_step(problem, P).a
    assert np.allclose(np.diag(P), GOLDEN, atol=1e-9)
    assert np.allclose(P - np.diag(np.diag(P)), 0.0, atol=1e-12)


def test_cov_step_singular_innovation():
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=eye, Q=np.zeros((2, 2)), H=eye,
                                    R=np.zeros((2, 2)), mu0=np.zeros(2),
                                    Sigma0=eye)
    with pytest.raises(np.linalg.LinAlgError, match="innovation covariance"):
        kalman_cov_step(problem, np.zeros((2, 2)))


def test_solve_dare_isotropic_m5():
    problem = LinearGaussianProblem.isotropic(5, 1.0, 1.0)
    state = solve_dare(problem)
    expected = np.sqrt(5.0) * GOLDEN
    assert state.eff_dim == pytest.approx(expected, rel=1e-8)


def test_solve_dare_strong_constraint_limit():
    problem = LinearGaussianProblem.isotropic(4, 0.0, 2.0)
    state = solve_dare(problem, tol=1e-8)
    assert state.eff_dim < 1e-3


def test_solve_dare_inverse_dimension_scaling():
    m = 100
    problem = LinearGaussianProblem.isotropic(m, 1.0 / m, 1.0 / m)
    state = solve_dare(problem)
    # closed form gives (sqrt(5)-1)/(2 sqrt(m)) for q = r = 1/m
    assert state.eff_dim == pytest.approx(GOLDEN / np.sqrt(m), rel=1e-6)


def test_solve_dare_matches_scipy_on_random_problems():
    rng = np.random.default_rng(314)
    for _ in range(20):
        problem = random_problem(rng)
        state = solve_dare(problem)
        X_ref = sla.solve_discrete_are(problem.A.T, problem.H.T, problem.Q,
                                       problem.R)
        assert np.linalg.norm(state.X.a - X_ref) <= 1e-6 * (
            1.0 + np.linalg.norm(X_ref))


def test_solve_dare_residual_invariant_and_p_below_x():
    rng = np.random.default_rng(21)
    for _ in range(20):
        problem = random_problem(rng)
        state = solve_dare(problem)
        assert dare_residual(problem, state.X) <= 1e-8 * (
            1.0 + frobenius(state.X))
        verdict = psd_compare(state.P, state.X).verdict
        assert verdict in (PsdVerdict.LESS_OR_EQUAL, PsdVerdict.EQUAL)


def test_solve_dare_start_independence():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, m=4)
    a = solve_dare(replace(problem, Sigma0=np.zeros((4, 4))))
    b = solve_dare(replace(problem, Sigma0=10.0 * np.eye(4)))
    assert np.linalg.norm(a.P.a - b.P.a) <= 1e-6


def test_solve_dare_comparison_monotonicity_sample():
    rng = np.random.default_rng(77)
    for _ in range(10):
        base = random_problem(rng, m=3)
        L1 = rng.standard_normal((3, 3)) * 0.5
        L2 = rng.standard_normal((3, 3)) * 0.5
        bigger = LinearGaussianProblem(
            A=base.A, Q=base.Q + L1 @ L1.T, H=base.H, R=base.R + L2 @ L2.T,
            mu0=base.mu0, Sigma0=base.Sigma0)
        X_small = solve_dare(base).X
        X_big = solve_dare(bigger).X
        assert psd_compare(X_small, X_big).verdict in (
            PsdVerdict.LESS_OR_EQUAL, PsdVerdict.EQUAL)


def test_solve_dare_nonconvergence_reports_residual():
    # unstable model, no data: the covariance grows without bound
    m = 2
    problem = LinearGaussianProblem(A=2.0 * np.eye(m), Q=np.eye(m),
                                    H=np.zeros((1, m)), R=np.eye(1),
                                    mu0=np.zeros(m), Sigma0=np.eye(m))
    with pytest.raises(DareConvergenceError) as err:
        solve_dare(problem, tol=1e-10, max_iter=200)
    assert err.value.residual > 0.0
    assert err.value.iterations == 200


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(0.1, 1.5))
def test_solve_dare_matches_scipy_property(seed, m, radius):
    # PD Q makes (A, Q^{1/2}) stabilizable; a stable A, or a square H
    # (full rank almost surely) when A may be unstable, makes (H, A)
    # detectable
    rng = np.random.default_rng(seed)
    k = m if radius >= 1.0 else int(rng.integers(1, m + 1))
    problem = random_problem(rng, m=m, k=k, radius=radius)
    state = solve_dare(problem)
    X_ref = sla.solve_discrete_are(problem.A.T, problem.H.T, problem.Q,
                                   problem.R)
    assert np.linalg.norm(state.X.a - X_ref) <= 1e-8 * np.linalg.norm(X_ref)


def test_solve_dare_small_noise_ratio_m100_matches_closed_form():
    # the fixed-point map contracts at rate ~0.98 here, so stopping on
    # its step size can land 5.5e-8 relative off; the residual stop holds
    problem = LinearGaussianProblem.isotropic(100, 1e-4, 1.0)
    state = solve_dare(problem)
    expected = np.sqrt(100) * isotropic_steady_p(1e-4, 1.0)
    assert state.eff_dim == pytest.approx(expected, rel=1e-8)
    assert state.residual == dare_residual(problem, state.X)


@pytest.mark.parametrize("q", [1e-8, 1e-12])
def test_solve_dare_stop_is_relative_at_small_noise(q):
    # tol * (1 + ||X||) would accept an X that is 2.8e-3 off at q = 1e-8
    state = solve_dare(LinearGaussianProblem.isotropic(1, q, 1.0))
    assert state.eff_dim == pytest.approx(isotropic_steady_p(q, 1.0),
                                          rel=1e-8)


def test_solve_dare_zero_solution_counts_as_converged():
    problem = LinearGaussianProblem(A=np.array([[0.5]]), Q=np.zeros((1, 1)),
                                    H=np.eye(1), R=np.eye(1),
                                    mu0=np.zeros(1), Sigma0=np.zeros((1, 1)))
    state = solve_dare(problem)
    assert state.eff_dim == 0.0 and state.residual == 0.0


def test_solve_dare_unreachable_tol_stagnates_early():
    # round-off floors the residual far above 1e-300: doubling stops
    # changing X and the solver gives up at once instead of running on
    problem = random_problem(np.random.default_rng(5), m=20)
    with pytest.raises(DareConvergenceError, match="stagnated") as err:
        solve_dare(problem, tol=1e-300)
    assert 0.0 < err.value.residual < 1e-8
    assert err.value.iterations < 30


def test_solve_dare_overflow_is_not_convergence():
    # doubling overflows on A = sqrt(2) I with no data, and the sweep
    # X <- 2X + I reaches a sweep where ||X||_F has overflowed but the
    # step ||X|| has not: that must not pass as converged
    problem = LinearGaussianProblem(A=np.sqrt(2.0) * np.eye(2), Q=np.eye(2),
                                    H=np.zeros((1, 2)), R=np.eye(1),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    with pytest.raises(DareConvergenceError, match="diverged") as err:
        solve_dare(problem, max_iter=2000)
    assert err.value.iterations < 2000


@pytest.mark.parametrize("m", [1, 3])
def test_solve_dare_converges_where_the_norm_of_x_overflows(m):
    # ||X||_F^2 overflows at q = 1e300 although every entry is finite:
    # the doubling decides on the norm, which keeps in range by scaling
    with np.errstate(over="ignore"):
        state = solve_dare(LinearGaussianProblem.isotropic(m, 1e300, 1.0))
    np.testing.assert_array_equal(np.diag(state.X.a), np.full(m, 1e300))
    assert state.iterations < 10 and state.residual == 0.0


@pytest.mark.parametrize("name", sorted(scale_problems()))
def test_solve_dare_is_scale_covariant_bit_for_bit(name):
    # the DARE is homogeneous in (Q, R, Sigma0), and doubling never squares
    # X: scaled by 2^j, X and P scale exactly and K and the doublings stay,
    # out to the ends of the float range
    problem = scale_problems()[name]
    base = solve_dare(problem)
    for j in SCALES:
        state = solve_dare(scaled(problem, j))
        np.testing.assert_array_equal(state.X.a, np.ldexp(base.X.a, j))
        np.testing.assert_array_equal(state.P.a, np.ldexp(base.P.a, j))
        np.testing.assert_array_equal(state.K, base.K)
        assert state.iterations == base.iterations
        assert state.eff_dim == np.ldexp(base.eff_dim, j)


def test_solve_dare_singular_r_falls_back_to_sweep():
    # R = 0 leaves G_0 = H'R^{-1}H undefined; the sweep finds the exact
    # steady state of perfect observations, P = 0 and X = Q
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=0.5 * eye, Q=eye, H=eye,
                                    R=np.zeros((2, 2)), mu0=np.zeros(2),
                                    Sigma0=eye)
    state = solve_dare(problem)
    np.testing.assert_allclose(state.X.a, eye, atol=1e-14)
    assert state.eff_dim <= 1e-14
    assert state.iterations == 2


def test_solve_dare_unexcited_unstable_mode_follows_the_recursion():
    # with Q = 0 both X = 0 and X = 3 solve x = 4x - 4x^2/(x + 1); the
    # recursion from Sigma0 = 1 reaches the stabilizing X = 3, P = 3/4
    problem = LinearGaussianProblem(A=np.array([[2.0]]), Q=np.zeros((1, 1)),
                                    H=np.eye(1), R=np.eye(1), mu0=np.zeros(1),
                                    Sigma0=np.eye(1))
    state = solve_dare(problem)
    assert state.X.a[0, 0] == pytest.approx(3.0, rel=1e-10)
    assert state.P.a[0, 0] == pytest.approx(0.75, rel=1e-10)
    # a stable excited mode beside it keeps its own steady state
    problem = LinearGaussianProblem(A=np.diag([0.5, 2.0]), Q=np.diag([1.0, 0]),
                                    H=np.eye(2), R=np.eye(2), mu0=np.zeros(2),
                                    Sigma0=np.eye(2))
    X_ref = sla.solve_discrete_are(problem.A.T, problem.H.T, problem.Q,
                                   problem.R)
    np.testing.assert_allclose(solve_dare(problem).X.a, X_ref, rtol=1e-10,
                               atol=1e-12)


def test_solve_dare_unexcited_marginal_mode_is_exact():
    # A = I, Q = 0: the posterior shrinks to zero, which doubling from
    # zero covariance meets at once
    state = solve_dare(LinearGaussianProblem.isotropic(50, 0.0, 1.0))
    assert state.eff_dim == 0.0
    assert state.iterations == 0


def test_diagonal_dare_takes_o_m_memory():
    # the diagonals of an isotropic m = 2000 problem: an m x m matrix
    # would take 32 MB
    ones = np.ones(2000)
    tracemalloc.start()
    try:
        _steady(ones, 1e-2 * ones, ones, ones, ones, DARE_TOL, DARE_MAX_ITER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("tol,max_iter", [(0.0, 10), (-1.0, 10),
                                          (float("nan"), 10),
                                          (float("inf"), 10), (1e-10, 0)])
def test_solve_dare_rejects_bad_options(tol, max_iter):
    with pytest.raises(ValueError):
        solve_dare(LinearGaussianProblem.isotropic(2, 1.0, 1.0), tol=tol,
                   max_iter=max_iter)


def test_isotropic_steady_p_is_homogeneous_at_every_scale():
    # p(2^j q, 2^j r) = 2^j p(q, r) exactly, also where q q and 4 q r
    # leave the float range
    for q, r in ((1.0, 1.0), (0.3, 1.7), (1e-4, 1.0), (100.0, 3.0)):
        p = isotropic_steady_p(q, r)
        for j in SCALES:
            assert (isotropic_steady_p(np.ldexp(q, j), np.ldexp(r, j))
                    == np.ldexp(p, j))
    for c in (1e200, 1e-160, 1e-250, 1e300):
        assert isotropic_steady_p(c, c) == pytest.approx(GOLDEN * c,
                                                         rel=1e-15, abs=0.0)


def test_isotropic_steady_p_values():
    assert isotropic_steady_p(1.0, 1.0) == pytest.approx(GOLDEN, abs=1e-15)
    assert isotropic_steady_p(0.0, 3.0) == 0.0
    assert isotropic_steady_p(0.01, 1.0) == pytest.approx(0.0951249, abs=5e-8)
    # cross-check against the m = 1 fixed point
    problem = LinearGaussianProblem.isotropic(1, 0.01, 1.0)
    state = solve_dare(problem, tol=1e-14)
    assert state.P.a[0, 0] == pytest.approx(isotropic_steady_p(0.01, 1.0),
                                            abs=1e-10)


def _root_oracle(alpha: float, beta: float, gamma: float) -> float:
    # the form without cancellation, at 60 digits
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c = Decimal(alpha), Decimal(beta), Decimal(gamma)
        d = (b * b + 4 * a * c).sqrt()
        return float(2 * c / (b + d) if b > 0 else (d - b) / (2 * a))


def test_positive_root_unit_cases():
    assert positive_root(1.0, 1.0, 1.0) == pytest.approx(GOLDEN, rel=1e-15)
    assert positive_root(1.0, -1.0, 1.0) == pytest.approx(1.0 + GOLDEN,
                                                          rel=1e-15)
    # alpha = 0: the root of the linear equation, bit for bit
    for beta, gamma in ((4.0, 2.0), (3.0, 1.0), (0.7, 1e-300)):
        assert positive_root(0.0, beta, gamma) == gamma / beta
    # beta of either sign, and beta = 0
    assert positive_root(2.0, 3.0, 2.0) == 0.5
    assert positive_root(2.0, -3.0, 9.0) == 3.0
    assert positive_root(4.0, 0.0, 1.0) == 0.5
    # q = 0 and -0.0 in the isotropic form p^2 + q p - q r = 0
    for q in (0.0, -0.0):
        root = positive_root(1.0, q, q * 3.0)
        assert root == 0.0 and not np.signbit(root)
        assert isotropic_steady_p(q, 3.0) == 0.0
    # elementwise, with broadcasting
    got = positive_root(1.0, np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]))
    assert got.shape == (2, 2)
    assert got.tolist() == [[0.0, positive_root(1.0, 1.0, 1.0)],
                            [1.0, positive_root(1.0, -1.0, 1.0)]]


def test_positive_root_matches_a_60_digit_oracle():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        alpha, gamma = 10.0 ** rng.uniform(-60, 60, 2)
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-60, 60)
        want = _root_oracle(alpha, beta, gamma)
        assert positive_root(alpha, beta, gamma) == pytest.approx(
            want, rel=4 * np.finfo(float).eps)


def test_isotropic_steady_p_domain():
    with pytest.raises(ValueError):
        isotropic_steady_p(-1.0, 1.0)
    with pytest.raises(ValueError):
        isotropic_steady_p(1.0, 0.0)


def test_spread_stats_identity_100():
    stats = spread_stats(np.eye(100))
    assert stats.mean_y == pytest.approx(100.0)
    assert stats.var_y == pytest.approx(200.0)
    assert stats.e_hat == pytest.approx(9.95, abs=1e-12)
    assert stats.v_hat == pytest.approx(0.5, abs=1e-12)


def test_spread_stats_zero_matrix():
    stats = spread_stats(np.zeros((3, 3)))
    assert stats.mean_y == stats.var_y == stats.e_hat == stats.v_hat == 0.0


def test_spread_stats_scalar_four():
    # lambda = 4: mean_y = 4, var_y = 32, e_hat = (64-32)/32 = 1,
    # v_hat = 16/8 = 2
    stats = spread_stats(np.array([[4.0]]))
    assert stats.mean_y == pytest.approx(4.0)
    assert stats.var_y == pytest.approx(32.0)
    assert stats.e_hat == pytest.approx(1.0)
    assert stats.v_hat == pytest.approx(2.0)


@pytest.mark.parametrize("p", [1e-300, 1e-250, 5e-324])
def test_spread_stats_scales_where_the_trace_underflows(p):
    # 4 p^1.5 underflows to 0; e_hat for one eigenvalue is sqrt(p)/2
    stats = spread_stats(np.array([[p]]))
    assert stats.mean_y == p
    assert stats.e_hat == np.sqrt(p) / 2
    three = spread_stats(np.diag([p, p, p]))
    assert three.e_hat == pytest.approx(np.sqrt(3 * p) * (1 - 1 / 6),
                                        rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [1e-200, 1e-160, 1e160, 1e200, 1e210, 1e300])
def test_spread_stats_scales_where_the_plain_terms_leave_the_range(p):
    # 4 p^2 or p^2 is subnormal, or overflows: for one eigenvalue e_hat
    # is sqrt(p)/2 and v_hat p/2
    stats = spread_stats(np.array([[p]]))
    assert stats.mean_y == p
    assert stats.e_hat == np.sqrt(p) / 2
    assert stats.v_hat == p / 2
    two = spread_stats(np.diag([p, p]))
    assert two.e_hat == pytest.approx(np.sqrt(2 * p) * 0.75, rel=1e-15,
                                      abs=0.0)
    assert two.v_hat == pytest.approx(p / 2, rel=1e-15, abs=0.0)


def test_spread_stats_keeps_the_plain_terms_in_the_normal_range():
    rng = np.random.default_rng(21)
    for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
        P = scale * random_spd(rng, 5)
        stats = spread_stats(P)
        eigs = np.linalg.eigvalsh(P)
        s1, s2 = float(np.sum(eigs)), float(np.sum(eigs ** 2))
        assert stats.e_hat == (4.0 * s1 * s1 - 2.0 * s2) / (4.0 * s1 ** 1.5)
        assert stats.v_hat == s2 / (2.0 * s1)


def test_spread_stats_nonnegative_on_random_psd():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 8))
        stats = spread_stats(random_spd(rng, m))
        assert stats.mean_y >= 0.0
        assert stats.var_y >= 0.0
        assert stats.e_hat >= 0.0
        assert stats.v_hat >= 0.0


def test_spread_radius_approaches_sqrt_mean():
    for m in (50, 200, 1000):
        stats = spread_stats(np.eye(m))
        ratio = stats.e_hat / np.sqrt(stats.mean_y)
        assert 0.9 <= ratio <= 1.0


def test_effective_dimension_isotropic_m100():
    problem = LinearGaussianProblem.isotropic(100, 1.0, 1.0)
    assert effective_dimension(problem) == pytest.approx(10.0 * GOLDEN,
                                                         rel=1e-8)
    # q = 0 converges harmonically (change ~ 1/n^2), so loosen the stop
    zero_q = LinearGaussianProblem.isotropic(100, 0.0, 1.0)
    assert effective_dimension(zero_q, tol=1e-6) < 1e-2


def test_effective_dimension_against_monte_carlo():
    rng = np.random.default_rng(2024)
    problem = random_problem(rng, m=4, k=4)
    state = solve_dare(problem)
    IKH = np.eye(4) - state.K @ problem.H
    Lq = psd_factor(problem.Q)
    Lr = psd_factor(problem.R)
    S = _error_chain_cov(problem.A, IKH, state.K, Lq, Lr, rng)
    assert np.linalg.norm(S) == pytest.approx(state.eff_dim, rel=0.02)


def test_steady_state_json_fields():
    import json

    problem = LinearGaussianProblem.isotropic(2, 1.0, 1.0)
    state = solve_dare(problem)
    doc = json.loads(steady_state_to_json(state))
    assert set(doc) == {"X", "K", "P", "eff_dim", "iterations", "residual"}
    assert np.asarray(doc["P"]).shape == (2, 2)
