import numpy as np
import pytest

from effdim.bounds import (BoundInapplicableError, dare_lower_bound,
                           dare_upper_bound, p_upper_bound)
from effdim.kalman import isotropic_steady_p, solve_dare
from effdim.model import (LinearGaussianProblem, PsdVerdict, diagonal,
                          psd_compare)
from util import (SCALES, random_problem, random_spd, scale_problems,
                  scaled)

OK_ORDER = (PsdVerdict.LESS_OR_EQUAL, PsdVerdict.EQUAL)


def test_lower_bound_scalar_hand_case():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    X_l = dare_lower_bound(problem)
    assert X_l.a[0, 0] == pytest.approx(1.5, abs=1e-14)
    X = solve_dare(problem).X
    assert psd_compare(X_l, X).verdict in OK_ORDER


def test_lower_bound_static_model_is_q():
    rng = np.random.default_rng(0)
    Q = random_spd(rng, 3)
    problem = LinearGaussianProblem(A=np.zeros((3, 3)), Q=Q, H=np.eye(3),
                                    R=np.eye(3), mu0=np.zeros(3),
                                    Sigma0=np.eye(3))
    X_l = dare_lower_bound(problem)
    assert np.allclose(X_l.a, Q, atol=1e-12)


def test_lower_bound_isotropic_m3():
    problem = LinearGaussianProblem.isotropic(3, 2.0, 1.0)
    X_l = dare_lower_bound(problem)
    # (1/q + 1/r)^{-1} + q = (1/2 + 1)^{-1} + 2 = 8/3
    assert np.allclose(X_l.a, (8.0 / 3.0) * np.eye(3), atol=1e-12)
    X = solve_dare(problem).X
    assert psd_compare(X_l, X).verdict in OK_ORDER


def test_lower_bound_at_least_q():
    rng = np.random.default_rng(4)
    for _ in range(20):
        problem = random_problem(rng)
        X_l = dare_lower_bound(problem)
        assert psd_compare(problem.Q, X_l).verdict in OK_ORDER


def test_lower_bound_requires_invertible_q():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="invertible Q"):
        dare_lower_bound(problem)


def test_upper_bound_scalar_hand_chain():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    X_u, eta = dare_upper_bound(problem)
    # a = -1 - 1 + 1 = -1, b = c = 2: eta = (sqrt(5)+1)/2
    assert eta == pytest.approx((np.sqrt(5.0) + 1.0) / 2.0, abs=1e-12)
    x_star = 1.0 / (1.0 / eta + 1.0) + 1.0
    expected = 1.0 / (1.0 / x_star + 1.0) + 1.0
    assert X_u.a[0, 0] == pytest.approx(expected, abs=1e-12)
    X = solve_dare(problem).X
    assert psd_compare(X, X_u).verdict in OK_ORDER


def test_upper_bound_static_model_is_q():
    rng = np.random.default_rng(1)
    Q = random_spd(rng, 2)
    problem = LinearGaussianProblem(A=np.zeros((2, 2)), Q=Q, H=np.eye(2),
                                    R=np.eye(2), mu0=np.zeros(2),
                                    Sigma0=np.eye(2))
    X_u, _ = dare_upper_bound(problem)
    assert np.allclose(X_u.a, Q, atol=1e-12)


def test_upper_bound_random_stable_diagonal():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(-0.95, 0.95, size=4)
        q = rng.uniform(0.1, 2.0)
        r = rng.uniform(0.1, 2.0)
        problem = LinearGaussianProblem(A=np.diag(a), Q=q * np.eye(4),
                                        H=np.eye(4), R=r * np.eye(4),
                                        mu0=np.zeros(4), Sigma0=np.eye(4))
        X_u, _ = dare_upper_bound(problem)
        X = solve_dare(problem).X
        assert psd_compare(X, X_u).verdict in OK_ORDER


def test_upper_bound_rank_deficient_h_limit():
    # k < m gives lam_n(H'R^{-1}H) = 0; the eta limit still applies when
    # lam_1(AA') < 1
    problem = LinearGaussianProblem(A=0.5 * np.eye(2), Q=np.eye(2),
                                    H=np.array([[1.0, 0.0]]), R=np.eye(1),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    X_u, eta = dare_upper_bound(problem)
    assert eta == pytest.approx(1.0 / 0.75)
    X = solve_dare(problem).X
    assert psd_compare(X, X_u).verdict in OK_ORDER


def test_upper_bound_inapplicable_expansive_a_rank_deficient_h():
    # detectable (the expanding mode is observed) but lam_1(AA') >= 1 with
    # lam_n(H'R^{-1}H) = 0: no finite eta exists
    problem = LinearGaussianProblem(A=np.diag([1.2, 0.5]), Q=np.eye(2),
                                    H=np.array([[1.0, 0.0]]), R=np.eye(1),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    solve_dare(problem)  # the DARE itself is solvable
    with pytest.raises(BoundInapplicableError, match="inapplicable"):
        dare_upper_bound(problem)


@pytest.mark.parametrize("A, H, name", [
    (0.5, 1e200, "H'R\\^-1 H overflows"),  # H'R^-1 H is inf, full rank
    (1e200, 1.0, "AA' overflows"),
])
def test_upper_bound_names_an_overflowing_spectrum(A, H, name):
    # the NaN spectrum of an inf matrix must not pass for rank deficiency
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=A * eye, Q=eye, H=H * eye, R=eye,
                                    mu0=np.zeros(2), Sigma0=eye)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BoundInapplicableError, match=name):
            dare_upper_bound(problem)
        with pytest.raises(BoundInapplicableError, match=name):
            p_upper_bound(problem)


def test_p_upper_scalar_hand_chain():
    problem = LinearGaussianProblem.isotropic(1, 1.0, 1.0)
    db = p_upper_bound(problem)
    x_u = db.X_upper.a[0, 0]
    expected = x_u - x_u ** 2 / (x_u + 1.0)
    assert db.P_upper.a[0, 0] == pytest.approx(expected, abs=1e-12)
    P = solve_dare(problem).P
    # at the m=1 isotropic anchor the bound is tight: P_upper = P
    assert P.a[0, 0] <= db.P_upper.a[0, 0] + 1e-10
    assert db.P_upper.a[0, 0] == pytest.approx(P.a[0, 0], abs=1e-9)
    assert not db.q_regularized


def test_p_upper_small_noise_limit():
    problem = LinearGaussianProblem.isotropic(4, 1e-6, 1.0)
    db = p_upper_bound(problem)
    assert db.eff_dim_upper < 1e-2


def test_upper_bound_small_noise_root_does_not_cancel():
    # a = 0.75 and lam_n(M) lam_1(Q) = 1e-20: formed as
    # (sqrt(a^2 + b c) - a) / b the root cancels to 0
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=0.5 * eye, Q=1e-10 * eye, H=eye,
                                    R=1e10 * eye, mu0=np.zeros(2),
                                    Sigma0=eye)
    X_u, eta = dare_upper_bound(problem)
    assert eta == pytest.approx(1e-10 / 0.75, rel=1e-15)
    state = solve_dare(problem)
    assert psd_compare(state.X, X_u).verdict in OK_ORDER
    assert state.eff_dim <= p_upper_bound(problem).eff_dim_upper


def test_p_upper_static_model_posterior():
    rng = np.random.default_rng(5)
    Q = random_spd(rng, 3)
    H = rng.standard_normal((3, 3))
    R = random_spd(rng, 3)
    problem = LinearGaussianProblem(A=np.zeros((3, 3)), Q=Q, H=H, R=R,
                                    mu0=np.zeros(3), Sigma0=np.eye(3))
    db = p_upper_bound(problem)
    S = H @ Q @ H.T + R
    expected = Q - Q @ H.T @ np.linalg.solve(S, H @ Q)
    assert np.allclose(db.P_upper.a, expected, atol=1e-10)


def test_p_upper_regularizes_singular_q_when_asked():
    problem = LinearGaussianProblem.isotropic(2, 0.0, 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        p_upper_bound(problem)
    db = p_upper_bound(problem, regularize_q=True)
    assert db.q_regularized
    assert db.eff_dim_upper < 1e-5


@pytest.mark.parametrize("symmetric_a", [True, False])
def test_sandwich_on_random_instances(symmetric_a):
    rng = np.random.default_rng(123)
    for _ in range(40):
        problem = random_problem(rng, symmetric_a=symmetric_a)
        db = p_upper_bound(problem)
        state = solve_dare(problem)
        assert psd_compare(db.X_lower, state.X).verdict in OK_ORDER
        assert psd_compare(state.X, db.X_upper).verdict in OK_ORDER
        assert psd_compare(state.P, db.P_upper).verdict in OK_ORDER
        assert state.eff_dim <= db.eff_dim_upper + 1e-8


def test_eff_dim_upper_monotone_in_q():
    values = []
    for q in np.logspace(-3, 1, 9):
        problem = LinearGaussianProblem.isotropic(3, float(q), 1.0)
        values.append(p_upper_bound(problem).eff_dim_upper)
    assert np.all(np.diff(values) > 0)


@pytest.mark.parametrize("name", sorted(scale_problems()))
def test_upper_bound_is_scale_covariant(name):
    # the bounds scale with Q, R and Sigma0: H is full rank at every scale
    # of R, and eta and ||P_u||_F scale exactly on diagonal problems and
    # within LAPACK's own scaling of eigvalsh on dense ones
    problem = scale_problems()[name]
    base = p_upper_bound(problem)
    exact = all(diagonal(M) is not None
                for M in (problem.A, problem.Q, problem.H, problem.R))
    for j in SCALES:
        got = p_upper_bound(scaled(problem, j))
        for value, want in ((got.eta, base.eta),
                            (got.eff_dim_upper, base.eff_dim_upper)):
            if exact:
                assert value == np.ldexp(want, j)
            else:
                assert value == pytest.approx(np.ldexp(want, j), rel=1e-13)


def test_rank_deficient_h_is_found_at_every_scale():
    # H = [1, 0] leaves H'R^-1 H singular whatever R is
    problem = LinearGaussianProblem(A=1.2 * np.eye(2), Q=np.eye(2),
                                    H=[[1.0, 0.0]], R=[[1.0]],
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    for j in (0, *SCALES):
        with pytest.raises(BoundInapplicableError, match="rank-deficient"):
            p_upper_bound(scaled(problem, j))
