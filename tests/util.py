"""Shared helpers for the test suite."""

import numpy as np

from effdim.model import LinearGaussianProblem


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
