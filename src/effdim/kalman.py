"""Kalman covariance recursion, steady state, and the effective dimension.

The posterior covariance of the state given all data so far evolves as

    X[n]   = A P[n] A' + Q
    K[n]   = X[n] H' (H X[n] H' + R)^{-1}
    P[n+1] = (I - K[n] H) X[n]

For detectable/stabilizable problems the recursion reaches a steady state
P, with prior X solving the discrete algebraic Riccati equation (DARE),
which :func:`solve_dare` finds by structure-preserving doubling.  The
Frobenius norm ||P||_F is the effective dimension of the assimilation
problem: it controls the radius and thickness of the shell on which
posterior samples concentrate (see :func:`spread_stats`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .model import (LinearGaussianProblem, SymMatrix, as_matrix, dense,
                    frobenius, identity, mul, on_storage, pd_inverse, solve,
                    sym)

DARE_TOL = 1e-10
DARE_MAX_ITER = 100_000
# X counts as unchanged by a doubling that moves it less than this, relative
_STALL_RTOL = 4.0 * np.finfo(float).eps


class DareConvergenceError(RuntimeError):
    """The DARE solve did not bring the equation residual below tolerance.

    ``residual`` is the last DARE residual ||X - F(X)||_F and
    ``iterations`` the doublings (or fallback sweeps) done.  Operationally
    this is the signal for an undetectable or unstabilizable (A, Q, H)
    combination, or for a tolerance below round-off; no algebraic
    pre-check is done.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SteadyState:
    """Converged covariances: DARE solution X, gain K, posterior P.

    ``eff_dim`` is ||P||_F; ``residual`` is the DARE residual of X (see
    :func:`dare_residual`); ``iterations`` counts doublings, or sweeps
    when the solve fell back to the fixed-point sweep.
    """

    X: SymMatrix
    K: np.ndarray
    P: SymMatrix
    eff_dim: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class SpreadStats:
    """Shell statistics of samples drawn from N(mu, P).

    With eigenvalues lam_j of P, the squared distance y = |x - mu|^2 has
    mean sum(lam) and variance 2 sum(lam^2); the distance r = sqrt(y)
    concentrates at radius e_hat with thickness v_hat:

        e_hat = (4 (sum lam)^2 - 2 sum lam^2) / (4 (sum lam)^1.5)
        v_hat = sum lam^2 / (2 sum lam)
    """

    eigenvalues: np.ndarray
    mean_y: float
    var_y: float
    e_hat: float
    v_hat: float


def kalman_cov_step(problem: LinearGaussianProblem, P_n) -> SymMatrix:
    """One covariance update P[n] -> P[n+1]; the result is symmetrized."""
    P = as_matrix(P_n)
    A, Q, H, R = problem.A, problem.Q, problem.H, problem.R
    X = A @ P @ A.T + Q
    S = H @ X @ H.T + R
    S_inv = pd_inverse(S, "innovation covariance singular")
    HX = H @ X
    P_next = X - HX.T @ S_inv @ HX
    return SymMatrix(sym(P_next, rtol=np.inf))


def _converged(residual: float, norm_x: float, tol: float) -> bool:
    """Residual test relative to ||X||_F (X = 0 passes at residual 0).

    An overflowed norm never passes.
    """
    return np.isfinite(norm_x) and residual <= tol * norm_x


def _norm(M) -> float:
    """||M||_F of the dense matrix M stands for.

    The BLAS dot sums a diagonal's squares in another order than the m^2
    entries of its matrix, so a diagonal is expanded first: O(m^2), and
    the same bits as the dense form.
    """
    return frobenius(dense(M))


def _norm_1_inf(M) -> float:
    """||M||_1 ||M||_inf; max|d|^2 for a diagonal M (1-D)."""
    if M.ndim == 1:
        top = np.abs(M).max()
        return top * top
    return np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)


def _doubling(A, Q, H, R, X0, tol: float, max_iter: int):
    """SDA on the filter DARE in control form: (X, doublings, residual).

    With A_0 = A', G_0 = H'R^{-1}H and H_0 = Q, a doubling solves
    (I + G_k H_k) [V1, V2] = [A_k, G_k] and sets A_{k+1} = A_k V1,
    G_{k+1} = G_k + A_k V2 A_k' and H_{k+1} = H_k + A_k' H_k V1.  H_k is
    the prior covariance 2^k steps of the recursion on from zero, and
    H_k + A_k' X0 (I + G_k X0)^{-1} A_k the one from X0.  H_k rises to the
    minimal solution.  That is the limit from X0 too unless Q leaves a
    growing mode unexcited, which keeps ||A_k||_2 above 1; then the
    doubling goes on from X0.  None (a non-finite iterate or a singular
    solve) asks for the sweep.  The matrices are all dense or all
    diagonal (1-D).
    """
    eye = identity(A)
    try:
        G = mul(H.T, solve(R, H))
        Ak, Gk, Hk = A.T, 0.5 * (G + G.T), Q
        k, from_x0, X = 0, False, None
        while True:
            X_next = Hk
            if from_x0:
                X_next = Hk + mul(mul(Ak.T, X0),
                                  solve(eye + mul(Gk, X0), Ak))
                X_next = 0.5 * (X_next + X_next.T)
            norm_x = _norm(X_next)
            if not np.isfinite(norm_x):
                return None
            # X no longer moves (or A_k is gone): more doublings are idle
            stalled = X is not None and (
                _norm(X_next - X) <= _STALL_RTOL * norm_x or not np.any(Ak))
            X = X_next
            residual = _residual(A, Q, H, R, X)
            if _converged(residual, norm_x, tol):
                # ||A_k||_2^2 <= ||A_k||_1 ||A_k||_inf
                if from_x0 or _norm_1_inf(Ak) <= 1.0:
                    return X, k, residual
                from_x0, X = True, None
                continue
            if stalled or k == max_iter:
                break
            V1, V2 = solve(eye + mul(Gk, Hk), Ak, Gk)
            Hk = Hk + mul(mul(Ak.T, Hk), V1)
            Hk = 0.5 * (Hk + Hk.T)
            Gk = Gk + mul(mul(Ak, V2), Ak.T)
            Gk = 0.5 * (Gk + Gk.T)
            Ak = mul(Ak, V1)
            k += 1
    except np.linalg.LinAlgError:
        return None
    raise DareConvergenceError(
        f"DARE doubling {'stagnated' if stalled else 'did not converge'} "
        f"after {k} doublings (residual {residual:.3e})",
        residual=residual, iterations=k)


def _sweep(A, Q, H, R, X, tol: float, max_iter: int):
    """Fixed-point sweep X <- A (X - X H' S^{-1} H X) A' + Q from X.

    The step ||X_new - X||_F is the DARE residual of X, so the sweep stops
    on the equation residual.  Returns (X, sweeps, residual).
    """
    for it in range(1, max_iter + 1):
        HX = mul(H, X)
        try:
            X_next = mul(mul(A, X - mul(HX.T, solve(mul(HX, H.T) + R, HX))),
                         A.T)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "innovation covariance singular during DARE iteration"
            ) from exc
        X_next = 0.5 * (X_next + X_next.T) + Q
        step = _norm(X_next - X)
        X = X_next
        if not np.isfinite(step):
            raise DareConvergenceError(
                "DARE iteration diverged (non-finite covariance)",
                residual=step, iterations=it)
        if _converged(step, _norm(X), tol):
            return X, it, _residual(A, Q, H, R, X)
    raise DareConvergenceError(
        f"DARE iteration did not converge in {max_iter} sweeps "
        f"(last residual {step:.3e})", residual=step, iterations=max_iter)


def _steady(A, Q, H, R, P0, tol: float, max_iter: int):
    """(X, K, P, iterations, residual) in the form of A, Q, H, R and P0.

    The dense iteration ignores floating-point errors; the diagonal one
    keeps those :func:`effdim.model.on_storage` raises, which send it to
    the dense form.
    """
    with (np.errstate(all="ignore") if A.ndim == 2
          else contextlib.nullcontext()):
        X0 = mul(mul(A, P0), A.T) + Q
        X, iterations, residual = (_doubling(A, Q, H, R, X0, tol, max_iter)
                                   or _sweep(A, Q, H, R, X0, tol, max_iter))
    HX = mul(H, X)
    K = solve(mul(HX, H.T) + R, HX).T
    return X, K, X - mul(K, HX), iterations, residual


def solve_dare(problem: LinearGaussianProblem, tol: float = DARE_TOL,
               max_iter: int = DARE_MAX_ITER, start=None) -> SteadyState:
    """Steady-state covariances by structure-preserving doubling.

    SDA (Chu, Fan & Lin, LAA 2005) follows the Kalman recursion from the
    posterior covariance ``start`` (default Sigma0) in steps of 2^k and
    stops once ``dare_residual(problem, X) <= tol * ||X||_F``; K
    and P follow from X.  On stabilizable/detectable problems it
    converges quadratically and the limit does not depend on ``start``.
    A non-finite iterate or a singular solve falls back to the
    fixed-point sweep from the same start.  A problem whose A, Q, H, R
    and start are all diagonal is solved on their diagonals (see
    :func:`effdim.model.on_storage`); the result is dense either way.

    Raises DareConvergenceError, carrying the last residual and the
    doubling (or sweep) count, when doubling stagnates above ``tol``,
    when ``max_iter`` doublings or sweeps fall short, or when the sweep
    diverges.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    X, K, P, iterations, residual = on_storage(
        lambda *forms: _steady(*forms, tol, max_iter), problem.A, problem.Q,
        problem.H, problem.R, problem.Sigma0 if start is None else start)
    P = SymMatrix(sym(dense(P), rtol=np.inf))
    return SteadyState(X=SymMatrix(sym(dense(X), rtol=np.inf)), K=dense(K),
                       P=P, eff_dim=frobenius(P), iterations=int(iterations),
                       residual=float(residual))


def _residual(A, Q, H, R, X) -> float:
    S = mul(mul(H, X), H.T) + R
    HXA = mul(mul(H, X), A.T)
    rhs = mul(mul(A, X), A.T) - mul(HXA.T, solve(S, HXA)) + Q
    return _norm(X - rhs)


def dare_residual(problem: LinearGaussianProblem, X) -> float:
    """||X - (A X A' - A X H'(H X H' + R)^{-1} H X A' + Q)||_F."""
    return on_storage(_residual, problem.A, problem.Q, problem.H, problem.R,
                      as_matrix(X))


def isotropic_steady_p(q: float, r: float) -> float:
    """Per-component steady posterior variance for A = H = I, Q = qI, R = rI.

    Closed form (sqrt(q^2 + 4 q r) - q) / 2; the isotropic effective
    dimension is sqrt(m) times this value.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    if q == 0.0:
        return 0.0
    # algebraically equal to (sqrt(q^2+4qr) - q)/2, stable for q >> r
    return 2.0 * q * r / (np.sqrt(q * q + 4.0 * q * r) + q)


def spread_stats(P) -> SpreadStats:
    """Shell radius/thickness statistics from the eigenvalues of P."""
    if not isinstance(P, SymMatrix):
        P = SymMatrix(sym(as_matrix(P), rtol=np.inf))
    eigs = P.eigenvalues()
    s1 = float(np.sum(eigs))
    s2 = float(np.sum(eigs ** 2))
    if s1 <= 0.0:
        return SpreadStats(eigenvalues=eigs, mean_y=0.0, var_y=0.0,
                           e_hat=0.0, v_hat=0.0)
    e_hat = (4.0 * s1 * s1 - 2.0 * s2) / (4.0 * s1 ** 1.5)
    v_hat = s2 / (2.0 * s1)
    return SpreadStats(eigenvalues=eigs, mean_y=s1, var_y=2.0 * s2,
                       e_hat=e_hat, v_hat=v_hat)


def effective_dimension(problem: LinearGaussianProblem, tol: float = DARE_TOL,
                        max_iter: int = DARE_MAX_ITER) -> float:
    """||P||_F at steady state; propagates DARE failures."""
    return solve_dare(problem, tol=tol, max_iter=max_iter).eff_dim


def steady_state_to_dict(state: SteadyState) -> dict:
    return {
        "X": state.X.a.tolist(),
        "K": state.K.tolist(),
        "P": state.P.a.tolist(),
        "eff_dim": state.eff_dim,
        "iterations": state.iterations,
        "residual": state.residual,
    }
