"""Strong/weak-constraint posteriors, 4D-Var mode, and optimal smoothing.

Strong constraint: a perfect model (Q = 0) makes the trajectory a
deterministic function of x^0, so the posterior over x^0 given n data
sets has precision

    Sigma^{-1} = Sigma0^{-1} + sum_{j=1..n} (A^j)' H' R^{-1} H A^j.

Weak constraint: estimating the whole trajectory x^{0:n} gives a Gaussian
whose precision is block tridiagonal with diagonal blocks

    Sigma0^{-1} + A'Q^{-1}A,   Q^{-1} + A'Q^{-1}A + H'R^{-1}H,   Q^{-1} + H'R^{-1}H

(first, interior, last) and off-diagonal blocks -A'Q^{-1} / -Q^{-1}A.
The 4D-Var estimate is the mode of this Gaussian, computed here by a
direct block-tridiagonal solve (exact in the linear case, mode = mean).
The optimal particle smoother draws exact samples from the posterior
through a block Cholesky factor of the precision, so its importance
weights are uniform by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .balance import ConditionCheck, MapKind, BalanceMap, build_map
from .model import LinearGaussianProblem, SymMatrix, frobenius, sym

WEAK_DENSE_LIMIT = 2000  # largest (n+1)*m inverted densely for frob_cov
PD_COND_LIMIT = 1e14


def _pd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] <= 0.0 or w[-1] / w[0] > PD_COND_LIMIT:
        raise np.linalg.LinAlgError(what)
    return (V / w) @ V.T


@dataclass(frozen=True)
class StrongConstraintPosterior:
    """Posterior over the initial state under a perfect model."""

    precision: SymMatrix
    covariance: SymMatrix
    frob_cov: float
    n_data: int


@dataclass(frozen=True)
class WeakConstraintPosterior:
    """Block-tridiagonal posterior precision over the trajectory x^{0:n}.

    ``diag_blocks[i]`` is block (i, i); ``off_block`` is the constant
    sub-diagonal block (i+1, i) = -Q^{-1} A.  ``frob_cov`` comes from the
    dense inverse when (n+1)*m <= WEAK_DENSE_LIMIT; beyond that only the
    diagonal blocks of the inverse enter and the value is a lower bound,
    flagged by ``frob_cov_is_lower_bound``.
    """

    diag_blocks: np.ndarray  # (n+1, m, m)
    off_block: np.ndarray    # (m, m), block (i+1, i)
    mode: np.ndarray | None
    frob_cov: float
    frob_cov_is_lower_bound: bool = False

    @property
    def n_data(self) -> int:
        return self.diag_blocks.shape[0] - 1

    @property
    def state_dim(self) -> int:
        return self.diag_blocks.shape[1]

    def dense(self) -> np.ndarray:
        return _dense_tridiag(self.diag_blocks, self.off_block)


def _dense_tridiag(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    n1, m, _ = diag.shape
    out = np.zeros((n1 * m, n1 * m))
    for i in range(n1):
        out[i * m:(i + 1) * m, i * m:(i + 1) * m] = diag[i]
    for i in range(n1 - 1):
        out[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = off
        out[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = off.T
    return out


def strong_precision(problem: LinearGaussianProblem,
                     n: int) -> StrongConstraintPosterior:
    """Assemble the strong-constraint posterior for n data sets.

    Q is ignored (the strong constraint sets Q = 0); Sigma0 must be
    positive definite.  Powers of A accumulate iteratively so defective
    A is handled exactly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    S0_inv = _pd_inverse(problem.Sigma0, "singular Sigma0")
    R_inv = _pd_inverse(problem.R, "R singular")
    M = problem.H.T @ R_inv @ problem.H
    precision = S0_inv.copy()
    B = np.eye(problem.m)
    for _ in range(n):
        B = problem.A @ B
        precision += B.T @ M @ B
    precision = 0.5 * (precision + precision.T)
    covariance = np.linalg.inv(precision)
    covariance = 0.5 * (covariance + covariance.T)
    cov_sym = SymMatrix(sym(covariance, rtol=np.inf))
    return StrongConstraintPosterior(
        precision=SymMatrix(sym(precision, rtol=np.inf)),
        covariance=cov_sym, frob_cov=frobenius(cov_sym), n_data=int(n))


def strong_mean(problem: LinearGaussianProblem, observations,
                posterior: StrongConstraintPosterior | None = None) -> np.ndarray:
    """Posterior mean of x^0 given observations under the strong constraint."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    n = observations.shape[0]
    if posterior is None:
        posterior = strong_precision(problem, n)
    S0_inv = _pd_inverse(problem.Sigma0, "singular Sigma0")
    R_inv = _pd_inverse(problem.R, "R singular")
    rhs = S0_inv @ problem.mu0
    B = np.eye(problem.m)
    for j in range(n):
        B = problem.A @ B
        rhs += B.T @ (problem.H.T @ (R_inv @ observations[j]))
    return np.linalg.solve(posterior.precision.a, rhs)


def strong_balance_map(sigma0_grid, r_grid, dims,
                       constant: float = 1.0) -> BalanceMap:
    """Level sets of sigma0 r/(sigma0 + r) at c/sqrt(m) (one-data-set case)."""
    return build_map(MapKind.STRONG, sigma0_grid, r_grid, dims,
                     constant=constant)


def sir_smoother_log_weight(problem: LinearGaussianProblem, x0,
                            observations) -> float:
    """Log-weight of a prior-proposal particle smoother at x^0 (Q = 0).

    Returns -phi with
    phi = 0.5 sum_j (z^j - H A^j x0)' R^{-1} (z^j - H A^j x0).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    if x0.shape != (problem.m,):
        raise ValueError(f"x0 must have length {problem.m}")
    if observations.shape[1] != problem.k:
        raise ValueError(f"observations must have {problem.k} columns")
    R_inv = _pd_inverse(problem.R, "R singular")
    phi = 0.0
    x = x0
    for z in observations:
        x = problem.A @ x
        innov = z - problem.H @ x
        phi += 0.5 * float(innov @ R_inv @ innov)
    return -phi


def smoother_condition(problem: LinearGaussianProblem) -> ConditionCheck:
    """Sufficient non-collapse condition for the prior-proposal smoother.

    ||H||_F^2 ||A||_F^2 ||Sigma0||_F <= ||R|| (spectral norm on the right).
    """
    lhs = (frobenius(problem.H) ** 2 * frobenius(problem.A) ** 2
           * frobenius(problem.Sigma0))
    rhs = float(np.linalg.norm(problem.R, 2))
    return ConditionCheck("sir_smoother", lhs, rhs, lhs <= rhs)


def _weak_blocks(problem: LinearGaussianProblem, n: int):
    if n < 1:
        raise ValueError("weak-constraint window needs n >= 1")
    Q_inv = _pd_inverse(problem.Q, "singular Q")
    S0_inv = _pd_inverse(problem.Sigma0, "singular Sigma0")
    R_inv = _pd_inverse(problem.R, "R singular")
    A, H = problem.A, problem.H
    M = H.T @ R_inv @ H
    AtQiA = A.T @ Q_inv @ A
    m = problem.m
    diag = np.empty((n + 1, m, m))
    diag[0] = S0_inv + AtQiA
    for i in range(1, n):
        diag[i] = Q_inv + AtQiA + M
    diag[n] = Q_inv + M
    off = -Q_inv @ A  # block (i+1, i); its transpose sits at (i, i+1)
    return diag, off, Q_inv, S0_inv, R_inv


def _tridiag_marginal_covs(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Diagonal blocks of the inverse of a block-tridiagonal SPD matrix.

    Forward/backward Schur sweeps; block i of the inverse is
    (S_i + T_i - D_i)^{-1}.
    """
    n1, m, _ = diag.shape
    S = np.empty_like(diag)
    T = np.empty_like(diag)
    S[0] = diag[0]
    for i in range(1, n1):
        S[i] = diag[i] - off @ np.linalg.solve(S[i - 1], off.T)
    T[n1 - 1] = diag[n1 - 1]
    for i in range(n1 - 2, -1, -1):
        T[i] = diag[i] - off.T @ np.linalg.solve(T[i + 1], off)
    covs = np.empty_like(diag)
    for i in range(n1):
        covs[i] = np.linalg.inv(S[i] + T[i] - diag[i])
    return covs


def weak_precision(problem: LinearGaussianProblem,
                   n: int) -> WeakConstraintPosterior:
    """Assemble the block-tridiagonal trajectory precision for n data sets."""
    diag, off, _, _, _ = _weak_blocks(problem, n)
    total = (n + 1) * problem.m
    if total <= WEAK_DENSE_LIMIT:
        cov = np.linalg.inv(_dense_tridiag(diag, off))
        frob_cov = float(np.linalg.norm(cov))
        lower_bound = False
    else:
        covs = _tridiag_marginal_covs(diag, off)
        frob_cov = float(np.sqrt(np.sum(covs ** 2)))
        lower_bound = True
    return WeakConstraintPosterior(diag_blocks=diag, off_block=off, mode=None,
                                   frob_cov=frob_cov,
                                   frob_cov_is_lower_bound=lower_bound)


def _weak_rhs(problem: LinearGaussianProblem, observations: np.ndarray,
              S0_inv: np.ndarray, R_inv: np.ndarray) -> np.ndarray:
    n = observations.shape[0]
    m = problem.m
    rhs = np.zeros((n + 1, m))
    rhs[0] = S0_inv @ problem.mu0
    for j in range(1, n + 1):
        rhs[j] = problem.H.T @ (R_inv @ observations[j - 1])
    return rhs


def _block_thomas_solve(diag: np.ndarray, off: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system by forward elimination."""
    n1 = diag.shape[0]
    S = np.empty_like(diag)
    c = rhs.copy()
    S[0] = diag[0]
    for i in range(1, n1):
        S[i] = diag[i] - off @ np.linalg.solve(S[i - 1], off.T)
        c[i] = c[i] - off @ np.linalg.solve(S[i - 1], c[i - 1])
    x = np.empty_like(rhs)
    x[n1 - 1] = np.linalg.solve(S[n1 - 1], c[n1 - 1])
    for i in range(n1 - 2, -1, -1):
        x[i] = np.linalg.solve(S[i], c[i] - off.T @ x[i + 1])
    return x


def weak_mode(problem: LinearGaussianProblem, observations) -> np.ndarray:
    """4D-Var trajectory estimate: the mode (= mean) of the weak posterior.

    Returns the stacked vector (x^0, ..., x^n) of length (n+1)*m.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    n = observations.shape[0]
    diag, off, _, S0_inv, R_inv = _weak_blocks(problem, n)
    rhs = _weak_rhs(problem, observations, S0_inv, R_inv)
    x = _block_thomas_solve(diag, off, rhs)
    return x.reshape(-1)


def _block_cholesky(diag: np.ndarray, off: np.ndarray):
    """Block-bidiagonal Cholesky of a block-tridiagonal SPD matrix.

    Returns (L_diag, L_sub) with L_diag[i] lower triangular and
    L_sub[i] the block (i+1, i) of L.
    """
    n1, m, _ = diag.shape
    L_diag = np.empty_like(diag)
    L_sub = np.empty((n1 - 1, m, m)) if n1 > 1 else np.empty((0, m, m))
    L_diag[0] = np.linalg.cholesky(diag[0])
    for i in range(1, n1):
        E = solve_triangular(L_diag[i - 1], off.T, lower=True).T
        L_sub[i - 1] = E
        L_diag[i] = np.linalg.cholesky(diag[i] - E @ E.T)
    return L_diag, L_sub


def optimal_smoother_sample(problem: LinearGaussianProblem, observations,
                            N: int, seed, constraint: str = "weak"):
    """Exact posterior samples with uniform weights (zero weight variance).

    ``constraint="weak"`` samples full trajectories of dimension
    (n+1)*m; ``constraint="strong"`` samples the initial state only.
    Returns (samples, weights) with weights identically 1/N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    n = observations.shape[0]
    rng = np.random.default_rng(seed)
    if constraint == "strong":
        posterior = strong_precision(problem, n)
        mean = strong_mean(problem, observations, posterior)
        L = np.linalg.cholesky(posterior.precision.a)
        xi = rng.standard_normal((N, problem.m))
        noise = solve_triangular(L.T, xi.T, lower=False).T
        samples = mean + noise
    elif constraint == "weak":
        diag, off, _, S0_inv, R_inv = _weak_blocks(problem, n)
        rhs = _weak_rhs(problem, observations, S0_inv, R_inv)
        mode = _block_thomas_solve(diag, off, rhs).reshape(-1)
        L_diag, L_sub = _block_cholesky(diag, off)
        m = problem.m
        xi = rng.standard_normal((N, n + 1, m))
        noise = np.empty_like(xi)
        # backward substitution on L' y = xi, blockwise across all samples
        noise[:, n] = solve_triangular(L_diag[n].T, xi[:, n].T,
                                       lower=False).T
        for i in range(n - 1, -1, -1):
            resid = xi[:, i] - noise[:, i + 1] @ L_sub[i]
            noise[:, i] = solve_triangular(L_diag[i].T, resid.T,
                                           lower=False).T
        samples = mode + noise.reshape(N, -1)
    else:
        raise ValueError("constraint must be 'weak' or 'strong'")
    weights = np.full(N, 1.0 / N)
    return samples, weights

