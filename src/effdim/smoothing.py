"""Strong/weak-constraint posteriors, 4D-Var mode, and optimal smoothing.

Strong constraint: a perfect model (Q = 0) makes the trajectory a
deterministic function of x^0, so the posterior over x^0 given n data
sets has precision

    Sigma^{-1} = Sigma0^{-1} + sum_{j=1..n} (A^j)' H' R^{-1} H A^j.

Weak constraint: estimating the whole trajectory x^{0:n} gives a Gaussian
whose precision is block tridiagonal with diagonal blocks

    Sigma0^{-1} + A'Q^{-1}A,   Q^{-1} + A'Q^{-1}A + H'R^{-1}H,   Q^{-1} + H'R^{-1}H

(first, interior, last) and off-diagonal blocks -A'Q^{-1} / -Q^{-1}A.
Every weak-constraint answer reads one factorization of this precision:
its block-bidiagonal Cholesky factor L, whose diagonal blocks factor the
forward Schur complements S_i (:func:`_block_cholesky`).

- ||Sigma||_F is exact at O(n m^3) cost without a dense inverse: the
  S_i^{-1} = L_i^{-T} L_i^{-1} feed the block recursion for inverses of
  block-tridiagonal matrices (Meurant, SIAM J. Matrix Anal. Appl. 13,
  1992) with the Rauch-Tung-Striebel smoother gains.
- The 4D-Var mode (= mean in the linear case) is a forward substitution
  through L and a back substitution through L'.
- The optimal particle smoother back-substitutes standard normal noise
  through L' and adds the mode, so it draws exact samples from the
  posterior and its importance weights are uniform by construction.

When A, Q, H, R and Sigma0 are all diagonal, so is every block, and the
weak-constraint computations store each block as its 1-D diagonal and
run in O(n m) (see :func:`effdim.model.storage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balance import ConditionCheck, MapKind, BalanceMap, build_map
from .model import (LinearGaussianProblem, SymMatrix, cholesky, frobenius,
                    identity, inverse, mul, pd_inverse, storage)


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
    sub-diagonal block (i+1, i) = -Q^{-1} A.  ``frob_cov`` is the exact
    Frobenius norm of the trajectory covariance, from the block recursion
    of Meurant (1992) with the Rauch-Tung-Striebel gains.  ``factor`` is
    the precision's block Cholesky factor (L_inv, L_sub) of
    :func:`_block_cholesky`, which :func:`weak_mode` reuses.  For a
    diagonal problem every block is stored as its 1-D diagonal.
    """

    diag_blocks: np.ndarray  # (n+1, m, m), or (n+1, m) diagonals
    off_block: np.ndarray    # (m, m) or (m,), block (i+1, i)
    frob_cov: float
    factor: tuple = field(repr=False)

    @property
    def n_data(self) -> int:
        return self.diag_blocks.shape[0] - 1


def _observations(problem: LinearGaussianProblem, observations) -> np.ndarray:
    """The data z^1..z^n as a finite (n, k) float array.

    One data set may come as a row of k numbers.  Raises ValueError for
    any other shape, and for NaN or infinite entries.
    """
    z = np.atleast_2d(np.asarray(observations, dtype=float))
    if z.ndim != 2 or z.shape[1] != problem.k:
        raise ValueError(f"observations must be rows of {problem.k} numbers, "
                         f"got shape {np.shape(observations)}")
    if not np.isfinite(z).all():
        raise ValueError("observations have non-finite entries")
    return z


def strong_precision(problem: LinearGaussianProblem,
                     n: int) -> StrongConstraintPosterior:
    """Assemble the strong-constraint posterior for n data sets.

    Q is ignored (the strong constraint sets Q = 0); Sigma0 must be
    positive definite.  Powers of A accumulate iteratively so defective
    A is handled exactly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    S0_inv = pd_inverse(problem.Sigma0, "singular Sigma0")
    R_inv = pd_inverse(problem.R, "R singular")
    M = problem.H.T @ R_inv @ problem.H
    precision = S0_inv.copy()
    B = np.eye(problem.m)
    for _ in range(n):
        B = problem.A @ B
        precision += B.T @ M @ B
    precision = SymMatrix.symmetrized(precision)
    covariance = SymMatrix.symmetrized(np.linalg.inv(precision.a))
    return StrongConstraintPosterior(
        precision=precision, covariance=covariance,
        frob_cov=frobenius(covariance), n_data=int(n))


def strong_mean(problem: LinearGaussianProblem, observations,
                posterior: StrongConstraintPosterior | None = None) -> np.ndarray:
    """Posterior mean of x^0 given observations under the strong constraint."""
    observations = _observations(problem, observations)
    n = observations.shape[0]
    if posterior is None:
        posterior = strong_precision(problem, n)
    S0_inv = pd_inverse(problem.Sigma0, "singular Sigma0")
    R_inv = pd_inverse(problem.R, "R singular")
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
    if x0.shape != (problem.m,):
        raise ValueError(f"x0 must have length {problem.m}")
    observations = _observations(problem, observations)
    R_inv = pd_inverse(problem.R, "R singular")
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
    The spectral norm of a diagonal R is max|r|; LAPACK's 2x2 SVD formula
    can round it one or two ulps low.
    """
    lhs = (frobenius(problem.H) ** 2 * frobenius(problem.A) ** 2
           * frobenius(problem.Sigma0))
    (R,) = storage(problem.R)
    rhs = float(np.abs(R).max() if R.ndim == 1 else np.linalg.norm(R, 2))
    return ConditionCheck(lhs, rhs, lhs <= rhs)


def _weak_inverses(problem: LinearGaussianProblem) -> tuple:
    """A and H in the problem's storage form, and the inverses of Q,
    Sigma0 and R: (A, H, Q_inv, S0_inv, R_inv)."""
    A, Q, H, R, Sigma0 = storage(problem.A, problem.Q, problem.H, problem.R,
                                 problem.Sigma0)
    return (A, H, pd_inverse(Q, "singular Q"),
            pd_inverse(Sigma0, "singular Sigma0"), pd_inverse(R, "R singular"))


def _weak_blocks(problem: LinearGaussianProblem, n: int):
    if n < 1:
        raise ValueError("weak-constraint window needs n >= 1")
    A, H, Q_inv, S0_inv, R_inv = _weak_inverses(problem)
    M = mul(mul(H.T, R_inv), H)
    AtQiA = mul(mul(A.T, Q_inv), A)
    diag = np.empty((n + 1,) + Q_inv.shape)
    diag[0] = S0_inv + AtQiA
    diag[1:n] = Q_inv + AtQiA + M
    diag[n] = Q_inv + M
    off = mul(-Q_inv, A)  # block (i+1, i); its transpose sits at (i, i+1)
    return diag, off, H, S0_inv, R_inv


def _block_cholesky(diag: np.ndarray, off: np.ndarray):
    """Block-bidiagonal Cholesky factor L of a block-tridiagonal SPD matrix.

    The one block recursion of this module.  L's diagonal blocks L_i
    factor the forward Schur complements S_0 = D_0 and
    S_i = D_i - off S_{i-1}^{-1} off' = D_i - E E', where E = off L_{i-1}^{-T}
    is L's sub-diagonal block.  Returns (L_inv, L_sub): the inverses
    L_i^{-1}, and the sub-diagonal blocks L_sub[i] = off L_inv[i]'.
    """
    n1 = diag.shape[0]
    L_inv = np.empty_like(diag)
    L_sub = np.empty((n1 - 1,) + off.shape)
    L_inv[0] = inverse(cholesky(diag[0]))
    for i in range(1, n1):
        E = L_sub[i - 1] = mul(off, L_inv[i - 1].T)
        L_inv[i] = inverse(cholesky(diag[i] - mul(E, E.T)))
    return L_inv, L_sub


def weak_precision(problem: LinearGaussianProblem,
                   n: int) -> WeakConstraintPosterior:
    """Assemble the block-tridiagonal trajectory precision for n data sets.

    ``frob_cov`` is exact, in O(n m^3), from the block Cholesky factor:
    S_i^{-1} = L_i^{-T} L_i^{-1}.  With the gains C_i = -S_i^{-1} off',
    the diagonal blocks of the covariance run backward, Sigma_nn = S_n^{-1}
    and Sigma_ii = S_i^{-1} + C_i Sigma_{i+1,i+1} C_i'.  The blocks above
    the diagonal in column i are Sigma_ji = C_j ... C_{i-1} Sigma_ii, so
    their squared norms sum to tr(Sigma_ii W_i Sigma_ii) with W_0 = 0 and
    W_i = C_{i-1}' (I + W_{i-1}) C_{i-1}.  Diagonal blocks take O(n m).
    """
    diag, off, _, _, _ = _weak_blocks(problem, n)
    L_inv, L_sub = _block_cholesky(diag, off)
    S_inv = np.array([mul(Li.T, Li) for Li in L_inv])
    C = np.array([mul(-S, off.T) for S in S_inv[:-1]])  # block by block
    sigma = np.empty_like(S_inv)
    sigma[-1] = S_inv[-1]
    for i in range(n - 1, -1, -1):
        sigma[i] = S_inv[i] + mul(mul(C[i], sigma[i + 1]), C[i].T)
    W = np.zeros_like(S_inv)
    eye = identity(off)
    for i in range(1, n + 1):
        W[i] = mul(mul(C[i - 1].T, eye + W[i - 1]), C[i - 1])
    if off.ndim == 1:  # tr(W_i Sigma_ii^2) of diagonal blocks
        upper = np.sum(W * sigma * sigma)
    else:
        upper = np.einsum("nij,nji->", W, sigma @ sigma)
    frob_cov = float(np.sqrt(np.sum(sigma ** 2) + 2.0 * upper))
    return WeakConstraintPosterior(diag_blocks=diag, off_block=off,
                                   frob_cov=frob_cov, factor=(L_inv, L_sub))


def _back_substitute(L_inv: np.ndarray, L_sub: np.ndarray,
                     y: np.ndarray) -> np.ndarray:
    """Solve L' x = y in place, for y of shape (S, n+1, m).

    Runs blockwise from the last block back, across the S rows at once:
    block i + 1 of y already holds x when block i needs it.  Each block
    of y is a stack of (1, m) rows, never a diagonal (see ``mul``).
    """
    n = L_inv.shape[0] - 1
    y[:, n] = mul(y[:, n], L_inv[n])
    for i in range(n - 1, -1, -1):
        t = mul(y[:, i + 1], L_sub[i])
        np.subtract(y[:, i], t, out=t)
        y[:, i] = mul(t, L_inv[i], out=t)
    return y


def _weak_solution(problem: LinearGaussianProblem, observations: np.ndarray,
                   posterior: WeakConstraintPosterior | None = None):
    """The block Cholesky factor of the weak precision, and the mode.

    The mode solves L L' x = b for the stacked data term b, by forward
    substitution L y = b and back substitution L' x = y.  The factor is
    the ``posterior``'s when one is given.  Returns (L_inv, L_sub, mode)
    with the mode of shape (n+1, m).
    """
    n = observations.shape[0]
    if posterior is None:
        diag, off, H, S0_inv, R_inv = _weak_blocks(problem, n)
        L_inv, L_sub = _block_cholesky(diag, off)
    elif posterior.n_data != n:
        raise ValueError(f"posterior is for {posterior.n_data} data sets, "
                         f"observations have {n}")
    else:
        _, H, _, S0_inv, R_inv = _weak_inverses(problem)
        L_inv, L_sub = posterior.factor
    y = np.empty((1, n + 1, problem.m))  # (1, m) rows, not diagonals
    y[:, 0] = mul(mul(problem.mu0[None], S0_inv.T), L_inv[0].T)
    for i in range(1, n + 1):
        b = mul(mul(observations[None, i - 1], R_inv.T), H)
        y[:, i] = mul(b - mul(y[:, i - 1], L_sub[i - 1].T), L_inv[i].T)
    return L_inv, L_sub, _back_substitute(L_inv, L_sub, y)[0]


def weak_mode(problem: LinearGaussianProblem, observations,
              posterior: WeakConstraintPosterior | None = None) -> np.ndarray:
    """4D-Var trajectory estimate: the mode (= mean) of the weak posterior.

    Returns the stacked vector (x^0, ..., x^n) of length (n+1)*m.  A
    ``posterior`` from :func:`weak_precision` of the same problem and
    number of data sets lends its factor, so the precision is not
    factored again.
    """
    observations = _observations(problem, observations)
    return _weak_solution(problem, observations, posterior)[2].reshape(-1)


def optimal_smoother_sample(problem: LinearGaussianProblem, observations,
                            N: int, seed, constraint: str = "weak"):
    """Exact posterior samples with uniform weights (zero weight variance).

    ``constraint="weak"`` samples full trajectories of dimension
    (n+1)*m; ``constraint="strong"`` samples the initial state only.
    Returns (samples, weights) with weights identically 1/N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    observations = _observations(problem, observations)
    n = observations.shape[0]
    rng = np.random.default_rng(seed)
    if constraint == "strong":
        posterior = strong_precision(problem, n)
        mean = strong_mean(problem, observations, posterior)
        L = np.linalg.cholesky(posterior.precision.a)
        xi = rng.standard_normal((N, problem.m))
        samples = mean + xi @ np.linalg.inv(L)  # rows y with L' y' = xi'
    elif constraint == "weak":
        L_inv, L_sub, mode = _weak_solution(problem, observations)
        xi = rng.standard_normal((N, n + 1, problem.m))
        samples = _back_substitute(L_inv, L_sub, xi).reshape(N, -1)
        samples += mode.reshape(-1)
    else:
        raise ValueError("constraint must be 'weak' or 'strong'")
    return samples, np.full(N, 1.0 / N)
