"""Closed-form matrix bounds on the DARE solution and the posterior covariance.

Solving the Riccati equation is cheap here but not free; these bounds
sandwich it in closed form and give an upper bound on the effective
dimension without iterating:

    lower:  X_l = A (Q^{-1} + H' R^{-1} H)^{-1} A' + Q          (>= Q)
    upper:  X_u = A (X_*^{-1} + H' R^{-1} H)^{-1} A' + Q
            X_* = A (eta^{-1} I + H' R^{-1} H)^{-1} A' + Q

where the scalar eta dominates the largest eigenvalue x of X.  From
x <= lam_1(AA') x / (1 + lam_n(M) x) + lam_1(Q), M = H'R^{-1}H, eta is
the positive root of

    lam_n(M) eta^2 + (1 - lam_1(AA') - lam_n(M) lam_1(Q)) eta - lam_1(Q) = 0,

i.e. eta = (sqrt(a^2 + b c) - a) / b with a = 1 - lam_1(AA') -
lam_n(M) lam_1(Q), b = 2 lam_n(M), c = 2 lam_1(Q).  For rank-deficient H
(lam_n(M) = 0) the limit eta = lam_1(Q) / a applies when a > 0; otherwise
the bound does not exist and BoundInapplicableError is raised.  Because
lam_1(AA') majorizes A for any asymmetry, the sandwich holds for general
A; the acceptance suite still reports (rather than asserts) asymmetric-A
violations as a guard.

The posterior bound follows from operator monotonicity of
Y -> (Y^{-1} + M)^{-1}:

    P = (X^{-1} + M)^{-1} <= (X_u^{-1} + M)^{-1}
      = X_u - X_u H' (H X_u H' + R)^{-1} H X_u =: P_u.

(Sharpening the subtracted term with X_l in place of X_u is not Loewner
monotone and can overshoot; the rigorous form is used.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (PD_COND_LIMIT, LinearGaussianProblem, SymMatrix, dense,
                    frobenius, identity, inverse, mul, on_storage, pd_inverse,
                    solve, storage, sym)

Q_REGULARIZATION = 1e-12  # scale of trace(Q)/m added to a singular Q


class BoundInapplicableError(RuntimeError):
    """The closed-form upper bound does not apply to this problem."""


@dataclass(frozen=True)
class DareBounds:
    """Sandwich Q <= X_l <= X <= X_u and the induced bound P <= P_upper."""

    X_lower: SymMatrix
    X_upper: SymMatrix
    P_upper: SymMatrix
    eff_dim_upper: float
    eta: float
    q_regularized: bool = False


def _eigs(M: np.ndarray) -> np.ndarray:
    """Nondecreasing eigenvalues of symmetric M (its lower triangle, as
    LAPACK reads it); the sorted entries of a diagonal M (1-D)."""
    return np.sort(M) if M.ndim == 1 else np.linalg.eigvalsh(M)


def _sym_part_eigs(M: np.ndarray) -> np.ndarray:
    return _eigs(0.5 * (M + M.T))


def _regularized_q(problem: LinearGaussianProblem):
    """Return (Q, was_regularized); nudges a singular Q to invertible."""
    Q = problem.Q
    w = _sym_part_eigs(storage(Q)[0])
    if w[0] > 0.0 and w[-1] / w[0] <= PD_COND_LIMIT:
        return Q, False
    bump = Q_REGULARIZATION * np.trace(Q) / problem.m
    if bump <= 0.0:
        bump = Q_REGULARIZATION
    return Q + bump * np.eye(problem.m), True


def _lower(A, Q, H, R):
    Q_inv = pd_inverse(Q, "lower bound requires invertible Q")
    R_inv = pd_inverse(R, "R singular")
    inner = inverse(Q_inv + mul(mul(H.T, R_inv), H))
    return mul(mul(A, inner), A.T) + Q


def _upper(A, Q, H, R):
    R_inv = pd_inverse(R, "R singular")
    M = 0.5 * (mul(mul(H.T, R_inv), H) + mul(mul(H.T, R_inv), H).T)
    lam_AAt = _eigs(mul(A, A.T))[-1]
    lam_min_M = max(_sym_part_eigs(M)[0], 0.0)
    lam_max_Q = _sym_part_eigs(Q)[-1]
    a = 1.0 - lam_AAt - lam_min_M * lam_max_Q
    if lam_min_M > 1e-14:
        b = 2.0 * lam_min_M
        c = 2.0 * lam_max_Q
        eta = (np.sqrt(a * a + b * c) - a) / b
    elif a > 0.0:
        eta = lam_max_Q / a  # lam_n(M) -> 0 limit of the quadratic root
    else:
        raise BoundInapplicableError(
            "upper bound inapplicable: lam_1(AA') >= 1 with "
            "rank-deficient H")
    if eta <= 0.0:
        raise BoundInapplicableError(
            f"upper bound inapplicable: eta = {eta:.3e} <= 0")
    try:
        X_star = mul(mul(A, inverse(identity(A) / eta + M)), A.T) + Q
        X_star_inv = pd_inverse(X_star, "upper bound inapplicable: "
                                        "singular intermediate")
        X_u = mul(mul(A, inverse(X_star_inv + M)), A.T) + Q
    except np.linalg.LinAlgError as exc:
        raise BoundInapplicableError(str(exc)) from exc
    return X_u, float(eta)


def _sandwich(A, Q, H, R):
    """(X_l, X_u, eta, P_u) in the form of A, Q, H and R; X_u as
    :func:`_upper` returns it, P_u from its symmetric part."""
    X_l = _lower(A, Q, H, R)
    X_u, eta = _upper(A, Q, H, R)
    X_sym = 0.5 * (X_u + X_u.T)
    HXu = mul(H, X_sym)
    P_u = X_sym - mul(HXu.T, solve(mul(HXu, H.T) + R, HXu))
    return X_l, X_u, eta, P_u


def _dense_sym(M) -> SymMatrix:
    return SymMatrix(sym(dense(M), rtol=np.inf))


def dare_lower_bound(problem: LinearGaussianProblem) -> SymMatrix:
    """Komaroff-type lower bound X_l = A (Q^{-1} + H'R^{-1}H)^{-1} A' + Q."""
    return _dense_sym(on_storage(_lower, problem.A, problem.Q, problem.H,
                                 problem.R))


def dare_upper_bound(problem: LinearGaussianProblem) -> tuple[SymMatrix, float]:
    """Kwon-type upper bound; returns (X_u, eta)."""
    X_u, eta = on_storage(_upper, problem.A, problem.Q, problem.H, problem.R)
    return _dense_sym(X_u), eta


def p_upper_bound(problem: LinearGaussianProblem,
                  regularize_q: bool = False) -> DareBounds:
    """Assemble both DARE bounds and P_upper; eff_dim_upper = ||P_upper||_F.

    With ``regularize_q`` a singular Q is bumped by
    Q_REGULARIZATION * trace(Q)/m on the diagonal and the result is
    flagged ``q_regularized``; otherwise a singular Q raises.  A problem
    whose A, Q, H and R are all diagonal is bounded on their diagonals
    (see :func:`effdim.model.on_storage`); the result is dense either way.
    """
    work = problem
    regularized = False
    if regularize_q:
        Q_reg, regularized = _regularized_q(problem)
        if regularized:
            work = replace(problem, Q=Q_reg)
    X_l, X_u, eta, P_u = on_storage(_sandwich, work.A, work.Q, work.H,
                                    work.R)
    P_u = _dense_sym(P_u)
    return DareBounds(X_lower=_dense_sym(X_l), X_upper=_dense_sym(X_u),
                      P_upper=P_u, eff_dim_upper=frobenius(P_u), eta=eta,
                      q_regularized=regularized)


def bounds_to_dict(bounds: DareBounds) -> dict:
    return {
        "X_lower": bounds.X_lower.a.tolist(),
        "X_upper": bounds.X_upper.a.tolist(),
        "P_upper": bounds.P_upper.a.tolist(),
        "eff_dim_upper": bounds.eff_dim_upper,
        "eta": bounds.eta,
        "q_regularized": bounds.q_regularized,
    }
