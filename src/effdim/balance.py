"""Balance conditions between model noise and data noise.

For the isotropic family A = H = I, Q = qI, R = rI every criterion in
this package reduces to a scalar function g(q, r) compared against
c / sqrt(m) (the O(1) constant c defaults to 1).  With p the steady
posterior variance, the positive root of p^2 + q p - q r = 0, and
x = p + q the steady prior variance, the positive root of
x^2 - q x - q r = 0 (both :func:`effdim.kalman.positive_root`):

    feasibility   g = p                  (per-component steady P)
    optimal       g = q r / (x (q + r))  (optimal-filter collapse)
    sir           g = x / r              (SIR-filter collapse)
    strong        g = s r / (s + r)      (one-shot smoothing, prior s)

Every level set g = l (l = c/sqrt(m)) has a closed form:

    feasibility   r = l + l^2/q                         per grid column q
    strong        r = l s / (s - l)                     per column s > l
    sir           eps = l^2 / (1 + l)                   one ray q = eps r
    optimal       (l + l^2) eps^2 + (2l - 1)(1 + l) eps + l^2 = 0

The filter criteria depend only on the ratio eps = q/r, so their level
sets are rays through the origin.  The optimal criterion peaks at
g(1/2, 1) = 1/3: below the peak its two roots are rays on either side of
eps = 1/2, within LEVEL_TOL of it the one tangent ray eps = 1/2, and
above it there is no boundary.  ``max_dimension`` inverts g <= c/sqrt(m)
for m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import LinearGaussianProblem, frobenius
from .kalman import (DARE_MAX_ITER, DARE_TOL, _check_domain, positive_root,
                     solve_dare)

LEVEL_TOL = 1e-7  # half-width of the tangent band at the optimal peak
OPTIMAL_PEAK = 1.0 / 3.0  # g_optimal(1/2, 1), the peak over eps
DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 1e2
DEFAULT_GRID_POINTS = 200


class MapKind(str, enum.Enum):
    FEASIBILITY = "feasibility"
    OPTIMAL = "optimal"
    SIR = "sir"
    STRONG = "strong"


def _maybe_scalar(value, q, r):
    if np.ndim(q) == 0 and np.ndim(r) == 0:
        return float(value)
    return value


def g_feasibility(q, r):
    """Per-component steady posterior std scale; feasible when <= c/sqrt(m)."""
    _check_domain(q, r)
    qa = np.asarray(q, dtype=float)
    return _maybe_scalar(positive_root(1.0, qa, qa * r), q, r)


def _prior(q, r):
    """(q, r, x) as float arrays, x the steady prior variance."""
    _check_domain(q, r)
    qa = np.asarray(q, dtype=float)
    ra = np.asarray(r, dtype=float)
    return qa, ra, positive_root(1.0, -qa, qa * ra)


def g_optimal(q, r):
    """Collapse scale of the optimal particle filter; depends only on q/r."""
    qa, ra, x = _prior(q, r)
    den = x * (qa + ra)
    out = np.divide(qa * ra, den, out=np.zeros(np.shape(den)),
                    where=den > 0)  # 0 at q = 0
    return _maybe_scalar(out, q, r)


def g_sir(q, r):
    """Collapse scale of the SIR filter; depends only on q/r."""
    qa, ra, x = _prior(q, r)
    return _maybe_scalar(x / ra, q, r)


def g_strong(sigma0, r):
    """One-data-set strong-constraint posterior scale sigma0 r/(sigma0 + r)."""
    if np.any(np.asarray(sigma0) <= 0):
        raise ValueError("sigma0 must be positive")
    if np.any(np.asarray(r) <= 0):
        raise ValueError("r must be positive")
    sa = np.asarray(sigma0, dtype=float)
    ra = np.asarray(r, dtype=float)
    return _maybe_scalar(sa * ra / (sa + ra), sigma0, r)


_G_FUNCS = {
    MapKind.FEASIBILITY: g_feasibility,
    MapKind.OPTIMAL: g_optimal,
    MapKind.SIR: g_sir,
    MapKind.STRONG: g_strong,
}

# Level sets of the filter criteria are rays; the others are monotone in r.
_RAY_KINDS = (MapKind.OPTIMAL, MapKind.SIR)


def _check_constant(constant: float) -> None:
    if not 0.0 < constant < np.inf:
        raise ValueError("constant must be positive and finite")


def _max_dimensions(eps, kind, constant: float) -> list[float]:
    """(constant / g(eps, 1))^2 for each ratio of ``eps``; inf where g is 0
    or the square is beyond the float range."""
    if np.any(np.asarray(eps) <= 0):
        raise ValueError("eps must be positive")
    _check_constant(constant)
    kind = MapKind(kind)
    if kind not in _RAY_KINDS:
        raise ValueError("max_dimension applies to the optimal and sir criteria")
    out = []
    # Python's scalar power, not numpy's: their squares can differ in the
    # last bit
    for g in np.ravel(_G_FUNCS[kind](eps, 1.0)).tolist():
        try:
            out.append((constant / g) ** 2)
        except (ZeroDivisionError, OverflowError):
            out.append(math.inf)
    return out


def max_dimension(eps: float, kind, constant: float = 1.0) -> float:
    """Largest state dimension for which the filter criterion holds at ratio eps.

    Solves g(eps, 1) <= constant / sqrt(m) for m.  Where g(eps, 1) is 0
    (the optimal criterion once eps^2 overflows) the criterion holds for
    every m, and where m passes the float range, the result is inf.
    """
    return _max_dimensions(float(eps), kind, constant)[0]


@dataclass(frozen=True)
class LevelSet:
    m: int
    level: float
    points: np.ndarray  # rows (q, r) on g = level, from the closed forms


@dataclass(frozen=True)
class BalanceMap:
    kind: MapKind
    q_grid: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray  # shape (len(q_grid), len(r_grid))
    level_sets: list[LevelSet]


@dataclass(frozen=True)
class MaxDimCurve:
    eps_grid: np.ndarray
    m_max: np.ndarray
    kind: MapKind


def log_grid(lo: float = DEFAULT_GRID_MIN, hi: float = DEFAULT_GRID_MAX,
             n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    if not 0 < lo < hi < np.inf or n < 2:
        raise ValueError("need 0 < lo < hi < inf and n >= 2")
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _column_roots(kind: MapKind, q_grid, level: float):
    """Closed-form r with g(q, r) = level per column; nan where none exists."""
    if kind is MapKind.FEASIBILITY:
        return level + level * level / q_grid
    # strong: r = l s / (s - l) needs s > l, else g < s <= l for every r
    return np.divide(level * q_grid, q_grid - level,
                     out=np.full_like(q_grid, np.nan), where=q_grid > level)


def _ray_slopes(kind: MapKind, level: float) -> list[float]:
    """All eps with g(eps, 1) = level for the ray criteria."""
    if kind is MapKind.SIR:
        return [level * level / (1.0 + level)]
    # optimal: a eps^2 + b eps + c = 0 with b^2 - 4ac = (1 - 3l)(1 + l),
    # which vanishes at the peak g(1/2, 1) = 1/3
    if abs(level - OPTIMAL_PEAK) <= LEVEL_TOL:
        return [0.5]
    if level > OPTIMAL_PEAK:
        return []  # criterion holds for every ratio; no boundary
    a = level * (1.0 + level)
    b = (2.0 * level - 1.0) * (1.0 + level)  # < 0 below the peak
    c = level * level
    # t = -(b + sign(b) sqrt(disc))/2 has no cancellation; roots c/t < t/a
    t = 0.5 * (np.sqrt((1.0 - 3.0 * level) * (1.0 + level)) - b)
    return [c / t, t / a]


def build_map(kind, q_grid, r_grid, dims, constant: float = 1.0) -> BalanceMap:
    """Evaluate the criterion on the grid and extract its c/sqrt(m) level sets."""
    kind = MapKind(kind)
    q_grid = np.asarray(q_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    for name, grid in (("q_grid", q_grid), ("r_grid", r_grid)):
        if grid.size == 0:
            raise ValueError(f"{name} is empty")
        if not np.all((grid > 0) & np.isfinite(grid)):
            raise ValueError(f"{name} must be positive and finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    if not all(m >= 1 for m in dims):
        raise ValueError("dims must be >= 1")
    _check_constant(constant)
    values = _G_FUNCS[kind](q_grid[:, None], r_grid[None, :])
    level_sets: list[LevelSet] = []

    def emit(m, level, q_pts, r_pts):
        if q_pts.size:
            level_sets.append(LevelSet(m=int(m), level=float(level),
                                       points=np.column_stack([q_pts, r_pts])))

    for m in dims:
        level = constant / np.sqrt(m)
        if kind in _RAY_KINDS:
            for eps in _ray_slopes(kind, level):
                q_pts = eps * r_grid
                keep = (q_pts >= q_grid[0]) & (q_pts <= q_grid[-1])
                emit(m, level, q_pts[keep], r_grid[keep])
        else:
            # g is increasing in r: a column has a root on the r range
            # exactly when its end values bracket the level; the clip
            # absorbs the last-bit rounding of the closed form
            r_pts = np.clip(_column_roots(kind, q_grid, level),
                            r_grid[0], r_grid[-1])
            keep = ((values[:, 0] <= level) & (level <= values[:, -1])
                    & np.isfinite(r_pts))
            emit(m, level, q_grid[keep], r_pts[keep])
    return BalanceMap(kind=kind, q_grid=q_grid, r_grid=r_grid, values=values,
                      level_sets=level_sets)


def build_max_dim_curve(eps_grid, kind, constant: float = 1.0) -> MaxDimCurve:
    kind = MapKind(kind)
    eps_grid = np.asarray(eps_grid, dtype=float)
    m_max = np.array(_max_dimensions(eps_grid, kind, constant), dtype=float)
    return MaxDimCurve(eps_grid=eps_grid, m_max=m_max, kind=kind)


@dataclass(frozen=True)
class ConditionCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class SufficientConditions:
    feasibility: ConditionCheck
    optimal_filter: ConditionCheck
    sir_filter: ConditionCheck
    eff_dim: float


def general_sufficient_conditions(problem: LinearGaussianProblem,
                                  constant: float = 1.0,
                                  tol: float = DARE_TOL,
                                  max_iter: int = DARE_MAX_ITER
                                  ) -> SufficientConditions:
    """Evaluate the three Frobenius-norm balance inequalities for any (A,Q,H,R).

    feasibility:  ||P||_F <= c
    optimal:      ||A||_F^2 ||H||_F^2 ||P||_F <= ||H||_F^2 ||Q||_F + ||R||_F
    sir:          ||H||_F^2 (||Q||_F + ||A||_F^2 ||P||_F) <= ||R||_F

    P is the steady-state posterior covariance; DARE failures propagate.
    """
    _check_constant(constant)
    state = solve_dare(problem, tol=tol, max_iter=max_iter)
    p_f = state.eff_dim
    a2 = frobenius(problem.A) ** 2
    h2 = frobenius(problem.H) ** 2
    q_f = frobenius(problem.Q)
    r_f = frobenius(problem.R)
    feas = ConditionCheck(p_f, constant, p_f <= constant)
    opt_lhs = a2 * h2 * p_f
    opt_rhs = h2 * q_f + r_f
    opt = ConditionCheck(opt_lhs, opt_rhs, opt_lhs <= opt_rhs)
    sir_lhs = h2 * (q_f + a2 * p_f)
    sir = ConditionCheck(sir_lhs, r_f, sir_lhs <= r_f)
    return SufficientConditions(feasibility=feas, optimal_filter=opt,
                                sir_filter=sir, eff_dim=p_f)

