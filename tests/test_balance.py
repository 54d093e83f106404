import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdim.balance import (LEVEL_TOL, MapKind, build_map,
                            build_max_dim_curve, g_feasibility, g_optimal,
                            g_sir, g_strong, general_sufficient_conditions,
                            log_grid, max_dimension)
from effdim.kalman import isotropic_steady_p
from effdim.model import LinearGaussianProblem

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# The closed forms as each wrote out its own quadratic root, before they
# shared kalman.positive_root: the reference for the bits of the new ones.
def _written_out_feasibility(q, r):
    den = np.sqrt(q * q + 4.0 * q * r) + q
    return np.divide(2.0 * q * r, den,
                     out=np.zeros(np.broadcast(q, r).shape), where=den > 0)


def _written_out_optimal(q, r):
    den = (np.sqrt(q * q + 4.0 * q * r) + q) * (q + r)
    return np.divide(2.0 * q * r, den,
                     out=np.zeros(np.broadcast(q, r).shape), where=den > 0)


def _written_out_sir(q, r):
    return (np.sqrt(q * q + 4.0 * q * r) + q) / (2.0 * r)


def _written_out_steady_p(q, r):
    if q == 0.0:
        return 0.0
    return 2.0 * q * r / (np.sqrt(q * q + 4.0 * q * r) + q)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_closed_forms_keep_the_bits_of_the_written_out_roots():
    grid = log_grid()
    rng = np.random.default_rng(15)
    q_rand, r_rand = 10.0 ** rng.uniform(-150, 150, (2, 200_000))
    for q, r in ((grid[:, None], grid[None, :]), (q_rand, r_rand)):
        for new, old in ((g_feasibility, _written_out_feasibility),
                         (g_optimal, _written_out_optimal),
                         (g_sir, _written_out_sir)):
            assert _same_bits(new(q, r), old(q, r)), new.__name__
    for q, r in zip(np.r_[0.0, grid, q_rand[:2000]].tolist(),
                    np.r_[1.0, grid[::-1], r_rand[:2000]].tolist()):
        assert _same_bits(isotropic_steady_p(q, r),
                          _written_out_steady_p(q, r))
        assert _same_bits(g_feasibility(q, r), _written_out_steady_p(q, r))


def test_g_feasibility_values():
    assert g_feasibility(1.0, 1.0) == pytest.approx(GOLDEN, abs=1e-14)
    assert g_feasibility(0.0, 5.0) == 0.0
    # same function as the isotropic steady variance
    for q, r in ((0.3, 2.0), (10.0, 0.01), (1e-4, 1e2)):
        assert g_feasibility(q, r) == pytest.approx(isotropic_steady_p(q, r),
                                                    rel=1e-14)


def test_g_feasibility_boundary_identity():
    # level g = L inverts to r = L + L^2/q; at L = 0.1 (m = 100)
    for q in (0.01, 1.0, 100.0):
        r = 0.1 + 1.0 / (100.0 * q)
        assert g_feasibility(q, r) == pytest.approx(0.1, abs=1e-12)


def test_g_optimal_values():
    assert g_optimal(1.0, 1.0) == pytest.approx((np.sqrt(5) - 1) / 4,
                                                abs=1e-14)
    assert g_optimal(0.0, 2.0) == 0.0
    assert g_optimal(2.0, 3.0) == pytest.approx(g_optimal(20.0, 30.0),
                                                abs=1e-12)


def test_g_sir_values():
    assert g_sir(1.0, 1.0) == pytest.approx((np.sqrt(5) + 1) / 2, abs=1e-14)
    assert g_sir(0.0, 1.0) == 0.0
    assert g_sir(1e-4, 1.0) == pytest.approx(0.0100504, abs=5e-7)


def test_g_domain_errors():
    for g in (g_feasibility, g_optimal, g_sir):
        with pytest.raises(ValueError):
            g(-1.0, 1.0)
        with pytest.raises(ValueError):
            g(1.0, 0.0)
    with pytest.raises(ValueError):
        g_strong(0.0, 1.0)


def test_filter_criteria_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = float(10 ** rng.uniform(-4, 2))
        r = float(10 ** rng.uniform(-4, 2))
        c = float(10 ** rng.uniform(-2, 2))
        assert g_optimal(q, r) == pytest.approx(g_optimal(c * q, c * r),
                                                rel=1e-12)
        assert g_sir(q, r) == pytest.approx(g_sir(c * q, c * r), rel=1e-12)


def test_g_optimal_below_g_sir_on_log_grid():
    grid = np.logspace(-4, 2, 30)
    for q in grid:
        for r in grid:
            assert g_optimal(q, r) <= g_sir(q, r) + 1e-15


def test_g_feasibility_monotone_in_q_and_r():
    grid = np.logspace(-4, 2, 25)
    V = g_feasibility(grid[:, None], grid[None, :])
    assert np.all(np.diff(V, axis=0) > 0)  # increasing in q
    assert np.all(np.diff(V, axis=1) > 0)  # increasing in r


def test_max_dimension_values():
    assert max_dimension(1.0, MapKind.OPTIMAL) == pytest.approx(10.47,
                                                                abs=0.01)
    assert max_dimension(1.0, MapKind.SIR) == pytest.approx(0.382, abs=0.001)
    assert max_dimension(100.0, MapKind.OPTIMAL) == pytest.approx(1.04e4,
                                                                  rel=0.01)
    with pytest.raises(ValueError):
        max_dimension(0.0, MapKind.OPTIMAL)
    with pytest.raises(ValueError):
        max_dimension(1.0, MapKind.FEASIBILITY)


def test_max_dimension_optimal_dominates_sir():
    for eps in np.logspace(-3, 3, 25):
        assert (max_dimension(float(eps), MapKind.OPTIMAL)
                >= max_dimension(float(eps), MapKind.SIR))


def test_max_dim_curve_unimodal_reciprocal():
    curve = build_max_dim_curve(np.logspace(-4, 4, 200), MapKind.OPTIMAL)
    assert np.all(curve.m_max > 0)
    recip = 1.0 / curve.m_max
    peak = int(np.argmax(recip))
    assert 0 < peak < len(recip) - 1
    assert np.all(np.diff(recip[:peak + 1]) > 0)
    assert np.all(np.diff(recip[peak:]) < 0)
    # large m_max toward both ends
    assert curve.m_max[0] > 100 and curve.m_max[-1] > 100


def test_build_map_feasibility_level_sets():
    grid = log_grid(1e-4, 1e2, 120)
    bm = build_map(MapKind.FEASIBILITY, grid, grid, dims=[5, 10, 100])
    assert bm.values.shape == (120, 120)
    assert np.all(bm.values >= 0)
    assert {ls.m for ls in bm.level_sets} == {5, 10, 100}
    for ls in bm.level_sets:
        level = 1.0 / np.sqrt(ls.m)
        for q, r in ls.points:
            assert abs(g_feasibility(q, r) - level) <= 1e-6


def test_build_map_optimal_rays_are_straight():
    grid = log_grid(1e-4, 1e2, 80)
    bm = build_map(MapKind.OPTIMAL, grid, grid, dims=[100])
    assert bm.level_sets, "m=100 must intersect the optimal criterion"
    for ls in bm.level_sets:
        q = ls.points[:, 0]
        r = ls.points[:, 1]
        slope = q / r
        assert np.ptp(slope) <= 1e-8 * slope[0]  # a ray through the origin
        for qi, ri in ls.points:
            assert abs(g_optimal(qi, ri) - ls.level) <= 1e-6


def test_build_map_optimal_no_level_set_below_peak():
    # the optimal criterion peaks at 1/3 (eps = 1/2); m = 5 gives
    # 1/sqrt(5) ~ 0.447 > 1/3, so no boundary exists
    grid = log_grid(1e-3, 1e3, 50)
    bm = build_map(MapKind.OPTIMAL, grid, grid, dims=[5])
    assert bm.level_sets == []


def test_build_map_sir_inside_optimal_region():
    grid = log_grid(1e-4, 1e2, 60)
    sir = build_map(MapKind.SIR, grid, grid, dims=[100])
    opt = build_map(MapKind.OPTIMAL, grid, grid, dims=[100])
    level = 0.1
    inside_sir = sir.values <= level
    assert inside_sir.any()
    assert np.all(opt.values[inside_sir] <= level)


def test_build_map_strong_kind():
    grid = log_grid(1e-3, 1e3, 60)
    bm = build_map(MapKind.STRONG, grid, grid, dims=[10, 100])
    assert g_strong(1.0, 1.0) == 0.5
    assert g_strong(2.0, 3.0) == g_strong(3.0, 2.0)
    for ls in bm.level_sets:
        for s, r in ls.points:
            assert abs(g_strong(s, r) - ls.level) <= 1e-6
    # m = 100: level 0.1 passes through (0.2, 0.2)
    assert g_strong(0.2, 0.2) == pytest.approx(0.1, abs=1e-15)


def test_build_map_validates_grids():
    with pytest.raises(ValueError):
        build_map(MapKind.FEASIBILITY, np.array([]), np.array([1.0]), [5])
    with pytest.raises(ValueError):
        build_map(MapKind.FEASIBILITY, np.array([1.0, 0.5]),
                  np.array([1.0, 2.0]), [5])
    with pytest.raises(ValueError):
        build_map(MapKind.FEASIBILITY, np.array([-1.0, 1.0]),
                  np.array([1.0, 2.0]), [5])
    with pytest.raises(ValueError):
        build_map(MapKind.FEASIBILITY, np.array([1.0, np.nan]),
                  np.array([1.0, 2.0]), [5])


def test_general_conditions_small_q():
    problem = LinearGaussianProblem.isotropic(2, 1e-3, 1.0)
    conds = general_sufficient_conditions(problem)
    assert conds.optimal_filter.holds
    assert conds.feasibility.holds


def test_general_conditions_zero_q_trivial():
    problem = LinearGaussianProblem.isotropic(3, 0.0, 1.0)
    conds = general_sufficient_conditions(problem, tol=1e-8)
    assert conds.optimal_filter.holds
    assert conds.optimal_filter.lhs == pytest.approx(0.0, abs=1e-2)


def test_general_conditions_sir_unrealistic_at_unit_noise():
    problem = LinearGaussianProblem.isotropic(100, 1.0, 1.0)
    conds = general_sufficient_conditions(problem)
    assert not conds.sir_filter.holds
    # lhs = m(q sqrt(m) + m ||P||_F), rhs = sqrt(m) r
    assert conds.sir_filter.lhs > conds.sir_filter.rhs


def _random_log_grid(rng) -> np.ndarray:
    lo = rng.uniform(-5.0, 2.0)
    hi = lo + rng.uniform(0.5, 6.0)
    return 10.0 ** np.unique(rng.uniform(lo, hi, int(rng.integers(2, 60))))


def _level_tol(kind: MapKind, level: float) -> float:
    # only the optimal tangent ray eps = 1/2 is off by up to LEVEL_TOL
    if kind is MapKind.OPTIMAL and abs(level - 1.0 / 3.0) <= LEVEL_TOL:
        return LEVEL_TOL
    return 1e-12 * level


_G = {MapKind.FEASIBILITY: g_feasibility, MapKind.OPTIMAL: g_optimal,
      MapKind.SIR: g_sir, MapKind.STRONG: g_strong}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10**6),
       st.floats(0.1, 10.0), st.sampled_from(list(MapKind)))
def test_level_set_points_solve_g_equals_level(seed, m, constant, kind):
    rng = np.random.default_rng(seed)
    q_grid, r_grid = _random_log_grid(rng), _random_log_grid(rng)
    bm = build_map(kind, q_grid, r_grid, [m], constant=constant)
    level = constant / np.sqrt(m)
    g = _G[kind]
    for ls in bm.level_sets:
        assert ls.m == m and ls.level == level
        q, r = ls.points[:, 0], ls.points[:, 1]
        assert np.all(np.abs(g(q, r) - level) <= _level_tol(kind, level))
        assert np.all((q >= q_grid[0]) & (q <= q_grid[-1]))
        assert np.all((r >= r_grid[0]) & (r <= r_grid[-1]))
    if kind in (MapKind.FEASIBILITY, MapKind.STRONG):
        # g is increasing in r: exactly the bracketing columns have a root
        bracket = ((g(q_grid, r_grid[0]) <= level)
                   & (level <= g(q_grid, r_grid[-1])))
        got = bm.level_sets[0].points[:, 0] if bm.level_sets else []
        assert np.array_equal(got, q_grid[bracket])


def test_ray_count_matches_sign_changes_of_g():
    # every root of g(eps, 1) = level appears as one ray on a grid wide
    # enough to hold it; the oracle counts sign changes on a dense sweep
    eps = np.logspace(-10, 10, 200_001)
    grid = log_grid(1e-6, 1e6, 30)
    for kind, g in ((MapKind.SIR, g_sir), (MapKind.OPTIMAL, g_optimal)):
        for m in (1, 5, 10, 11, 100, 1000, 10**6):
            level = 1.0 / np.sqrt(m)
            roots = int(np.count_nonzero(np.diff(np.sign(g(eps, 1.0) - level))))
            bm = build_map(kind, grid, grid, [m])
            slopes = sorted({float(ls.points[0, 0] / ls.points[0, 1])
                             for ls in bm.level_sets})
            assert len(slopes) == roots, (kind, m)


def test_optimal_tangent_ray_at_peak():
    grid = log_grid(1e-3, 1e3, 50)
    bm = build_map(MapKind.OPTIMAL, grid, grid, dims=[9])
    assert len(bm.level_sets) == 1
    pts = bm.level_sets[0].points
    assert np.all(pts[:, 0] / pts[:, 1] == 0.5)


def test_optimal_no_ray_just_above_peak():
    grid = log_grid(1e-3, 1e3, 50)
    bm = build_map(MapKind.OPTIMAL, grid, grid, dims=[1],
                   constant=1.0 / 3.0 + 2.0 * LEVEL_TOL)
    assert bm.level_sets == []


def test_optimal_two_rays_just_below_peak():
    level = 1.0 / 3.0 - 2.0 * LEVEL_TOL
    grid = log_grid(1e-3, 1e3, 50)
    bm = build_map(MapKind.OPTIMAL, grid, grid, dims=[1], constant=level)
    assert len(bm.level_sets) == 2
    slopes = [ls.points[:, 0] / ls.points[:, 1] for ls in bm.level_sets]
    assert np.max(slopes[0]) < 0.5 < np.min(slopes[1])
    for ls in bm.level_sets:
        q, r = ls.points[:, 0], ls.points[:, 1]
        assert np.all(np.abs(g_optimal(q, r) - level) <= 1e-12 * level)


@pytest.mark.parametrize("dims, constant", [
    ([0], 1.0), ([-4], 1.0), ([5, 0], 1.0), ([5], 0.0), ([5], -1.0),
    ([5], float("nan")), ([5], float("inf"))])
def test_build_map_rejects_bad_dims_and_constant(dims, constant):
    grid = log_grid(1e-2, 1e2, 10)
    with pytest.raises(ValueError):
        build_map(MapKind.FEASIBILITY, grid, grid, dims, constant=constant)


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 1.0, 10), (-1.0, 1.0, 10), (1.0, 1.0, 10), (1e-2, 1e2, 1),
    (float("nan"), 1.0, 10), (1e-2, float("inf"), 10)])
def test_log_grid_rejects_bad_ranges(lo, hi, n):
    with pytest.raises(ValueError):
        log_grid(lo, hi, n)


def test_max_dimension_rejects_bad_constant():
    for constant in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            max_dimension(1.0, MapKind.OPTIMAL, constant=constant)


@pytest.mark.parametrize("constant", [0.0, -1.0, float("nan"),
                                      float("inf")])
def test_general_conditions_reject_bad_constant_before_the_dare(constant):
    # max_iter=1 cannot converge: the constant is checked before the solve
    problem = LinearGaussianProblem.isotropic(3, 1e-4, 1.0)
    with pytest.raises(ValueError, match="constant"):
        general_sufficient_conditions(problem, constant=constant, max_iter=1)


@pytest.mark.parametrize("kind", [MapKind.FEASIBILITY, MapKind.STRONG])
def test_grid_end_an_ulp_past_the_root_keeps_points_inside(kind):
    # at q = 0.8, m = 10 the grid end one ulp past the root still
    # brackets the level after rounding; the point must stay on the grid
    level = 1.0 / np.sqrt(10)
    q = 0.8
    root = (level + level * level / q if kind is MapKind.FEASIBILITY
            else level * q / (q - level))
    g = _G[kind]
    for r_grid in (np.array([np.nextafter(root, np.inf), 10.0]),
                   np.array([0.01, np.nextafter(root, 0.0)])):
        assert g(q, r_grid[0]) <= level <= g(q, r_grid[-1])
        bm = build_map(kind, np.array([q]), r_grid, [10])
        (ls,) = bm.level_sets
        assert r_grid[0] <= ls.points[0, 1] <= r_grid[-1]


@pytest.mark.parametrize("kind", [MapKind.OPTIMAL, MapKind.SIR])
@pytest.mark.parametrize("constant", [0.37, 1.0, 3.0])
def test_max_dim_curve_is_max_dimension_per_eps(kind, constant):
    # the curve evaluates g once over the grid and squares each ratio with
    # Python's power: the values of max_dimension, bit for bit
    for eps_grid in (log_grid(1e-4, 1e2, 200), log_grid(1e-3, 1e3, 57),
                     10.0 ** np.random.default_rng(3).uniform(-6, 6, 300)):
        curve = build_max_dim_curve(eps_grid, kind, constant=constant)
        want = [(constant / g) ** 2 for g in
                (g_optimal if kind is MapKind.OPTIMAL else g_sir)(
                    eps_grid, 1.0).tolist()]
        assert curve.m_max.tolist() == want
        assert want == [max_dimension(float(e), kind, constant)
                        for e in eps_grid]


def test_max_dimension_is_inf_where_every_m_passes():
    # eps^2 overflows, so g_optimal(eps, 1) is 0: the criterion holds for
    # every m
    with np.errstate(over="ignore"):
        assert max_dimension(1e300, MapKind.OPTIMAL) == np.inf
        curve = build_max_dim_curve(log_grid(1e-300, 1e300, 40),
                                    MapKind.OPTIMAL)
    assert curve.m_max[-1] == np.inf
    assert np.all(curve.m_max > 0)
    # (1 / g)^2 beyond the float range reads inf as well
    assert max_dimension(1e-320, MapKind.SIR) == np.inf
    assert max_dimension(1e-320, MapKind.OPTIMAL) == np.inf
    # g_sir grows without bound: no dimension passes
    with np.errstate(over="ignore"):
        assert max_dimension(1e300, MapKind.SIR) == 0.0
