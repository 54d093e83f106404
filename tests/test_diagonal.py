"""The diagonal storage form against the dense form it replaces.

Problems whose matrices are all diagonal run on 1-D diagonals
elementwise.  The dense form, forced through ``util.dense_path``, is the
reference: on the isotropic family the two agree bit for bit, and so do
the DARE, its bounds and the spectra on any diagonal problem of order 2
or more.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from effdim import model
from effdim.balance import general_sufficient_conditions
from effdim.bounds import BoundInapplicableError, p_upper_bound
from effdim.filters import (_steady_posterior, collapse_stat,
                            init_ensemble, optimal_step, run_filter,
                            simulate, sir_step, steady_collapse_stat,
                            step_plan)
from effdim.kalman import (DARE_MAX_ITER, DareConvergenceError, dare_residual,
                           isotropic_steady_p, solve_dare, spread_stats)
from effdim.model import LinearGaussianProblem, mul, psd_factor, validate
from effdim.smoothing import (optimal_smoother_sample, smoother_condition,
                              weak_mode, weak_precision)
from util import dense_path


def _same(a, b) -> bool:
    """a and b hold the same bits; a 1-D a is the diagonal of a dense b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == b.ndim - 1 and b.shape[-1] == b.shape[-2]:
        diag = np.diagonal(b, axis1=-2, axis2=-1)
        off = b - np.einsum("...i,ij->...ij", diag, np.eye(b.shape[-1]))
        return a.tobytes() == diag.tobytes() and not np.any(off)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _report_bits(run):
    return [np.array([r.ess, r.max_weight, r.var_log_w, r.sigma_frob]).tobytes()
            + bytes([r.degenerate]) for r in run.reports]


def _diagonal_problem(m, q, r=0.3):
    return LinearGaussianProblem.isotropic(m, q, r, sigma0=0.45,
                                           mu0=np.linspace(-1.0, 2.0, m))


@pytest.mark.parametrize("q", [0.7, 0.0], ids=["precision", "innovation"])
@pytest.mark.parametrize("m", [1, 3, 100])
def test_diagonal_filters_equal_dense_bit_for_bit(m, q):
    problem = _diagonal_problem(m, q)
    traj = simulate(problem, 4, seed=5)
    ens = init_ensemble(problem, 200, seed=5)
    with dense_path():
        traj_ref = simulate(problem, 4, seed=5)
        ens_ref = init_ensemble(problem, 200, seed=5)
    assert _same(traj.truth, traj_ref.truth)
    assert _same(traj.observations, traj_ref.observations)
    assert _same(ens.positions, ens_ref.positions)
    for kind, step in (("sir", sir_step), ("optimal", optimal_step)):
        plan = step_plan(problem, kind, sigma_frob=1.5)
        with dense_path():
            ref = step_plan(problem, kind, sigma_frob=1.5)
        assert plan.A_T.ndim == 1 and ref.A_T.ndim == 2
        for field in dataclasses.fields(plan):
            got, want = getattr(plan, field.name), getattr(ref, field.name)
            if isinstance(got, tuple):  # the simulation factors
                assert len(got) == len(want), (kind, field.name)
                assert all(_same(g, w) for g, w in zip(got, want)), \
                    (kind, field.name)
            elif isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
                assert _same(got, want), (kind, field.name)
            else:
                assert got == want, (kind, field.name)
        now, now_ref = ens, ens
        for n in range(4):
            z = traj.observations[n]
            now = step(problem, now, z, 30 + n, plan=plan)
            with dense_path():
                now_ref = step(problem, now_ref, z, 30 + n, plan=ref)
            assert _same(now.positions, now_ref.positions), (kind, n)
            assert _same(now.log_weights, now_ref.log_weights), (kind, n)
            now, now_ref = now.normalize(), now_ref.normalize()
        run = run_filter(problem, kind, 6, 200, seed=7, resample_every=2,
                         plan=plan)
        with dense_path():
            run_ref = run_filter(problem, kind, 6, 200, seed=7,
                                 resample_every=2, plan=ref)
        assert _report_bits(run) == _report_bits(run_ref)
        assert _same(run.means, run_ref.means)


@pytest.mark.parametrize("q", [0.7, 1.95, 2.46])
@pytest.mark.parametrize("m", [1, 3, 100])
def test_diagonal_smoothing_equals_dense_bit_for_bit(m, q):
    # q = 1.95 and 2.46 tell dividing by a pivot from multiplying by its
    # reciprocal in the forward Schur complements
    problem = _diagonal_problem(m, q)
    obs = simulate(problem, 5, seed=2).observations
    post = weak_precision(problem, 5)
    draw = optimal_smoother_sample(problem, obs, 50, seed=3)[0]
    mode = weak_mode(problem, obs)
    with dense_path():
        post_ref = weak_precision(problem, 5)
        draw_ref = optimal_smoother_sample(problem, obs, 50, seed=3)[0]
        mode_ref = weak_mode(problem, obs)
    assert post.off_block.ndim == 1 and post_ref.off_block.ndim == 2
    assert _same(post.diag_blocks, post_ref.diag_blocks)
    assert _same(post.off_block, post_ref.off_block)
    assert _same(mode, mode_ref)
    assert _same(draw, draw_ref)
    # the trace term sums the blocks in another order
    assert post.frob_cov == pytest.approx(post_ref.frob_cov, rel=1e-14)


def test_diagonal_problems_make_no_linalg_call(count_linalg):
    problem = LinearGaussianProblem(
        A=np.diag([0.9, -1.2, 1.0]), Q=np.diag([0.5, 2.0, 1.0]),
        H=np.diag([1.0, 0.5, -2.0]), R=np.diag([0.3, 1.0, 4.0]),
        mu0=np.array([0.1, -0.2, 0.3]), Sigma0=np.diag([1.0, 0.2, 3.0]))
    for kind in ("sir", "optimal"):
        run = run_filter(problem, kind, 5, 50, seed=1)
        assert np.isfinite(run.sigma_frob)
    obs = run.trajectory.observations
    weak_precision(problem, 5)
    optimal_smoother_sample(problem, obs, 20, seed=1)
    assert count_linalg == []
    problem = dataclasses.replace(problem, Q=problem.Q + 0.1)  # dense Q
    weak_precision(problem, 2)
    assert count_linalg


def test_closed_form_collapse_stat_matches_sda():
    rng = np.random.default_rng(17)
    for _ in range(24):
        m = int(rng.integers(1, 6))
        a = rng.uniform(-1.6, 1.6, m)  # unstable components too
        h = rng.uniform(0.2, 2.0, m) * rng.choice([-1.0, 1.0], m)
        problem = LinearGaussianProblem(
            A=np.diag(a), Q=np.diag(10.0 ** rng.uniform(-7, 1, m)),
            H=np.diag(h), R=np.diag(10.0 ** rng.uniform(-1, 1, m)),
            mu0=np.zeros(m), Sigma0=np.eye(m))
        P = solve_dare(problem).P
        for kind in ("sir", "optimal"):
            want = collapse_stat(problem, P, kind)
            assert steady_collapse_stat(problem, kind) == pytest.approx(
                want, rel=1e-9)


@pytest.mark.parametrize("q", [1e-8, 1e-4, 0.01, 1.0, 100.0, 1e6])
def test_closed_form_matches_isotropic_closed_form(q):
    p = _steady_posterior(*(np.array([v]) for v in (1.0, q, 1.0, 2.0)))
    assert p[0] == pytest.approx(isotropic_steady_p(q, 2.0), rel=1e-13)


def test_closed_form_is_not_used_without_a_steady_state(monkeypatch):
    def no_closed_form(*args):
        raise AssertionError("closed form used")

    monkeypatch.setattr("effdim.filters._steady_posterior", no_closed_form)
    # h = 0 with |a| >= 1: no steady state; q = 0: SDA decides
    for a, q, h in ((1.0, 1.0, 0.0), (0.5, 0.0, 1.0)):
        problem = LinearGaussianProblem(A=np.diag([a, 0.5]),
                                        Q=np.diag([q, 1.0]),
                                        H=np.diag([h, 1.0]), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        steady_collapse_stat(problem, "sir")


def test_closed_form_with_singular_r_matches_sda_or_is_nan():
    # r = 0 has a steady state (p = 0), but the SIR statistic needs R^{-1}
    problem = LinearGaussianProblem(A=np.eye(2), Q=np.eye(2), H=np.eye(2),
                                    R=np.diag([1.0, 0.0]), mu0=np.zeros(2),
                                    Sigma0=np.eye(2))
    assert np.isnan(steady_collapse_stat(problem, "sir"))
    want = collapse_stat(problem, solve_dare(problem).P, "optimal")
    assert steady_collapse_stat(problem, "optimal") == pytest.approx(
        want, rel=1e-9)


def test_nonisotropic_diagonal_factor_keeps_component_order():
    # eigh would sort the columns: component 0 would take noise column 2
    assert psd_factor(np.array([3.0, 1.0, 2.0])).tolist() == [
        np.sqrt(3.0), 1.0, np.sqrt(2.0)]
    problem = LinearGaussianProblem(A=np.eye(3), Q=np.diag([3.0, 1.0, 2.0]),
                                    H=np.eye(3), R=np.eye(3), mu0=np.zeros(3),
                                    Sigma0=np.diag([3.0, 1.0, 2.0]))
    ens = init_ensemble(problem, 20_000, seed=4)
    np.testing.assert_allclose(np.var(ens.positions, axis=0), [3.0, 1.0, 2.0],
                               rtol=0.05)


# ---------------------------------------------------------------------------
# guards that keep the elementwise product on the matmul's bits


def test_mul_zero_products_are_positive_zero_like_matmul():
    x = np.array([[-0.0, 2.0], [-3.0, -0.0]])
    d = np.array([1.0, 0.0])
    got, want = mul(x, d), x @ np.diag(d)
    assert not np.signbit(got[got == 0.0]).any()
    assert got.tobytes() == want.tobytes()


def test_mul_non_finite_row_spreads_nan_like_matmul():
    x = np.array([[np.inf, 1.0, 2.0], [1.0, 2.0, 3.0], [np.nan, 0.0, 1.0]])
    d = np.array([2.0, 0.5, 1.0])
    with np.errstate(invalid="ignore"):
        got, want = mul(x, d), x @ np.diag(d)
    np.testing.assert_array_equal(got, want)  # NaN where the matmul has NaN
    assert np.isnan(got[0, 1:]).all() and got[0, 0] == np.inf
    np.testing.assert_array_equal(mul(x[1], d), x[1] @ np.diag(d))


def test_filter_step_with_overflowed_particle_matches_dense():
    problem = _diagonal_problem(3, 0.7)
    ens = init_ensemble(problem, 10, seed=1)
    positions = ens.positions.copy()
    positions[4, 1] = np.inf
    ens = dataclasses.replace(ens, positions=positions)
    z = np.zeros(3)
    for kind, step in (("sir", sir_step), ("optimal", optimal_step)):
        with np.errstate(invalid="ignore", over="ignore"):
            got = step(problem, ens, z, 9, plan=step_plan(problem, kind, 1.0))
            with dense_path():
                want = step(problem, ens, z, 9,
                            plan=step_plan(problem, kind, 1.0))
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.log_weights, want.log_weights)
        assert np.isnan(got.positions[4]).any()


def test_validate_rejects_entries_that_overflow_symmetrization():
    for m in (1, 3):
        for dense in (False, True):
            problem = LinearGaussianProblem.isotropic(m, 1e308, 1e308)
            if dense:  # the symmetry check's norm overflows, as before
                with dense_path(), np.errstate(over="ignore"):
                    report = validate(problem)
            else:
                report = validate(problem)
            assert any("Q has entries too large" in line for line in report)
            assert any("R has entries too large" in line for line in report)


def test_storage_is_all_or_nothing():
    eye = np.eye(2)
    full = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert all(M.ndim == 1 for M in model.storage(eye, 2 * eye))
    assert all(M.ndim == 2 for M in model.storage(eye, full))
    assert model.diagonal(np.array([[1.0, np.nan], [0.0, 1.0]])) is None
    assert model.diagonal(np.ones((2, 3))) is None


def test_pd_inverse_rejects_subnormal_eigenvalues():
    # 1 / 1e-320 overflows; such a Q leaves the optimal filter in
    # innovation form instead of filling its plan with inf and NaN
    for M in (np.array([1e-320, 1.0]), np.diag([1e-320, 1.0])):
        with pytest.raises(np.linalg.LinAlgError, match="tiny"):
            model.pd_inverse(M, "tiny")
    problem = LinearGaussianProblem.isotropic(2, 1e-320, 1.0)
    plan = step_plan(problem, "optimal")
    assert plan.G_T is not None and np.isfinite(plan.sigma_frob)
    run = run_filter(problem, "optimal", 3, 20, seed=1, plan=plan)
    assert np.isfinite(run.means).all()


# ---------------------------------------------------------------------------
# the DARE, its bounds and the spectra on diagonals

_LAPACK = ("solve", "inv", "eigh", "eigvalsh", "svd")


@pytest.fixture
def count_lapack(monkeypatch):
    """Count the O(m^3) LAPACK calls, also those numpy.linalg makes itself
    (the 2-norm's svd)."""
    calls = []
    for name in _LAPACK:
        fn = getattr(np.linalg, name)
        wrapper = (lambda *a, _fn=fn, _n=name, **k:
                   calls.append(_n) or _fn(*a, **k))
        monkeypatch.setattr(np.linalg, name, wrapper)
        monkeypatch.setattr(np.linalg._linalg, name, wrapper)
    return calls


_NONISOTROPIC = LinearGaussianProblem(
    A=np.diag([0.9, -0.5, 0.3, 1.1, -0.95]),
    Q=np.diag([0.5, 2.0, 0.1, 1.0, 0.05]),
    H=np.diag([1.0, 0.5, -2.0, 1.5, 0.8]),
    R=np.diag([0.3, 1.0, 4.0, 0.5, 2.0]), mu0=np.zeros(5),
    Sigma0=np.diag([1.0, 0.2, 3.0, 0.5, 1.0]))


def _riccati_layer(problem):
    state = solve_dare(problem)
    spread_stats(state.P)
    p_upper_bound(problem)
    general_sufficient_conditions(problem)
    smoother_condition(problem)


@pytest.mark.parametrize("isotropic", [True, False])
def test_riccati_layer_makes_no_lapack_call_on_diagonal_problems(
        count_lapack, isotropic):
    problem = (LinearGaussianProblem.isotropic(100, 0.01, 1.0) if isotropic
               else _NONISOTROPIC)
    _riccati_layer(problem)
    assert count_lapack == []
    # the same problem with a dense Q and R still takes the LAPACK path
    _riccati_layer(dataclasses.replace(problem, Q=problem.Q + 0.01,
                                       R=problem.R + 0.01))
    assert set(count_lapack) == set(_LAPACK)


def _same_outcome(call):
    """call()'s result, or the type, text and fields of what it raised."""
    try:
        return call()
    except (DareConvergenceError, BoundInapplicableError,
            np.linalg.LinAlgError) as exc:
        return (type(exc), str(exc), getattr(exc, "residual", None),
                getattr(exc, "iterations", None))


def _state_bits(state):
    if isinstance(state, tuple):
        return state
    return (state.X.a.tobytes(), state.K.tobytes(), state.P.a.tobytes(),
            state.eff_dim, state.iterations, state.residual)


def _bounds_bits(db):
    if isinstance(db, tuple):
        return db
    return (db.X_lower.a.tobytes(), db.X_upper.a.tobytes(),
            db.P_upper.a.tobytes(), db.eff_dim_upper, db.eta)


def _entries(data, m, lo, hi):
    return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=m,
                                       max_size=m)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diagonal_riccati_equals_dense_bit_for_bit(data):
    m = data.draw(st.integers(2, 8))
    signs = np.where(_entries(data, m, -1.0, 1.0) < 0.0, -1.0, 1.0)
    problem = LinearGaussianProblem(
        A=np.diag(_entries(data, m, -1.2, 1.2)),
        Q=np.diag(10.0 ** _entries(data, m, -3.0, 1.0)),
        H=np.diag(signs * _entries(data, m, 0.3, 2.0)),
        R=np.diag(10.0 ** _entries(data, m, -2.0, 1.0)), mu0=np.zeros(m),
        Sigma0=np.diag(10.0 ** _entries(data, m, -2.0, 2.0)))
    state = solve_dare(problem)
    bounds = _same_outcome(lambda: p_upper_bound(problem))
    with dense_path():
        want = solve_dare(problem)
        want_bounds = _same_outcome(lambda: p_upper_bound(problem))
        want_spread = spread_stats(want.P)
        want_rhs = smoother_condition(problem).rhs
    assert _state_bits(state) == _state_bits(want)
    assert _bounds_bits(bounds) == _bounds_bits(want_bounds)
    spread = spread_stats(state.P)
    assert spread.eigenvalues.tobytes() == want_spread.eigenvalues.tobytes()
    assert (spread.e_hat, spread.v_hat) == (want_spread.e_hat,
                                            want_spread.v_hat)
    # the exact 2-norm; LAPACK's 2x2 SVD may round it an ulp or two low
    rhs = smoother_condition(problem).rhs
    assert rhs == np.abs(np.diag(problem.R)).max()
    assert rhs == (want_rhs if m > 2 else pytest.approx(want_rhs, rel=1e-15))
    X_ref = scipy.linalg.solve_discrete_are(problem.A.T, problem.H.T,
                                            problem.Q, problem.R)
    err = np.linalg.norm(state.X.a - X_ref) / np.linalg.norm(X_ref)
    assert err <= 1e-8


@pytest.mark.parametrize("m, q", [(100, 1e-4), (100, 1e-2), (100, 1.0),
                                  (20, None), (100, None)])
def test_large_diagonal_riccati_equals_dense_bit_for_bit(m, q):
    # m^2 entries reach the BLAS dot's SIMD lanes, where a diagonal's
    # squares would sum in another order than its dense matrix's
    if q is not None:
        problem = LinearGaussianProblem.isotropic(m, q, 1.0)
    else:
        rng = np.random.default_rng(m)
        problem = LinearGaussianProblem(
            A=np.diag(rng.uniform(-1.1, 1.1, m)),
            Q=np.diag(10.0 ** rng.uniform(-3, 1, m)),
            H=np.diag(rng.uniform(0.3, 2.0, m)),
            R=np.diag(10.0 ** rng.uniform(-2, 1, m)), mu0=np.zeros(m),
            Sigma0=np.eye(m))
    got = (solve_dare(problem), _same_outcome(lambda: p_upper_bound(problem)))
    with dense_path():
        want = (solve_dare(problem),
                _same_outcome(lambda: p_upper_bound(problem)))
    assert _state_bits(got[0]) == _state_bits(want[0])
    assert _bounds_bits(got[1]) == _bounds_bits(want[1])
    # far from the solution the residual's entries are alike in size
    X = np.diag(np.linspace(0.5, 2.0, m))
    got = dare_residual(problem, X)
    with dense_path():
        assert got == dare_residual(problem, X)


_EDGE = {
    "zero H": dict(A=[0.5, 0.9], Q=[1.0, 2.0], H=[0.0, 0.0], R=[1.0, 1.0]),
    "singular R": dict(A=[0.5, 0.9], Q=[1.0, 2.0], H=[1.0, 1.0],
                       R=[1.0, 0.0]),
    "negative R": dict(A=[0.9, 0.5], Q=[1.0, 1.0], H=[1.0, 1.0],
                       R=[-1.0, 1.0]),
    "undetectable": dict(A=[1.5, 0.5], Q=[1.0, 1.0], H=[0.0, 1.0],
                         R=[1.0, 1.0]),
    "unexcited": dict(A=[2.0, 0.5], Q=[0.0, 1.0], H=[1.0, 1.0],
                      R=[1.0, 1.0]),
    "overflowing H": dict(A=[0.9, 1e-3], Q=[1.0, 1.0], H=[1e160, 1.0],
                          R=[1.0, 1.0]),
    "huge Q": dict(A=[0.9, 0.5], Q=[1e300, 1.0], H=[1.0, 1.0],
                   R=[1.0, 1.0]),
}


@pytest.mark.parametrize("max_iter", [1, 3, DARE_MAX_ITER])
@pytest.mark.parametrize("name", sorted(_EDGE))
def test_diagonal_edge_paths_match_dense(name, max_iter):
    # singular solves fall back to the sweep, divergence raises, and an
    # overflow sends the diagonal form to the dense one: same outcome
    problem = LinearGaussianProblem(
        **{key: np.diag(v) for key, v in _EDGE[name].items()},
        mu0=np.zeros(2), Sigma0=np.eye(2))
    with np.errstate(all="ignore"):
        got = [_same_outcome(lambda: solve_dare(problem, max_iter=max_iter)),
               _same_outcome(lambda: p_upper_bound(problem))]
        with dense_path():
            want = [_same_outcome(lambda: solve_dare(problem,
                                                     max_iter=max_iter)),
                    _same_outcome(lambda: p_upper_bound(problem))]
    assert _state_bits(got[0]) == _state_bits(want[0])
    assert _bounds_bits(got[1]) == _bounds_bits(want[1])


def test_singular_r_falls_back_to_the_sweep_on_diagonals(count_lapack):
    problem = LinearGaussianProblem(A=0.5 * np.eye(2), Q=np.eye(2),
                                    H=np.eye(2), R=np.diag([1.0, 0.0]),
                                    mu0=np.zeros(2), Sigma0=np.eye(2))
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        model.solve(np.diag(problem.R), np.ones(2))
    state = solve_dare(problem)
    assert state.iterations > 0 and np.isfinite(state.eff_dim)
    assert count_lapack == []


def test_solve_rounds_like_lapack():
    # positive pivots, as in the DARE: LAPACK writes -0.0 off the
    # diagonal of the solution of a negative one
    rng = np.random.default_rng(8)
    for m in (2, 3, 17, 100):
        d = rng.uniform(0.1, 10.0, m)
        b, c = rng.standard_normal(m), rng.standard_normal(m)
        got = model.solve(d, b)
        want = np.linalg.solve(np.diag(d), np.diag(b))
        assert np.diag(got).tobytes() == want.tobytes()
        x, y = model.solve(d, b, c)
        v, w = model.solve(np.diag(d), np.diag(b), np.diag(c))
        assert (np.diag(x).tobytes(), np.diag(y).tobytes()) == (
            v.tobytes(), w.tobytes())
    # one right-hand side column: LAPACK divides, the diagonal form
    # multiplies by the reciprocal, an ulp apart at most
    d, b = rng.uniform(0.1, 10.0, 200), rng.standard_normal(200)
    lapack = np.array([np.linalg.solve([[p]], [[q]])[0, 0]
                       for p, q in zip(d, b)])
    assert lapack.tobytes() == (b / d).tobytes()
    np.testing.assert_array_max_ulp(model.solve(d, b), lapack, maxulp=1)
