import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdim.model import (PSD_TOL_SCALE, LinearGaussianProblem, PsdVerdict,
                          SymMatrix, frobenius, problem_from_json,
                          problem_to_json, psd_compare, psd_factor,
                          require_valid, validate)
from util import random_orthogonal, random_spd


def test_validate_identity_problem_clean():
    problem = LinearGaussianProblem.isotropic(2, 1.0, 1.0)
    assert validate(problem) == []


def test_validate_zero_r_not_positive_definite():
    eye = np.eye(2)
    problem = LinearGaussianProblem(A=eye, Q=eye, H=eye, R=np.zeros((2, 2)),
                                    mu0=np.zeros(2), Sigma0=eye)
    report = validate(problem)
    assert any("R not positive definite" in line for line in report)


def test_validate_asymmetric_q():
    eye = np.eye(2)
    Q = np.array([[1.0, 1.0], [0.0, 1.0]])
    problem = LinearGaussianProblem(A=eye, Q=Q, H=eye, R=eye,
                                    mu0=np.zeros(2), Sigma0=eye)
    report = validate(problem)
    assert any("Q not symmetric" in line for line in report)


def test_validate_k_greater_than_m():
    problem = LinearGaussianProblem(A=np.eye(1), Q=np.eye(1),
                                    H=np.ones((2, 1)), R=np.eye(2),
                                    mu0=np.zeros(1), Sigma0=np.eye(1))
    assert any("k > m" in line for line in validate(problem))


def test_validate_nonfinite_entries():
    eye = np.eye(2)
    A = np.array([[1.0, np.nan], [0.0, 1.0]])
    problem = LinearGaussianProblem(A=A, Q=eye, H=eye, R=eye,
                                    mu0=np.zeros(2), Sigma0=eye)
    assert any("A has non-finite entries" in line for line in validate(problem))


def test_require_valid_returns_the_problem_or_joins_the_report():
    problem = LinearGaussianProblem.isotropic(2, 1.0, 1.0)
    assert require_valid(problem) is problem
    eye = np.eye(2)
    wide = LinearGaussianProblem(A=eye, Q=eye, H=np.ones((3, 2)),
                                 R=np.eye(3), mu0=np.array([np.nan, 0.0]),
                                 Sigma0=-eye)
    with pytest.raises(ValueError) as info:
        require_valid(wide)
    assert str(info.value) == ("invalid problem: mu0 has non-finite entries; "
                               "k > m (3 > 2); Sigma0 not positive "
                               "semi-definite")
    # the DARE reads neither mu0 nor k <= m
    with pytest.raises(ValueError, match="^invalid problem: Sigma0 not "
                                         "positive semi-definite$"):
        require_valid(wide, dare=True)


# lambda_min just below psd_factor's floor -1e-10 (1 + max(lambda_max, 0)),
# and above the floor -1e-10 (1 + max|lambda|); last a rotated, dense one
_LO = -1.00000000005e-10
_U = random_orthogonal(np.random.default_rng(5), 2)
_BELOW_THE_FLOOR = [np.array([[_LO]]), np.diag([_LO, 0.0]),
                    _U @ np.diag([_LO, -1e-12]) @ _U.T]


@pytest.mark.parametrize("index", range(len(_BELOW_THE_FLOOR)))
@pytest.mark.parametrize("name,dare", [("Q", False), ("Sigma0", False),
                                       ("R", True)])
def test_validate_rejects_the_covariances_psd_factor_rejects(index, name,
                                                             dare):
    M = _BELOW_THE_FLOOR[index]
    m = M.shape[0]
    eye = np.eye(m)
    problem = LinearGaussianProblem(**{"A": 0.5 * eye, "Q": eye, "H": eye,
                                       "R": eye, "mu0": np.zeros(m),
                                       "Sigma0": eye, name: M})
    with pytest.raises(np.linalg.LinAlgError):
        psd_factor(M)
    assert validate(problem, dare=dare) == [
        f"{name} not positive semi-definite"]


def test_frobenius_identity():
    for m in (1, 4, 9):
        assert frobenius(np.eye(m)) == pytest.approx(np.sqrt(m), abs=1e-14)


def test_frobenius_three_four_five():
    assert frobenius(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_frobenius_matches_eigenvalue_form():
    rng = np.random.default_rng(7)
    M = random_spd(rng, 5) - 0.3 * np.eye(5)
    eigs = np.linalg.eigvalsh(M)
    assert abs(frobenius(M) - np.sqrt(np.sum(eigs ** 2))) < 1e-10


def _diagonal_with_specials(rng, m):
    """Entries over ten decades, some 0.0 and -0.0, and in about one in
    five diagonals an inf, -inf or NaN."""
    d = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5, m)
    kinds = rng.integers(0, 10, m)
    d[kinds == 0] = 0.0
    d[kinds == 1] = -0.0
    if rng.uniform() < 0.2:
        d[rng.integers(m)] = rng.choice([np.inf, -np.inf, np.nan])
    return d


@pytest.mark.parametrize("m", [1, 2, 10, 30, 100, 300])
def test_frobenius_of_a_diagonal_equals_its_dense_matrix_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for _ in range(50):
        d = _diagonal_with_specials(rng, m)
        want = np.float64(frobenius(d)).tobytes()
        D = np.diag(d)
        for M in (D, D.T, np.asfortranarray(D)):
            assert np.float64(frobenius(M)).tobytes() == want


@pytest.mark.parametrize("shape", [(1,), (7,), (10_000,), (3, 5), (60, 60),
                                   (100, 100), (40, 250)])
def test_frobenius_without_zero_entries_is_numpys_norm(shape):
    # up to 10 000 entries the sum is one BLAS dot, as in np.linalg.norm
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100)
        assert np.all(M != 0.0)
        for view in (M, M.T):
            assert (np.float64(frobenius(view)).tobytes()
                    == np.float64(np.linalg.norm(view)).tobytes())


def test_frobenius_keeps_in_range_where_its_sum_of_squares_does_not():
    assert frobenius(np.full(4, 1e200)) == 2e200
    assert frobenius(np.full(4, 1e-200)) == 2e-200
    assert frobenius(np.full((2, 2), 1.5e308)) == np.inf
    # subnormal entries: 2^-1074 is the smallest float, 5 * 2^-1070 exact
    assert frobenius(np.full(4, 5e-324)) == 1e-323
    assert frobenius(np.ldexp([3.0, 0.0, -4.0], -1070)) == np.ldexp(5.0, -1070)
    rng = np.random.default_rng(11)
    for shape in ((3,), (5, 5), (60, 60), (120, 120)):
        M = rng.standard_normal(shape)
        for j in (-1000, -900, -600, -300, 300, 600, 1000):
            assert frobenius(np.ldexp(M, j)) == np.ldexp(frobenius(M), j)


def test_frobenius_propagates_inf_and_nan():
    for x in (1.0, 1e-300, 1e300):
        assert frobenius([np.inf, x]) == np.inf
        assert frobenius([-np.inf, x]) == np.inf
        assert np.isnan(frobenius([np.nan, x]))
        assert np.isnan(frobenius([[np.nan, np.inf], [x, 0.0]]))


def test_frobenius_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (np.full(5, 1e300), np.full(5, 1e-300), np.full(5, 5e-324),
                  np.full(5, 1.7e308), np.full((200, 200), 1e200)):
            frobenius(M)


def test_psd_compare_scaled_identity():
    out = psd_compare(np.eye(3), 2 * np.eye(3))
    assert out.verdict is PsdVerdict.LESS_OR_EQUAL
    assert out.min_eig_diff == pytest.approx(1.0)


def test_psd_compare_incomparable():
    out = psd_compare(np.diag([1.0, 3.0]), np.diag([3.0, 1.0]))
    assert out.verdict is PsdVerdict.INCOMPARABLE


def test_psd_compare_equal():
    rng = np.random.default_rng(3)
    C = random_spd(rng, 4)
    out = psd_compare(C, C.copy())
    assert out.verdict is PsdVerdict.EQUAL


def test_psd_compare_greater():
    out = psd_compare(2 * np.eye(2), np.eye(2))
    assert out.verdict is PsdVerdict.GREATER_OR_EQUAL


def test_psd_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        psd_compare(np.eye(2), np.eye(3))


def _eigvalsh_order(C, D):
    """(verdict, smallest eigenvalue) from LAPACK's eigvalsh of the dense
    symmetric difference, with tol from its dense Frobenius norm."""
    E = 0.5 * ((D - C) + (D - C).T)
    tol = PSD_TOL_SCALE * (1.0 + np.linalg.norm(E))
    eigs = np.linalg.eigvalsh(E)
    le, ge = eigs[0] >= -tol, eigs[-1] <= tol
    verdict = {(True, True): PsdVerdict.EQUAL,
               (True, False): PsdVerdict.LESS_OR_EQUAL,
               (False, True): PsdVerdict.GREATER_OR_EQUAL,
               (False, False): PsdVerdict.INCOMPARABLE}[le, ge]
    return verdict, float(eigs[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_psd_compare_on_diagonals_equals_the_eigvalsh_path(seed):
    # entries within 1e+-100, where LAPACK does not scale the matrix
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    c = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-100, 100, m)
    # per entry: equal, a few ulps apart, or apart by up to 1e100; the
    # differences all up, all down, or of mixed signs
    step = np.select([rng.integers(0, 3, m) == k for k in range(3)],
                     [0.0, rng.integers(1, 4, m) * np.spacing(np.abs(c)),
                      10.0 ** rng.uniform(-100, 100, m)])
    sign = rng.choice([-1.0, 1.0], m) if rng.integers(0, 3) == 0 else (
        np.full(m, rng.choice([-1.0, 1.0])))
    C, D = np.diag(c), np.diag(c + sign * step)
    got = psd_compare(C, D)
    assert (got.verdict, got.min_eig_diff) == _eigvalsh_order(C, D)
    if m > 1:  # an entry off the diagonal keeps the eigvalsh path
        D[0, -1] = D[-1, 0] = 0.5 * (1.0 + abs(D[0, 0]))
        got = psd_compare(C, D)
        assert (got.verdict, got.min_eig_diff) == _eigvalsh_order(C, D)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_loewner_order_implies_frobenius_order(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    C = random_spd(rng, m)
    L = rng.standard_normal((m, m))
    D = C + L @ L.T
    assert psd_compare(C, D).verdict in (PsdVerdict.LESS_OR_EQUAL,
                                         PsdVerdict.EQUAL)
    assert frobenius(C) <= frobenius(D) + 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_orthogonal_invariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    M = random_spd(rng, m) - 0.5 * np.eye(m)
    U = random_orthogonal(rng, m)
    assert abs(frobenius(U.T @ M @ U) - frobenius(M)) <= 1e-9


def test_sym_matrix_rejects_large_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix.from_array(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sym_matrix_folds_roundoff_asymmetry():
    M = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    S = SymMatrix.from_array(M)
    assert np.allclose(S.a, S.a.T)
    eigs = S.eigenvalues()
    assert np.all(np.diff(eigs) >= 0)


def test_psd_factor_roundtrip_and_rejection():
    rng = np.random.default_rng(11)
    M = random_spd(rng, 4)
    L = psd_factor(M)
    assert np.allclose(L @ L.T, M, atol=1e-12)
    zero = psd_factor(np.zeros((3, 3)))
    assert np.all(zero == 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        psd_factor(-np.eye(2))


def test_problem_json_roundtrip():
    rng = np.random.default_rng(5)
    problem = LinearGaussianProblem(
        A=rng.standard_normal((3, 3)), Q=random_spd(rng, 3),
        H=rng.standard_normal((2, 3)), R=random_spd(rng, 2),
        mu0=rng.standard_normal(3), Sigma0=random_spd(rng, 3))
    back = problem_from_json(problem_to_json(problem))
    for name in ("A", "Q", "H", "R", "mu0", "Sigma0"):
        np.testing.assert_array_equal(getattr(problem, name),
                                      getattr(back, name))


def test_problem_json_missing_key_named():
    doc = json.loads(problem_to_json(LinearGaussianProblem.isotropic(2, 1, 1)))
    del doc["R"]
    with pytest.raises(ValueError, match="missing key: R"):
        problem_from_json(json.dumps(doc))


def test_problem_json_invalid_text():
    with pytest.raises(ValueError, match="invalid JSON"):
        problem_from_json("{not json")


def test_problem_shape_mismatch_raises():
    with pytest.raises(ValueError):
        LinearGaussianProblem(A=np.eye(2), Q=np.eye(3), H=np.eye(2),
                              R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
