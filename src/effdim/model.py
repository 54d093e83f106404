"""Domain types for linear-Gaussian state-space problems.

The model is the pair of recursions

    x[n+1] = A x[n] + w[n],      w[n] ~ N(0, Q)
    z[n+1] = H x[n+1] + v[n+1],  v[n+1] ~ N(0, R)

with Gaussian initial condition x[0] ~ N(mu0, Sigma0).  This module holds
the problem container, a thin symmetric-matrix wrapper, the Loewner-order
comparison used throughout, and JSON round-tripping.

A matrix is stored in one of two forms: dense (2-D), or, when it is
exactly diagonal, as its 1-D diagonal.  :func:`storage` picks the
diagonal form when every matrix a computation uses is diagonal, and the
product, solve, inverse and factor helpers below accept either form, so
each computation is written once and runs in O(m) per vector on
diagonal problems.  The filters, the smoother, the DARE, its bounds and
the spectra all run on the storage form; :func:`on_storage` runs a
computation whose results must keep the dense form's bits.

The two forms round alike, except where this list says otherwise:
  - a product of diagonals is their elementwise product (:func:`mul`);
  - a solve multiplies by the reciprocal pivots, as OpenBLAS does for two
    or more right-hand side columns; with one column, so in a 1x1 system,
    LAPACK divides and the two can differ in the last bit (:func:`solve`);
  - the eigenvalues of a diagonal are its sorted entries, which LAPACK
    returns too unless it scales the matrix, for entries beyond about
    1e+-146; an eigendecomposition keeps the entries' order instead (see
    :func:`psd_factor`);
  - a Frobenius norm sums the squares in another order than over the m^2
    entries of the dense matrix, so the two agree only to rounding.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

# Tolerances (module-wide defaults; every consumer takes them as keyword
# overrides where it matters).
SYM_RTOL = 1e-12        # relative asymmetry accepted before rejection
PSD_TOL_SCALE = 1e-10   # Loewner slack: tol = PSD_TOL_SCALE * (1 + ||D - C||_F)
PSD_FACTOR_RTOL = 1e-10 # eigenvalue clip threshold for PSD square roots
PD_COND_LIMIT = 1e14    # largest condition number pd_inverse accepts
# entries beyond this overflow the symmetrization (M + M')/2
_SYM_MAX = np.finfo(float).max / 2.0
_TINY = np.finfo(float).tiny  # smallest normal float


def as_matrix(M) -> np.ndarray:
    """Unwrap a SymMatrix (or coerce anything array-like) to a float ndarray."""
    if isinstance(M, SymMatrix):
        return M.a
    return np.asarray(M, dtype=float)


def sym(M, rtol: float = SYM_RTOL) -> np.ndarray:
    """Return the symmetrized matrix (M + M.T)/2.

    Asymmetry below ``rtol * (1 + ||M||_F)`` is treated as roundoff and
    silently folded; anything larger raises ValueError.  Symmetrizing up
    front keeps every downstream eigendecomposition real.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    gap = np.linalg.norm(M - M.T)
    if gap > rtol * (1.0 + np.linalg.norm(M)):
        raise ValueError("matrix is not symmetric within tolerance")
    out = 0.5 * (M + M.T)
    out.setflags(write=False)
    return out


def _is_symmetric(M: np.ndarray, rtol: float = SYM_RTOL) -> bool:
    d = diagonal(M)
    if d is not None:  # M - M' is zero, or NaN where d is not finite
        return bool(np.isfinite(d).all())
    return np.linalg.norm(M - M.T) <= rtol * (1.0 + np.linalg.norm(M))


@dataclass(frozen=True)
class SymMatrix:
    """A square matrix stored symmetric.

    Construct through :meth:`from_array`, which enforces the symmetry
    tolerance.  ``eigenvalues`` returns the nondecreasing real spectrum;
    for a diagonal matrix, its sorted entries.
    """

    a: np.ndarray

    @classmethod
    def from_array(cls, M, rtol: float = SYM_RTOL) -> "SymMatrix":
        return cls(sym(as_matrix(M), rtol))

    def eigenvalues(self) -> np.ndarray:
        d = diagonal(self.a)
        return np.linalg.eigvalsh(self.a) if d is None else np.sort(d)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.a
        return self.a.astype(dtype)


class PsdVerdict(str, enum.Enum):
    LESS_OR_EQUAL = "LessOrEqual"
    GREATER_OR_EQUAL = "GreaterOrEqual"
    INCOMPARABLE = "Incomparable"
    EQUAL = "Equal"


@dataclass(frozen=True)
class PsdOrder:
    """Outcome of comparing (C, D) in the Loewner (PSD) order.

    ``min_eig_diff`` is the smallest eigenvalue of D - C; the verdict is
    LESS_OR_EQUAL exactly when it is >= -tol with
    tol = PSD_TOL_SCALE * (1 + ||D - C||_F).
    """

    verdict: PsdVerdict
    min_eig_diff: float


def psd_compare(C, D, tol_scale: float = PSD_TOL_SCALE) -> PsdOrder:
    """Classify the Loewner order of two symmetric matrices."""
    Ca = as_matrix(C)
    Da = as_matrix(D)
    if Ca.shape != Da.shape:
        raise ValueError(f"order mismatch: {Ca.shape} vs {Da.shape}")
    E = 0.5 * ((Da - Ca) + (Da - Ca).T)
    tol = tol_scale * (1.0 + np.linalg.norm(E))
    eigs = np.linalg.eigvalsh(E)
    le = eigs[0] >= -tol
    ge = eigs[-1] <= tol
    if le and ge:
        verdict = PsdVerdict.EQUAL
    elif le:
        verdict = PsdVerdict.LESS_OR_EQUAL
    elif ge:
        verdict = PsdVerdict.GREATER_OR_EQUAL
    else:
        verdict = PsdVerdict.INCOMPARABLE
    return PsdOrder(verdict, float(eigs[0]))


def frobenius(M) -> float:
    """Frobenius norm (sum of squared entries, square-rooted).

    The arithmetic of ``np.linalg.norm``.  A 1-D diagonal and its dense
    matrix agree to rounding only: the BLAS dot sums the squares in
    another order.
    """
    x = as_matrix(M).ravel(order="K")
    return float(np.sqrt(x.dot(x)))


def diagonal(M) -> np.ndarray | None:
    """The 1-D diagonal of M, or None when M is not diagonal.

    A square M is diagonal when no entry off its diagonal is nonzero (NaN
    counts as nonzero).  A 1-D M is a diagonal already and comes back as
    it is.
    """
    Ma = as_matrix(M)
    if Ma.ndim == 1:
        return Ma
    if Ma.ndim != 2 or Ma.shape[0] != Ma.shape[1]:
        return None
    d = Ma.diagonal()
    if np.count_nonzero(Ma) != np.count_nonzero(d):
        return None
    return d.copy()


def storage(*matrices) -> tuple:
    """The matrices as 1-D diagonals when every one is diagonal, else dense.

    Computations pick their storage form here, from the structure of
    their input alone.
    """
    diagonals = []
    for M in matrices:
        d = diagonal(M)
        if d is None:
            return tuple(as_matrix(M) for M in matrices)
        diagonals.append(d)
    return tuple(diagonals)


def mul(x, M, out=None, finite=False) -> np.ndarray:
    """x @ M, where a 1-D M stands for the diagonal matrix diag(M).

    x is a vector, a stack of row vectors, or a matrix in M's form;
    ``out``, which may be x itself, receives the product.  The
    elementwise product keeps the matmul's bits: matmul sums into +0.0,
    so a zero product is +0.0, never -0.0; and a row of x holding inf or
    NaN gets the matmul's row, where inf * 0 spreads NaN.  A caller that
    knows x to be finite says so with ``finite=True``, which spares the
    scan for inf and NaN.
    """
    if M.ndim != 1:
        return np.matmul(x, M, out=out)
    fix = None
    if not finite and not np.isfinite(x).all():
        rows = np.atleast_2d(x)
        bad = ~np.isfinite(rows).all(axis=-1)
        fix = bad, rows[bad] @ np.diag(M)
    out = np.multiply(x, M, out=out)
    out += 0.0
    if fix is not None:
        np.atleast_2d(out)[fix[0]] = fix[1]
    return out


def inverse(M) -> np.ndarray:
    """M^{-1} by LU; a diagonal M (1-D) is inverted elementwise."""
    if M.ndim == 1:
        return 1.0 / M
    return np.linalg.inv(M)


def solve(M, *B):
    """M^{-1} B for each right-hand side B, from one LU factorization of M.

    Several B come back as a tuple, one B as an array.  A diagonal M
    (1-D) takes each B in its form (a diagonal, or a stack of diagonals)
    and multiplies it by the reciprocal pivots 1/M.  That is how
    OpenBLAS's gesv rounds a solve with two or more right-hand side
    columns; with a single column (a 1x1 diagonal system here) it
    divides, so there the two forms may differ in the last bit.  A zero
    pivot raises LinAlgError, as LAPACK does.
    """
    if M.ndim == 1:
        if not M.all():
            raise np.linalg.LinAlgError("Singular matrix")
        reciprocal = 1.0 / M
        X = tuple(b * reciprocal for b in B)
        return X[0] if len(X) == 1 else X
    if len(B) == 1:
        return np.linalg.solve(M, B[0])
    X = np.linalg.solve(M, np.hstack(B))
    return tuple(np.hsplit(X, np.cumsum([b.shape[1] for b in B[:-1]])))


def identity(M) -> np.ndarray:
    """The identity matrix of M's order, in M's storage form."""
    return np.ones(len(M)) if M.ndim == 1 else np.eye(len(M))


def dense(M) -> np.ndarray:
    """The dense matrix M stands for: diag(M) for a 1-D M, else M."""
    return np.diag(M) if M.ndim == 1 else M


def on_storage(fn, *matrices):
    """fn(*matrices), with the matrices in their storage form.

    In diagonal form the result has the dense form's bits for as long as
    every value stays finite.  An inf on the diagonal of a dense matrix
    spreads NaN off it in the next product (inf * 0), which a diagonal
    cannot hold.  So fn runs on diagonals with floating-point overflow,
    invalid operations and division by zero raised, and any of them, or
    a matrix that is not finite to begin with, sends fn to the dense
    matrices, under the caller's error state.  fn's result is returned as
    it is: its matrices keep the form fn was given.
    """
    forms = storage(*matrices)
    if forms[0].ndim == 1 and all(np.isfinite(d).all() for d in forms):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise",
                             under="ignore"):
                return fn(*forms)
        except FloatingPointError:
            pass
    return fn(*(as_matrix(M) for M in matrices))


def cholesky(M) -> np.ndarray:
    """Lower Cholesky factor; sqrt of a diagonal M (1-D).

    Raises LinAlgError when M is not positive definite.
    """
    if M.ndim != 1:
        return np.linalg.cholesky(M)
    if not np.all(M > 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.sqrt(M)


def _spectrum(M: np.ndarray):
    """(eigenvalues, eigenvectors) of symmetric M; (M, None) for a 1-D M.

    The eigenvalues of a diagonal M are its entries, unsorted.
    """
    if M.ndim == 1:
        return M, None
    return np.linalg.eigh(0.5 * (M + M.T))


def psd_factor(M, rtol: float = PSD_FACTOR_RTOL) -> np.ndarray:
    """A factor L with L @ L.T = M for symmetric PSD M.

    Built from the eigendecomposition so that singular (rank-deficient)
    covariances factor cleanly; eigenvalues below -rtol*(1+lambda_max)
    mean M is not PSD and raise LinAlgError.  A diagonal M (1-D) gets
    the 1-D factor sqrt(M).  For a dense diagonal M, ``eigh`` orders the
    columns of L by ascending eigenvalue, so L is a permuted diagonal;
    both factors give noise of the same distribution, and they agree
    bit for bit when the entries are equal.
    """
    w, V = _spectrum(as_matrix(M))
    if w.min() < -rtol * (1.0 + max(w.max(), 0.0)):
        raise np.linalg.LinAlgError("matrix is not positive semi-definite within tolerance")
    root = np.sqrt(np.clip(w, 0.0, None))
    return root if V is None else V * root


def pd_inverse(M, what: str) -> np.ndarray:
    """Inverse of symmetric positive-definite M via its eigendecomposition.

    Raises LinAlgError(what) when M is not positive definite, has a
    subnormal eigenvalue (whose reciprocal overflows), or its condition
    number exceeds PD_COND_LIMIT.  A diagonal M (1-D) is inverted
    elementwise, to the same bits as (V / w) @ V'.
    """
    w, V = _spectrum(as_matrix(M))
    lo, hi = w.min(), w.max()
    if not (lo >= _TINY and hi / lo <= PD_COND_LIMIT):
        raise np.linalg.LinAlgError(what)
    return 1.0 / w if V is None else (V / w) @ V.T


@dataclass(frozen=True)
class LinearGaussianProblem:
    """The tuple (A, Q, H, R, mu0, Sigma0) defining the model and data stream.

    Shape consistency is enforced at construction; statistical invariants
    (symmetry, definiteness, k <= m, finiteness) are report-checked by
    :func:`validate` so that deliberately broken instances can be built
    and diagnosed.
    """

    A: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        mu0 = np.atleast_1d(np.asarray(self.mu0, dtype=float))
        Sigma0 = np.atleast_2d(np.asarray(self.Sigma0, dtype=float))
        m = A.shape[0]
        k = H.shape[0]
        if A.shape != (m, m):
            raise ValueError(f"A must be square, got {A.shape}")
        if Q.shape != (m, m):
            raise ValueError(f"Q must be {m}x{m}, got {Q.shape}")
        if H.shape != (k, m):
            raise ValueError(f"H must have {m} columns, got {H.shape}")
        if R.shape != (k, k):
            raise ValueError(f"R must be {k}x{k}, got {R.shape}")
        if mu0.shape != (m,):
            raise ValueError(f"mu0 must have length {m}, got {mu0.shape}")
        if Sigma0.shape != (m, m):
            raise ValueError(f"Sigma0 must be {m}x{m}, got {Sigma0.shape}")
        for name, arr in (("A", A), ("Q", Q), ("H", H), ("R", R),
                          ("mu0", mu0), ("Sigma0", Sigma0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @classmethod
    def isotropic(cls, m: int, q: float, r: float, sigma0: float = 1.0,
                  mu0=None) -> "LinearGaussianProblem":
        """A = H = I_m, Q = q I, R = r I, Sigma0 = sigma0 I."""
        eye = np.eye(m)
        if mu0 is None:
            mu0 = np.zeros(m)
        return cls(A=eye, Q=q * eye, H=eye, R=r * eye, mu0=mu0,
                   Sigma0=sigma0 * eye)


def _psd_report(name: str, M: np.ndarray, strict: bool,
                tol_scale: float) -> list[str]:
    if np.max(np.abs(M)) > _SYM_MAX:
        return [f"{name} has entries too large to symmetrize without "
                "overflow"]
    d = diagonal(M)
    w = d if d is not None else np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = w.min(), w.max()
    tol = tol_scale * (1.0 + max(abs(lo), abs(hi)))
    if strict:
        if lo <= tol:
            return [f"{name} not positive definite"]
    elif lo < -tol:
        return [f"{name} not positive semi-definite"]
    return []


def validate(problem: LinearGaussianProblem, rtol: float = SYM_RTOL,
             tol_scale: float = PSD_TOL_SCALE) -> list[str]:
    """Check every type invariant; return one message per violated check.

    An empty list means the problem is well posed.  A diagonal Q, R or
    Sigma0 is checked from its entries, without an eigendecomposition.
    """
    report: list[str] = []
    for name in ("A", "Q", "H", "R", "mu0", "Sigma0"):
        if not np.all(np.isfinite(getattr(problem, name))):
            report.append(f"{name} has non-finite entries")
    if problem.k > problem.m:
        report.append(f"k > m ({problem.k} > {problem.m})")
    for name in ("Q", "R", "Sigma0"):
        M = getattr(problem, name)
        if not _is_symmetric(M, rtol):
            report.append(f"{name} not symmetric")
    if not any(r.startswith("Q ") for r in report):
        report += _psd_report("Q", problem.Q, strict=False, tol_scale=tol_scale)
    if not any(r.startswith("R ") for r in report):
        report += _psd_report("R", problem.R, strict=True, tol_scale=tol_scale)
    if not any(r.startswith("Sigma0 ") for r in report):
        report += _psd_report("Sigma0", problem.Sigma0, strict=False,
                              tol_scale=tol_scale)
    return report


# ---------------------------------------------------------------------------
# JSON interchange: {"A": [[...]], "Q": ..., "H": ..., "R": ..., "mu0": [...],
# "Sigma0": [[...]]} with row-major nested arrays.

_PROBLEM_KEYS = ("A", "Q", "H", "R", "mu0", "Sigma0")


def problem_to_json(problem: LinearGaussianProblem, indent: int = 2) -> str:
    doc = {key: getattr(problem, key).tolist() for key in _PROBLEM_KEYS}
    return json.dumps(doc, indent=indent)


def problem_from_json(text: str) -> LinearGaussianProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("invalid JSON: expected a top-level object")
    missing = [key for key in _PROBLEM_KEYS if key not in doc]
    if missing:
        raise ValueError(f"problem JSON missing key: {missing[0]}")
    try:
        return LinearGaussianProblem(**{key: doc[key] for key in _PROBLEM_KEYS})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"problem JSON malformed: {exc}") from exc


def load_problem(path) -> LinearGaussianProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_json(fh.read())


def save_problem(problem: LinearGaussianProblem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem_to_json(problem))
        fh.write("\n")
