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
diagonal problems.  The filters, the smoother, the DARE, its bounds,
the spectra and the Loewner-order comparison :func:`psd_compare` all run
on the storage form.

A Frobenius norm (:func:`frobenius`) scales by an exact power of two
where its sum of squares leaves [2^-600, 2^600], so every norm in the
float range is found, and the DARE and its bounds scale with Q, R and
Sigma0 out to 2^+-1000.

The two forms round alike (a Frobenius norm skips zero entries, so both
give it the same bits), except where this list says otherwise:
  - a product of diagonals is their elementwise product (:func:`mul`);
  - a solve multiplies by the reciprocal pivots, as OpenBLAS does for two
    or more right-hand side columns; with one column, so in a 1x1 system,
    LAPACK divides and the two can differ in the last bit (:func:`solve`);
  - the eigenvalues of a diagonal are its sorted entries, which LAPACK
    returns too unless it scales the matrix, for entries beyond about
    1e+-146; an eigendecomposition keeps the entries' order instead (see
    :func:`psd_factor`);
  - a product with a diagonal is elementwise on every row, so an inf stays
    in its own entry, where a dense product spreads NaN over the row
    (inf * 0): overflowed results differ.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

# Tolerances, fixed for the whole package.
SYM_RTOL = 1e-12        # relative asymmetry accepted before rejection
PSD_TOL_SCALE = 1e-10   # Loewner slack: tol = PSD_TOL_SCALE * (1 + ||D - C||_F)
PSD_FACTOR_RTOL = 1e-10 # eigenvalue clip threshold for PSD square roots
PD_COND_LIMIT = 1e14    # largest condition number pd_inverse accepts
# entries beyond this overflow the symmetrization (M + M')/2
_SYM_MAX = np.finfo(float).max / 2.0
_TINY = np.finfo(float).tiny  # smallest normal float
# frobenius window: no partial sum overflows, no square that matters underflows
_SUM_MIN, _SUM_MAX = 2.0 ** -600, 2.0 ** 600


def as_matrix(M) -> np.ndarray:
    """Unwrap a SymMatrix (or coerce anything array-like) to a float ndarray."""
    if isinstance(M, SymMatrix):
        return M.a
    return np.asarray(M, dtype=float)


def _is_symmetric(M: np.ndarray) -> bool:
    d = diagonal(M)
    if d is not None:  # M - M' is zero, or NaN where d is not finite
        return bool(np.isfinite(d).all())
    return frobenius(M - M.T) <= SYM_RTOL * (1.0 + frobenius(M))


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Nondecreasing eigenvalues of the symmetric part of M; the sorted
    entries of a diagonal M (1-D)."""
    return np.sort(M) if M.ndim == 1 else np.linalg.eigvalsh(0.5 * (M + M.T))


@dataclass(frozen=True)
class SymMatrix:
    """A square matrix stored symmetric.

    Construct through :meth:`from_array`, which enforces the symmetry
    tolerance, or :meth:`symmetrized`, which folds any asymmetry of a
    computed matrix.  ``eigenvalues`` returns the nondecreasing real
    spectrum; for a diagonal matrix, its sorted entries.
    """

    a: np.ndarray

    @classmethod
    def from_array(cls, M) -> "SymMatrix":
        """(M + M')/2; M not symmetric as :func:`validate` takes it
        raises ValueError."""
        S = cls.symmetrized(M)
        if not _is_symmetric(as_matrix(M)):
            raise ValueError("matrix is not symmetric within tolerance")
        return S

    @classmethod
    def symmetrized(cls, M) -> "SymMatrix":
        """(M + M')/2 of a square M, without a tolerance test."""
        M = as_matrix(M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        out = 0.5 * (M + M.T)
        out.setflags(write=False)
        return cls(out)

    def eigenvalues(self) -> np.ndarray:
        return eigenvalues(*storage(self.a))

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


def psd_compare(C, D) -> PsdOrder:
    """Classify the Loewner order of two symmetric matrices.

    A difference D - C that is diagonal is compared on its 1-D diagonal,
    whose eigenvalues are its sorted entries, and ``tol`` takes the norm
    of that diagonal: no LAPACK call.  Any other difference takes the
    eigenvalues and the norm of its symmetric part.
    """
    Ca = as_matrix(C)
    Da = as_matrix(D)
    if Ca.shape != Da.shape:
        raise ValueError(f"order mismatch: {Ca.shape} vs {Da.shape}")
    (E,) = storage(Da - Ca)
    eigs = eigenvalues(E)
    sym = E if E.ndim == 1 else 0.5 * (E + E.T)
    tol = PSD_TOL_SCALE * (1.0 + frobenius(sym))
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


def _exponent(x) -> int:
    """e with max|x| in [2^(e-1), 2^e); 0 where max|x| is 0 or not finite."""
    top = float(np.max(np.abs(x), initial=0.0))
    return math.frexp(top)[1] if math.isfinite(top) else 0


def frobenius(M) -> float:
    """Frobenius norm: the square root of the sum of the squares of M's
    nonzero entries, in ``ravel(order="K")`` order, as BLAS dots of at
    most 10 000 entries added in turn.

    So a 1-D diagonal and its dense matrix give the same bits, no dot is
    split across threads, and a matrix of at most 10 000 entries, none
    zero, has the bits of ``np.linalg.norm``.  A sum outside [2^-600,
    2^600] is taken again over the entries times 2^-e, e the binary
    exponent of the largest |entry|, and scaled back: exact, so every norm
    in the float range is found, and one beyond it is inf, unwarned.
    """
    x = as_matrix(M).ravel(order="K")
    x = x[x != 0.0]  # NaN stays
    span = 10_000  # OpenBLAS threads a dot of more entries than this
    total = 0.0
    for start in range(0, x.size, span):
        part = x[start:start + span]
        total += np.vdot(part, part)  # ndarray.dot's ddot, unwarned
    e = 0 if _SUM_MIN <= total <= _SUM_MAX or not x.size else _exponent(x)
    if not e:  # in the window, or no finite entry to scale by
        return float(np.sqrt(total))
    with np.errstate(over="ignore"):  # a norm beyond the float range
        return float(np.ldexp(frobenius(np.ldexp(x, -e)), e))


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


@dataclass(frozen=True)
class RowDiagonals:
    """Diagonals stacked one per ensemble of a batch, ``d`` shaped
    (R, 1, m): :func:`mul` multiplies ensemble r of an (R, N, m) stack by
    diag(d[r])."""

    d: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.d.shape


def mul(x, M, out=None) -> np.ndarray:
    """x @ M, where a 1-D M stands for the diagonal matrix diag(M), and
    :class:`RowDiagonals` for one diagonal per ensemble of x.

    x is a row vector (1, m), a stack of row vectors, or a matrix in M's
    form: a 1-D x with a 1-D M is a diagonal, so a vector is passed as a
    (1, m) row.  ``out``, which may be x itself, receives the product.
    A product with a diagonal is elementwise on every row, inf and NaN
    included, and keeps the matmul's bits on every finite row of x:
    matmul sums into +0.0, so a zero product is +0.0, never -0.0.
    """
    stacked = isinstance(M, RowDiagonals)
    if not stacked and M.ndim != 1:
        return np.matmul(x, M, out=out)
    out = np.multiply(x, M.d if stacked else M, out=out)
    out += 0.0
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


def _psd_floor(w: np.ndarray) -> float:
    """The least eigenvalue a PSD matrix of eigenvalues ``w`` may have:
    -PSD_FACTOR_RTOL (1 + lambda_max), lambda_max clipped at 0."""
    return -PSD_FACTOR_RTOL * (1.0 + max(w.max(), 0.0))


def psd_factor(M) -> np.ndarray:
    """A factor L with L @ L.T = M for symmetric PSD M.

    Built from the eigendecomposition so that singular (rank-deficient)
    covariances factor cleanly; eigenvalues below -PSD_FACTOR_RTOL (1 +
    lambda_max) mean M is not PSD and raise LinAlgError.  A diagonal M
    (1-D) gets the 1-D factor sqrt(M).  For a dense diagonal M, ``eigh``
    orders the columns of L by ascending eigenvalue, so L is a permuted
    diagonal; both factors give noise of the same distribution, and they
    agree bit for bit when the entries are equal.
    """
    w, V = _spectrum(as_matrix(M))
    if w.min() < _psd_floor(w):
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


def _psd_report(name: str, M: np.ndarray, strict: bool) -> list[str]:
    if np.max(np.abs(M)) > _SYM_MAX:
        return [f"{name} has entries too large to symmetrize without "
                "overflow"]
    w = eigenvalues(*storage(M))
    lo, hi = w.min(), w.max()
    if strict:
        if lo <= PSD_TOL_SCALE * (1.0 + max(abs(lo), abs(hi))):
            return [f"{name} not positive definite"]
    elif lo < _psd_floor(w):  # what psd_factor accepts
        return [f"{name} not positive semi-definite"]
    return []


def validate(problem: LinearGaussianProblem, dare: bool = False) -> list[str]:
    """Check every type invariant; return one message per violated check.

    An empty list means the problem is well posed.  A diagonal Q, R or
    Sigma0 is checked from its entries, without an eigendecomposition.
    With ``dare`` only what the covariance recursion needs is checked:
    mu0 is not read, k may exceed m, and R need only be positive
    semi-definite (a singular R sends the DARE solve to its sweep).
    """
    report: list[str] = []
    for name in ("A", "Q", "H", "R", "mu0", "Sigma0"):
        if dare and name == "mu0":
            continue
        if not np.all(np.isfinite(getattr(problem, name))):
            report.append(f"{name} has non-finite entries")
    if problem.k > problem.m and not dare:
        report.append(f"k > m ({problem.k} > {problem.m})")
    for name in ("Q", "R", "Sigma0"):
        M = getattr(problem, name)
        if not _is_symmetric(M):
            report.append(f"{name} not symmetric")
    if not any(r.startswith("Q ") for r in report):
        report += _psd_report("Q", problem.Q, strict=False)
    if not any(r.startswith("R ") for r in report):
        report += _psd_report("R", problem.R, strict=not dare)
    if not any(r.startswith("Sigma0 ") for r in report):
        report += _psd_report("Sigma0", problem.Sigma0, strict=False)
    return report


def require_valid(problem: LinearGaussianProblem,
                  dare: bool = False) -> LinearGaussianProblem:
    """``problem``, or a ValueError "invalid problem: ..." that joins the
    :func:`validate` report (``dare`` as there)."""
    report = validate(problem, dare=dare)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))
    return problem


# ---------------------------------------------------------------------------
# JSON interchange: {"A": [[...]], "Q": ..., "H": ..., "R": ..., "mu0": [...],
# "Sigma0": [[...]]} with row-major nested arrays.

_PROBLEM_KEYS = ("A", "Q", "H", "R", "mu0", "Sigma0")


def problem_to_json(problem: LinearGaussianProblem, indent: int = 2) -> str:
    doc = {key: getattr(problem, key).tolist() for key in _PROBLEM_KEYS}
    return json.dumps(doc, indent=indent)


def json_object(text: str, keys, what: str) -> dict:
    """The top-level JSON object of ``text``; ValueError unless it parses
    to an object that holds every key of ``keys`` (``what`` names the
    document in the message)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("invalid JSON: expected a top-level object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} JSON missing key: {key}")
    return doc


def problem_from_json(text: str) -> LinearGaussianProblem:
    doc = json_object(text, _PROBLEM_KEYS, "problem")
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
