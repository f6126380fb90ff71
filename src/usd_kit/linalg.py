"""Dense complex linear-algebra kernel sized for small dimensions (N <= 64).

All operations are pure functions over immutable numpy arrays with
explicit, auditable tolerances.  Matrix equality is always judged in the
Frobenius norm, never entrywise.  Every routine is backed by
``numpy.linalg``; singular values come from a values-only SVD of the
matrix itself, never from ``K^dag K``, whose eigenvalues carry the square
of the condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    NotPositive,
    NotUnitary,
    ParamOutOfRange,
    RankDeficient,
    SingularMatrix,
)

# Singular values below SV_FLOOR * sigma_max are treated as exact zeros.
SV_FLOOR = 1e-12


@dataclass(frozen=True)
class ToleranceContext:
    """Numeric tolerances shared by every operator check.

    Attributes
    ----------
    eq_tol : float
        Bound on equality residuals in the Frobenius norm.  Two rules built
        on it are each written once in this module: a matrix ``X`` is
        Hermitian when ``||X - X^dag||_F <= eq_tol * max(1, ||X||_F)``
        (:func:`hermiticity`), and an ``n x n`` matrix ``Q`` is unitary when
        ``||Q^dag Q - I||_F <= eq_tol * max(1, n)`` (:func:`check_unitary`).
    psd_tol : float
        Slack allowed below zero for eigenvalues of nominally positive
        operators (round-off makes exactly singular operators dip slightly
        negative).
    cond_max : float
        Largest condition number accepted before a matrix is declared
        singular.
    """

    eq_tol: float = 1e-10
    psd_tol: float = 1e-9
    cond_max: float = 1e12

    def __post_init__(self):
        if not (self.eq_tol > 0 and self.psd_tol > 0 and self.cond_max > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = ToleranceContext()


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted in descending order;
    ``eigenvectors`` holds the matching orthonormal eigenvectors as
    columns, so ``H = V diag(w) V^dag``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy, safe to share across threads."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise InvalidMatrix(f"{name} must not be empty")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name} contains NaN or Inf entries")
    return m


def require_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {m.shape[0]}x{m.shape[1]}")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix or 2-norm of a vector."""
    return float(np.linalg.norm(a))


def hermiticity(h: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL) -> tuple[float, bool]:
    """Residual ``||h - h^dag||_F`` and whether it meets the Hermiticity rule
    ``residual <= eq_tol * max(1, ||h||_F)``; ``||h||_F`` is computed only
    when the residual exceeds ``eq_tol``.
    """
    residual = frobenius(h - h.conj().T)
    return residual, residual <= ctx.eq_tol or residual <= ctx.eq_tol * frobenius(h)


def _check_hermitian(h: np.ndarray, ctx: ToleranceContext, name: str) -> None:
    residual, ok = hermiticity(h, ctx)
    if not ok:
        raise NotHermitian(
            f"{name} is not Hermitian: residual {residual:.3e} exceeds "
            f"{ctx.eq_tol:.1e} * max(1, ||h||_F)",
            residual=residual,
        )


def check_unitary(q: np.ndarray, ctx: ToleranceContext, name: str) -> float:
    """Residual ``||q^dag q - I||_F`` of an ``n x n`` matrix; raises ``NotUnitary``
    when it breaks the unitarity rule ``residual <= eq_tol * max(1, n)``.
    """
    n = q.shape[0]
    residual = frobenius(q.conj().T @ q - np.eye(n))
    if residual > ctx.eq_tol * max(1.0, float(n)):
        raise NotUnitary(f"{name} is not unitary (residual {residual:.3e})", residual=residual)
    return residual


def hermitian_eigen(h, ctx: ToleranceContext = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    NotHermitian
        If ``||h - h^dag||_F`` exceeds ``eq_tol`` relative to ``||h||_F``.
    """
    hm = require_square(h, "Hermitian input")
    _check_hermitian(hm, ctx, "eigen input")
    w, v = np.linalg.eigh(hm)
    order = np.argsort(w)[::-1]
    return HermitianEigen(eigenvalues=w[order].copy(), eigenvectors=v[:, order].copy())


def hermitian_eigvals(h, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues, descending, of a Hermitian matrix; raises as
    :func:`hermitian_eigen` does.
    """
    hm = require_square(h, "Hermitian input")
    _check_hermitian(hm, ctx, "eigen input")
    return np.linalg.eigvalsh(hm)[::-1]


def singular_values(k, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Singular values of ``k``, nonnegative and descending.

    Values below ``SV_FLOOR`` times the largest one are flushed to zero.
    """
    km = as_matrix(k, "operator")
    sv = np.linalg.svd(km, compute_uv=False)
    if sv.size and sv[0] > 0.0:
        sv[sv < SV_FLOOR * sv[0]] = 0.0
    return sv


def spectral_norm(k, ctx: ToleranceContext = DEFAULT_TOL) -> float:
    """Largest singular value: the maximal amplitude amplification of ``k``."""
    sv = singular_values(k, ctx)
    return float(sv[0]) if sv.size else 0.0


def condition_number(a, ctx: ToleranceContext = DEFAULT_TOL) -> float:
    """Ratio of largest to smallest singular value (inf when rank deficient)."""
    sv = singular_values(a, ctx)
    if not sv.size or sv[0] == 0.0 or sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])


def inverse(a, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse guarded by the condition-number cap.

    Raises
    ------
    SingularMatrix
        When ``sigma_min / sigma_max < 1 / cond_max``; for state matrices
        this signals linearly dependent input states.
    """
    am = require_square(a, "inverse input")
    sv = singular_values(am, ctx)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1.0 / ctx.cond_max:
        raise SingularMatrix(
            "matrix is singular within tolerance "
            f"(condition number exceeds {ctx.cond_max:.1e})",
            sigma_max=float(sv[0]),
            sigma_min=float(sv[-1]),
        )
    return np.linalg.inv(am)


def unitary_exp(h, t: float, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Unitary propagator ``exp(-i h t)`` for Hermitian ``h``.

    Built from the spectral decomposition, so the result is unitary to
    within ``eq_tol`` by construction; a non-finite ``t`` raises
    ``ParamOutOfRange``.
    """
    if not np.isfinite(t):
        raise ParamOutOfRange(f"evolution time must be finite, got {t!r}")
    eig = hermitian_eigen(h, ctx)
    phases = np.exp(-1j * eig.eigenvalues * float(t))
    v = eig.eigenvectors
    return (v * phases) @ v.conj().T


def psd_sqrt(f, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-psd_tol, 0)`` are clamped to zero: completeness
    operators are frequently exactly singular and round-off pushes their
    smallest eigenvalues slightly negative.

    Raises
    ------
    NotPositive
        If the smallest eigenvalue is below ``-psd_tol``.
    """
    eig = hermitian_eigen(f, ctx)
    w = eig.eigenvalues
    if w.size and w[-1] < -ctx.psd_tol:
        raise NotPositive(
            f"matrix has eigenvalue {w[-1]:.3e} below -psd_tol={-ctx.psd_tol:.1e}",
            min_eigenvalue=float(w[-1]),
        )
    v = eig.eigenvectors
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2.0


def phase_columns(m: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column of ``m`` so its first entry above ``eq_tol`` in
    modulus is real positive.

    Returns the rotated columns and the removed unit-modulus phases, so
    ``m = rotated * phases``; a column with no such entry keeps phase one.
    """
    big = np.abs(m) > ctx.eq_tol
    pivots = np.where(big.any(axis=0), m[big.argmax(axis=0), np.arange(m.shape[1])], 1.0)
    phases = pivots / np.abs(pivots)
    return m * phases.conj(), phases


def orthonormal_frame(vectors, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Unitary ``n x n`` frame from one Householder QR of the ``n x L`` columns.

    For every ``k <= L`` the first ``k`` frame columns span the first ``k``
    input columns; the trailing ``n - L`` columns complete the frame.  Each
    column is phased by :func:`phase_columns`, so results are deterministic.

    Raises
    ------
    RankDeficient
        When column ``j`` is (numerically) linearly dependent on its
        predecessors, ``|R_jj| <= eq_tol * max(||m_j||, 1)``, or ``L > n``.
    """
    m = as_matrix(vectors, "vectors")
    n, cols = m.shape
    q, r = np.linalg.qr(m, mode="complete")
    diag = np.abs(np.diagonal(r))
    norms = np.maximum(np.linalg.norm(m[:, : diag.size], axis=0), 1.0)
    dependent = np.flatnonzero(diag <= ctx.eq_tol * norms)
    if dependent.size or cols > n:
        j = int(dependent[0]) if dependent.size else n
        raise RankDeficient(f"column {j} is linearly dependent on earlier columns", column=j)
    return phase_columns(q, ctx)[0]


def gram_schmidt(vectors, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize the columns of ``vectors``: the leading ``L`` columns of
    :func:`orthonormal_frame`, with its spans, phases and ``RankDeficient``.
    """
    m = as_matrix(vectors, "vectors")
    return orthonormal_frame(m, ctx)[:, : m.shape[1]]
