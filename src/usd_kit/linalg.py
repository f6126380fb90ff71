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
        Bound on equality residuals in the Frobenius norm.
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


def _check_hermitian(h: np.ndarray, ctx: ToleranceContext, name: str) -> None:
    scale = max(frobenius(h), 1.0)
    residual = frobenius(h - h.conj().T)
    if residual > ctx.eq_tol * scale:
        raise NotHermitian(
            f"{name} is not Hermitian: residual {residual:.3e} exceeds "
            f"{ctx.eq_tol:.1e} * {scale:.3e}",
            residual=residual,
        )


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
    """Eigenvalues, descending, of a Hermitian matrix or of each matrix of a
    stack ``(k, N, N)`` in one LAPACK call; raises as :func:`hermitian_eigen`
    does, for the first matrix that fails its checks.
    """
    hm = np.asarray(h, dtype=complex)
    for f in hm.reshape((-1,) + hm.shape[-2:]):  # one matrix at a time: no stack temporaries
        _check_hermitian(require_square(f, "Hermitian input"), ctx, "eigen input")
    return np.linalg.eigvalsh(hm)[..., ::-1]


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
    within ``eq_tol`` by construction.
    """
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


def fix_column_phase(v: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL) -> tuple[np.ndarray, complex]:
    """Rotate ``v`` so its first nonzero entry is real positive.

    Returns the rotated vector and the removed unit-modulus phase factor,
    so ``v = phase * rotated``.
    """
    idx = np.flatnonzero(np.abs(v) > ctx.eq_tol)
    if idx.size == 0:
        return v.copy(), 1.0 + 0.0j
    pivot = v[idx[0]]
    phase = pivot / abs(pivot)
    return v * np.conj(phase), complex(phase)


def gram_schmidt(vectors, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize the columns of ``vectors`` (stable, re-orthogonalized).

    The span of the first ``k`` output columns equals the span of the
    first ``k`` inputs for every ``k``.  Each output column's first
    nonzero entry is made real positive so results are deterministic.

    Raises
    ------
    RankDeficient
        When a column is (numerically) linearly dependent on its
        predecessors.
    """
    m = as_matrix(vectors, "vectors")
    n, cols = m.shape
    q = np.zeros((n, cols), dtype=complex)
    for j in range(cols):
        v = m[:, j].copy()
        norm_in = frobenius(v)
        for _ in range(2):  # second pass controls cancellation error
            if j:
                v -= q[:, :j] @ (q[:, :j].conj().T @ v)
        norm_out = frobenius(v)
        if norm_out <= ctx.eq_tol * max(norm_in, 1.0):
            raise RankDeficient(
                f"column {j} is linearly dependent on earlier columns",
                column=j,
            )
        v /= norm_out
        q[:, j], _ = fix_column_phase(v, ctx)
    return q


def complete_basis(q, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns ``q`` (n x L) to a full n x n unitary.

    Completion columns are drawn deterministically from the computational
    basis vectors that survive orthogonalization.
    """
    qm = as_matrix(q, "orthonormal columns")
    n, l = qm.shape
    if l > n:
        raise DimensionMismatch(f"cannot have {l} orthonormal columns in dimension {n}")
    residual = frobenius(qm.conj().T @ qm - np.eye(l))
    if residual > ctx.eq_tol * max(1.0, float(l)):
        raise NotUnitary(f"columns are not orthonormal (residual {residual:.3e})")
    full = np.zeros((n, n), dtype=complex)
    full[:, :l] = qm
    filled = l
    for j in range(n):
        if filled == n:
            break
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            v -= full[:, :filled] @ (full[:, :filled].conj().T @ v)
        norm = frobenius(v)
        if norm <= 1e-6:  # basis vector already inside the span
            continue
        full[:, filled], _ = fix_column_phase(v / norm, ctx)
        filled += 1
    if filled != n:
        raise RankDeficient("failed to complete the orthonormal basis")
    return full
