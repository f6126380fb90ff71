"""Dense complex linear-algebra kernel sized for small dimensions (N <= 64).

All operations are pure functions over immutable numpy arrays with
explicit, auditable tolerances.  Matrix equality is always judged in the
Frobenius norm, never entrywise.  Every routine is backed by
``numpy.linalg``; nothing inverts.  Singular values come from one SVD per
state set or operator (:func:`thin_svd`, whose factors also give ``A^{-1}``);
a POVM and the K built from it inherit that SVD through exact unitary and
diagonal factors, never through ``K^dag K``, whose eigenvalues square the
condition number.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    NotPositive,
    NotUnitary,
    ParamOutOfRange,
    SingularMatrix,
)


@dataclass(frozen=True)
class ToleranceContext:
    """Numeric tolerances shared by every operator check.

    Attributes
    ----------
    eq_tol : float
        Bound on equality residuals in the Frobenius norm.  Two rules built
        on it are each written once in this module: a matrix ``X`` is
        Hermitian when ``||X - X^dag||_F <= eq_tol * max(1, ||X||_F)``
        (:func:`hermitian_rule`), and an ``n x n`` matrix ``Q`` is unitary when
        ``||Q^dag Q - I||_F <= eq_tol * max(1, n)`` (:func:`check_unitary`).
    psd_tol : float
        Slack allowed below zero for eigenvalues of nominally positive
        operators (round-off makes exactly singular operators dip slightly
        negative).
    cond_max : float
        Largest condition number ``sigma_max / sigma_min`` accepted before a
        matrix is declared singular: the only singularity threshold, so finite.
    """

    eq_tol: float = 1e-10
    psd_tol: float = 1e-9
    cond_max: float = 1e12

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.eq_tol, self.psd_tol, self.cond_max)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = ToleranceContext()


def _freeze(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only in place and return it: for fresh arrays no caller holds."""
    a.setflags(write=False)
    return a


class _Immutable:
    """Base of the result records: each subclass is a frozen dataclass that compares and hashes by identity.
    Its one initializer takes every field, and a cached ``svd``, by keyword (a missing or unknown name raises
    ``TypeError``); it makes each array, and each array of a tuple (an SVD), read-only in place and wraps each
    dict in a read-only mapping.  ``copy`` and ``deepcopy`` return the object; unpickling runs the initializer."""

    def __init_subclass__(cls):
        declared = dataclass(frozen=True, init=False, eq=False)(cls).__dataclass_fields__.values()
        cls._names = frozenset(f.name for f in declared)
        cls._required = frozenset(f.name for f in declared if f.default is MISSING)
        cls._allowed = cls._names | {k for k, v in vars(cls).items() if isinstance(v, cached_property)}

    def __init__(self, **fields):
        keys = fields.keys()  # the exact name sets first: they are the common cases, and cheaper to compare
        if keys != self._names and keys != self._allowed and not self._required <= keys <= self._allowed:
            missing, unknown = sorted(self._required - keys), sorted(keys - self._allowed)
            raise TypeError(f"{type(self).__name__}: missing fields {missing}, unknown fields {unknown}")
        for key, value in fields.items():  # setflags(False) is write=False: numpy parses a keyword slower
            if isinstance(value, np.ndarray):
                value.setflags(False)
            elif isinstance(value, tuple):  # an SVD
                for item in value:
                    item.setflags(False)
            elif isinstance(value, dict):
                fields[key] = MappingProxyType(value)
        self.__dict__.update(fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return memo.setdefault(id(self), self)

    def __getstate__(self) -> dict:
        return {key: dict(v) if isinstance(v, MappingProxyType) else v for key, v in vars(self).items()}

    def __setstate__(self, state: dict) -> None:
        _Immutable.__init__(self, **state)


@lru_cache(maxsize=None, typed=True)
def _identity(n: int) -> np.ndarray:
    """The shared complex ``n x n`` identity: a view of a read-only array, so no caller can make it writeable."""
    return _freeze(np.eye(n, dtype=complex)).view()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-dimensional, got ndim={m.ndim}", ndim=m.ndim)
    if m.size == 0:
        raise InvalidMatrix(f"{name} must not be empty", rows=m.shape[0], cols=m.shape[1])
    if not np.isfinite(m).all():
        raise InvalidMatrix(f"{name} contains NaN or Inf entries")
    return m


def require_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    rows, cols = m.shape
    if rows != cols:
        raise DimensionMismatch(f"{name} must be square, got {rows}x{cols}", rows=rows, cols=cols)
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix or 2-norm of a vector."""
    return float(np.linalg.norm(a))


def hermitian_rule(residual, norm, ctx: ToleranceContext = DEFAULT_TOL):
    """The Hermiticity rule ``residual <= eq_tol * max(1, norm)`` for residuals
    ``||h - h^dag||_F`` and norms ``||h||_F``, elementwise on arrays of them."""
    return residual <= ctx.eq_tol * np.maximum(1.0, norm)


def hermiticity(h: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL) -> tuple[float, bool]:
    """Residual ``||h - h^dag||_F`` and whether it meets :func:`hermitian_rule`;
    ``||h||_F`` is computed only when the residual exceeds ``eq_tol``, below
    which the rule always holds.
    """
    residual = frobenius(h - h.conj().T)
    return residual, residual <= ctx.eq_tol or bool(hermitian_rule(residual, frobenius(h), ctx))


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
    residual = frobenius(q.conj().T @ q - _identity(n))
    if residual > ctx.eq_tol * max(1.0, float(n)):
        raise NotUnitary(f"{name} is not unitary (residual {residual:.3e})", residual=residual)
    return residual


def _hermitian_eigen(h, ctx: ToleranceContext) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and matching orthonormal eigenvector columns of
    a Hermitian matrix; raises ``NotHermitian`` when ``h`` breaks
    :func:`hermitian_rule`.
    """
    hm = require_square(h, "Hermitian input")
    _check_hermitian(hm, ctx, "eigen input")
    w, v = np.linalg.eigh(hm)  # ascending
    # v[:, ::-1] is a strided view; the C-ordered copy fixes the layout, and
    # with it the rounding, of the products the callers form from it.
    return w[::-1].copy(), v[:, ::-1].copy()


def singular_values(k) -> np.ndarray:
    """Singular values of ``k``, nonnegative and descending, from a values-only SVD."""
    return np.linalg.svd(as_matrix(k, "operator"), compute_uv=False)


def thin_svd(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(U, s, V^dag)`` of ``k``, ``s`` descending.  ``k`` must be a finite complex
    matrix that its caller has already validated (:func:`as_matrix`): it is not checked here."""
    return tuple(np.linalg.svd(k, full_matrices=False))


def spectral_norm(k) -> float:
    """Largest singular value: the maximal amplitude amplification of ``k``."""
    return float(singular_values(k)[0])


def sv_condition(sv: np.ndarray) -> float:
    """Condition number from descending singular values (inf when rank deficient)."""
    return float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0.0 else float("inf")


def check_invertible(sv: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL) -> None:
    """Condition-number cap on the descending singular values of a square matrix.

    Raises
    ------
    SingularMatrix
        When ``sv_condition(sv) > cond_max``, the comparison ``state_set``
        makes; for state matrices this signals linearly dependent states.
    """
    if sv_condition(sv) > ctx.cond_max:
        raise SingularMatrix(
            "matrix is singular within tolerance "
            f"(condition number exceeds {ctx.cond_max:.1e})",
            sigma_max=float(sv[0]),
            sigma_min=float(sv[-1]),
        )


def unitary_exp(h, t: float, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Unitary propagator ``exp(-i h t)`` for Hermitian ``h``.

    Built from the spectral decomposition, so the result is unitary to
    within ``eq_tol`` by construction; a non-finite ``t`` raises
    ``ParamOutOfRange``.
    """
    if not np.isfinite(t):
        raise ParamOutOfRange(f"evolution time must be finite, got {t!r}", t=t)
    w, v = _hermitian_eigen(h, ctx)
    phases = np.exp(-1j * w * float(t))
    return (v * phases) @ v.conj().T


def psd_sqrt(f, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-psd_tol, 0)`` or within ``eigh``'s round-off of zero,
    ``|w| <= n eps max|w|``, are clamped to zero: detection and completion
    operators are often exactly singular, and ``sqrt(1e-16)`` is ``1e-8``.

    Raises
    ------
    NotPositive
        If the smallest eigenvalue is below ``-psd_tol``.
    """
    w, v = _hermitian_eigen(f, ctx)
    if w.size and w[-1] < -ctx.psd_tol:
        raise NotPositive(
            f"matrix has eigenvalue {w[-1]:.3e} below -psd_tol={-ctx.psd_tol:.1e}",
            min_eigenvalue=float(w[-1]),
        )
    floor = w.size * np.finfo(float).eps * max(w[0], -w[-1])  # eigh's round-off
    root = (v * np.sqrt(np.where(w > floor, w, 0.0))) @ v.conj().T
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
