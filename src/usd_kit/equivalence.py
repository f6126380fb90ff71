"""Conversions between lossy evolution operators and USD POVMs.

A passive evolution operator K (spectral norm at most one) followed by a
projective measurement induces the POVM ``F_i = K^dag Pi_i K`` completed
by ``F_{N+1} = I - K^dag K``; conversely any POVM whose first N operators
are rank one is realized by an explicit K built from the measurement
projectors.  Passiveness of K and positivity of the completion operator
are two views of the same constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .duality import PovmSet, StateSet, operator_rank, rank_one_povm, rank_one_rule, state_set
from .errors import (
    DegenerateBasisAlignment,
    DimensionMismatch,
    GammaTooSmall,
    NotPassive,
    RankMismatch,
)
from .linalg import DEFAULT_TOL, ToleranceContext


@dataclass(frozen=True)
class LossyEvolution:
    """Evolution operator with cached singular values and passiveness flag.

    ``passive`` means the largest singular value does not exceed one
    (within ``eq_tol``): the operator never amplifies any input state.
    """

    k: np.ndarray
    sv: np.ndarray
    passive: bool

    @property
    def dim(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal measurement basis; column i defines the projector onto it."""

    psi: np.ndarray

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.psi[:, i]

    def projector(self, i: int) -> np.ndarray:
        v = self.psi[:, i]
        return np.outer(v, v.conj())


def projective_basis(psi, ctx: ToleranceContext = DEFAULT_TOL) -> ProjectiveBasis:
    """Validate unitarity of the basis matrix and freeze it."""
    m = linalg.require_square(psi, "basis")
    linalg.check_unitary(m, ctx, "basis matrix")
    return ProjectiveBasis(psi=linalg.frozen(m))


def computational_basis(n: int) -> ProjectiveBasis:
    return ProjectiveBasis(psi=linalg.frozen(np.eye(n, dtype=complex)))


def make_lossy(k, ctx: ToleranceContext = DEFAULT_TOL) -> LossyEvolution:
    """Wrap a square operator, caching singular values and passiveness."""
    km = linalg.require_square(k, "evolution operator")
    sv = linalg.singular_values(km, ctx)
    passive = bool(sv[0] <= 1.0 + ctx.eq_tol)
    return LossyEvolution(k=linalg.frozen(km), sv=linalg.frozen(sv), passive=passive)


def normalize_passive(
    le: LossyEvolution,
    gamma: float | None = None,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> LossyEvolution:
    """Rescale ``k`` by ``1/gamma`` so the result is passive.

    With ``gamma`` omitted the largest singular value is used, which puts
    the rescaled operator exactly on the passiveness boundary.

    Raises
    ------
    GammaTooSmall
        If ``gamma`` is below the spectral norm (the result would still
        amplify) or the operator is zero.
    """
    top = float(le.sv[0])
    scale = top if gamma is None else float(gamma)
    if scale <= 0.0:
        raise GammaTooSmall(f"cannot rescale by nonpositive factor {scale!r}")
    if scale < top - ctx.eq_tol:
        raise GammaTooSmall(
            f"rescaling factor {scale!r} is below the spectral norm {top!r}",
            spectral_norm=top,
        )
    return make_lossy(np.asarray(le.k) / scale, ctx)


def povm_from_lossy(
    le: LossyEvolution,
    basis: ProjectiveBasis,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> PovmSet:
    """POVM induced by measuring projectively after the lossy evolution.

    ``F_i`` is the dyad of ``K^dag psi_i`` (exactly Hermitian and rank at
    most one by construction); the inconclusive operator is
    ``I - sum_i F_i = I - K^dag K``, positive precisely because K is passive.
    """
    if not le.passive:
        raise NotPassive(
            f"operator has spectral norm {float(le.sv[0])!r} > 1; "
            "the completion operator would be indefinite",
            spectral_norm=float(le.sv[0]),
        )
    if basis.dim != le.dim:
        raise DimensionMismatch(
            f"basis dimension {basis.dim} does not match operator dimension {le.dim}"
        )
    ops = np.empty((le.dim + 1, le.dim, le.dim), dtype=complex)
    return rank_one_povm(ops, (np.asarray(le.k).conj().T @ basis.psi).T)


def lossy_from_povm(
    p: PovmSet,
    basis: ProjectiveBasis,
    phases=None,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> LossyEvolution:
    """Evolution operator realizing a rank-one POVM in the given basis.

    Implements ``K = sum_i Pi_i F_i e^{i phi_i} / sqrt(tr(F_i Pi_i))``:
    row i of ``Psi^dag K`` is ``e^{i phi_i} r_i / sqrt(w_i)`` with
    ``r_i = psi_i^dag F_i`` and ``w_i = r_i psi_i``, all rows from one
    expression.  As ``K^dag Pi_i K = r_i^dag r_i / w_i``, the
    :func:`duality.rank_one_rule` pivoted on ``psi_i`` certifies that K
    reproduces every ``F_i`` within ``psd_tol * ||F_i||_F``.  K is passive
    (its Gram matrix is ``I - F_{N+1}``); the phases never affect statistics.

    Raises
    ------
    RankMismatch
        If some detection operator is zero (``||F_i||_F <= psd_tol``) or
        is not reproduced within ``psd_tol * ||F_i||_F``.
    DegenerateBasisAlignment
        If a basis projector is orthogonal to its detection operator:
        ``psi_i^dag F_i psi_i <= psd_tol * ||F_i||_F``.
    """
    n = p.dim
    if basis.dim != n:
        raise DimensionMismatch(
            f"basis dimension {basis.dim} does not match POVM dimension {n}"
        )
    if phases is None:
        phi = np.zeros(n)
    else:
        phi = np.asarray(phases, dtype=float)
        if phi.shape != (n,):
            raise DimensionMismatch(f"expected {n} phases, got shape {phi.shape}")
    f = p.operators[:n]
    psi = basis.psi
    rows = np.einsum("ik,kij->kj", psi.conj(), f)  # row k is psi_k^dag F_k
    weights = np.einsum("ij,ji->i", rows, psi).real
    norms, aligned, passed = rank_one_rule(f, rows, weights, ctx)
    bad = np.flatnonzero(norms <= ctx.psd_tol)
    if bad.size:
        raise RankMismatch(f"detection operator {bad[0] + 1} is zero", operator=int(bad[0]) + 1)
    bad = np.flatnonzero(~aligned)
    if bad.size:
        raise DegenerateBasisAlignment(
            f"basis vector {bad[0] + 1} is orthogonal to detection operator {bad[0] + 1}",
            operator=int(bad[0]) + 1,
            weight=float(weights[bad[0]]),
        )
    bad = np.flatnonzero(~passed)
    if bad.size:
        raise RankMismatch(f"detection operator {bad[0] + 1} is not rank one", operator=int(bad[0]) + 1)
    coefficients = np.exp(1j * phi) / np.sqrt(weights)
    return make_lossy(psi @ (coefficients[:, None] * rows), ctx)


def dyadic_form(
    le: LossyEvolution,
    basis: ProjectiveBasis,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> list[tuple[complex, np.ndarray, np.ndarray]]:
    """Decompose ``K = sum_i a_i |psi_i><beta_i|``.

    Each ``|beta_i>`` is the detection-operator direction: its squared
    norm is the trace of ``F_i = K^dag Pi_i K`` and its phase follows the
    first-nonzero-entry-real-positive convention; the unit-modulus ``a_i``
    absorbs the removed phase.  Requires K invertible so no dyad
    degenerates.
    """
    linalg.inverse(le.k, ctx)  # raises SingularMatrix when K is not invertible
    if basis.dim != le.dim:
        raise DimensionMismatch(
            f"basis dimension {basis.dim} does not match operator dimension {le.dim}"
        )
    betas, phases = linalg.phase_columns(np.asarray(le.k).conj().T @ basis.psi, ctx)
    return list(zip(phases.conj(), basis.psi.T.copy(), betas.T))


def discriminable_states(
    le: LossyEvolution,
    basis: ProjectiveBasis,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> StateSet:
    """States that K maps onto distinct measurement-basis directions.

    These are the columns of ``K^{-1} Psi`` normalized to unit length;
    feeding state i through K leaves no component on any other basis
    vector, which is what makes error-free discrimination possible.
    """
    k_inv = linalg.inverse(le.k, ctx)
    raw = k_inv @ np.asarray(basis.psi)
    norms = np.linalg.norm(raw, axis=0)
    return state_set(raw / norms, ctx)


def dilate_unitary(le: LossyEvolution, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Embed a passive K in the 2N x 2N unitary built from its defect operators.

    The top-left block is K itself (bit for bit); the defect blocks
    ``(I - K K^dag)^{1/2} = U D U^dag`` and ``(I - K^dag K)^{1/2} = V D V^dag``
    route the lost amplitude into the ancilla coordinates.  Both come from
    one SVD ``K = U S V^dag`` with ``D = (I - S^2)^{1/2}``, so they share
    the singular vectors of K and the off-diagonal blocks of ``U'U`` cancel
    to round-off even when K sits on the passiveness boundary.
    """
    if not le.passive:
        raise NotPassive(
            f"operator has spectral norm {float(le.sv[0])!r} > 1; "
            "only passive operators embed in a unitary",
            spectral_norm=float(le.sv[0]),
        )
    k = np.asarray(le.k)
    n = le.dim
    left, s, right_h = np.linalg.svd(k)
    defect = np.sqrt(np.clip((1.0 - s) * (1.0 + s), 0.0, None))
    u = np.empty((2 * n, 2 * n), dtype=complex)
    u[:n, :n] = k
    u[:n, n:] = (left * defect) @ left.conj().T
    u[n:, :n] = (right_h.conj().T * defect) @ right_h
    u[n:, n:] = -k.conj().T
    return u


def reduced_evolution(
    u, subspace_dim: int, ctx: ToleranceContext = DEFAULT_TOL
) -> LossyEvolution:
    """Restrict a unitary to its leading coordinates.

    The top-left block of a unitary always has spectral norm at most one,
    so the result is passive by construction.
    """
    um = linalg.require_square(u, "unitary")
    n = um.shape[0]
    linalg.check_unitary(um, ctx, "matrix")
    if not 0 < subspace_dim <= n:
        raise DimensionMismatch(
            f"subspace dimension {subspace_dim} out of range for size {n}"
        )
    le = make_lossy(um[:subspace_dim, :subspace_dim], ctx)
    if not le.passive:  # cannot happen for a genuine unitary
        raise NotPassive("submatrix of a unitary failed the passiveness check")
    return le


def inconclusive_rank(p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> int:
    """Numeric rank of the inconclusive operator.

    Strictly below N whenever the generating operator sits exactly on the
    passiveness boundary (largest singular value one).
    """
    return operator_rank(p.inconclusive, ctx)
