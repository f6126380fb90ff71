"""Conversions between lossy evolution operators and USD POVMs.

A passive evolution operator K (spectral norm at most one) followed by a
projective measurement induces the POVM ``F_i = K^dag Pi_i K`` completed
by ``F_{N+1} = I - K^dag K``; conversely any POVM whose first N operators
are rank one is realized by an explicit K built from the measurement
projectors.  Passiveness of K and positivity of the completion operator
are two views of the same constraint.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg
from .duality import PovmSet, StateSet, rank_one_povm, rank_one_rule
from .duality import _dyad_norms, _rank_one_verdicts, _state_set
from .errors import (
    DegenerateBasisAlignment,
    DimensionMismatch,
    GammaTooSmall,
    NotPassive,
    ParamOutOfRange,
    RankMismatch,
)
from .linalg import DEFAULT_TOL, ToleranceContext


class LossyEvolution(linalg._Immutable):
    """Evolution operator with its one SVD ``svd = (U, s, V^dag)``, ``sv = s``.

    The passiveness check, :func:`discriminable_states` and :func:`dilate_unitary`
    read ``svd``; :func:`lossy_from_povm` and :func:`normalize_passive` derive it from
    an SVD they already hold.  ``passive`` means ``s[0] <= 1 + eq_tol``: K never amplifies.
    """

    k: np.ndarray
    svd: tuple[np.ndarray, np.ndarray, np.ndarray]
    passive: bool

    @property
    def sv(self) -> np.ndarray:
        return self.svd[1]

    @property
    def dim(self) -> int:
        return self.k.shape[0]


class ProjectiveBasis(linalg._Immutable):
    """Orthonormal measurement basis; column i defines the projector onto it."""

    psi: np.ndarray

    @property
    def dim(self) -> int:
        return self.psi.shape[0]


def projective_basis(psi, ctx: ToleranceContext = DEFAULT_TOL) -> ProjectiveBasis:
    """Validate unitarity of the basis matrix and keep a read-only copy."""
    m = linalg.require_square(psi, "basis")
    linalg.check_unitary(m, ctx, "basis matrix")
    return ProjectiveBasis(psi=m.copy())


@lru_cache(maxsize=None, typed=True)
def computational_basis(n: int) -> ProjectiveBasis:
    """The standard basis of C^n: one shared read-only object per ``n``, built on first use."""
    return ProjectiveBasis(psi=linalg._identity(n))


def _passive(top: float, ctx: ToleranceContext) -> bool:
    """The passiveness rule for the largest singular value ``top``, written once."""
    return bool(top <= 1.0 + ctx.eq_tol)


def _check_basis(basis: ProjectiveBasis, n: int, what: str = "operator") -> None:
    if basis.dim != n:
        raise DimensionMismatch(f"basis dimension {basis.dim} does not match {what} dimension {n}",
                                basis_dim=basis.dim, dim=n)


def _require_passive(le: LossyEvolution, why: str) -> None:
    if not le.passive:
        top = float(le.sv[0])
        raise NotPassive(f"operator has spectral norm {top!r} > 1; {why}", spectral_norm=top)


def _lossy(k: np.ndarray, ctx: ToleranceContext, svd=None) -> LossyEvolution:
    """Wrap a finite complex ``k``, kept as it is, with its SVD (taken when not given) and passiveness."""
    svd = linalg.thin_svd(k) if svd is None else svd
    return LossyEvolution(k=k, svd=svd, passive=_passive(svd[1][0], ctx))


def make_lossy(k, ctx: ToleranceContext = DEFAULT_TOL) -> LossyEvolution:
    """Wrap a square operator, copied, with its one SVD and passiveness."""
    return _lossy(linalg.require_square(k, "evolution operator").copy(), ctx)


def normalize_passive(
    le: LossyEvolution,
    gamma: float | None = None,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> LossyEvolution:
    """Rescale ``k`` by ``1/gamma`` so the result is passive.

    With ``gamma`` omitted the largest singular value is used, which puts
    the rescaled operator exactly on the passiveness boundary.  The result
    reuses ``le.svd`` as ``(U, s / gamma, V^dag)``; no second SVD is taken.

    Raises
    ------
    GammaTooSmall
        If ``gamma`` (``s[0]`` by default, so zero for a zero operator) is not
        positive, or ``s[0] / gamma`` breaks the passiveness rule: the result would amplify.
    ParamOutOfRange
        If ``gamma`` is not finite.
    """
    top = float(le.sv[0])
    scale = top if gamma is None else float(gamma)
    if not np.isfinite(scale):
        raise ParamOutOfRange(f"rescaling factor must be finite, got {scale!r}", gamma=scale)
    if scale <= 0.0:
        raise GammaTooSmall(f"cannot rescale by nonpositive factor {scale!r}", gamma=scale)
    if not _passive(top / scale, ctx):  # checked before k / gamma can overflow
        raise GammaTooSmall(
            f"rescaling factor {scale!r} leaves the spectral norm {top!r} above 1 + eq_tol",
            spectral_norm=top,
        )
    u, s, vh = le.svd
    return _lossy(linalg.as_matrix(le.k / scale, "evolution operator"), ctx, (u, s / scale, vh))


def povm_from_lossy(le: LossyEvolution, basis: ProjectiveBasis) -> PovmSet:
    """POVM induced by measuring projectively after the lossy evolution.

    ``F_i`` is the dyad of ``u_i = K^dag psi_i`` (exactly Hermitian and rank at
    most one by construction); the inconclusive operator is
    ``I - sum_i F_i = I - K^dag K``, positive precisely because K is passive.
    The result is factored (:func:`duality.rank_one_povm`): the rows ``u_i``
    and the completion.  Its factor is ``M = Psi^dag K``, so its ``svd`` is
    ``(Psi^dag U, s, V^dag)`` of ``le.svd``.
    """
    _require_passive(le, "the completion operator would be indefinite")
    _check_basis(basis, le.dim)
    return rank_one_povm((le.k.conj().T @ basis.psi).T, (basis.psi.conj().T @ le.svd[0], *le.svd[1:]))


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
    reproduces every ``F_i`` within ``b_i = psd_tol * min(1, ||F_i||_F)``.
    On a factored POVM, ``F_i = |u_i><u_i|``, the rows are
    ``r_i = <psi_i|u_i> u_i^dag`` and ``|<psi_i|u_i>|^2`` the pivot
    weights, and every defect is zero: no operator stack is formed.  There ``K = Psi Theta M``
    for the POVM's factor ``M``, ``Theta = diag(e^{i phi_i} <psi_i|u_i> / |<psi_i|u_i>|)``:
    K's SVD is ``(Psi Theta U, s, V^dag)`` of ``p.svd``, and no SVD of K is taken.
    K is passive (its Gram matrix is ``I - F_{N+1}``); phases never affect statistics.

    Raises
    ------
    RankMismatch
        If some detection operator is zero under the rule's threshold
        (``||F_i||_F <= psd_tol``) or is not reproduced within ``b_i``.
    DegenerateBasisAlignment
        If a basis projector is orthogonal to its detection operator:
        ``psi_i^dag F_i psi_i <= b_i``.
    ParamOutOfRange
        If a phase is not finite.
    """
    n = p.dim
    _check_basis(basis, n, "POVM")
    phi = np.zeros(n) if phases is None else np.asarray(phases, dtype=float)
    if phi.shape != (n,):
        raise DimensionMismatch(f"expected {n} phases, got shape {phi.shape}", phases=phi.size, dim=n)
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise ParamOutOfRange(f"phase {bad[0] + 1} is not finite: {float(phi[bad[0]])!r}", phase=int(bad[0]) + 1)
    psi = basis.psi
    if p.stack is None:
        overlaps = np.sum(psi.conj().T * p.vectors, axis=1)  # <psi_k|u_k>
        rows = overlaps[:, None] * p.vectors.conj()
        weights = (overlaps * overlaps.conj()).real
        nonzero, aligned, passed = _rank_one_verdicts(_dyad_norms(p), weights, 0.0, ctx.psd_tol)
    else:
        f = p.stack[:n]
        rows = np.einsum("ik,kij->kj", psi.conj(), f)  # row k is psi_k^dag F_k
        weights = np.einsum("ij,ji->i", rows, psi).real
        nonzero, aligned, passed = rank_one_rule(f, rows, weights, ctx)
    bad = np.flatnonzero(~nonzero)
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
    rotations = np.exp(1j * phi)
    k = linalg.as_matrix(psi @ ((rotations / np.sqrt(weights))[:, None] * rows), "operator")
    if p.stack is not None:
        return _lossy(k, ctx)
    u, s, vh = p.svd  # Theta = e^{i phi} o / |o| for the overlaps o
    return _lossy(k, ctx, (psi @ ((rotations * overlaps / np.abs(overlaps))[:, None] * u), s, vh))


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
    linalg.check_invertible(le.sv, ctx)  # raises SingularMatrix when K is not invertible
    _check_basis(basis, le.dim)
    betas, phases = linalg.phase_columns(np.asarray(le.k).conj().T @ basis.psi, ctx)
    return list(zip(phases.conj(), basis.psi.T.copy(), betas.T))


def discriminable_states(
    le: LossyEvolution,
    basis: ProjectiveBasis,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> StateSet:
    """States that K maps onto distinct measurement-basis directions.

    These are the columns of ``K^{-1} Psi = V S^{-1} U^dag Psi`` (``le.svd``)
    normalized to unit length; feeding state i through K leaves no component
    on any other basis vector, which is what makes error-free discrimination possible.
    """
    _check_basis(basis, le.dim)
    u, sv, vh = le.svd
    linalg.check_invertible(sv, ctx)
    raw = (vh.conj().T / sv) @ (u.conj().T @ basis.psi)
    return _state_set(linalg.as_matrix(raw / np.linalg.norm(raw, axis=0), "states"), ctx)


def dilate_unitary(le: LossyEvolution) -> np.ndarray:
    """Embed a passive K in the 2N x 2N unitary built from its defect operators.

    The top-left block is K itself (bit for bit); the defect blocks
    ``(I - K K^dag)^{1/2} = U D U^dag`` and ``(I - K^dag K)^{1/2} = V D V^dag``
    route the lost amplitude into the ancilla coordinates.  Both read the
    one SVD ``le.svd = (U, s, V^dag)`` with ``D = (I - S^2)^{1/2}``, so they
    share K's singular vectors and the off-diagonal blocks of ``U'U`` cancel
    to round-off even when K sits on the passiveness boundary.
    """
    _require_passive(le, "only passive operators embed in a unitary")
    n = le.dim
    left, s, right_h = le.svd
    defect = np.sqrt(np.maximum((1.0 - s) * (1.0 + s), 0.0))
    u = np.empty((2 * n, 2 * n), dtype=complex)
    u[:n, :n] = le.k
    u[:n, n:] = (left * defect) @ left.conj().T
    u[n:, :n] = (right_h.conj().T * defect) @ right_h
    u[n:, n:] = -le.k.conj().T
    return u


def reduced_evolution(
    u, subspace_dim: int, ctx: ToleranceContext = DEFAULT_TOL
) -> LossyEvolution:
    """Restrict a unitary to its leading coordinates.

    Raises ``NotPassive`` when the block stretches a direction past
    ``1 + eq_tol``: an exact unitary's block never does, but a matrix within
    the unitarity rule can, as ``diag(1 + 1.4e-10, 1, 1)`` does.
    """
    um = linalg.require_square(u, "unitary")
    n = um.shape[0]
    linalg.check_unitary(um, ctx, "matrix")
    if not 0 < subspace_dim <= n:
        raise DimensionMismatch(f"subspace dimension {subspace_dim} out of range for size {n}",
                                subspace_dim=subspace_dim, dim=n)
    le = _lossy(um[:subspace_dim, :subspace_dim].copy(), ctx)
    _require_passive(le, "a block of a unitary stretches no direction")
    return le


def inconclusive_rank(p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> int:
    """Numeric rank of the inconclusive operator: its eigenvalues above
    ``psd_tol``.

    Strictly below N whenever the generating operator sits exactly on the
    passiveness boundary (largest singular value one).

    Raises
    ------
    NotHermitian
        When the inconclusive operator breaks the Hermiticity rule.
    """
    linalg._check_hermitian(p.inconclusive, ctx, "inconclusive operator")
    return int(np.count_nonzero(np.linalg.eigvalsh(p.inconclusive) > ctx.psd_tol))
