"""Bi-orthogonal dual sets and USD POVM construction over an N-level space.

Given N linearly independent unit states, the dual vectors are the
columns of ``D = A^{-dag}``; pairing each dual with a positive weight
yields the rank-one detection operators of an unambiguous discrimination
POVM, completed by an inconclusive operator.  The largest uniform weight
is ``sigma_min(A)^2``; it and the duals read one SVD of the state matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InfeasibleScaling,
    InvalidDensityMatrix,
    InvalidMatrix,
    InvalidStateSet,
    ParamOutOfRange,
    SingularStates,
)
from .linalg import DEFAULT_TOL, ToleranceContext


@dataclass(frozen=True)
class StateSet(linalg._Immutable):
    """Unit-norm state vectors stored as the columns of ``states``.

    ``dim`` is the dimension of the carrier space; the number of columns L
    may be smaller, but never larger: :func:`subspace_reduce` carries such a set
    to C^L.  One thin SVD ``svd = (U, s, V^dag)``, ``sv = s``, feeds the condition
    check, duals, weight and that reduction.
    """

    dim: int
    states: np.ndarray

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # state_set fills this cache; a set built directly is checked here
        return linalg.thin_svd(linalg.as_matrix(self.states, "states"))

    @property
    def sv(self) -> np.ndarray:
        return self.svd[1]

    @property
    def count(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, init=False)
class PovmSet(linalg._Immutable):
    """Ordered positive operators ``F_1 .. F_{N+1}`` summing to identity: N
    rank-one detection operators and ``inconclusive``, ``F_{N+1}``.

    ``PovmSet(dim, operators)`` keeps a dense stack: any sequence of N+1
    ``N x N`` matrices with ``N >= 1`` (``DimensionMismatch`` otherwise) and
    finite entries (``InvalidMatrix`` otherwise), as one read-only complex
    ``(N+1, N, N)`` array ``stack`` (a read-only complex array is not copied).
    :func:`rank_one_povm` builds the factored form, ``stack = None``: the rows
    ``vectors`` ``u_i`` of ``F_i = |u_i><u_i|`` and ``inconclusive``.  ``operators``
    is the read-only dense stack; a factored POVM builds it anew on each access.
    Its ``svd`` is that of the factor ``M`` with rows ``u_i^dag`` (``M^dag M = I - F_{N+1}``),
    filled by a builder that knows it, else taken on first read; ``None`` for a stack.
    """

    dim: int
    vectors: np.ndarray | None
    inconclusive: np.ndarray
    stack: np.ndarray | None

    def __init__(self, dim: int, operators):
        try:
            ops = np.asarray(operators, dtype=complex)
        except ValueError:  # a ragged sequence of matrices
            ops = None
        if dim < 1:
            raise DimensionMismatch(f"POVM dimension must be at least 1, got {dim}")
        if ops is None or ops.shape != (dim + 1, dim, dim):
            raise DimensionMismatch(f"expected {dim + 1} operators of size {dim}x{dim}")
        if not np.isfinite(ops).all():
            raise InvalidMatrix("POVM operators contain NaN or Inf entries")
        _dense_povm(linalg.frozen(ops) if ops.flags.writeable else ops, self)

    @property
    def operators(self) -> np.ndarray:
        return _dyad_stack(self) if self.stack is None else self.stack

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        if self.stack is None:  # a dense stack has no factor, and no svd
            return linalg.thin_svd(self.vectors.conj())


def _fill(p: PovmSet, **fields) -> PovmSet:
    p.__dict__.update(fields)  # the frozen dataclass's fields, set once
    return p


def _dense_povm(ops: np.ndarray, p: PovmSet | None = None) -> PovmSet:
    """The POVM of a finite read-only complex ``(N+1, N, N)`` stack that no caller
    writes, filled into ``p`` (a new one without it): :class:`PovmSet`'s fields without its checks."""
    p = object.__new__(PovmSet) if p is None else p
    return _fill(p, dim=len(ops) - 1, vectors=None, inconclusive=ops[-1], stack=ops)


def _dyad_stack(p: PovmSet) -> np.ndarray:
    """The read-only stack of a factored POVM: ``F_i = |u_i><u_i|``, then ``F_{N+1}``."""
    u, n = p.vectors, p.dim
    ops = np.empty((n + 1, n, n), dtype=complex)
    np.multiply(u[:, :, None], u.conj()[:, None, :], out=ops[:n])
    ops[n] = p.inconclusive
    return linalg._freeze(ops)


def _dyad_norms(p: PovmSet) -> np.ndarray:
    """``||F_i||_F = ||u_i||^2`` of the detection operators of a factored POVM."""
    return np.sum(np.abs(p.vectors) ** 2, axis=1)


@dataclass(frozen=True)
class ValidationReport(linalg._Immutable):
    """Diagnostics of a POVM: read-only arrays with one entry per operator
    ``F_1 .. F_{N+1}`` (``hermiticity_residual`` ``||F_k - F_k^dag||_F``,
    ``min_eigenvalue`` and integer ``rank``, see :func:`validate_povm`), the
    :func:`rank_one_rule` verdict ``rank_one`` of each of ``F_1 .. F_N``, the
    completeness residual ``||sum_k F_k - I||_F`` and the verdict."""

    hermiticity_residual: np.ndarray
    min_eigenvalue: np.ndarray
    rank: np.ndarray
    rank_one: np.ndarray
    completeness_residual: float
    valid: bool


def state_set(states, ctx: ToleranceContext = DEFAULT_TOL) -> StateSet:
    """Validate a matrix of state columns and keep a read-only copy.

    Raises
    ------
    InvalidMatrix
        If ``states`` is not a finite 2-D matrix.
    InvalidStateSet
        If any column norm deviates from 1 by more than ``eq_tol``.
    SingularStates
        If the columns are linearly dependent within ``cond_max``.
    """
    return _state_set(linalg.frozen(linalg.as_matrix(states, "states")), ctx)


def _state_set(m: np.ndarray, ctx: ToleranceContext, svd=None) -> StateSet:
    """The checks of :func:`state_set` on a finite read-only complex matrix that
    no caller writes: the set keeps it, and its one SVD (``svd``, else taken here), as they are."""
    dim, count = m.shape
    if count == 0 or count > dim:
        raise InvalidStateSet(
            f"need between 1 and {dim} states in dimension {dim}, got {count}"
        )
    norms = np.linalg.norm(m, axis=0)
    worst = float(np.abs(norms - 1.0).max())
    if worst > ctx.eq_tol:
        raise InvalidStateSet(
            f"state norms deviate from 1 by {worst:.3e} (eq_tol {ctx.eq_tol:.1e})",
            worst_norm_deviation=worst,
        )
    s = StateSet(dim=dim, states=m)
    s.__dict__["svd"] = linalg.thin_svd(m) if svd is None else svd  # the cached_property's slot
    cond = linalg.sv_condition(s.sv)
    if cond > ctx.cond_max:
        raise SingularStates("states are linearly dependent within tolerance", condition_number=cond)
    return s


def dual_set(s: StateSet, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Dual vectors of a complete state set as the columns of the read-only
    ``(N, N)`` matrix ``D = A^{-dag} = U S^{-1} V^dag``.

    Column ``i`` pairs to one with state ``i`` and to zero with every other
    state; the duals are unnormalized, and the POVM scaling weights absorb
    that freedom.  Requires as many states as dimensions (``DimensionMismatch``
    naming both counts otherwise): with fewer states the duals are not uniquely defined.
    """
    if s.count != s.dim:
        raise DimensionMismatch(
            f"duals need {s.dim} states in dimension {s.dim}, got {s.count}", states=s.count, dim=s.dim
        )
    u, sv, vh = s.svd
    linalg.check_invertible(sv, ctx)
    return linalg._freeze((u / sv) @ vh)


def rank_one_povm(rows: np.ndarray, svd=None) -> PovmSet:
    """The factored POVM ``F_i = |u_i><u_i|`` of the rows ``u_i`` of ``rows``,
    completed by ``I - U^T U^*`` (``sum_i |u_i><u_i|`` in one product),
    Hermitian-symmetrized.  Keeps ``rows``, which must be read-only, and ``svd``,
    the read-only SVD of the factor ``M = U^*`` when the caller knows it.
    """
    completion = linalg._identity(rows.shape[1]) - rows.T @ rows.conj()
    p = _fill(object.__new__(PovmSet), dim=rows.shape[1], vectors=rows, stack=None,
              inconclusive=linalg._freeze((completion + completion.conj().T) / 2.0))
    return p if svd is None else _fill(p, svd=svd)


def build_usd_povm(s: StateSet, weights=None, ctx: ToleranceContext = DEFAULT_TOL) -> PovmSet:
    """Construct the USD POVM ``F_i = lambda_i |d_i><d_i|`` for a state set.

    ``weights`` is a sequence of N positive weights ``lambda_i``.  Without
    it every ``lambda_i`` is the largest shared weight that keeps the
    inconclusive operator positive, in closed form: from one SVD
    ``A = U S V^dag``, the duals give ``I - lambda D D^dag = U (I - lambda S^{-2}) U^dag``,
    positive exactly when ``lambda <= sigma_min(A)^2`` and, at that weight,
    to round-off below ``cond_max``.  The POVM is factored (:func:`rank_one_povm`)
    with rows ``u_i = sqrt(lambda_i) d_i``: ``sigma_min d_i`` at that weight, whose
    ``svd`` is read off ``s.svd``: ``M = sigma_min D^dag = V (sigma_min S^{-1}) U^dag``.

    Raises
    ------
    InfeasibleScaling
        If explicit weights push the inconclusive operator indefinite.  A
        weight with ``lambda_i ||d_i||^2 > 1 + psd_tol`` is rejected before
        the stack is built: ``<d_i| (I - sum_j lambda_j |d_j><d_j|) |d_i> >= 0``
        needs ``lambda_i ||d_i||^2 <= 1``, and such a weight could overflow.
    """
    n = s.dim
    duals = dual_set(s, ctx)
    if weights is None:  # M's singular values s_min / s_i reversed to descend: the largest is 1
        u, sv, vh = s.svd
        m_svd = np.conjugate(vh[::-1].T, order="C"), sv[-1] / sv[::-1], np.conjugate(u[:, ::-1].T, order="C")
        return rank_one_povm(linalg._freeze(sv[-1] * duals.T), tuple(map(linalg._freeze, m_svd)))
    lambdas = np.asarray(weights, dtype=float)
    if lambdas.shape != (n,):
        raise DimensionMismatch(f"expected {n} scaling weights, got {lambdas.shape}")
    if not np.all((lambdas > 0.0) & np.isfinite(lambdas)):
        raise ParamOutOfRange("scaling weights must be finite and strictly positive")
    # compared, not multiplied: lambda_i ||d_i||^2 can overflow, and ||d_i|| >= 1
    limit = (1.0 + ctx.psd_tol) / np.sum(np.abs(duals) ** 2, axis=0)
    bad = np.flatnonzero(lambdas > limit)
    if bad.size:
        raise InfeasibleScaling(
            f"weight {bad[0] + 1} exceeds 1 / ||d_i||^2, so the inconclusive operator is indefinite",
            operator=int(bad[0]) + 1,
            weight=float(lambdas[bad[0]]),
            limit=float(limit[bad[0]]),
        )
    p = rank_one_povm(linalg._freeze(np.sqrt(lambdas)[:, None] * duals.T))
    min_eig = float(np.linalg.eigvalsh(p.inconclusive)[0])
    if min_eig < -ctx.psd_tol:
        raise InfeasibleScaling(
            "inconclusive operator is indefinite for the supplied weights",
            min_eigenvalue=min_eig,
        )
    return p


def diagonal_pivot(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot each operator ``F_k`` of the stack ``f`` on its largest diagonal
    entry ``j``: the rows ``r_k = F_k[j, :]`` and weights ``w_k = Re F_k[j, j]``,
    at least ``lambda_1(F_k) / N`` for a positive ``F_k``.
    """
    diag = np.diagonal(f, axis1=1, axis2=2).real
    j = diag.argmax(axis=1)
    k = np.arange(len(f))
    return f[k, j], diag[k, j]


def _norms(x: np.ndarray) -> np.ndarray:
    """``||x_k||_F`` of each matrix of the C-ordered complex stack ``x``, bit
    for bit ``np.linalg.norm``: the same strided dot products ``re.re + im.im``."""
    v = x.reshape(len(x), 1, -1)
    re, im = v.real, v.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def _stack_pass(ops: np.ndarray, rows: np.ndarray, weights: np.ndarray, psd_tol: float):
    """One vectorized pass over the whole ``(M, N, N)`` stack ``ops``.

    Returns, for each operator ``F_k``, ``||F_k||_F``, the Hermiticity
    residual ``||F_k - F_k^dag||_F`` and the pivot defect
    ``d_k = ||F_k - r_k^dag r_k / w_k||_F``, then the :func:`rank_one_rule`
    verdicts of the first ``len(rows)`` operators.  The defect is formed only
    where the pivot is aligned; it is ``inf`` elsewhere, and no other ``w_k`` is divided by.
    One transposed copy of the stack holds ``F_k^dag``, then the dyads: about one stack.
    """
    m = len(weights)
    norms, defects = _norms(ops), np.full(len(ops), np.inf)
    t = ops.transpose(0, 2, 1).copy()
    herm = _norms(np.subtract(ops, np.conjugate(t, out=t), out=t))
    k = np.flatnonzero(weights > psd_tol * np.minimum(1.0, norms[:m]))
    if k.size:
        r = rows[k]
        d = np.multiply(r.conj()[:, :, None], (r / weights[k, None])[:, None, :], out=t[: k.size])
        defects[k] = _norms(np.subtract(ops[:m] if k.size == m else ops[k], d, out=d))
    return norms, herm, defects, *_rank_one_verdicts(norms[:m], weights, defects[:m], psd_tol)


def _rank_one_verdicts(norms, weights, defects, psd_tol: float):
    """The :func:`rank_one_rule` verdicts ``(nonzero, aligned, rank_one)`` from the
    norms ``||F_k||_F``, pivot weights ``w_k`` and defects ``d_k``."""
    bounds = psd_tol * np.minimum(1.0, norms)
    nonzero, aligned = norms > psd_tol, weights > bounds
    return nonzero, aligned, nonzero & aligned & (defects <= bounds)


def rank_one_rule(f, rows: np.ndarray, weights: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL):
    """The rank-one rule for operators ``F_k`` with pivots ``p_k``, rows
    ``r_k = p_k^dag F_k`` and weights ``w_k = Re(r_k p_k)``, under the one bound
    ``b_k = psd_tol * min(1, ||F_k||_F)``: ``F_k`` is nonzero when
    ``||F_k||_F > psd_tol``, the pivot is aligned when ``w_k > b_k``, and ``F_k``
    is rank one when nonzero and aligned with defect ``||F_k - r_k^dag r_k / w_k||_F <= b_k``.

    Returns the three verdicts ``(nonzero, aligned, rank_one)``.  A valid POVM has
    ``||F_k||_F <= 1``, where ``b_k = psd_tol * ||F_k||_F``; ``b_k`` never
    exceeds ``psd_tol``.  The defect is a Schur complement, so by Cauchy
    interlacing it bounds ``|lambda_2(F_k)|`` and ``-lambda_min(F_k)``: a
    rank-two operator never passes.  Norms and defects come from one
    vectorized pass over the whole stack (:func:`_stack_pass`).
    """
    return _stack_pass(f, rows, weights, ctx.psd_tol)[3:]


def validate_povm(p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> ValidationReport:
    """Diagnostics for Hermiticity, positivity, completeness and rank one.

    Never raises; the boolean verdict is true when every operator meets the
    Hermiticity rule of :class:`ToleranceContext`, has smallest eigenvalue
    at least ``-psd_tol``, and the operators sum to identity within ``eq_tol``.
    ``rank_one`` holds the :func:`rank_one_rule` verdict of each detection
    operator on its :func:`diagonal_pivot`; it does not enter ``valid``.  An
    operator with ``||F_k||_F <= psd_tol`` is never rank one, so ``rank_one``
    is false wherever ``rank`` is 0.

    A detection operator that passes the rule with ``w_k > psd_tol`` is
    certified rank one in ``O(N^2)``, with no eigensolve.  Its defect is
    ``d_k <= b_k <= psd_tol``, and for the Hermitian part ``H`` of ``F_k``,
    ``||H - r_k^dag r_k / w_k||_F <= d_k``, so ``lambda_1(H) >= w_k > psd_tol``
    (a Rayleigh quotient), ``lambda_2(H) <= d_k`` (Cauchy interlacing) and
    ``lambda_min(H) >= -d_k`` (Weyl): its rank is the eigensolve's count.
    A certified operator reports rank 1 and ``min_eigenvalue = -d_k``, a
    certified lower bound on its smallest eigenvalue, not the eigenvalue
    itself.  Norms, Hermiticity residuals, defects and verdicts come from
    one vectorized pass over the whole stack, with temporaries of about one stack.
    The inconclusive operator and every uncertified operator share one
    ``eigvalsh`` call and report exact eigenvalue diagnostics.

    A factored POVM (:func:`rank_one_povm`) is certified from its factors.
    Each ``F_k = |u_k><u_k|`` is exactly Hermitian, positive, and rank one
    exactly when ``||F_k||_F = ||u_k||^2 > psd_tol``: it reports residual 0,
    ``min_eigenvalue`` 0 (the bound ``-d_k``, ``d_k = 0``) and ``rank_one`` equal
    to that rank.  Only the symmetrized completion, residual 0, is eigensolved;
    the completeness residual is ``||U^T U^* + F_{N+1} - I||_F``, one product.
    """
    n = p.dim
    if p.stack is None:
        rank_one = _dyad_norms(p) > ctx.psd_tol
        w = np.linalg.eigvalsh(p.inconclusive)
        herm, hermitian = np.zeros(n + 1), True
        min_eig = np.append(np.zeros(n), w[0])
        ranks = np.append(rank_one, np.count_nonzero(w > ctx.psd_tol)).astype(int)
        completeness = linalg.frobenius(p.vectors.T @ p.vectors.conj() + p.inconclusive - linalg._identity(n))
    else:
        ops = p.stack
        rows, weights = diagonal_pivot(ops[:n])
        norms, herm, defects, _, _, rank_one = _stack_pass(ops, rows, weights, ctx.psd_tol)
        rest = np.flatnonzero(~np.append(rank_one & (weights > ctx.psd_tol), False))
        # eigvalsh reads one triangle.  That moves no eigenvalue by more than the
        # Hermiticity residual, which the rule bounds by eq_tol * max(1, ||F||_F),
        # so only a stack that breaks the rule pays for symmetrizing what is eigensolved.
        hermitian = bool(np.all(linalg.hermitian_rule(herm, norms, ctx)))
        sub = ops[rest]
        if not hermitian:
            sub = (sub + sub.conj().transpose(0, 2, 1)) / 2.0
        w = np.linalg.eigvalsh(sub)
        min_eig = 0.0 - defects  # 0.0 - d keeps an exact dyad's bound at +0.0
        min_eig[rest] = w[:, 0]
        ranks = np.ones(n + 1, dtype=int)
        ranks[rest] = np.count_nonzero(w > ctx.psd_tol, axis=1)
        completeness = linalg.frobenius(ops.sum(axis=0) - linalg._identity(n))
    return ValidationReport(
        hermiticity_residual=linalg._freeze(herm),
        min_eigenvalue=linalg._freeze(min_eig),
        rank=linalg._freeze(ranks),
        rank_one=linalg._freeze(rank_one),
        completeness_residual=float(completeness),
        valid=bool(hermitian and np.all(min_eig >= -ctx.psd_tol) and completeness <= ctx.eq_tol),
    )


def check_density_matrix(rho, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    m = linalg.require_square(rho, "density matrix")
    herm, hermitian = linalg.hermiticity(m, ctx)
    if not hermitian:
        raise InvalidDensityMatrix(f"density matrix is not Hermitian (residual {herm:.3e})")
    trace = float(np.trace(m).real)
    if abs(trace - 1.0) > ctx.eq_tol:
        raise InvalidDensityMatrix(f"density matrix trace is {trace!r}, expected 1")
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    if min_eig < -ctx.psd_tol:
        raise InvalidDensityMatrix(
            f"density matrix has eigenvalue {min_eig:.3e} below -psd_tol"
        )
    return m


def subspace_reduce(s: StateSet, ctx: ToleranceContext = DEFAULT_TOL) -> tuple[StateSet, np.ndarray]:
    """L states in C^N as a set in C^L, with the ``N x L`` isometry ``U`` that maps it back.

    Both read the one SVD ``A = U S V^dag``: the reduced states are ``U^dag A = S V^dag``,
    whose SVD is ``(I_L, s, V^dag)`` exactly, so ``A = U @ reduced.states``, the overlaps
    are kept, no second SVD is taken, and :func:`dual_set` and :func:`build_usd_povm` accept the set.

    Raises
    ------
    SingularStates
        When the states are linearly dependent within ``cond_max``.
    """
    u, sv, vh = s.svd
    return _state_set(linalg._freeze(sv[:, None] * vh), ctx, (linalg._identity(len(sv)), sv, vh)), u
