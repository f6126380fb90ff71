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

# The stack passes walk an (M, N, N) operator stack in blocks of as many
# N x N complex operators as fit in 256 KiB: the whole stack up to N = 25,
# 4 operators at N = 64.  No temporary of a pass is larger than one block.
BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class StateSet:
    """Unit-norm state vectors stored as the columns of ``states``.

    ``dim`` is the dimension of the carrier space; the number of columns
    may be smaller (see :func:`subspace_reduce`) but never larger.  One thin
    SVD ``svd = (U, s, V^dag)``, ``sv = s``, feeds the condition check, duals and weight.
    """

    dim: int
    states: np.ndarray

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return linalg.thin_svd(self.states)

    @property
    def sv(self) -> np.ndarray:
        return self.svd[1]

    @property
    def count(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class PovmSet:
    """Ordered positive operators ``F_1 .. F_{N+1}`` summing to identity.

    ``operators`` is one read-only complex ``(N+1, N, N)`` array, stacked
    from any sequence of N+1 ``N x N`` matrices with ``N >= 1``
    (``DimensionMismatch`` otherwise) and finite entries (``InvalidMatrix``
    otherwise); a read-only complex array is kept, not copied.  The first
    N operators are the rank-one detection operators; the last one
    collects the inconclusive outcome.
    """

    dim: int
    operators: np.ndarray

    def __post_init__(self):
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:  # a ragged sequence of matrices
            ops = None
        if self.dim < 1:
            raise DimensionMismatch(f"POVM dimension must be at least 1, got {self.dim}")
        if ops is None or ops.shape != (self.dim + 1, self.dim, self.dim):
            raise DimensionMismatch(f"expected {self.dim + 1} operators of size {self.dim}x{self.dim}")
        if not np.isfinite(ops).all():
            raise InvalidMatrix("POVM operators contain NaN or Inf entries")
        object.__setattr__(self, "operators", linalg.frozen(ops) if ops.flags.writeable else ops)

    @property
    def inconclusive(self) -> np.ndarray:
        return self.operators[-1]


@dataclass(frozen=True)
class ValidationReport:
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
    """Validate and freeze a matrix of state columns.

    Raises
    ------
    InvalidStateSet
        If any column norm deviates from 1 by more than ``eq_tol``.
    SingularStates
        If the columns are linearly dependent within ``cond_max``.
    """
    m = linalg.as_matrix(states, "states")
    dim, count = m.shape
    if count == 0 or count > dim:
        raise InvalidStateSet(
            f"need between 1 and {dim} states in dimension {dim}, got {count}"
        )
    norms = np.linalg.norm(m, axis=0)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > ctx.eq_tol:
        raise InvalidStateSet(
            f"state norms deviate from 1 by {worst:.3e} (eq_tol {ctx.eq_tol:.1e})",
            worst_norm_deviation=worst,
        )
    s = StateSet(dim=dim, states=linalg.frozen(m))
    cond = linalg.sv_condition(s.sv)
    if cond > ctx.cond_max:
        raise SingularStates("states are linearly dependent within tolerance", condition_number=cond)
    return s


def dual_set(s: StateSet, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Dual vectors of a complete state set as the columns of the read-only
    ``(N, N)`` matrix ``D = A^{-dag} = U S^{-1} V^dag``.

    Column ``i`` pairs to one with state ``i`` and to zero with every other
    state; the duals are unnormalized, and the POVM scaling weights absorb
    that freedom.  Requires as many states as dimensions; with fewer states
    the duals are not uniquely defined, so rotate into a subspace first with
    :func:`subspace_reduce`.
    """
    if s.count != s.dim:
        raise DimensionMismatch(
            f"duals need {s.dim} states in dimension {s.dim}, got {s.count}; "
            "apply subspace_reduce first"
        )
    u, sv, vh = s.svd
    linalg.check_invertible(sv, ctx)
    return linalg.frozen((u / sv) @ vh)


def rank_one_povm(ops: np.ndarray, rows: np.ndarray, weights: np.ndarray | None = None) -> PovmSet:
    """Fill the empty ``(N+1, N, N)`` stack ``ops`` with ``F_i = w_i |v_i><v_i|``
    for the rows ``v_i`` of ``rows`` (``w_i = 1`` without ``weights``) and
    the completion ``I - sum_i F_i``; freeze it and wrap it.

    Callers allocate ``ops`` before their own temporaries, which would
    otherwise split the heap block a freed POVM of the same size left, so
    that a pipeline of N=64 POVMs peaks about one stack higher in RSS.
    """
    n = rows.shape[1]
    np.multiply(rows[:, :, None], rows.conj()[:, None, :], out=ops[:n])
    if weights is not None:
        ops[:n] *= weights[:, None, None]
    completion = np.eye(n) - ops[:n].sum(axis=0)
    ops[n] = (completion + completion.conj().T) / 2.0
    ops.setflags(write=False)
    return PovmSet(dim=n, operators=ops)


def build_usd_povm(s: StateSet, weights=None, ctx: ToleranceContext = DEFAULT_TOL) -> PovmSet:
    """Construct the USD POVM ``F_i = lambda_i |d_i><d_i|`` for a state set.

    ``weights`` is a sequence of N positive weights ``lambda_i``.  Without
    it every ``lambda_i`` is the largest shared weight that keeps the
    inconclusive operator positive, in closed form: from one SVD
    ``A = U S V^dag``, the duals give ``I - lambda D D^dag = U (I - lambda S^{-2}) U^dag``,
    positive exactly when ``lambda <= sigma_min(A)^2`` and, at that weight,
    to round-off below ``cond_max``.

    Raises
    ------
    InfeasibleScaling
        If explicit weights push the inconclusive operator indefinite.  A
        weight with ``lambda_i ||d_i||^2 > 1 + psd_tol`` is rejected before
        the stack is built: ``<d_i| (I - sum_j lambda_j |d_j><d_j|) |d_i> >= 0``
        needs ``lambda_i ||d_i||^2 <= 1``, and such a weight could overflow.
    """
    n = s.dim
    ops = np.empty((n + 1, n, n), dtype=complex)
    duals = dual_set(s, ctx)
    if weights is None:
        lambdas = np.full(n, s.sv[-1] ** 2)
    else:
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
    p = rank_one_povm(ops, duals.T, lambdas)
    if weights is not None:
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


def _blocks(ops: np.ndarray) -> list[slice]:
    """Slices of the stack ``ops``, each as many operators as fit in ``BLOCK_BYTES``."""
    m, n = ops.shape[:2]
    step = max(1, BLOCK_BYTES // (16 * n * n))
    return [slice(b, b + step) for b in range(0, m, step)]


def _norms(x: np.ndarray) -> np.ndarray:
    """``||x_k||_F`` of each matrix of the C-ordered complex block ``x``, bit
    for bit ``np.linalg.norm``: the same strided dot products ``re.re + im.im``."""
    v = x.reshape(len(x), 1, -1)
    re, im = v.real, v.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def _stack_pass(ops: np.ndarray, rows: np.ndarray, weights: np.ndarray, psd_tol: float):
    """One pass over the ``(M, N, N)`` stack ``ops``, block by block (:func:`_blocks`).

    Returns, for each operator ``F_k``, ``||F_k||_F``, the Hermiticity
    residual ``||F_k - F_k^dag||_F`` and the pivot defect
    ``d_k = ||F_k - r_k^dag r_k / w_k||_F``, then, for the first ``len(rows)``
    operators, the :func:`rank_one_rule` verdicts under ``b_k = psd_tol * min(1, ||F_k||_F)``:
    nonzero, ``||F_k||_F > psd_tol``; aligned, ``w_k > b_k``; and rank one,
    nonzero and aligned with ``d_k <= b_k``.  The defect is formed only where
    the pivot is aligned; it is ``inf`` elsewhere, and no other ``w_k`` is divided by.
    """
    norms, herm, defects = np.empty(len(ops)), np.empty(len(ops)), np.full(len(ops), np.inf)
    bounds = np.empty(len(weights))
    for s in _blocks(ops):
        x = ops[s]
        norms[s] = _norms(x)
        t = x.transpose(0, 2, 1).copy()
        herm[s] = _norms(np.subtract(x, np.conjugate(t, out=t), out=t))
        w = weights[s]  # shorter than the block where the pivoted operators end
        bounds[s] = psd_tol * np.minimum(1.0, norms[s][: len(w)])
        k = np.flatnonzero(w > bounds[s])
        if k.size:
            r = rows[s][k]
            d = r.conj()[:, :, None] * (r / w[k, None])[:, None, :]
            defects[k + s.start] = _norms(np.subtract(x if k.size == len(x) else x[k], d, out=d))
    nonzero, aligned = norms[: len(bounds)] > psd_tol, weights > bounds
    return norms, herm, defects, nonzero, aligned, nonzero & aligned & (defects[: len(bounds)] <= bounds)


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
    rank-two operator never passes.  Norms and defects come from one pass over
    the stack in blocks of at most ``BLOCK_BYTES`` (256 KiB), so no temporary
    is larger than one block.
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
    one pass over the stack in blocks of at most ``BLOCK_BYTES`` (256 KiB).
    The inconclusive operator and every uncertified operator share one
    ``eigvalsh`` call and report exact eigenvalue diagnostics.
    """
    ops, n = p.operators, p.dim
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
    completeness = linalg.frobenius(ops.sum(axis=0) - np.eye(n))
    for a in (herm, min_eig, ranks, rank_one):  # fresh arrays, frozen in place
        a.setflags(write=False)
    return ValidationReport(
        hermiticity_residual=herm,
        min_eigenvalue=min_eig,
        rank=ranks,
        rank_one=rank_one,
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


def subspace_reduce(
    s: StateSet, ctx: ToleranceContext = DEFAULT_TOL
) -> tuple[StateSet, np.ndarray]:
    """Rotate L <= dim states into the leading L coordinates.

    Returns the rotated state set together with the unitary rotation that
    was applied: the adjoint of :func:`linalg.orthonormal_frame` of the
    states.  Overlaps are preserved exactly (the rotation is unitary) and
    components beyond coordinate L vanish within ``eq_tol``.

    Raises
    ------
    RankDeficient
        When the states are not linearly independent.
    """
    rotation = linalg.orthonormal_frame(s.states, ctx).conj().T
    rotated = rotation @ s.states
    reduced = StateSet(dim=s.dim, states=linalg.frozen(rotated))
    return reduced, linalg.frozen(rotation)
