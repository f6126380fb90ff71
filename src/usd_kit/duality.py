"""Bi-orthogonal dual sets and USD POVM construction over an N-level space.

Given N linearly independent unit states, the dual vectors are the
conjugated rows of the inverse of the state matrix; pairing each dual
with a positive weight yields the rank-one detection operators of an
unambiguous discrimination POVM, completed by an inconclusive operator.
The largest uniform weight has the closed form ``sigma_min(A)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InfeasibleScaling,
    InvalidDensityMatrix,
    InvalidStateSet,
    ParamOutOfRange,
    RankDeficient,
    SingularStates,
)
from .linalg import DEFAULT_TOL, ToleranceContext


@dataclass(frozen=True)
class StateSet:
    """Unit-norm state vectors stored as the columns of ``states``.

    ``dim`` is the dimension of the carrier space; the number of columns
    may be smaller (see :func:`subspace_reduce`) but never larger.
    """

    dim: int
    states: np.ndarray

    @property
    def count(self) -> int:
        return self.states.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.states[:, i]


@dataclass(frozen=True)
class DualSet:
    """Dual (transverse) vectors as columns; unnormalized by construction.

    Column ``i`` pairs to one with state ``i`` and to zero with every
    other state.  The normalization freedom of dual vectors is absorbed
    into the POVM scaling weights.
    """

    dim: int
    duals: np.ndarray


@dataclass(frozen=True)
class PovmSet:
    """Ordered positive operators ``F_1 .. F_{N+1}`` summing to identity.

    ``operators`` is one read-only complex ``(N+1, N, N)`` array, stacked
    from any sequence of N+1 ``N x N`` matrices (``DimensionMismatch``
    otherwise; a read-only complex array is kept, not copied).  The first
    N operators are the rank-one detection operators; the last one
    collects the inconclusive outcome.  ``scaling`` holds the weights
    applied to the dual dyads when they are known (construction from an
    explicit state set); it is ``None`` for POVMs obtained from a lossy
    evolution operator.
    """

    dim: int
    operators: np.ndarray
    scaling: np.ndarray | None = None

    def __post_init__(self):
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:  # a ragged sequence of matrices
            ops = None
        if ops is None or ops.shape != (self.dim + 1, self.dim, self.dim):
            raise DimensionMismatch(f"expected {self.dim + 1} operators of size {self.dim}x{self.dim}")
        object.__setattr__(self, "operators", linalg.frozen(ops) if ops.flags.writeable else ops)

    @property
    def inconclusive(self) -> np.ndarray:
        return self.operators[-1]


@dataclass(frozen=True)
class OperatorDiagnostics:
    hermiticity_residual: float
    min_eigenvalue: float
    rank: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-operator diagnostics plus the completeness residual and verdict."""

    operators: tuple[OperatorDiagnostics, ...]
    completeness_residual: float
    valid: bool


ScalingStrategy = Union[str, Sequence[float]]


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
    cond = linalg.condition_number(m, ctx)
    if cond > ctx.cond_max:
        raise SingularStates("states are linearly dependent within tolerance", condition_number=cond)
    return StateSet(dim=dim, states=linalg.frozen(m))


def dual_set(s: StateSet, ctx: ToleranceContext = DEFAULT_TOL) -> DualSet:
    """Dual vectors of a complete state set: conjugated rows of ``A^{-1}``.

    Requires as many states as dimensions; with fewer states the duals
    are not uniquely defined, so rotate into a subspace first with
    :func:`subspace_reduce`.
    """
    if s.count != s.dim:
        raise DimensionMismatch(
            f"duals need {s.dim} states in dimension {s.dim}, got {s.count}; "
            "apply subspace_reduce first"
        )
    a_inv = linalg.inverse(s.states, ctx)
    return DualSet(dim=s.dim, duals=linalg.frozen(a_inv.conj().T))


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
    return PovmSet(dim=n, operators=ops, scaling=weights)


def build_usd_povm(
    s: StateSet,
    strategy: ScalingStrategy = "uniform-max",
    ctx: ToleranceContext = DEFAULT_TOL,
) -> PovmSet:
    """Construct the USD POVM ``F_i = lambda_i |d_i><d_i|`` for a state set.

    ``strategy`` is either the string ``"uniform-max"`` or an explicit
    sequence of N positive weights.  ``"uniform-max"`` takes the largest
    shared weight that keeps the inconclusive operator positive, in
    closed form: the duals ``D = A^{-dag}`` satisfy ``D D^dag = (A A^dag)^{-1}``,
    so ``I - lambda D D^dag >= 0`` exactly when
    ``lambda <= sigma_min(A)^2``.

    Raises
    ------
    InfeasibleScaling
        If explicit weights push the inconclusive operator indefinite.
    """
    n = s.dim
    ops = np.empty((n + 1, n, n), dtype=complex)
    duals = dual_set(s, ctx).duals
    if isinstance(strategy, str):
        if strategy != "uniform-max":
            raise ParamOutOfRange(f"unknown scaling strategy {strategy!r}")
        lambdas = np.full(n, linalg.singular_values(s.states, ctx)[-1] ** 2)
    else:
        lambdas = np.asarray(strategy, dtype=float)
        if lambdas.shape != (n,):
            raise DimensionMismatch(f"expected {n} scaling weights, got {lambdas.shape}")
        if not np.all((lambdas > 0.0) & np.isfinite(lambdas)):
            raise ParamOutOfRange("scaling weights must be finite and strictly positive")
    p = rank_one_povm(ops, duals.T, linalg.frozen(lambdas))
    if not isinstance(strategy, str):
        min_eig = float(np.linalg.eigvalsh(p.inconclusive)[0])
        if min_eig < -ctx.psd_tol:
            raise InfeasibleScaling(
                "inconclusive operator is indefinite for the supplied weights",
                min_eigenvalue=min_eig,
            )
    return p


def operator_rank(f, ctx: ToleranceContext = DEFAULT_TOL) -> int:
    """Numeric rank of a Hermitian operator: eigenvalues above ``psd_tol``."""
    w = linalg.hermitian_eigvals(f, ctx)
    return int(np.count_nonzero(w > ctx.psd_tol))


def rank_one_rule(f, rows: np.ndarray, weights: np.ndarray, ctx: ToleranceContext = DEFAULT_TOL):
    """Rank-one rule for operators ``F_k`` with pivots ``p_k``, given the rows
    ``r_k = p_k^dag F_k`` and weights ``w_k = Re(r_k p_k)``.

    Returns the norms ``||F_k||_F``, whether each pivot is aligned
    (``w_k > psd_tol * ||F_k||_F``) and whether each ``F_k`` passes: aligned,
    with defect ``||F_k - r_k^dag r_k / w_k||_F`` within that same bound.
    The defect is a Schur complement, so by Cauchy interlacing it bounds
    ``|lambda_2(F_k)|`` and ``-lambda_min(F_k)``: a rank-two operator never
    passes.  It is formed one operator at a time, with no stack temporary.
    """
    norms = np.array([linalg.frobenius(fk) for fk in f])
    bound = ctx.psd_tol * norms
    aligned = weights > bound  # divide by w_k only where aligned
    passed = np.array([ok and linalg.frobenius(fk - np.outer(r.conj(), r / w)) <= b
                       for fk, r, w, ok, b in zip(f, rows, weights, aligned, bound)])
    return norms, aligned, passed


def validate_povm(p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> ValidationReport:
    """Diagnostics for Hermiticity, positivity and completeness.

    Never raises; the boolean verdict is true when every operator meets the
    Hermiticity rule of :class:`ToleranceContext`, has smallest eigenvalue
    at least ``-psd_tol``, and the operators sum to identity within ``eq_tol``.
    """
    ops = p.operators
    herm, verdicts = zip(*(linalg.hermiticity(f, ctx) for f in ops))  # no stack temporary
    # eigvalsh reads one triangle.  That moves no eigenvalue by more than the
    # Hermiticity residual, which the rule bounds by eq_tol * max(1, ||F||_F),
    # so only a stack that breaks the rule pays for a symmetrized copy as
    # large as the POVM itself.
    hermitian = all(verdicts)
    sym = ops if hermitian else (ops + ops.conj().transpose(0, 2, 1)) / 2.0
    w = np.linalg.eigvalsh(sym)
    min_eig = w[:, 0]
    ranks = np.count_nonzero(w > ctx.psd_tol, axis=1)
    completeness = linalg.frobenius(ops.sum(axis=0) - np.eye(p.dim))
    return ValidationReport(
        operators=tuple(map(OperatorDiagnostics, herm, min_eig.tolist(), ranks.tolist())),
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


def outcome_probabilities(rho, p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Outcome distribution ``p_i = tr(rho F_i)`` including the inconclusive slot.

    Tiny negative values from round-off (above ``-psd_tol``) are clamped
    to zero; completeness of the POVM makes the entries sum to one.
    """
    m = check_density_matrix(rho, ctx)
    if m.shape[0] != p.dim:
        raise DimensionMismatch(
            f"density matrix dimension {m.shape[0]} does not match POVM dimension {p.dim}"
        )
    probs = np.einsum("ij,kji->k", m, p.operators).real
    if np.any(probs < -ctx.psd_tol):
        raise InvalidDensityMatrix(
            "negative outcome probability beyond psd_tol; POVM or state invalid",
            min_probability=float(probs.min()),
        )
    return np.clip(probs, 0.0, None)


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
