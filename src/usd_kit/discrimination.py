"""End-to-end discrimination workflow: ensembles, reports, sampling.

Analytic outcome probabilities come from traces against the POVM
operators; Monte Carlo sampling draws exact multinomial counts from a
counter-based generator so runs are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .duality import PovmSet, StateSet, check_density_matrix, validate_povm
from .errors import (
    DimensionMismatch,
    InvalidEnsemble,
    InvalidPovm,
    ParamOutOfRange,
    ZeroProbabilityBranch,
)
from .linalg import DEFAULT_TOL, ToleranceContext

# Priors are constructed, not measured; their budget is tighter than eq_tol.
PRIOR_TOL = 1e-12


@dataclass(frozen=True)
class StateEnsemble:
    """States with preparation probabilities ``priors`` (nonnegative, sum 1)."""

    states: StateSet
    priors: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.dim

    @property
    def count(self) -> int:
        return self.states.count


@dataclass(frozen=True)
class DiscriminationReport:
    """Per-state and prior-weighted discrimination statistics.

    ``error_matrix[i, j]`` is the probability of detecting j when state i
    was prepared (zero on the diagonal); success, errors and the
    inconclusive probability sum to one for every prepared state.
    """

    per_state_success: np.ndarray
    error_matrix: np.ndarray
    inconclusive_per_state: np.ndarray
    total_success: float
    total_error: float
    total_inconclusive: float


@dataclass(frozen=True)
class RandomSource:
    """Seeded counter-based generator (numpy Philox 4x64).

    The seed is the Philox key, so the same seed always reproduces the
    same stream and distinct seeds never share one; quality targets
    reproducibility, not cryptography.  ``seed`` must be an integer in
    ``[0, 2**128)``, the keys Philox takes (``ParamOutOfRange`` otherwise).
    """

    seed: int
    algorithm: str = field(default="philox4x64")

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
            raise ParamOutOfRange(f"seed must be an integer in [0, 2**128), got {seed!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass(frozen=True)
class OutcomeStats:
    """Sampled outcome counts, one row of N+1 counts per prepared state."""

    counts: np.ndarray
    trials: int
    seed: int


def state_ensemble(states: StateSet, priors, ctx: ToleranceContext = DEFAULT_TOL) -> StateEnsemble:
    """Validate priors against the state set and freeze the ensemble."""
    p = np.asarray(priors, dtype=float)
    if p.ndim != 1 or p.shape[0] != states.count:
        raise InvalidEnsemble(
            f"expected {states.count} priors, got shape {p.shape}"
        )
    if not np.all((p >= 0.0) & np.isfinite(p)):
        raise InvalidEnsemble("priors must be finite and nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > PRIOR_TOL:
        raise InvalidEnsemble(f"priors sum to {total!r}, expected 1")
    return StateEnsemble(states=states, priors=linalg.frozen(p))


def density_matrix(e: StateEnsemble) -> np.ndarray:
    """Mixture density matrix ``sum_i P_i |alpha_i><alpha_i|``."""
    a = e.states.states
    rho = (a * e.priors) @ a.conj().T
    return (rho + rho.conj().T) / 2.0


def _per_state_probabilities(e: StateEnsemble, p: PovmSet, ctx: ToleranceContext) -> np.ndarray:
    if e.dim != p.dim:
        raise DimensionMismatch(
            f"ensemble dimension {e.dim} does not match POVM dimension {p.dim}"
        )
    a = e.states.states
    # probs[i, j] = <alpha_i|F_j|alpha_i>, one operator at a time: a stack-wide
    # product would allocate a temporary as large as the POVM itself.
    probs = np.array([np.sum(a.conj() * (f @ a), axis=0).real for f in p.operators]).T
    return np.clip(probs, 0.0, None)


def usd_report(e: StateEnsemble, p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> DiscriminationReport:
    """Analytic discrimination report for an ensemble measured with a POVM."""
    if e.count != p.dim:
        raise DimensionMismatch(
            f"report needs one detection operator per state: {e.count} states, "
            f"{p.dim} detection operators"
        )
    probs = _per_state_probabilities(e, p, ctx)
    n = e.count
    success = np.diagonal(probs).copy()
    errors = probs[:, :n].copy()
    np.fill_diagonal(errors, 0.0)
    inconclusive = probs[:, n]
    weights = np.asarray(e.priors)
    return DiscriminationReport(
        per_state_success=linalg.frozen(success),
        error_matrix=linalg.frozen(errors),
        inconclusive_per_state=linalg.frozen(inconclusive),
        total_success=float(weights @ success),
        total_error=float(weights @ errors.sum(axis=1)),
        total_inconclusive=float(weights @ inconclusive),
    )


def sample_outcomes(
    e: StateEnsemble,
    p: PovmSet,
    trials_per_state: int,
    rng: RandomSource,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> OutcomeStats:
    """Draw exact multinomial outcome counts; deterministic per seed.

    Each prepared state's row of N+1 counts is one multinomial draw of
    ``trials_per_state`` trials over its outcome probabilities, all rows
    from one generator keyed with the seed.

    Raises
    ------
    InvalidEnsemble
        When ``trials_per_state`` is not an integer (``bool`` included), or is
        negative or above ``2**63 - 1``, the largest ``int64`` count.
    InvalidPovm
        When the POVM fails validation (Hermiticity, positivity or
        completeness).
    """
    trials = trials_per_state
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or not 0 <= trials < 2**63:
        raise InvalidEnsemble(f"trials_per_state must be an integer in [0, 2**63), got {trials!r}")
    report = validate_povm(p, ctx)
    if not report.valid:
        raise InvalidPovm(
            "POVM failed validation",
            completeness_residual=report.completeness_residual,
        )
    probs = _per_state_probabilities(e, p, ctx)
    counts = rng.generator().multinomial(trials, probs / probs.sum(axis=1, keepdims=True))
    return OutcomeStats(counts=linalg.frozen(counts), trials=trials, seed=rng.seed)


def post_measurement_state(rho, f, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """State conditioned on an outcome: ``M rho M^dag`` renormalized, ``M = sqrt(F)``.

    Raises
    ------
    ZeroProbabilityBranch
        When the outcome has vanishing probability on ``rho``.
    """
    m = check_density_matrix(rho, ctx)
    root = linalg.psd_sqrt(f, ctx)
    if root.shape != m.shape:
        raise DimensionMismatch(
            f"operator shape {root.shape} does not match state shape {m.shape}"
        )
    updated = root @ m @ root.conj().T
    weight = float(np.trace(updated).real)
    if weight <= ctx.psd_tol:
        raise ZeroProbabilityBranch(
            f"outcome probability {weight:.3e} is too small to condition on",
            probability=weight,
        )
    updated /= weight
    return (updated + updated.conj().T) / 2.0
