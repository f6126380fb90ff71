"""End-to-end discrimination workflow: ensembles, reports, sampling.

Analytic outcome probabilities come from traces against the POVM
operators and pass one probability rule before anything reads them;
Monte Carlo sampling draws exact multinomial counts from a
counter-based generator so runs are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .duality import PovmSet, StateSet, check_density_matrix
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
class StateEnsemble(linalg._Immutable):
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
class DiscriminationReport(linalg._Immutable):
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

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
            raise ParamOutOfRange(f"seed must be an integer in [0, 2**128), got {seed!r}", seed=seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass(frozen=True)
class OutcomeStats(linalg._Immutable):
    """Sampled outcome counts, one row of N+1 counts per prepared state."""

    counts: np.ndarray
    trials: int
    seed: int


def state_ensemble(states: StateSet, priors) -> StateEnsemble:
    """Validate priors against the state set and freeze the ensemble."""
    p = np.asarray(priors, dtype=float)
    if p.ndim != 1 or p.shape[0] != states.count:
        raise InvalidEnsemble(f"expected {states.count} priors, got shape {p.shape}",
                              priors=p.size, states=states.count)
    if not ((p >= 0.0) & np.isfinite(p)).all():
        raise InvalidEnsemble("priors must be finite and nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > PRIOR_TOL:
        raise InvalidEnsemble(f"priors sum to {total!r}, expected 1", total=total)
    return StateEnsemble(states=states, priors=linalg.frozen(p))


def density_matrix(e: StateEnsemble) -> np.ndarray:
    """Mixture density matrix ``sum_i P_i |alpha_i><alpha_i|``."""
    a = e.states.states
    rho = (a * e.priors) @ a.conj().T
    return (rho + rho.conj().T) / 2.0


def _probability_rule(probs: np.ndarray, totals: np.ndarray, ctx: ToleranceContext) -> np.ndarray:
    """The one probability rule.  Row ``i`` of ``probs`` holds ``<a_i|F_j|a_i>`` and
    ``totals[i] = <a_i|a_i>`` (``tr(rho F_j)`` and ``tr(rho)`` for a density matrix).
    Divided by its total, every row has entries at least ``-psd_tol`` and sums to 1
    within ``eq_tol``.  A valid POVM always meets it: ``<a|F_j|a> >= lambda_min(F_j) <a|a>``
    and, for ``E = sum_j F_j - I``, ``|<a|E|a>| <= ||E||_F <a|a>``.  Returns ``probs``
    clipped at zero; a break raises ``InvalidPovm`` naming the state, the outcome
    (or the row sum) and the number."""
    rel = probs / totals[:, None]
    off = np.abs(rel.sum(axis=1) - 1.0)
    if rel.min() >= -ctx.psd_tol and off.max() <= ctx.eq_tol:  # a NaN fails both
        return np.maximum(probs, 0.0)  # what np.clip(probs, 0.0, None) calls
    below = np.argwhere(~(rel >= -ctx.psd_tol))
    if below.size:
        i, j = below[0]
        raise InvalidPovm(f"state {i + 1}: outcome {j + 1} has probability {probs[i, j]:.3e} below -psd_tol",
                          state=int(i) + 1, outcome=int(j) + 1, probability=float(probs[i, j]))
    i = np.flatnonzero(~(off <= ctx.eq_tol))[0]
    total = float(probs[i].sum())
    raise InvalidPovm(f"state {i + 1}: outcome probabilities sum to {total!r}, not {float(totals[i])!r}",
                      state=int(i) + 1, probability_sum=total)


def _per_state_probabilities(e: StateEnsemble, p: PovmSet, ctx: ToleranceContext) -> np.ndarray:
    if e.dim != p.dim:
        raise DimensionMismatch(f"ensemble dimension {e.dim} does not match POVM dimension {p.dim}",
                                ensemble_dim=e.dim, povm_dim=p.dim)
    a, ops = e.states.states, p.stack
    n, count = a.shape
    bra = a.conj()
    if ops is None:  # |<u_j|a_i>|^2 and <a_i|F_{N+1}|a_i>
        probs = np.concatenate([np.abs(p.vectors.conj() @ a) ** 2,
                                (bra * (p.inconclusive @ a)).sum(axis=0, keepdims=True).real]).T
    else:
        # probs[i, j] = <alpha_i|F_j|alpha_i>: one (M N, N) @ (N, count) product, times the bras in place
        fa = (ops.reshape(-1, n) @ a).reshape(-1, n, count)
        probs = np.sum(np.multiply(bra, fa, out=fa), axis=1).real.T
    return _probability_rule(probs, (bra * a).real.sum(axis=0), ctx)


def usd_report(e: StateEnsemble, p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> DiscriminationReport:
    """Analytic discrimination report for an ensemble measured with a POVM.

    Raises ``DimensionMismatch`` unless there is one detection operator per
    state, and ``InvalidPovm`` when the outcome probabilities break
    :func:`_probability_rule` under ``ctx``, which a valid POVM never does.
    A factored POVM gives them as ``|<u_j|a_i>|^2`` and ``<a_i|F_{N+1}|a_i>``;
    a dense stack is read in one vectorized pass, with temporaries of about one stack.
    """
    if e.count != p.dim:
        raise DimensionMismatch(f"report needs one detection operator per state: {e.count} states, "
                                f"{p.dim} detection operators", states=e.count, detection_operators=p.dim)
    probs = _per_state_probabilities(e, p, ctx)
    n = e.count
    success = probs.diagonal().copy()
    errors = probs[:, :n].copy()
    errors.flat[:: n + 1] = 0.0  # the diagonal
    inconclusive = probs[:, n]
    weights = e.priors
    return DiscriminationReport(
        per_state_success=linalg._freeze(success),
        error_matrix=linalg._freeze(errors),
        inconclusive_per_state=linalg.frozen(inconclusive),
        total_success=float(weights @ success),
        total_error=float(weights @ errors.sum(axis=1)),
        total_inconclusive=float(weights @ inconclusive),
    )


def sample_outcomes(
    e: StateEnsemble, p: PovmSet, trials_per_state: int, rng: RandomSource,
    ctx: ToleranceContext = DEFAULT_TOL,
) -> OutcomeStats:
    """Draw exact multinomial outcome counts; deterministic per seed.

    Each prepared state's row of N+1 counts is one multinomial draw of
    ``trials_per_state`` trials over its outcome probabilities, all rows
    from one generator keyed with the seed.  The POVM is not validated:
    exactly what passes :func:`_probability_rule` is sampled, so a POVM that
    breaks validation only in directions no prepared state probes is sampled.

    Raises
    ------
    InvalidEnsemble
        When ``trials_per_state`` is not an integer (``bool`` included), or is
        negative or above ``2**63 - 1``, the largest ``int64`` count.
    InvalidPovm
        When the outcome probabilities break :func:`_probability_rule`.
    """
    trials = trials_per_state
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or not 0 <= trials < 2**63:
        raise InvalidEnsemble(f"trials_per_state must be an integer in [0, 2**63), got {trials!r}",
                              trials_per_state=trials)
    probs = _per_state_probabilities(e, p, ctx)
    counts = rng.generator().multinomial(trials, probs / probs.sum(axis=1, keepdims=True))
    return OutcomeStats(counts=linalg._freeze(counts), trials=trials, seed=rng.seed)


def outcome_probabilities(rho, p: PovmSet, ctx: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Outcome distribution ``p_i = tr(rho F_i)`` including the inconclusive slot.

    Raises ``InvalidDensityMatrix`` when ``rho`` is not a density matrix, and
    ``InvalidPovm`` when the distribution, one row, breaks :func:`_probability_rule`.
    """
    m = check_density_matrix(rho, ctx)
    if m.shape[0] != p.dim:
        raise DimensionMismatch(
            f"density matrix dimension {m.shape[0]} does not match POVM dimension {p.dim}"
        )
    if p.stack is None:  # <u_j|rho|u_j> and tr(rho F_{N+1})
        hits = np.sum((p.vectors.conj() @ m) * p.vectors, axis=1).real
        probs = np.append(hits, np.einsum("ij,ji", m, p.inconclusive).real)
    else:
        probs = np.einsum("ij,kji->k", m, p.stack).real
    return _probability_rule(probs[None], np.trace(m).real[None], ctx)[0]


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
