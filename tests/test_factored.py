"""Built POVMs are factored: each call on one agrees with the same call on its
dense stack, and the built pipeline never forms that stack."""

import numpy as np
import pytest

from usd_kit import duality
from usd_kit.discrimination import (
    RandomSource,
    outcome_probabilities,
    sample_outcomes,
    state_ensemble,
    usd_report,
)
from usd_kit.duality import PovmSet, build_usd_povm, state_set, validate_povm
from usd_kit.equivalence import (
    computational_basis,
    inconclusive_rank,
    lossy_from_povm,
    make_lossy,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.linalg import DEFAULT_TOL

from helpers import random_complex, random_density, random_passive, random_unitary, record_calls

REPORT_TOL = 1e-12  # report probabilities, as in test_discrimination


def random_states(rng, n):
    m = random_complex(rng, n)
    return state_set(m / np.linalg.norm(m, axis=0))


def near_unitary_basis(rng, n):
    """A basis ``U (I + E)`` with ``||Q'Q - I||_F`` at about 0.8 ``eq_tol * n``,
    inside the unitarity rule but far from an exact unitary."""
    q = random_unitary(rng, n) * (1.0 + 0.4 * DEFAULT_TOL.eq_tol * np.sqrt(n))
    basis = projective_basis(q)
    assert np.linalg.norm(q.conj().T @ q - np.eye(n)) > 0.5 * DEFAULT_TOL.eq_tol * n
    return basis


def flat(r):
    return np.concatenate([r.per_state_success, r.error_matrix.ravel(), r.inconclusive_per_state,
                           [r.total_success, r.total_error, r.total_inconclusive]])


@pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
def test_factored_and_dense_povms_agree(n):
    rng = np.random.default_rng([n, 19])
    s = random_states(rng, n)
    e = state_ensemble(s, np.full(n, 1.0 / n))
    rho = random_density(rng, n)
    basis = near_unitary_basis(rng, n)
    built = [(build_usd_povm(s), computational_basis(n)),
             (povm_from_lossy(make_lossy(random_passive(rng, n)), basis), basis),
             # feasible explicit weights: lossy_from_povm takes this POVM's svd on first read
             (build_usd_povm(s, rng.uniform(0.3, 1.0, n) * s.sv[-1] ** 2), computational_basis(n))]
    for p, b in built:
        assert p.stack is None
        q = PovmSet(p.dim, p.operators)
        mine, dense = validate_povm(p), validate_povm(q)
        assert mine.valid is dense.valid is True
        assert np.array_equal(mine.rank_one, dense.rank_one) and mine.rank_one.all()
        assert np.array_equal(mine.rank, dense.rank)
        assert np.max(np.abs(mine.hermiticity_residual - dense.hermiticity_residual)) <= DEFAULT_TOL.eq_tol
        assert np.max(np.abs(mine.min_eigenvalue - dense.min_eigenvalue)) <= DEFAULT_TOL.eq_tol
        assert abs(mine.completeness_residual - dense.completeness_residual) <= DEFAULT_TOL.eq_tol
        assert np.max(np.abs(flat(usd_report(e, p)) - flat(usd_report(e, q)))) <= REPORT_TOL
        assert np.max(np.abs(outcome_probabilities(rho, p) - outcome_probabilities(rho, q))) <= REPORT_TOL
        k, k_dense = lossy_from_povm(p, b), lossy_from_povm(q, b)
        assert np.linalg.norm(k.k - k_dense.k) <= DEFAULT_TOL.eq_tol
        assert k.passive is k_dense.passive is True
        assert np.linalg.norm((k.svd[0] * k.sv) @ k.svd[2] - k.k) <= DEFAULT_TOL.eq_tol  # from p.svd if factored
        assert inconclusive_rank(p) == inconclusive_rank(q)


def test_built_pipeline_never_forms_the_operator_stack(monkeypatch):
    n = 8
    stacks = record_calls(monkeypatch, "_dyad_stack", duality)
    passes = record_calls(monkeypatch, "_stack_pass", duality)
    s = random_states(np.random.default_rng(23), n)
    basis = computational_basis(n)
    p = build_usd_povm(s)
    assert validate_povm(p).valid
    rebuilt = povm_from_lossy(lossy_from_povm(p, basis), basis)
    e = state_ensemble(s, np.full(n, 1.0 / n))
    usd_report(e, rebuilt)
    sample_outcomes(e, rebuilt, 100, RandomSource(seed=1))
    assert stacks == [] and passes == []
    assert rebuilt.operators.shape == (n + 1, n, n)  # the view, built on access
    assert len(stacks) == 1
