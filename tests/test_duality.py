import numpy as np
import pytest

from usd_kit.duality import (
    StateSet,
    build_usd_povm,
    dual_set,
    outcome_probabilities,
    state_set,
    subspace_reduce,
    validate_povm,
)
from usd_kit.duality import PovmSet
from usd_kit.errors import (
    DimensionMismatch,
    InfeasibleScaling,
    InvalidDensityMatrix,
    InvalidStateSet,
    ParamOutOfRange,
    RankDeficient,
    SingularStates,
)
from usd_kit.linalg import DEFAULT_TOL

from helpers import fig1_states, random_density, random_state_set


def frob(a):
    return np.linalg.norm(a)


def fig1_povm_operators(gamma=0.5):
    """Hand arithmetic: F_i = 0.5 [[1, +-g],[+-g, g^2]] / (norm scaling), F_3 diagonal."""
    f1 = 0.5 * np.array([[1.0, 0.5], [0.5, 0.25]])
    f2 = 0.5 * np.array([[1.0, -0.5], [-0.5, 0.25]])
    f3 = np.diag([0.0, 0.75])
    return f1, f2, f3


# -- state_set validation ------------------------------------------------------

def test_state_set_rejects_unnormalized():
    with pytest.raises(InvalidStateSet):
        state_set(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_state_set_rejects_dependent_columns():
    column = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(SingularStates):
        state_set(np.column_stack([column, column]))


# -- dual_set ---------------------------------------------------------------

def test_dual_of_orthonormal_basis_is_itself():
    s = state_set(np.eye(2))
    d = dual_set(s)
    assert frob(np.asarray(d.duals) - np.eye(2)) < 1e-14


def test_dual_two_vectors_matches_inverse_rows():
    s = state_set(np.column_stack([[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)]))
    d = np.asarray(dual_set(s).duals)
    expected = np.column_stack([[1.0, -1.0], [0.0, np.sqrt(2.0)]]).conj()
    assert frob(d - expected) < 1e-12


def test_dual_fig1_pairing():
    s = state_set(fig1_states())
    d = np.asarray(dual_set(s).duals)
    pairing = d.conj().T @ np.asarray(s.states)
    assert frob(pairing - np.eye(2)) < 1e-12


def test_dual_requires_square_state_set():
    s = state_set(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatch):
        dual_set(s)


def test_dual_round_trip_recovers_rays():
    rng = np.random.default_rng(53)
    for dim in (2, 3, 5):
        s = random_state_set(rng, dim)
        d = np.asarray(dual_set(s).duals)
        renormalized = state_set(d / np.linalg.norm(d, axis=0))
        back = np.asarray(dual_set(renormalized).duals)
        for i in range(dim):
            inner = abs(back[:, i].conj() @ s.states[:, i])
            assert abs(inner - np.linalg.norm(back[:, i])) < 1e-10


# -- build_usd_povm ------------------------------------------------------------

def test_uniform_max_on_orthonormal_states_is_projective():
    s = state_set(np.eye(3))
    p = build_usd_povm(s)
    assert abs(p.scaling[0] - 1.0) < 1e-9
    for i in range(3):
        projector = np.zeros((3, 3))
        projector[i, i] = 1.0
        assert frob(np.asarray(p.operators[i]) - projector) < 1e-9
    assert frob(np.asarray(p.operators[3])) < 1e-9


def test_uniform_max_fig1_matches_hand_arithmetic():
    p = build_usd_povm(state_set(fig1_states()))
    f1, f2, f3 = fig1_povm_operators()
    assert abs(p.scaling[0] - 0.4) < 1e-10
    assert frob(np.asarray(p.operators[0]) - f1) < 1e-10
    assert frob(np.asarray(p.operators[1]) - f2) < 1e-10
    assert frob(np.asarray(p.operators[2]) - f3) < 1e-10


def test_explicit_scaling_too_large_is_infeasible():
    with pytest.raises(InfeasibleScaling):
        build_usd_povm(state_set(fig1_states()), strategy=[1.0, 1.0])


def test_explicit_scaling_must_be_positive():
    with pytest.raises(ParamOutOfRange):
        build_usd_povm(state_set(fig1_states()), strategy=[0.4, 0.0])


def test_unknown_strategy_rejected():
    with pytest.raises(ParamOutOfRange):
        build_usd_povm(state_set(fig1_states()), strategy="optimal")


def test_uniform_max_hits_feasibility_boundary():
    rng = np.random.default_rng(59)
    for dim in (2, 3, 4):
        p = build_usd_povm(random_state_set(rng, dim))
        min_eig = np.linalg.eigvalsh(np.asarray(p.inconclusive)).min()
        assert -DEFAULT_TOL.psd_tol <= min_eig <= DEFAULT_TOL.psd_tol


# -- PovmSet storage --------------------------------------------------------------

def test_povm_operators_are_one_read_only_stack():
    ops = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    p = PovmSet(dim=2, operators=ops)
    assert isinstance(p.operators, np.ndarray)
    assert p.operators.shape == (3, 2, 2) and p.operators.dtype == complex
    assert not p.operators.flags.writeable
    built = build_usd_povm(state_set(fig1_states()))
    assert built.operators.shape == (3, 2, 2) and not built.operators.flags.writeable


@pytest.mark.parametrize(
    "ops",
    [
        (np.eye(2), np.zeros((2, 2))),  # one operator short
        (np.eye(2), np.zeros((2, 2)), np.zeros((3, 3))),  # ragged
    ],
)
def test_povm_rejects_operators_of_the_wrong_shape(ops):
    with pytest.raises(DimensionMismatch):
        PovmSet(dim=2, operators=ops)


# -- validate_povm ---------------------------------------------------------------

def test_validate_projective_povm():
    ops = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    report = validate_povm(PovmSet(dim=2, operators=ops))
    assert report.valid
    assert report.completeness_residual == 0.0


def test_validate_fig1_povm_rank_structure():
    p = build_usd_povm(state_set(fig1_states()))
    report = validate_povm(p)
    assert report.valid
    assert [d.rank for d in report.operators] == [1, 1, 1]


def test_validate_detects_broken_completeness():
    f1, f2, f3 = fig1_povm_operators()
    report = validate_povm(PovmSet(dim=2, operators=(f1, 1.5 * f2, f3)))
    assert not report.valid
    assert report.completeness_residual > 0.1


# -- outcome_probabilities ---------------------------------------------------------

def test_probabilities_maximally_mixed_projective():
    ops = tuple(np.diag([1.0 if i == j else 0.0 for j in range(3)]) for i in range(3))
    p = PovmSet(dim=3, operators=ops + (np.zeros((3, 3)),))
    probs = outcome_probabilities(np.eye(3) / 3.0, p)
    assert np.allclose(probs[:3], 1.0 / 3.0, atol=1e-12)
    assert probs[3] == 0.0


def test_probabilities_fig1_pure_state():
    p = build_usd_povm(state_set(fig1_states()))
    alpha = fig1_states()[:, 0]
    probs = outcome_probabilities(np.outer(alpha, alpha.conj()), p)
    assert np.allclose(probs, [0.4, 0.0, 0.6], atol=1e-10)


def test_probabilities_fig1_equal_mixture():
    p = build_usd_povm(state_set(fig1_states()))
    states = fig1_states()
    rho = 0.5 * (
        np.outer(states[:, 0], states[:, 0].conj())
        + np.outer(states[:, 1], states[:, 1].conj())
    )
    probs = outcome_probabilities(rho, p)
    assert np.allclose(probs, [0.2, 0.2, 0.6], atol=1e-10)


def test_probabilities_reject_bad_density():
    p = build_usd_povm(state_set(fig1_states()))
    with pytest.raises(InvalidDensityMatrix):
        outcome_probabilities(2.0 * np.eye(2), p)


def test_probability_conservation_random_densities():
    rng = np.random.default_rng(61)
    p = build_usd_povm(random_state_set(rng, 4))
    for _ in range(100):
        probs = outcome_probabilities(random_density(rng, 4), p)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_zero_error_law():
    rng = np.random.default_rng(67)
    for dim in (2, 3, 5):
        s = random_state_set(rng, dim)
        p = build_usd_povm(s)
        for j in range(dim):
            alpha = s.column(j)
            for i in range(dim):
                if i != j:
                    hit = (alpha.conj() @ np.asarray(p.operators[i]) @ alpha).real
                    assert abs(hit) < 1e-10


# -- subspace_reduce -----------------------------------------------------------------

def test_subspace_reduce_full_set_lands_on_computational_frame():
    rng = np.random.default_rng(71)
    s = random_state_set(rng, 4)
    reduced, rotation = subspace_reduce(s)
    assert frob(rotation @ rotation.conj().T - np.eye(4)) < 1e-12
    assert np.allclose(np.linalg.norm(reduced.states, axis=0), 1.0, atol=1e-12)


def test_subspace_reduce_two_states_in_three_dims():
    states = np.column_stack(
        [[1.0, 0.0, 0.0], np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)]
    )
    s = state_set(states)
    reduced, rotation = subspace_reduce(s)
    out = np.asarray(reduced.states)
    assert np.max(np.abs(out[2, :])) < 1e-12
    before = states[:, 0].conj() @ states[:, 1]
    after = out[:, 0].conj() @ out[:, 1]
    assert abs(before - after) < 1e-12


def test_subspace_reduce_preserves_overlaps():
    rng = np.random.default_rng(73)
    s = random_state_set(rng, 5, count=3)
    reduced, _ = subspace_reduce(s)
    gram_in = np.asarray(s.states).conj().T @ np.asarray(s.states)
    gram_out = np.asarray(reduced.states).conj().T @ np.asarray(reduced.states)
    assert frob(gram_in - gram_out) < 1e-10
    assert np.max(np.abs(np.asarray(reduced.states)[3:, :])) < 1e-10


def test_subspace_reduce_dependent_states():
    column = np.array([1.0, 0.0, 0.0])
    # bypass the factory to exercise the operation's own rank check
    s = StateSet(dim=3, states=np.column_stack([column, column, column]).astype(complex))
    with pytest.raises(RankDeficient):
        subspace_reduce(s)
