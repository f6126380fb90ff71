import numpy as np
import pytest

from usd_kit.duality import (
    StateSet,
    build_usd_povm,
    check_density_matrix,
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

from helpers import fig1_states, random_complex, random_density, random_state_set


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
    with pytest.raises(SingularStates) as err:
        state_set(np.column_stack([column, column]))
    assert err.value.context["condition_number"] > DEFAULT_TOL.cond_max


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_explicit_scaling_must_be_finite(bad):
    with pytest.raises(ParamOutOfRange):
        build_usd_povm(state_set(fig1_states()), strategy=[bad, 0.1])


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


# -- Hermiticity rule: ||X - X^dag||_F <= eq_tol * max(1, ||X||_F) ----------------

def anti_hermitian(n, residual):
    """``i t S`` for a real symmetric, zero-diagonal, unit-norm ``S``: traceless,
    with Hermiticity residual ``residual``."""
    s = np.ones((n, n)) - np.eye(n)
    return 0.5j * residual * s / np.linalg.norm(s)


@pytest.mark.parametrize("residual, valid", [(3e-10, True), (9e-10, False)])
def test_validate_scales_the_hermiticity_bound_with_the_operator(residual, valid):
    n = 64
    m = random_complex(np.random.default_rng(3), n)
    ops = np.array(build_usd_povm(state_set(m / np.linalg.norm(m, axis=0))).operators)
    assert 7.8 < np.linalg.norm(ops[-1]) < 7.9  # the bound on the inconclusive operator is 7.85e-10
    e = anti_hermitian(n, residual)
    ops[-1] += e
    ops[:n] -= e / n  # completeness holds; each detection operator's residual is residual / 64
    report = validate_povm(PovmSet(dim=n, operators=ops))
    assert abs(report.operators[-1].hermiticity_residual - residual) <= 1e-3 * residual
    assert report.completeness_residual <= DEFAULT_TOL.eq_tol
    assert min(d.min_eigenvalue for d in report.operators) >= -DEFAULT_TOL.psd_tol
    assert report.valid is valid


@pytest.mark.parametrize("residual, valid", [(0.5e-10, True), (2e-10, False)])
def test_density_matrix_hermiticity_bound_is_eq_tol(residual, valid):
    rho = random_density(np.random.default_rng(89), 3) + anti_hermitian(3, residual)
    assert np.linalg.norm(rho) <= 1.0  # so the rule's scale max(1, ||rho||_F) is 1
    if valid:
        check_density_matrix(rho)
    else:
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(rho)


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
