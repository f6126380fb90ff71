import numpy as np
import pytest

from usd_kit.duality import PovmSet, build_usd_povm, state_set, validate_povm
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    discriminable_states,
    dyadic_form,
    inconclusive_rank,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
    reduced_evolution,
)
from usd_kit.errors import (
    DegenerateBasisAlignment,
    DimensionMismatch,
    GammaTooSmall,
    NotHermitian,
    NotPassive,
    NotUnitary,
    ParamOutOfRange,
    RankMismatch,
    SingularMatrix,
)
from usd_kit.linalg import DEFAULT_TOL

from helpers import (
    fig1_k,
    fig1_states,
    fig2_propagator_closed_form,
    jordan_k,
    random_basis,
    random_complex,
    random_density,
    random_passive,
    random_state_set,
    record_calls,
)


def frob(a):
    return np.linalg.norm(a)


def povm_distance(p, q):
    return max(
        frob(np.asarray(a) - np.asarray(b)) for a, b in zip(p.operators, q.operators)
    )


# -- make_lossy / normalize_passive -------------------------------------------

def test_make_lossy_identity():
    le = make_lossy(np.eye(3))
    assert le.passive
    assert np.allclose(le.sv, 1.0, atol=1e-12)


def test_make_lossy_fig1():
    le = make_lossy(fig1_k())
    assert le.passive
    assert np.allclose(le.sv, [1.0, 0.5], atol=1e-12)


def test_make_lossy_jordan_not_passive():
    assert not make_lossy(jordan_k(0.9)).passive


def test_normalize_passive_boundary_input_unchanged():
    le = make_lossy(fig1_k())
    out = normalize_passive(le)
    assert frob(np.asarray(out.k) - np.asarray(le.k)) < 1e-12


def test_normalize_passive_rescales_jordan():
    out = normalize_passive(make_lossy(jordan_k(0.9)))
    assert abs(out.sv[0] - 1.0) < 1e-12
    assert out.passive


def test_normalize_passive_gamma_too_small():
    with pytest.raises(GammaTooSmall):
        normalize_passive(make_lossy(np.eye(2)), gamma=0.5)
    with pytest.raises(GammaTooSmall):  # 1 / 1e-320 overflows; checked before K / gamma
        normalize_passive(make_lossy(np.eye(2)), gamma=1e-320)


def test_normalize_passive_gamma_follows_the_passiveness_rule():
    # s[0] / gamma = 1 + 1.8e-10 breaks s[0] <= 1 + eq_tol: no non-passive result
    with pytest.raises(GammaTooSmall):
        normalize_passive(make_lossy(0.5 * np.eye(2)), 0.5 - 0.9e-10)
    # s[0] / gamma = 1 + 5e-11 keeps it, although gamma is 5e-9 below s[0] = 100
    assert normalize_passive(make_lossy(100.0 * np.eye(2)), 100.0 - 5e-9).passive


@pytest.mark.parametrize("gamma", [np.inf, np.nan])
def test_normalize_passive_rejects_non_finite_gamma(gamma):
    with pytest.raises(ParamOutOfRange):
        normalize_passive(make_lossy(0.5 * np.eye(2)), gamma=gamma)


@pytest.mark.parametrize("factor", [None, 2.0])
def test_normalize_passive_takes_no_svd(monkeypatch, factor):
    le = make_lossy(random_complex(np.random.default_rng(7), 8))
    gamma = le.sv[0] if factor is None else factor * le.sv[0]
    calls = record_calls(monkeypatch, "svd")
    out = normalize_passive(le, None if factor is None else gamma)
    assert calls == []  # the SVD of K / gamma is (U, s / gamma, V^dag) of le.svd
    u, s, vh = out.svd
    assert u is le.svd[0] and vh is le.svd[2]
    assert np.array_equal(s, le.sv / gamma) and out.passive
    assert frob((u * s) @ vh - out.k) <= 1e-14 * frob(out.k)


# -- povm_from_lossy ------------------------------------------------------------

def test_povm_from_identity_is_projective():
    p = povm_from_lossy(make_lossy(np.eye(2)), computational_basis(2))
    assert frob(np.asarray(p.operators[0]) - np.diag([1.0, 0.0])) < 1e-14
    assert frob(np.asarray(p.operators[1]) - np.diag([0.0, 1.0])) < 1e-14
    assert frob(np.asarray(p.operators[2])) < 1e-14


def test_povm_from_fig1_matches_hand_arithmetic():
    p = povm_from_lossy(make_lossy(fig1_k()), computational_basis(2))
    assert frob(np.asarray(p.operators[0]) - np.array([[0.5, 0.25], [0.25, 0.125]])) < 1e-12
    assert frob(np.asarray(p.operators[1]) - np.array([[0.5, -0.25], [-0.25, 0.125]])) < 1e-12
    assert frob(np.asarray(p.operators[2]) - np.diag([0.0, 0.75])) < 1e-12


def test_povm_from_lossy_agrees_with_dual_construction():
    lossy_route = povm_from_lossy(make_lossy(fig1_k()), computational_basis(2))
    dual_route = build_usd_povm(state_set(fig1_states()))
    assert povm_distance(lossy_route, dual_route) < 1e-10


def test_povm_from_non_passive_rejected():
    with pytest.raises(NotPassive):
        povm_from_lossy(make_lossy(jordan_k(0.9)), computational_basis(2))


# -- lossy_from_povm ----------------------------------------------------------------

def test_projective_povm_gives_identity():
    ops = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    le = lossy_from_povm(PovmSet(dim=2, operators=ops), computational_basis(2))
    assert frob(np.asarray(le.k) - np.eye(2)) < 1e-12


def test_fig1_povm_reconstructs_fig1_k():
    p = povm_from_lossy(make_lossy(fig1_k()), computational_basis(2))
    le = lossy_from_povm(p, computational_basis(2))
    assert frob(np.asarray(le.k) - fig1_k()) < 1e-10


def test_rank_two_detection_operator_rejected():
    ops = (0.5 * np.eye(2), np.diag([0.0, 0.5]), np.zeros((2, 2)))
    with pytest.raises(RankMismatch):
        lossy_from_povm(PovmSet(dim=2, operators=ops), computational_basis(2))


def test_orthogonal_basis_alignment_rejected():
    ops = (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(DegenerateBasisAlignment):
        lossy_from_povm(PovmSet(dim=2, operators=ops), computational_basis(2))


def test_weak_second_eigenvalue_on_a_poorly_aligned_pivot_rejected():
    # lambda_2/lambda_1 = 1e-10 is below psd_tol, but |<e_1|v>|^2 = 1e-7 magnifies
    # it: the K rebuilt from psi_1^dag F_1 would reproduce F_1 only to 1e-3
    a = 1e-7
    v = np.array([np.sqrt(a), np.sqrt(1.0 - a)])
    u = np.array([np.sqrt(1.0 - a), -np.sqrt(a)])
    f1 = 0.5 * (np.outer(v, v) + 1e-10 * np.outer(u, u))
    f2 = 0.5 * np.outer(u, u)
    p = PovmSet(dim=2, operators=(f1, f2, np.eye(2) - f1 - f2))
    assert validate_povm(p).valid
    with pytest.raises(RankMismatch) as err:
        lossy_from_povm(p, computational_basis(2))
    assert err.value.context["operator"] == 1


def test_zero_detection_operator_rejected():
    ops = (np.zeros((2, 2)), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    with pytest.raises(RankMismatch) as err:
        lossy_from_povm(PovmSet(dim=2, operators=ops), computational_basis(2))
    assert err.value.context["operator"] == 1


@pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
def test_non_finite_phase_rejected_before_any_arithmetic(phase):
    p = povm_from_lossy(make_lossy(fig1_k()), computational_basis(2))
    with pytest.raises(ParamOutOfRange) as err:
        lossy_from_povm(p, computational_basis(2), [0.0, phase])  # warnings are errors here
    assert err.value.context["phase"] == 2


# -- dyadic_form ----------------------------------------------------------------------

def test_dyadic_form_identity():
    terms = dyadic_form(make_lossy(np.eye(3)), computational_basis(3))
    for i, (a, psi, beta) in enumerate(terms):
        assert abs(a - 1.0) < 1e-12
        assert frob(psi - np.eye(3)[:, i]) < 1e-12
        assert frob(beta - np.eye(3)[:, i]) < 1e-12


def test_dyadic_form_fig1_directions():
    terms = dyadic_form(make_lossy(fig1_k()), computational_basis(2))
    for i, (_, _, beta) in enumerate(terms):
        direction = np.array([1.0, 0.5]) if i == 0 else np.array([-1.0, 0.5])
        direction = direction.conj() / np.linalg.norm(direction)
        overlap = abs(direction.conj() @ beta) / np.linalg.norm(beta)
        assert abs(overlap - 1.0) < 1e-12


def test_dyadic_form_reconstructs_random_operator():
    rng = np.random.default_rng(83)
    for n in (2, 3, 5):
        k = random_complex(rng, n) + 2.0 * np.eye(n)
        basis = random_basis(rng, n)
        le = make_lossy(k / np.linalg.norm(k, 2))
        rebuilt = sum(
            a * np.outer(psi, beta.conj()) for a, psi, beta in dyadic_form(le, basis)
        )
        assert frob(rebuilt - np.asarray(le.k)) < 1e-10


def test_dyadic_form_requires_invertible():
    with pytest.raises(SingularMatrix):
        dyadic_form(make_lossy(np.diag([1.0, 0.0])), computational_basis(2))


# -- discriminable_states ------------------------------------------------------------------

def test_discriminable_states_identity():
    s = discriminable_states(make_lossy(np.eye(3)), computational_basis(3))
    assert frob(np.asarray(s.states) - np.eye(3)) < 1e-12


def test_discriminable_states_fig1():
    s = discriminable_states(make_lossy(fig1_k()), computational_basis(2))
    assert frob(np.asarray(s.states) - fig1_states()) < 1e-10


def test_discriminable_states_fig2_map_to_basis_rays():
    u = fig2_propagator_closed_form(1.0)
    le = reduced_evolution(u, 2)
    s = discriminable_states(le, computational_basis(2))
    out = np.asarray(le.k) @ np.asarray(s.states)
    assert abs(out[1, 0]) < 1e-12 and abs(out[0, 1]) < 1e-12


def test_discriminable_states_reject_a_basis_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="basis dimension 3 does not match operator dimension 2"):
        discriminable_states(make_lossy(np.eye(2) / 2.0), computational_basis(3))


def test_discriminable_states_take_no_second_factorization(monkeypatch):
    le = make_lossy(random_passive(np.random.default_rng(5), 8))
    svds, inverses, solves = (record_calls(monkeypatch, name) for name in ("svd", "inv", "solve"))
    discriminable_states(le, computational_basis(8))
    assert inverses == [] and solves == []  # K^-1 Psi is read off the SVD make_lossy took
    assert svds == [(8, 8)]  # the condition check of the discriminable state set


# -- dilate_unitary / reduced_evolution --------------------------------------------------------

def test_dilation_of_zero_operator():
    u = dilate_unitary(make_lossy(np.zeros((2, 2))))
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    assert frob(u - expected) < 1e-12


def test_dilation_scalar_rotation():
    theta = 0.7
    u = dilate_unitary(make_lossy(np.array([[np.cos(theta)]])))
    expected = np.array(
        [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]]
    )
    assert frob(u - expected) < 1e-12


def test_dilation_fig1_unitary():
    le = make_lossy(fig1_k())
    u = dilate_unitary(le)
    assert frob(u.conj().T @ u - np.eye(4)) < 1e-10
    assert np.array_equal(u[:2, :2], np.asarray(le.k))


def test_dilation_rejects_non_passive():
    with pytest.raises(NotPassive):
        dilate_unitary(make_lossy(jordan_k(0.9)))


def test_reduced_evolution_identity():
    le = reduced_evolution(np.eye(3), 2)
    assert le.passive
    assert frob(np.asarray(le.k) - np.eye(2)) < 1e-14


def test_reduced_evolution_fig2_closed_form():
    z = 1.0
    le = reduced_evolution(fig2_propagator_closed_form(z), 2)
    off = (np.exp(-2j * z) - np.exp(1j * z)) / 3.0
    expected = np.exp(1j * z) * np.eye(2) + off * np.ones((2, 2))
    assert frob(np.asarray(le.k) - expected) < 1e-12
    assert abs(le.sv[0] - 1.0) < 1e-9


def test_reduced_evolution_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        reduced_evolution(np.diag([1.0, 0.5, 1.0]), 2)


def test_reduced_evolution_names_the_norm_of_a_stretching_block():
    # residual 2.8e-10 is within the unitarity bound 3 * eq_tol, but the block
    # stretches e_1 by 1 + 1.4e-10, past the passiveness bound 1 + eq_tol
    u = np.diag([1.0 + 1.4e-10, 1.0, 1.0])
    with pytest.raises(NotPassive) as info:
        reduced_evolution(u, 2)
    assert info.value.context == {"spectral_norm": 1.0 + 1.4e-10}


def test_make_lossy_and_dilate_take_one_svd(monkeypatch):
    k = random_passive(np.random.default_rng(6), 8)
    calls, inverses = record_calls(monkeypatch, "svd"), record_calls(monkeypatch, "inv")
    dilate_unitary(make_lossy(k))
    assert calls == [(8, 8)]  # passiveness and both defect blocks read it
    assert inverses == []


def test_dilate_then_reduce_roundtrip_exact():
    rng = np.random.default_rng(89)
    for n in (2, 4):
        le = make_lossy(random_passive(rng, n))
        back = reduced_evolution(dilate_unitary(le), n)
        assert np.array_equal(np.asarray(back.k), np.asarray(le.k))


# -- inconclusive_rank --------------------------------------------------------------------------

def test_inconclusive_rank_projective_is_zero():
    p = povm_from_lossy(make_lossy(np.eye(3)), computational_basis(3))
    assert inconclusive_rank(p) == 0


def test_inconclusive_rank_fig1_drops_below_dimension():
    p = povm_from_lossy(make_lossy(fig1_k()), computational_basis(2))
    assert inconclusive_rank(p) == 1


def test_inconclusive_rank_full_when_strictly_contractive():
    p = povm_from_lossy(make_lossy(np.diag([0.9, 0.5])), computational_basis(2))
    assert inconclusive_rank(p) == 2


def test_inconclusive_rank_rejects_non_hermitian_operator():
    ops = np.array(povm_from_lossy(make_lossy(fig1_k()), computational_basis(2)).operators)
    ops[-1, 0, 1] += 1e-3
    with pytest.raises(NotHermitian):
        inconclusive_rank(PovmSet(dim=2, operators=ops))


# -- invariants ------------------------------------------------------------------------------

def test_roundtrip_a_povm_level_recovery():
    rng = np.random.default_rng(97)
    for n in (2, 3, 4):
        for _ in range(5):
            k = random_complex(rng, n) + 1.5 * np.eye(n)
            le = make_lossy(k / (np.linalg.norm(k, 2) * rng.uniform(1.0, 1.5)))
            basis = random_basis(rng, n)
            p = povm_from_lossy(le, basis)
            le2 = lossy_from_povm(p, basis)
            p2 = povm_from_lossy(le2, basis)
            assert povm_distance(p, p2) < 1e-9


def test_roundtrip_b_arbitrary_phases_do_not_matter():
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        for _ in range(5):
            p = build_usd_povm(random_state_set(rng, n))
            basis = random_basis(rng, n)
            phases = rng.uniform(-np.pi, np.pi, size=n)
            le = lossy_from_povm(p, basis, phases)
            p2 = povm_from_lossy(le, basis)
            assert povm_distance(p, p2) < 1e-9


def test_probability_equivalence_channel_vs_measurement():
    rng = np.random.default_rng(103)
    le = make_lossy(random_passive(rng, 3))
    basis = random_basis(rng, 3)
    p = povm_from_lossy(le, basis)
    k = np.asarray(le.k)
    for _ in range(100):
        rho = random_density(rng, 3)
        evolved = k @ rho @ k.conj().T
        for i in range(3):
            psi = basis.psi[:, i]
            lhs = (psi.conj() @ evolved @ psi).real
            rhs = np.trace(rho @ np.asarray(p.operators[i])).real
            assert abs(lhs - rhs) < 1e-10


def test_passiveness_equals_completeness_positivity():
    rng = np.random.default_rng(107)
    for scale in (0.5, 0.9, 1.0, 1.05, 1.5):
        g = random_complex(rng, 4)
        k = scale * g / np.linalg.norm(g, 2)
        le = make_lossy(k)
        min_eig = np.linalg.eigvalsh(np.eye(4) - k.conj().T @ k).min()
        assert le.passive == (min_eig >= -DEFAULT_TOL.psd_tol)


def test_marginally_passive_operators_drop_inconclusive_rank():
    rng = np.random.default_rng(109)
    for n in (2, 3, 4):
        for _ in range(5):
            le = normalize_passive(make_lossy(random_complex(rng, n)))
            p = povm_from_lossy(le, computational_basis(n))
            assert inconclusive_rank(p) < n


def test_povm_from_lossy_output_validates():
    rng = np.random.default_rng(113)
    for n in (2, 5, 8):
        le = make_lossy(random_passive(rng, n))
        report = validate_povm(povm_from_lossy(le, random_basis(rng, n)))
        assert report.valid
