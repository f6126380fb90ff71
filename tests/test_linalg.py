import numpy as np
import pytest

from usd_kit import linalg
from usd_kit.errors import (
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    RankDeficient,
    SingularMatrix,
)

from helpers import (
    fig1_k,
    fig2_hamiltonian,
    fig2_propagator_closed_form,
    inverse_2x2,
    jordan_k,
    power_iteration_spectral_norm,
    random_complex,
    random_hermitian,
    random_unitary,
)


def frob(a):
    return np.linalg.norm(a)


# -- inverse -----------------------------------------------------------------

def test_inverse_identity():
    assert frob(linalg.inverse(np.eye(3)) - np.eye(3)) < 1e-14


def test_inverse_2x2_against_cofactor_oracle():
    m = np.array([[1.0, 1.0 / np.sqrt(2.0)], [0.0, 1.0 / np.sqrt(2.0)]], dtype=complex)
    expected = inverse_2x2(m)
    assert frob(expected - np.array([[1.0, -1.0], [0.0, np.sqrt(2.0)]])) < 1e-14
    assert frob(linalg.inverse(m) - expected) < 1e-12


def test_inverse_identical_columns_is_singular():
    m = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(SingularMatrix):
        linalg.inverse(m)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_inverse_roundtrip_within_conditioned_budget(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        m = random_complex(rng, n) + 2.0 * np.eye(n)
        cond = np.linalg.cond(m)
        residual = frob(m @ linalg.inverse(m) - np.eye(n))
        assert residual <= 1e-10 * cond


# -- hermitian_eigen -----------------------------------------------------------

def test_hermitian_eigen_diagonal():
    eig = linalg.hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=1e-14)


def test_hermitian_eigen_fig2_hamiltonian():
    # all-ones matrix has spectrum (3, 0, 0), so J - I gives (2, -1, -1)
    eig = linalg.hermitian_eigen(fig2_hamiltonian())
    assert np.allclose(eig.eigenvalues, [2.0, -1.0, -1.0], atol=1e-12)


def test_hermitian_eigen_pauli_x():
    eig = linalg.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-14)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(plus.conj() @ eig.eigenvectors[:, 0]) - 1.0) < 1e-12
    assert abs(abs(minus.conj() @ eig.eigenvectors[:, 1]) - 1.0) < 1e-12


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_hermitian_eigen_reconstruction(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(25):
        h = random_hermitian(rng, n)
        eig = linalg.hermitian_eigen(h)
        v, w = eig.eigenvectors, eig.eigenvalues
        assert frob(v.conj().T @ v - np.eye(n)) <= 1e-9
        assert frob((v * w) @ v.conj().T - h) <= 1e-9 * max(frob(h), 1.0)


# -- singular values / spectral norm -------------------------------------------

def test_singular_values_diagonal():
    sv = linalg.singular_values(np.diag([0.5, 0.3]))
    assert np.allclose(sv, [0.5, 0.3], atol=1e-14)


def test_singular_values_fig1():
    sv = linalg.singular_values(fig1_k())
    assert np.allclose(sv, [1.0, 0.5], atol=1e-12)


def test_singular_values_jordan_boundary():
    sv = linalg.singular_values(jordan_k(1.0 / np.sqrt(2.0)))
    assert abs(sv[0] - 1.0) < 1e-10


def test_condition_number_1e10_is_resolved_and_invertible():
    # sqrt(eig(K'K)) squares the condition number: 1e10 used to read as inf
    rng = np.random.default_rng(8)
    sigma = np.logspace(0.0, -10.0, 8)
    m = (random_unitary(rng, 8) * sigma) @ random_unitary(rng, 8)
    cond = linalg.condition_number(m)
    assert np.isfinite(cond)
    assert abs(cond / 1e10 - 1.0) < 0.01
    assert linalg.inverse(m).shape == (8, 8)


def test_spectral_norm_identity_and_unitary():
    assert abs(linalg.spectral_norm(np.eye(4)) - 1.0) < 1e-14
    rng = np.random.default_rng(5)
    assert abs(linalg.spectral_norm(random_unitary(rng, 5)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
def test_spectral_norm_matches_power_iteration(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(10):
        k = random_complex(rng, n)
        assert abs(linalg.spectral_norm(k) - power_iteration_spectral_norm(k)) < 1e-9


def test_eigenvalue_moduli_bounded_by_spectral_norm():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        for _ in range(20):
            k = random_complex(rng, n)
            moduli = np.abs(np.linalg.eigvals(k))
            assert moduli.max() <= linalg.spectral_norm(k) + 1e-9


@pytest.mark.parametrize("a", [0.75, 0.8, 0.95])
def test_jordan_moduli_below_one_yet_not_passive(a):
    # converse of the bound: small eigenvalues do not imply a passive operator
    k = jordan_k(a)
    assert np.abs(np.linalg.eigvals(k)).max() < 1.0
    assert linalg.spectral_norm(k) > 1.0


# -- unitary_exp ------------------------------------------------------------------

def test_unitary_exp_zero_hamiltonian():
    assert frob(linalg.unitary_exp(np.zeros((3, 3)), 2.7) - np.eye(3)) < 1e-14


def test_unitary_exp_scalar_phase():
    out = linalg.unitary_exp(np.array([[1.0]]), np.pi)
    assert abs(out[0, 0] - (-1.0)) < 1e-12


def test_unitary_exp_fig2_closed_form():
    u = linalg.unitary_exp(fig2_hamiltonian(), 1.0)
    assert frob(u - fig2_propagator_closed_form(1.0)) < 1e-12


@pytest.mark.parametrize("t", [-10.0, -1.3, 0.4, 10.0])
def test_unitary_exp_inverse_property(t):
    rng = np.random.default_rng(int(abs(t) * 100) + 7)
    h = random_hermitian(rng, 5)
    prod = linalg.unitary_exp(h, t) @ linalg.unitary_exp(h, -t)
    assert frob(prod - np.eye(5)) <= 1e-9


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_unitary_exp_rejects_non_finite_time(t):
    with pytest.raises(ParamOutOfRange):
        linalg.unitary_exp(fig2_hamiltonian(), t)


# -- psd_sqrt -----------------------------------------------------------------------

def test_psd_sqrt_diagonal():
    assert frob(linalg.psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])) < 1e-12


def test_psd_sqrt_fig1_completion():
    out = linalg.psd_sqrt(np.diag([0.0, 0.75]))
    assert frob(out - np.diag([0.0, np.sqrt(0.75)])) < 1e-12


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        linalg.psd_sqrt(np.diag([1.0, -0.1]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(23)
    g = random_complex(rng, 6)
    f = g @ g.conj().T
    root = linalg.psd_sqrt(f)
    assert frob(root @ root - f) <= 1e-10 * frob(f)


# -- gram_schmidt ----------------------------------------------------------------------

def test_gram_schmidt_orthonormal_fixed_point():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 4)
    out = linalg.gram_schmidt(u)
    # same columns up to the first-entry-real-positive phase convention
    for j in range(4):
        assert abs(abs(u[:, j].conj() @ out[:, j]) - 1.0) < 1e-12
        pivot = out[np.flatnonzero(np.abs(out[:, j]) > 1e-10)[0], j]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12


def test_gram_schmidt_two_vectors():
    m = np.column_stack([[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)])
    out = linalg.gram_schmidt(m)
    assert frob(out - np.eye(2)) < 1e-12


def test_gram_schmidt_rank_deficient():
    m = np.column_stack([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficient):
        linalg.gram_schmidt(m)


def test_gram_schmidt_preserves_leading_spans():
    rng = np.random.default_rng(37)
    m = random_complex(rng, 6, 4)
    q = linalg.gram_schmidt(m)
    assert frob(q.conj().T @ q - np.eye(4)) < 1e-12
    for j in range(4):
        lead = q[:, : j + 1]
        residual = m[:, j] - lead @ (lead.conj().T @ m[:, j])
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(m[:, j])
