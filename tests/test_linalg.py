import numpy as np
import pytest

from usd_kit import linalg
from usd_kit.errors import (
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    SingularMatrix,
)

from helpers import (
    fig1_k,
    fig2_hamiltonian,
    fig2_propagator_closed_form,
    jordan_k,
    power_iteration_spectral_norm,
    random_complex,
    random_hermitian,
    random_unitary,
)


def frob(a):
    return np.linalg.norm(a)


# -- invertibility guard ------------------------------------------------------

def test_inverse_identical_columns_is_singular():
    m = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(SingularMatrix):
        linalg.check_invertible(linalg.singular_values(m))


# -- the Hermitian eigendecomposition behind unitary_exp and psd_sqrt ----------

def test_hermitian_eigen_diagonal():
    w = np.array([3.0, 1.0, 2.0])
    assert frob(linalg.unitary_exp(np.diag(w), 0.7) - np.diag(np.exp(-0.7j * w))) < 1e-14
    assert frob(linalg.psd_sqrt(np.diag(w)) - np.diag(np.sqrt(w))) < 1e-14


def test_hermitian_eigen_fig2_hamiltonian():
    # all-ones matrix has spectrum (3, 0, 0), so J - I gives (2, -1, -1):
    # at t = 2 pi / 3 both phases e^{-2it} and e^{it} equal e^{2 pi i / 3}
    h = fig2_hamiltonian()
    u = linalg.unitary_exp(h, 2.0 * np.pi / 3.0)
    assert frob(u - np.exp(2j * np.pi / 3.0) * np.eye(3)) < 1e-12
    # h + 2I = I + 3P, P the projector on (1, 1, 1) / sqrt(3), has root I + P
    assert frob(linalg.psd_sqrt(h + 2.0 * np.eye(3)) - (np.eye(3) + np.ones((3, 3)) / 3.0)) < 1e-12


def test_hermitian_eigen_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for t in (0.3, 1.0, 2.5):
        expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * x
        assert frob(linalg.unitary_exp(x, t) - expected) < 1e-14
    # I + X = 2 |+><+|, so its root is (I + X) / sqrt(2)
    assert frob(linalg.psd_sqrt(np.eye(2) + x) - (np.eye(2) + x) / np.sqrt(2.0)) < 1e-14


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_hermitian_eigen_reconstruction(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(25):
        h = random_hermitian(rng, n)
        u = linalg.unitary_exp(h, 0.9)
        assert frob(u.conj().T @ u - np.eye(n)) <= 1e-9
        assert frob(u @ h @ u.conj().T - h) <= 1e-9 * max(frob(h), 1.0)
        f = h @ h
        root = linalg.psd_sqrt(f)
        assert frob(root @ root - f) <= 1e-9 * max(frob(f), 1.0)


@pytest.mark.parametrize("scale", [0.25, 4.0])
@pytest.mark.parametrize("ratio", [0.999, 1.001])
def test_hermitian_rule_on_arrays_matches_hermiticity(scale, ratio):
    """The stack form of the rule gives each matrix the verdict of the
    one-matrix check, on both sides of the bound ``eq_tol * max(1, ||h||_F)``."""
    tol = linalg.DEFAULT_TOL
    mats = []
    for h in (scale * np.eye(3), scale * random_hermitian(np.random.default_rng(7), 3)):
        bound = tol.eq_tol * max(1.0, frob(h))
        skew = np.zeros((3, 3))
        skew[0, 1] = ratio * bound  # ||skew - skew^dag||_F = sqrt(2) ||skew||_F
        mats.append(h + skew / np.sqrt(2.0))
    stack = np.array(mats)
    residuals = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
    verdicts = linalg.hermitian_rule(residuals, np.linalg.norm(stack, axis=(1, 2)), tol)
    assert verdicts.tolist() == [linalg.hermiticity(h, tol)[1] for h in mats]
    assert verdicts.tolist() == [ratio < 1.0] * 2
    assert not linalg.hermitian_rule(np.array([np.nan]), np.array([1.0]), tol)[0]


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
    sv = linalg.singular_values(m)
    cond = linalg.sv_condition(sv)
    assert np.isfinite(cond)
    assert abs(cond / 1e10 - 1.0) < 0.01
    linalg.check_invertible(sv)


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


def test_psd_sqrt_of_an_exactly_singular_matrix_keeps_its_digits():
    # eigh gives the null eigenvalues as about +-1e-16; rooting them would add 1e-8
    root = linalg.psd_sqrt(np.ones((3, 3)))
    assert frob(root - np.ones((3, 3)) / np.sqrt(3.0)) <= linalg.DEFAULT_TOL.eq_tol


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(23)
    g = random_complex(rng, 6)
    f = g @ g.conj().T
    root = linalg.psd_sqrt(f)
    assert frob(root @ root - f) <= 1e-10 * frob(f)
