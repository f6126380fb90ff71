"""Shared random generators and independent oracles for the test suite.

Oracles here deliberately use routes the library avoids (numpy SVD /
eigvals, power iteration, hand-coded 2x2 formulas) so that agreement is
a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import numpy as np

from usd_kit.duality import PovmSet, StateSet, state_set
from usd_kit.equivalence import ProjectiveBasis, projective_basis
from usd_kit.linalg import DEFAULT_TOL

FIG1_GAMMA = 0.5
# sqrt(2) * gamma / sqrt(1 + gamma^2) at gamma = 0.5
FIG1_AMPLITUDE = 0.6324555320336759


def fig1_k(gamma: float = FIG1_GAMMA) -> np.ndarray:
    return np.array([[1.0, gamma], [-1.0, gamma]], dtype=complex) / np.sqrt(2.0)


def fig1_states(gamma: float = FIG1_GAMMA) -> np.ndarray:
    norm = np.sqrt(1.0 + gamma * gamma)
    return np.column_stack(
        [np.array([gamma, 1.0]) / norm, np.array([-gamma, 1.0]) / norm]
    ).astype(complex)


def jordan_k(a: float) -> np.ndarray:
    return np.array([[a, 0.5], [0.0, a]], dtype=complex)


def fig2_hamiltonian() -> np.ndarray:
    return np.ones((3, 3), dtype=complex) - np.eye(3)


def fig2_propagator_closed_form(z: float) -> np.ndarray:
    """Independent closed form: e^{iz} I + (e^{-2iz} - e^{iz}) J / 3."""
    return np.exp(1j * z) * np.eye(3) + (np.exp(-2j * z) - np.exp(1j * z)) / 3.0 * np.ones((3, 3))


def power_iteration_spectral_norm(k: np.ndarray, iters: int = 50000) -> float:
    """Top singular value via power iteration on K^dag K, run to convergence."""
    gram = k.conj().T @ k
    n = gram.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    v[0] += 0.001j  # break symmetry away from exact eigenvector misses
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        updated = float((v.conj() @ (gram @ v)).real)
        if abs(updated - rayleigh) <= 1e-16 * max(1.0, updated):
            rayleigh = updated
            break
        rayleigh = updated
    return float(np.sqrt(max(rayleigh, 0.0)))


def random_complex(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_basis(rng: np.random.Generator, n: int) -> ProjectiveBasis:
    return projective_basis(random_unitary(rng, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


def random_passive(rng: np.random.Generator, n: int, slack: float | None = None) -> np.ndarray:
    """Random operator with spectral norm <= 1 (strictly below with slack)."""
    g = random_complex(rng, n)
    top = np.linalg.norm(g, 2)  # numpy SVD route, not the library's
    factor = rng.uniform(1.05, 2.0) if slack is None else slack
    return g / (top * factor)


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state_set(
    rng: np.random.Generator, dim: int, count: int | None = None, max_cond: float = 20.0
) -> StateSet:
    count = dim if count is None else count
    while True:
        m = random_complex(rng, dim, count)
        m /= np.linalg.norm(m, axis=0)
        if np.linalg.cond(m) <= max_cond:
            return state_set(m)


def first_weight(p: PovmSet, s: StateSet) -> float:
    """The weight ``w`` of ``F_1 = w |d_1><d_1|`` read off the operators as
    ``tr F_1 / ||d_1||^2``, with ``d_1^dag`` the first row of numpy's ``inv(A)``."""
    d = np.linalg.inv(s.states)[0]
    return float(np.trace(p.operators[0]).real / np.vdot(d, d).real)


def record_calls(monkeypatch, name, module=np.linalg):
    """Replace ``module.<name>`` (``numpy.linalg`` by default) by a wrapper
    that records the shape of each call's first argument."""
    calls = []
    routine = getattr(module, name)

    def recorded(a, *args, **kwargs):
        calls.append(np.shape(a))
        return routine(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def log_spaced_states(rng: np.random.Generator, n: int, log_cond: float) -> np.ndarray:
    """Unit-norm columns of ``U diag(s) V`` with ``s`` log-spaced from 1 down to
    ``10^-log_cond``; normalizing the columns keeps the condition number within
    a factor of about 1.5 of ``10^log_cond``."""
    m = (random_unitary(rng, n) * np.logspace(0.0, -log_cond, n)) @ random_unitary(rng, n)
    return m / np.linalg.norm(m, axis=0)


def oracle_report(ops: np.ndarray):
    """Ranks, smallest eigenvalues and verdict from ``eigvalsh`` of the whole
    symmetrized stack, with the Hermiticity and completeness rules restated."""
    tol = DEFAULT_TOL
    w = np.linalg.eigvalsh((ops + ops.conj().transpose(0, 2, 1)) / 2.0)
    herm = np.linalg.norm(ops - ops.conj().transpose(0, 2, 1), axis=(1, 2))
    norms = np.linalg.norm(ops, axis=(1, 2))
    completeness = np.linalg.norm(ops.sum(axis=0) - np.eye(ops.shape[1]))
    valid = (np.all(herm <= tol.eq_tol * np.maximum(1.0, norms))
             and np.all(w[:, 0] >= -tol.psd_tol) and completeness <= tol.eq_tol)
    return np.count_nonzero(w > tol.psd_tol, axis=1).tolist(), w[:, 0], bool(valid)
