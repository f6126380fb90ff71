"""Named optical scenarios with closed-form expectations.

``fig1`` is a 50-50 beam splitter followed by an attenuator on one arm;
``fig2`` is three evanescently coupled waveguides where the third carries
away the inconclusive amplitude; ``fig1-embed`` replaces the attenuator
by a beam splitter, embedding the lossy two-port in a four-port unitary.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import linalg
from .duality import StateSet
from .equivalence import (
    LossyEvolution,
    ProjectiveBasis,
    _lossy,
    computational_basis,
    dilate_unitary,
    discriminable_states,
    reduced_evolution,
)
from .errors import ParamOutOfRange
from .linalg import DEFAULT_TOL, ToleranceContext


@dataclass(frozen=True)
class Scenario(linalg._Immutable):
    name: str
    k: LossyEvolution
    basis: ProjectiveBasis
    input_states: StateSet
    expected: Mapping[str, float]  # read-only
    full_unitary: np.ndarray | None = None


def beam_splitter_attenuator(gamma: float) -> np.ndarray:
    """Two-port evolution of a 50-50 splitter with attenuation ``gamma`` on arm 2."""
    return np.array([[1.0, gamma], [-1.0, gamma]], dtype=complex) / math.sqrt(2.0)


def tight_binding_hamiltonian() -> np.ndarray:
    """Unit nearest-coupling Hamiltonian of three symmetric waveguides; another
    coupling ``a`` would only rescale the propagation length ``z`` to ``a z``."""
    return 1.0 - linalg._identity(3)


@lru_cache(maxsize=None)
def _waveguide_modes() -> tuple[np.ndarray, np.ndarray]:
    """The read-only eigenvalues and eigenvectors of :func:`tight_binding_hamiltonian`, checked
    once: its Hermiticity residual is exactly 0, so every tolerance context accepts it."""
    return tuple(map(linalg._freeze, linalg._hermitian_eigen(tight_binding_hamiltonian(), DEFAULT_TOL)))


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not (0.0 < g < 1.0):
        raise ParamOutOfRange(f"gamma must lie strictly between 0 and 1, got {g!r}", gamma=g)
    return g


def fig1_scenario(gamma: float, ctx: ToleranceContext = DEFAULT_TOL) -> Scenario:
    """Beam splitter plus attenuator discriminating two symmetric states."""
    g = _check_gamma(gamma)
    k = _lossy(linalg._freeze(beam_splitter_attenuator(g)), ctx)  # finite for every valid gamma
    basis = computational_basis(2)
    states = discriminable_states(k, basis, ctx)
    norm_sq = 1.0 + g * g
    expected = MappingProxyType({
        "output_amplitude": math.sqrt(2.0) * g / math.sqrt(norm_sq),
        "success_per_state": 2.0 * g * g / norm_sq,
        "inconclusive": (1.0 - g * g) / norm_sq,
        "overlap": (1.0 - g * g) / norm_sq,
    })
    return Scenario(name="fig1", k=k, basis=basis, input_states=states, expected=expected)


def fig2_scenario(z: float, ctx: ToleranceContext = DEFAULT_TOL) -> Scenario:
    """Three unit-coupled waveguides propagated over length ``z``; ports 1
    and 2 form the lossy subsystem.

    Expected values come from the closed form of the propagator: the
    reduced operator is ``e^{iz} I + c J`` with
    ``c = (e^{-2iz} - e^{iz})/3`` and J the all-ones matrix.

    The Hamiltonian's eigenvalues are ``{2, -1, -1}``, so the propagator
    has period ``2 pi`` in ``z``.  Both the closed form and the propagator
    take ``z`` reduced modulo ``2 pi``: at large z the eigenvalue round-off
    times z would otherwise part them silently.

    The reduced operator is normal, with singular values 1 and
    ``|e^{iz} + 2 e^{-2iz}| / 3`` in ``[1/3, 1]``: its condition number is
    at most 3 for every z, so it is always invertible.

    Raises
    ------
    ParamOutOfRange
        If ``z`` is not finite.
    """
    if not math.isfinite(z):
        raise ParamOutOfRange(f"z must be finite, got {z!r}", z=z)
    z = math.fmod(z, 2.0 * math.pi)
    w, v = _waveguide_modes()
    full_u = (v * np.exp(-1j * w * z)) @ v.conj().T  # linalg.unitary_exp, the Hamiltonian's modes cached
    k = reduced_evolution(full_u, 2, ctx)
    basis = computational_basis(2)
    states = discriminable_states(k, basis, ctx)

    # the reduced operator's entries diag and off, from math: cmath would add to start-up
    alpha = complex(math.cos(z), math.sin(z))  # bare propagation phase e^{iz}
    off = (complex(math.cos(2.0 * z), -math.sin(2.0 * z)) - alpha) / 3.0
    diag = alpha + off
    det = alpha * (alpha + 2.0 * off)
    col_norm_sq = (abs(diag) ** 2 + abs(off) ** 2) / abs(det) ** 2
    beta = 1.0 / math.sqrt(col_norm_sq)
    overlap = abs(2.0 * (diag.conjugate() * -off).real) / (abs(diag) ** 2 + abs(off) ** 2)
    expected = MappingProxyType({
        "beta_magnitude": beta,
        "success_per_state": beta * beta,
        "inconclusive": 1.0 - beta * beta,
        "overlap": overlap,
        "spectral_norm": 1.0,
    })
    return Scenario(
        name="fig2",
        k=k,
        basis=basis,
        input_states=states,
        expected=expected,
        full_unitary=linalg._freeze(full_u),
    )


def fig1_as_embedding(gamma: float, ctx: ToleranceContext = DEFAULT_TOL) -> Scenario:
    """The fig1 system with the attenuator replaced by a beam splitter.

    The two-port operator is embedded in a four-port unitary; the
    probability routed to the ancilla ports equals the inconclusive
    probability of the lossy scheme.
    """
    base = fig1_scenario(gamma, ctx)
    full_u = dilate_unitary(base.k)
    expected = MappingProxyType({**base.expected, "ancilla_mass": base.expected["inconclusive"]})
    return replace(base, name="fig1-embed", expected=expected, full_unitary=linalg._freeze(full_u))


def build_scenario(name: str, param: float, ctx: ToleranceContext = DEFAULT_TOL) -> Scenario:
    """Dispatch on the stable scenario names used by the command line."""
    if name == "fig1":
        return fig1_scenario(param, ctx)
    if name == "fig2":
        return fig2_scenario(float(param), ctx)
    if name == "fig1-embed":
        return fig1_as_embedding(param, ctx)
    raise ParamOutOfRange(f"unknown scenario {name!r}; expected fig1, fig2 or fig1-embed")
