"""Property-based tests of the closed-form identities over random inputs, N <= 64.

Each example draws a dimension and a numpy seed; the seed builds the
matrices, so a failing example is reproduced from the two integers that
hypothesis reports.  Examples pinned with ``@example`` sit on the
passiveness boundary at N=64, where a dilation from two independent
square roots loses unitarity.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from usd_kit.duality import build_usd_povm, dual_set, state_set
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.errors import DegenerateBasisAlignment, InfeasibleScaling
from usd_kit.linalg import DEFAULT_TOL

from helpers import random_complex, random_unitary

PROPERTY = settings(max_examples=10, deadline=None)
DIMS = st.integers(1, 64)
SEEDS = st.integers(0, 2**32 - 1)


def random_states(seed: int, n: int) -> np.ndarray:
    m = random_complex(np.random.default_rng(seed), n)
    return m / np.linalg.norm(m, axis=0)


@PROPERTY
@given(dim=DIMS, seed=SEEDS)
def test_uniform_weight_is_the_largest_feasible(dim, seed):
    s = state_set(random_states(seed, dim))
    p = build_usd_povm(s)
    weight = float(p.scaling[0])
    min_eig = np.linalg.eigvalsh(np.asarray(p.inconclusive))[0]
    assert -DEFAULT_TOL.psd_tol <= min_eig <= DEFAULT_TOL.psd_tol
    with pytest.raises(InfeasibleScaling):
        build_usd_povm(s, np.full(dim, weight * (1.0 + 1e-6)))
    # independent route: 1 / lambda_max of the dual Gram matrix D D^dag
    duals = np.asarray(dual_set(s).duals)
    oracle = 1.0 / np.linalg.eigvalsh(duals @ duals.conj().T)[-1]
    assert abs(weight - oracle) <= 1e-9 * oracle


@PROPERTY
@given(dim=DIMS, seed=SEEDS, random_basis=st.booleans())
def test_operator_povm_operator_reproduces_every_detection_operator(dim, seed, random_basis):
    rng = np.random.default_rng(seed)
    basis = projective_basis(random_unitary(rng, dim)) if random_basis else computational_basis(dim)
    usd = build_usd_povm(state_set(random_states(seed, dim)))
    try:
        k = lossy_from_povm(usd, basis, rng.uniform(-np.pi, np.pi, dim))
        p = povm_from_lossy(k, basis)
        rebuilt = povm_from_lossy(lossy_from_povm(p, basis, rng.uniform(-np.pi, np.pi, dim)), basis)
    except DegenerateBasisAlignment:
        reject()  # a basis vector orthogonal to its detection operator: a typed error
    residuals = np.linalg.norm(rebuilt.operators - p.operators, axis=(1, 2))
    assert residuals.max() <= 1e-9


@PROPERTY
@given(seed=SEEDS)
@example(seed=0)
@example(seed=1)
@example(seed=2)
def test_dilation_of_a_boundary_operator_is_unitary(seed):
    n = 64
    boundary = normalize_passive(make_lossy(random_complex(np.random.default_rng(seed), n)))
    usd = lossy_from_povm(build_usd_povm(state_set(random_states(seed, n))), computational_basis(n))
    for le in (boundary, usd):
        u = dilate_unitary(le)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2 * n)) <= 1e-10
        assert np.array_equal(u[:n, :n], np.asarray(le.k))
