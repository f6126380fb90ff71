"""Property-based tests of the closed-form identities over random inputs, N <= 64.

Each example draws a dimension and a numpy seed; the seed builds the
matrices, so a failing example is reproduced from the two integers that
hypothesis reports.  Examples pinned with ``@example`` hold N=64 in
every run: on the passiveness boundary a dilation from two independent
square roots loses unitarity, a 64-operator POVM file is the largest
JSON round trip, and a 64 x 64 frame is the largest QR.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from usd_kit import io
from usd_kit.duality import StateSet, build_usd_povm, dual_set, state_set, subspace_reduce
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.errors import DegenerateBasisAlignment, InfeasibleScaling, RankDeficient
from usd_kit.linalg import DEFAULT_TOL, gram_schmidt

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
@example(seed=10_000_000)  # |<e_k|v_k>|^2 = 7e-8: aligned, though psi^dag F psi is below psd_tol
def test_dilation_of_a_boundary_operator_is_unitary(seed):
    n = 64
    boundary = normalize_passive(make_lossy(random_complex(np.random.default_rng(seed), n)))
    usd = lossy_from_povm(build_usd_povm(state_set(random_states(seed, n))), computational_basis(n))
    for le in (boundary, usd):
        u = dilate_unitary(le)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2 * n)) <= 1e-10
        assert np.array_equal(u[:n, :n], np.asarray(le.k))


@PROPERTY
@given(dim=DIMS, seed=SEEDS)
@example(dim=64, seed=0)
def test_subspace_rotation_is_the_householder_frame(dim, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, dim + 1))
    m = random_complex(rng, dim, count)
    m /= np.linalg.norm(m, axis=0)
    reduced, rotation = subspace_reduce(state_set(m))
    out = np.asarray(reduced.states)
    assert np.linalg.norm(rotation.conj().T @ rotation - np.eye(dim)) <= 1e-12 * dim
    assert np.abs(out[count:]).max(initial=0.0) <= 1e-10
    assert np.linalg.norm(out.conj().T @ out - m.conj().T @ m) <= 1e-10
    assert np.array_equal(rotation.conj().T[:, :count], gram_schmidt(m))
    i = int(rng.integers(count))
    j = int(rng.integers(i + 1, count + 1))
    duplicated = np.insert(m, j, m[:, i], axis=1)  # column j repeats column i
    with pytest.raises(RankDeficient) as err:
        subspace_reduce(StateSet(dim=dim, states=duplicated))
    assert err.value.context["column"] == j


EDGE_DOUBLES = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1.0 / 3.0])


def random_doubles(seed: int, shape) -> np.ndarray:
    """Doubles over the whole exponent range, with signed zeros and subnormals mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < 0.1
    x[special] = rng.choice(EDGE_DOUBLES, int(special.sum()))
    return x


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=3, deadline=None)  # rendering an N=64 POVM takes about a second
@given(dim=DIMS, seed=SEEDS)
@example(dim=64, seed=0)
def test_povm_json_round_trip_is_exact(dim, seed):
    p = build_usd_povm(state_set(random_states(seed, dim)))
    q = io.povm_from_doc(json.loads(io.render_json(io.povm_doc(p))))
    assert same_bits(q.operators, p.operators)


@PROPERTY
@given(rows=DIMS, cols=DIMS, seed=SEEDS)
@example(rows=64, cols=64, seed=0)
def test_matrix_json_round_trip_is_exact(rows, cols, seed):
    m = random_doubles(seed, (rows, cols, 2)).view(complex)[..., 0]
    assert same_bits(io.matrix_from_doc(json.loads(io.render_json(io.matrix_doc(m)))), m)
