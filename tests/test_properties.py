"""Property-based tests of the closed-form identities over random inputs, N <= 64.

Each example draws a dimension and a numpy seed; the seed builds the
matrices, so a failing example is reproduced from the two integers that
hypothesis reports.  Examples pinned with ``@example`` hold N=64 in
every run: on the passiveness boundary a dilation from two independent
square roots loses unitarity, a 64-operator POVM file is the largest
JSON round trip, 64 states are the largest reduction, and at N=64 the
smallest eigenvalue 0 that ``validate_povm`` reports for a factored dyad has
the least round-off margin against the eigensolve oracle (up to 6.1e-16
||F||_F seen, 1e-15 allowed).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from usd_kit import io
from usd_kit.discrimination import state_ensemble, usd_report
from usd_kit.duality import (
    PovmSet,
    StateSet,
    build_usd_povm,
    dual_set,
    state_set,
    subspace_reduce,
    validate_povm,
)
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    discriminable_states,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.errors import (
    DegenerateBasisAlignment,
    InfeasibleScaling,
    InvalidPovm,
    RankMismatch,
    SingularStates,
    UsdKitError,
)
from usd_kit.linalg import DEFAULT_TOL, check_unitary, sv_condition

from helpers import first_weight, log_spaced_states, oracle_report, random_complex, random_unitary

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
    weight = first_weight(p, s)
    min_eig = np.linalg.eigvalsh(np.asarray(p.inconclusive))[0]
    assert -DEFAULT_TOL.psd_tol <= min_eig <= DEFAULT_TOL.psd_tol
    with pytest.raises(InfeasibleScaling):
        build_usd_povm(s, np.full(dim, weight * (1.0 + 1e-6)))
    # independent route: 1 / lambda_max of the dual Gram matrix D D^dag
    duals = dual_set(s)
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
@given(dim=st.integers(2, 64), seed=SEEDS, log_cond=st.floats(8.0, math.log10(5e11)))
@example(dim=64, seed=0, log_cond=11.69)
@example(dim=2, seed=0, log_cond=10.0)
def test_near_cond_max_uniform_povm_is_valid_or_a_typed_error(dim, seed, log_cond):
    # duals and weight from one SVD make I - lambda D D^dag = U (I - s_min^2 S^-2) U^dag,
    # positive to round-off; factored apart, each carried its own cond * eps error
    try:
        s = state_set(log_spaced_states(np.random.default_rng(seed), dim, log_cond))
        p = build_usd_povm(s)
    except UsdKitError:
        return  # a typed error is an allowed outcome
    assert validate_povm(p).valid
    # no method pairs better than about cond * eps: 1.45 cond eps N seen at N=2
    a, duals = np.asarray(s.states), dual_set(s)
    budget = 4.0 * sv_condition(s.sv) * np.finfo(float).eps * dim
    assert np.linalg.norm(duals.conj().T @ a - np.eye(dim)) <= budget


@PROPERTY
@given(dim=DIMS, seed=SEEDS, log_cond=st.floats(0.0, 12.0))
@example(dim=3, seed=13186, log_cond=0.001)  # 16.8 N eps cond, the worst of 180,000 seeds at N <= 4
@example(dim=64, seed=0, log_cond=11.8)
def test_duals_pair_to_the_documented_accuracy(dim, seed, log_cond):
    # dual_set's bound over the whole domain: ||D^dag A - I||_F <= 80 N eps cond(A)
    try:
        s = state_set(log_spaced_states(np.random.default_rng(seed), dim, log_cond))
    except SingularStates:
        return  # condition number above cond_max: a typed error
    a, duals = np.asarray(s.states), dual_set(s)
    budget = 80.0 * dim * np.finfo(float).eps * sv_condition(s.sv)
    assert np.linalg.norm(duals.conj().T @ a - np.eye(dim)) <= budget


def conditioned(rng: np.random.Generator, n: int, boundary: bool) -> np.ndarray:
    """``U diag(s) V`` with singular values in ``[0.05, 1)``, the largest one
    exactly 1 on the passiveness ``boundary``: passive, invertible, cond <= 20."""
    s = rng.uniform(0.05, 1.0, n)
    return (random_unitary(rng, n) * (s / s.max() if boundary else s)) @ random_unitary(rng, n)


@PROPERTY
@given(dim=DIMS, seed=SEEDS, boundary=st.booleans())
@example(dim=64, seed=0, boundary=True)
def test_lossy_route_equals_the_dual_route(dim, seed, boundary):
    # K^dag psi_i = d_i / n_i with n_i = ||K^{-1} psi_i||, so the lossy POVM is
    # the USD POVM of the discriminable states with weights 1 / n_i^2
    rng = np.random.default_rng(seed)
    k = conditioned(rng, dim, boundary)
    basis = projective_basis(random_unitary(rng, dim))
    le = make_lossy(k)
    weights = 1.0 / np.linalg.norm(np.linalg.solve(k, basis.psi), axis=0) ** 2
    lossy = povm_from_lossy(le, basis).operators
    dual = build_usd_povm(discriminable_states(le, basis), weights).operators
    assert np.linalg.norm(lossy - dual, axis=(1, 2)).max() <= 1e-11


@PROPERTY
@given(dim=DIMS, seed=SEEDS)
@example(dim=64, seed=0)
def test_uniform_usd_povm_gives_back_its_states_through_k(dim, seed):
    rng = np.random.default_rng(seed)
    states = conditioned(rng, dim, boundary=False)
    states /= np.linalg.norm(states, axis=0)
    basis = projective_basis(random_unitary(rng, dim))
    try:
        le = lossy_from_povm(build_usd_povm(state_set(states)), basis)
    except DegenerateBasisAlignment:
        reject()
    back = np.asarray(discriminable_states(le, basis).states)
    overlaps = np.sum(states.conj() * back, axis=0)
    aligned = back * (overlaps / np.abs(overlaps)).conj()  # the phase is free
    assert np.linalg.norm(aligned - states, axis=0).max() <= 1e-11


def pt_symmetric_propagator(g: float, k: float, t: float) -> np.ndarray:
    """``exp(-i H t)`` for the passive PT-symmetric ``H = H0 - i g I`` with
    ``H0 = [[-i g, k], [k, i g]]``: ``H0^2 = (k^2 - g^2) I``, so the series
    sums to cos/sin below the exceptional point ``g = k``, cosh/sinh above
    it and ``I - i t H0`` on it."""
    h0 = np.array([[-1j * g, k], [k, 1j * g]])
    w = np.sqrt(complex(k * k - g * g))
    if w == 0:
        return np.exp(-g * t) * (np.eye(2) - 1j * t * h0)
    return np.exp(-g * t) * (np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) / w * h0)


@pytest.mark.parametrize("g", [0.3, 0.9, 1.0, 1.5], ids=["below-ep", "near-ep", "at-ep", "above-ep"])
def test_pt_symmetric_evolution_discriminates_as_a_povm(g):
    k = pt_symmetric_propagator(g, 1.0, 1.0)
    h = np.array([[-2j * g, 1.0], [1.0, 0.0]])  # H = H0 - i g I
    taylor = sum(np.linalg.matrix_power(-1j * h, m) / math.factorial(m) for m in range(40))
    assert np.abs(k - taylor).max() <= 1e-14
    le = normalize_passive(make_lossy(k))
    basis = computational_basis(2)
    states = discriminable_states(le, basis)
    ensemble = state_ensemble(states, [0.5, 0.5])
    idp = abs(np.vdot(states.states[:, 0], states.states[:, 1]))  # Ivanovic-Dieks-Peres bound
    assert usd_report(ensemble, povm_from_lossy(le, basis)).total_inconclusive >= idp - 1e-12
    assert abs(usd_report(ensemble, build_usd_povm(states)).total_inconclusive - idp) <= 1e-12


def povm_with_second_eigenvalue(q: np.ndarray, ratio: float) -> PovmSet:
    """Complete POVM with ``F_1 = (q_1 q_1^dag + ratio q_2 q_2^dag) / 2`` and rank-one
    ``F_k = q_k q_k^dag / 2`` for ``k >= 2``, from the columns of a unitary ``q``."""
    n = q.shape[0]
    ops = np.empty((n + 1, n, n), dtype=complex)
    ops[:n] = 0.5 * q.T[:, :, None] * q.T.conj()[:, None, :]
    ops[0] += 0.5 * ratio * np.outer(q[:, 1], q[:, 1].conj())
    ops[n] = np.eye(n) - ops[:n].sum(axis=0)
    return PovmSet(dim=n, operators=ops)


@settings(max_examples=5, deadline=None)  # parsing an N=64 POVM document takes about half a second
@given(dim=st.integers(2, 64), seed=SEEDS)
@example(dim=64, seed=0)
def test_rank_one_rule_boundary_under_both_pivots(dim, seed):
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, dim)
    basis = projective_basis(random_unitary(rng, dim))
    tol = DEFAULT_TOL.psd_tol
    # lambda_2 / lambda_1 just above psd_tol: rejected on load (diagonal pivot)
    # and by lossy_from_povm (pivot psi_1)
    rank_two = povm_with_second_eigenvalue(q, 1.01 * tol)
    with pytest.raises(InvalidPovm) as err:
        io.povm_from_doc(io.povm_doc(rank_two))
    assert err.value.context["operator"] == 1
    with pytest.raises(RankMismatch) as err:
        lossy_from_povm(rank_two, basis)
    assert err.value.context["operator"] == 1
    # the largest diagonal entry is at least lambda_1 / N
    io.povm_from_doc(io.povm_doc(povm_with_second_eigenvalue(q, tol / (1.01 * dim))))
    # the pivot psi_1 sees lambda_2 magnified by 1 / |<psi_1|q_1>|^2
    alignment = abs(basis.psi[:, 0].conj() @ q[:, 0]) ** 2
    p = povm_with_second_eigenvalue(q, tol * alignment / 1.01)
    f1 = povm_from_lossy(lossy_from_povm(p, basis), basis).operators[0]
    assert np.linalg.norm(f1 - p.operators[0]) <= tol * np.linalg.norm(p.operators[0])


def assert_report_agrees(p: PovmSet) -> None:
    """validate_povm's verdict and ranks equal the oracle's, and every reported
    smallest eigenvalue is the oracle's within the operator's Hermiticity
    residual (``eigvalsh`` reads one triangle of a stack that meets the rule), up to round-off."""
    ops = np.asarray(p.operators)
    ranks, min_eig, valid = oracle_report(ops)
    report = validate_povm(p)
    assert report.valid is valid
    assert report.rank.tolist() == ranks
    herm = np.linalg.norm(ops - ops.conj().transpose(0, 2, 1), axis=(1, 2))
    slack = herm + 1e-15 * np.linalg.norm(ops, axis=(1, 2))
    assert np.all(np.abs(report.min_eigenvalue - min_eig) <= slack)


@PROPERTY
@given(dim=DIMS, seed=SEEDS)
@example(dim=64, seed=0)
def test_validate_agrees_with_the_eigensolve(dim, seed):
    rng = np.random.default_rng(seed)
    assert_report_agrees(build_usd_povm(state_set(random_states(seed, dim))))
    if dim >= 2:
        # lambda_2(F_1) just above psd_tol reports rank 2; just below it, rank 1
        q = random_unitary(rng, dim)
        above = povm_with_second_eigenvalue(q, 2.02 * DEFAULT_TOL.psd_tol)
        assert_report_agrees(above)
        assert validate_povm(above).rank[0] == 2
        below = povm_with_second_eigenvalue(q, 2.0 * DEFAULT_TOL.psd_tol / 1.01)
        assert_report_agrees(below)
        assert validate_povm(below).rank[0] == 1


@PROPERTY
@given(dim=st.integers(2, 64), seed=SEEDS, scale=st.sampled_from([0.4, 1.2]))
@example(dim=64, seed=3, scale=1.2)
def test_validate_keeps_verdicts_on_non_hermitian_stacks(dim, seed, scale):
    # the inconclusive operator's residual is scale times its Hermiticity bound;
    # the opposite perturbation, spread over the detection operators, keeps completeness
    ops = np.array(build_usd_povm(state_set(random_states(seed, dim))).operators)
    s = np.ones((dim, dim)) - np.eye(dim)
    residual = scale * DEFAULT_TOL.eq_tol * max(1.0, np.linalg.norm(ops[-1]))
    e = 0.5j * residual * s / np.linalg.norm(s)
    ops[-1] += e
    ops[:dim] -= e / dim
    p = PovmSet(dim=dim, operators=ops)
    assert_report_agrees(p)
    assert validate_povm(p).valid is (scale < 1.0)


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


def weyl_radius(svd, m: np.ndarray) -> np.ndarray:
    """How far each exact singular value of ``m`` can lie from ``s_i`` of the
    factorization ``svd = (U, s, V^dag)``: the residual ``||U S V^dag - m||`` (Weyl)
    plus ``s_i (a + b + ab)``, for the unitarity defects ``a = ||U^dag U - I||_2`` and
    ``b`` of V, since ``sigma_i(U S V^dag)`` lies between ``s_i sigma_min(U) sigma_min(V)``
    and ``s_i ||U||_2 ||V||_2`` (Ostrowski)."""
    u, s, vh = svd
    a, b = (np.linalg.norm(x.conj().T @ x - np.eye(x.shape[1]), 2) for x in (u, vh.conj().T))
    return np.linalg.norm((u * s) @ vh - m) + s * (a + b + a * b)


def assert_svd_of(svd, m: np.ndarray, c: float = 4.0) -> None:
    """``svd = (U, s, V^dag)`` is an SVD of ``m``: it reconstructs ``m`` to ``c N eps``,
    its factors pass the unitarity rule, and ``s`` descends to LAPACK's values within
    the :func:`weyl_radius` of both factorizations, each of which holds the exact values."""
    u, s, vh = svd
    assert np.linalg.norm((u * s) @ vh - m) <= c * len(s) * np.finfo(float).eps
    check_unitary(u, DEFAULT_TOL, "U")
    check_unitary(vh.conj().T, DEFAULT_TOL, "V")
    assert np.all(np.diff(s) <= 0.0)
    lapack = np.linalg.svd(m)
    assert np.all(np.abs(s - lapack[1]) <= weyl_radius(svd, m) + weyl_radius(lapack, m))


@PROPERTY
@given(dim=st.sampled_from([2, 8, 32, 64]), seed=SEEDS, log_cond=st.floats(0.0, 11.0))
@example(dim=2, seed=0, log_cond=11.0)
@example(dim=8, seed=1, log_cond=1e-14)  # LAPACK's values without vectors were 4.3 N eps off ours
@example(dim=64, seed=0, log_cond=11.0)
def test_inherited_svd_is_an_svd_of_k(dim, seed, log_cond):
    rng = np.random.default_rng(seed)
    povm = build_usd_povm(state_set(log_spaced_states(rng, dim, log_cond)))  # cond <= 1.5e11
    le = lossy_from_povm(povm, computational_basis(dim), rng.uniform(-np.pi, np.pi, dim))
    # s = sigma_min / sigma_i: the largest is exactly 1 at the default weight.
    # LAPACK's own values of the rounded K differ from it by up to about 2 N eps at N = 2.
    assert le.sv[0] == 1.0
    assert_svd_of(le.svd, le.k)
    assert_svd_of(povm.svd, povm.vectors.conj())
    basis = projective_basis(random_unitary(rng, dim))
    assert_svd_of(povm_from_lossy(le, basis).svd, basis.psi.conj().T @ le.k)
    u = dilate_unitary(le)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2 * dim)) <= 1e-10


@PROPERTY
@given(dim=DIMS, seed=SEEDS)
@example(dim=64, seed=0)
def test_subspace_reduction_keeps_overlaps_through_an_isometry(dim, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, dim + 1))
    m = random_complex(rng, dim, count)
    m /= np.linalg.norm(m, axis=0)
    reduced, u = subspace_reduce(state_set(m))
    out = np.asarray(reduced.states)
    assert reduced.dim == reduced.count == count
    assert np.linalg.norm(u.conj().T @ u - np.eye(count)) <= 1e-12 * dim
    assert np.linalg.norm(out.conj().T @ out - m.conj().T @ m) <= 1e-10
    if dim == 1:  # in C^1 a repeated state is one state too many, not a dependent one
        return
    keep = min(count, dim - 1)
    i = int(rng.integers(keep))
    j = int(rng.integers(i + 1, keep + 1))
    duplicated = np.insert(m[:, :keep], j, m[:, i], axis=1)  # column j repeats column i
    with pytest.raises(SingularStates) as err:
        subspace_reduce(StateSet(dim=dim, states=duplicated))
    assert err.value.context["condition_number"] > DEFAULT_TOL.cond_max


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
