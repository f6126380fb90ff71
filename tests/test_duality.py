import tracemalloc

import numpy as np
import pytest

from usd_kit import duality, io
from usd_kit.discrimination import outcome_probabilities, state_ensemble, usd_report
from usd_kit.duality import (
    StateSet,
    _stack_pass,
    build_usd_povm,
    check_density_matrix,
    diagonal_pivot,
    dual_set,
    rank_one_rule,
    state_set,
    subspace_reduce,
    validate_povm,
)
from usd_kit.duality import PovmSet
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    lossy_from_povm,
    make_lossy,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.errors import (
    DimensionMismatch,
    InfeasibleScaling,
    InvalidDensityMatrix,
    InvalidMatrix,
    InvalidPovm,
    InvalidStateSet,
    ParamOutOfRange,
    RankMismatch,
    SingularMatrix,
    SingularStates,
)
from usd_kit.linalg import DEFAULT_TOL, ToleranceContext, check_invertible, sv_condition

from helpers import (
    fig1_states,
    first_weight,
    log_spaced_states,
    oracle_report,
    random_complex,
    random_density,
    random_state_set,
    record_calls,
)


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


def test_cond_max_above_1e12_is_honoured():
    m = log_spaced_states(np.random.default_rng(0), 4, 13.4)
    cond = np.linalg.cond(m)  # numpy's own SVD, not the library's
    assert 1.5e13 < cond < 3e13
    loose = ToleranceContext(cond_max=1e14)
    s = state_set(m, loose)
    check_invertible(s.sv, loose)
    dual_set(s, loose)
    with pytest.raises(SingularStates) as err:
        state_set(m)
    assert abs(err.value.context["condition_number"] / cond - 1.0) < 1e-2  # finite, not inf


@pytest.mark.parametrize("cond_max", [np.inf, np.nan, 0.0])
def test_cond_max_must_be_finite_and_positive(cond_max):
    with pytest.raises(ValueError):
        ToleranceContext(cond_max=cond_max)


def test_check_invertible_and_state_set_agree_at_the_bound():
    s = state_set(log_spaced_states(np.random.default_rng(1), 8, 6.0))
    cond = sv_condition(s.sv)
    at, below = ToleranceContext(cond_max=cond), ToleranceContext(cond_max=np.nextafter(cond, 0.0))
    state_set(s.states, at)
    check_invertible(s.sv, at)
    with pytest.raises(SingularStates):
        state_set(s.states, below)
    with pytest.raises(SingularMatrix):
        check_invertible(s.sv, below)


# -- dual_set ---------------------------------------------------------------

def test_dual_of_orthonormal_basis_is_itself():
    s = state_set(np.eye(2))
    assert frob(dual_set(s) - np.eye(2)) < 1e-14


def test_dual_two_vectors_matches_inverse_rows():
    s = state_set(np.column_stack([[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)]))
    d = dual_set(s)
    expected = np.column_stack([[1.0, -1.0], [0.0, np.sqrt(2.0)]]).conj()
    assert frob(d - expected) < 1e-12


def test_dual_fig1_pairing():
    s = state_set(fig1_states())
    d = dual_set(s)
    pairing = d.conj().T @ np.asarray(s.states)
    assert frob(pairing - np.eye(2)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_dual_pairing_within_conditioned_budget(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        m = random_complex(rng, n) + 2.0 * np.eye(n)
        s = state_set(m / np.linalg.norm(m, axis=0))
        d = dual_set(s)
        cond = np.linalg.cond(s.states)
        assert frob(d.conj().T @ np.asarray(s.states) - np.eye(n)) <= 1e-10 * cond


def test_dual_requires_square_state_set():
    s = state_set(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatch):
        dual_set(s)


def test_dual_round_trip_recovers_rays():
    rng = np.random.default_rng(53)
    for dim in (2, 3, 5):
        s = random_state_set(rng, dim)
        d = dual_set(s)
        renormalized = state_set(d / np.linalg.norm(d, axis=0))
        back = dual_set(renormalized)
        for i in range(dim):
            inner = abs(back[:, i].conj() @ s.states[:, i])
            assert abs(inner - np.linalg.norm(back[:, i])) < 1e-10


# -- build_usd_povm ------------------------------------------------------------

def test_uniform_max_on_orthonormal_states_is_projective():
    s = state_set(np.eye(3))
    p = build_usd_povm(s)
    assert abs(first_weight(p, s) - 1.0) < 1e-9
    for i in range(3):
        projector = np.zeros((3, 3))
        projector[i, i] = 1.0
        assert frob(np.asarray(p.operators[i]) - projector) < 1e-9
    assert frob(np.asarray(p.operators[3])) < 1e-9


def test_uniform_max_fig1_matches_hand_arithmetic():
    s = state_set(fig1_states())
    p = build_usd_povm(s)
    f1, f2, f3 = fig1_povm_operators()
    assert abs(first_weight(p, s) - 0.4) < 1e-10
    assert frob(np.asarray(p.operators[0]) - f1) < 1e-10
    assert frob(np.asarray(p.operators[1]) - f2) < 1e-10
    assert frob(np.asarray(p.operators[2]) - f3) < 1e-10


def test_explicit_scaling_too_large_is_infeasible():
    with pytest.raises(InfeasibleScaling):
        build_usd_povm(state_set(fig1_states()), weights=[1.0, 1.0])


def test_explicit_scaling_must_be_positive():
    with pytest.raises(ParamOutOfRange):
        build_usd_povm(state_set(fig1_states()), weights=[0.4, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_explicit_scaling_must_be_finite(bad):
    with pytest.raises(ParamOutOfRange):
        build_usd_povm(state_set(fig1_states()), weights=[bad, 0.1])


def test_explicit_scaling_beyond_the_dual_norm_is_infeasible():
    # 1e308 * ||d_1||^2 overflows; the weight is rejected before the stack is built
    with pytest.raises(InfeasibleScaling) as err:
        build_usd_povm(state_set(fig1_states()), weights=[1e308, 0.1])
    assert err.value.context["operator"] == 1
    # lambda_i ||d_i||^2 = 1 exactly is feasible: orthonormal states give the projective POVM
    assert validate_povm(build_usd_povm(state_set(np.eye(3)), weights=[1.0, 1.0, 1.0])).valid


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


def test_povm_rejects_an_empty_space():
    with pytest.raises(DimensionMismatch):
        PovmSet(dim=0, operators=np.zeros((1, 0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_povm_rejects_non_finite_entries(bad):
    ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))], dtype=complex)
    ops[1, 0, 1] = bad
    with pytest.raises(InvalidMatrix):
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
    assert report.rank.tolist() == [1, 1, 1]


def test_report_and_duals_are_read_only_arrays():
    s = state_set(fig1_states())
    report = validate_povm(build_usd_povm(s))
    columns = (report.hermiticity_residual, report.min_eigenvalue, report.rank, report.rank_one, dual_set(s))
    assert [a.shape for a in columns] == [(3,), (3,), (3,), (2,), (2, 2)]
    assert report.rank.dtype.kind == "i" and report.rank_one.dtype == bool
    assert not any(a.flags.writeable for a in columns)


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
    assert abs(report.hermiticity_residual[-1] - residual) <= 1e-3 * residual
    assert report.completeness_residual <= DEFAULT_TOL.eq_tol
    assert report.min_eigenvalue.min() >= -DEFAULT_TOL.psd_tol
    assert report.valid is valid


# -- the one bound b_k = psd_tol * min(1, ||F_k||_F) ----------------------------------

def test_certificate_reads_the_rule_bound_below_unit_norm():
    # F_1 = diag(0.5, 0.75e-9): on its diagonal pivot the defect is 0.75e-9, above
    # b_1 = 0.5e-9 yet below psd_tol, so the rule finds F_1 not rank one, while the
    # eigensolve reports its smallest eigenvalue 0.75e-9 and rank 1
    tol = DEFAULT_TOL.psd_tol
    f1 = np.diag([0.5, 0.5 * 1.5 * tol])
    p = PovmSet(dim=2, operators=(f1, np.diag([0.0, 0.5]), np.eye(2) - f1 - np.diag([0.0, 0.5])))
    report = validate_povm(p)
    assert report.valid
    assert report.rank.tolist() == [1, 1, 2]
    assert report.min_eigenvalue[0] == np.linalg.eigvalsh(f1)[0] > 0.0
    assert report.rank_one.tolist() == [False, True]
    with pytest.raises(InvalidPovm) as err:
        io.povm_from_doc(io.povm_doc(p))
    assert err.value.context["operator"] == 1


def test_reconstruction_bound_is_psd_tol_above_unit_norm():
    # an unvalidated stack with ||F_1||_F = 4: the defect 2 psd_tol on the pivot
    # psi_1 = e_1 is within psd_tol * ||F_1||_F but not within b_1 = psd_tol
    tol = DEFAULT_TOL.psd_tol
    f1, f2 = np.diag([4.0, 2.0 * tol]), np.diag([0.0, 1.0])
    p = PovmSet(dim=2, operators=(f1, f2, np.eye(2) - f1 - f2))
    assert not validate_povm(p).valid
    with pytest.raises(RankMismatch) as err:
        lossy_from_povm(p, computational_basis(2))
    assert err.value.context["operator"] == 1


# -- work counts: one SVD per state set, one eigensolve per valid USD POVM ----------

def test_validate_eigensolves_only_the_inconclusive_operator(monkeypatch):
    n = 64
    m = random_complex(np.random.default_rng(3), n)
    p = build_usd_povm(state_set(m / np.linalg.norm(m, axis=0)))
    calls = record_calls(monkeypatch, "eigvalsh")
    report = validate_povm(p)
    assert calls == [(n, n)]  # the completion, read from the factored POVM
    assert report.valid
    assert report.rank.tolist() == [1] * n + [n - 1]


def test_validated_load_makes_one_pass_and_one_eigensolve(monkeypatch):
    doc = io.povm_doc(build_usd_povm(random_state_set(np.random.default_rng(6), 8)))
    calls = record_calls(monkeypatch, "eigvalsh")
    passes, reports = [], []
    monkeypatch.setattr(duality, "_stack_pass", lambda *args: passes.append(1) or _stack_pass(*args))
    monkeypatch.setattr(io, "validate_povm", lambda *args: reports.append(1) or validate_povm(*args))
    io.povm_from_doc(doc)
    assert calls == [(9, 8, 8)]  # the whole stack
    assert passes == [1]  # the load's rank-one verdict forms no defect a second time
    assert reports == [1]  # and comes from the public report


def test_near_zero_detection_operator_is_not_rank_one():
    # ||F_1||_F = 1e-10 <= psd_tol: the report, the load and K reconstruction agree
    p = PovmSet(dim=2, operators=[np.diag([1e-10, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0 - 1e-10, 0.0])])
    report = validate_povm(p)
    assert report.valid
    assert report.rank.tolist() == [0, 1, 1]
    assert report.rank_one.tolist() == [False, True]
    with pytest.raises(InvalidPovm) as err:
        io.povm_from_doc(io.povm_doc(p))
    assert err.value.context == {"operator": 1}
    with pytest.raises(RankMismatch, match="is zero") as err:
        lossy_from_povm(p, computational_basis(2))
    assert err.value.context == {"operator": 1}


def test_state_set_and_build_share_one_svd(monkeypatch):
    m = random_complex(np.random.default_rng(4), 8)
    calls, inverses = record_calls(monkeypatch, "svd"), record_calls(monkeypatch, "inv")
    build_usd_povm(state_set(m / np.linalg.norm(m, axis=0)))
    assert calls == [(8, 8)]  # the condition check, the duals and the weight read it
    assert inverses == []


def test_usd_pipeline_takes_one_svd_and_one_eigensolve(monkeypatch):
    m = random_complex(np.random.default_rng(5), 64)
    svds, eigs = record_calls(monkeypatch, "svd"), record_calls(monkeypatch, "eigvalsh")
    s = state_set(m / np.linalg.norm(m, axis=0))
    povm = build_usd_povm(s)
    validate_povm(povm)
    basis = computational_basis(64)
    le = lossy_from_povm(povm, basis)
    usd_report(state_ensemble(s, np.full(64, 1 / 64)), povm_from_lossy(le, basis))
    dilate_unitary(le)
    assert svds == [(64, 64)] and eigs == [(64, 64)]  # K and both POVMs inherit the states' SVD


def test_round_trip_through_a_povm_takes_no_svd(monkeypatch):
    le = make_lossy(random_complex(np.random.default_rng(6), 8) / 10.0)
    basis = projective_basis(np.linalg.qr(random_complex(np.random.default_rng(7), 8))[0])
    svds = record_calls(monkeypatch, "svd")
    back = lossy_from_povm(povm_from_lossy(le, basis), basis, np.linspace(-3.0, 3.0, 8))
    assert svds == []
    assert np.allclose(back.sv, le.sv, rtol=0.0, atol=1e-14)


# -- the whole-stack pass against a per-operator reference --------------------

STACK_DIMS = [1, 2, 8, 25, 26, 32, 64]


def stack_test_states(n: int) -> StateSet:
    m = random_complex(np.random.default_rng([n, 1]), n)
    return state_set(m / np.linalg.norm(m, axis=0))


def stack_test_povm(n: int, variant: str) -> PovmSet:
    """A USD POVM at half the uniform weight, so the inconclusive operator has
    room.  ``non_hermitian`` breaks the Hermiticity of the inconclusive
    operator, ``non_hermitian_first`` that of the first detection operator;
    ``rank_two`` gives detection operator ``n // 2`` a second eigenvalue of
    1e-3 of its first, taken from the inconclusive one; ``tiny`` moves all but
    1e-10 of the last detection operator's norm to the inconclusive one, so its
    pivot is aligned under the relative bound only and the zero threshold
    ``||F_k||_F > psd_tol`` rejects it."""
    rng = np.random.default_rng(n)
    s = stack_test_states(n)
    ops = np.array(build_usd_povm(s, [0.5 * s.sv[-1] ** 2] * n).operators)
    if variant.startswith("non_hermitian"):
        ops[0 if variant == "non_hermitian_first" else n] += 1e-6j * np.triu(np.ones((n, n)))
    elif variant == "rank_two":
        k = n // 2
        d = ops[k, :, np.argmax(np.diagonal(ops[k]).real)]
        v = random_complex(rng, n, 1)[:, 0]
        v -= d * (d.conj() @ v) / (d.conj() @ d)  # orthogonal to the range of F_k
        extra = 1e-3 * np.linalg.norm(ops[k]) * np.outer(v, v.conj()) / (v.conj() @ v).real
        ops[k] += extra
        ops[-1] -= extra
    elif variant == "tiny":
        extra = (1.0 - 1e-10 / np.linalg.norm(ops[n - 1])) * ops[n - 1]
        ops[n - 1] -= extra
        ops[-1] += extra
    return PovmSet(dim=n, operators=ops)


def per_operator_reference(ops: np.ndarray, n: int):
    """Norms, Hermiticity residuals and diagonal-pivot defects, one operator at a time."""
    rows, weights = diagonal_pivot(ops[:n])
    norms = np.array([np.linalg.norm(f) for f in ops])
    herm = np.array([np.linalg.norm(f - f.conj().T) for f in ops])
    defects = np.array([np.linalg.norm(f - np.outer(r.conj(), r / w)) for f, r, w in zip(ops, rows, weights)])
    return rows, weights, norms, herm, defects


@pytest.mark.parametrize(
    "n, variant",
    [(n, v) for n in STACK_DIMS for v in ("clean", "non_hermitian", "non_hermitian_first", "rank_two", "tiny")
     if (n, v) != (1, "rank_two")],
)
def test_stack_pass_matches_the_per_operator_reference(n, variant):
    p = stack_test_povm(n, variant)
    ops, tol = p.operators, DEFAULT_TOL
    rows, weights, norms, herm, defects = per_operator_reference(ops, n)
    bound = tol.psd_tol * np.minimum(1.0, norms[:n])  # the rule's one bound b_k
    asked = weights > bound
    assert asked.all()
    got = _stack_pass(ops, rows, weights, tol.psd_tol)
    assert np.array_equal(got[0], norms) and np.array_equal(got[1], herm)
    assert np.array_equal(got[2], np.append(defects, np.inf))
    nonzero = norms[:n] > tol.psd_tol
    passed = nonzero & asked & (defects <= bound)
    assert np.array_equal(got[3], nonzero) and np.array_equal(got[4], asked)
    assert np.array_equal(got[5], passed)
    assert bool(nonzero.all()) is (variant != "tiny")

    # the rank-one rule on the diagonal pivot and on the computational basis,
    # lossy_from_povm's pivot there, against the rule one operator at a time
    diag = np.arange(n)
    for r, w in [(rows, weights), (ops[diag, diag], ops[diag, diag, diag].real)]:
        reference = [np.linalg.norm(f) > tol.psd_tol and wk > b
                     and np.linalg.norm(f - np.outer(rk.conj(), rk / wk)) <= b
                     for f, rk, wk, b in zip(ops, r, w, bound)]
        rule = rank_one_rule(ops[:n], r, w)
        assert np.array_equal(rule[0], nonzero) and rule[2].tolist() == reference
    assert passed.all() or variant != "clean"
    assert not passed.all() or variant != "rank_two"

    # validate_povm: residuals, eigenvalues, ranks and verdict
    ranks, _, valid = oracle_report(np.asarray(ops))
    report = validate_povm(p)
    assert report.hermiticity_residual.tolist() == herm.tolist()
    assert report.rank.tolist() == ranks
    assert report.valid is valid is (not variant.startswith("non_hermitian"))
    assert np.array_equal(report.rank_one, passed)
    # every operator's smallest eigenvalue and rank, bit for bit, are those of one
    # eigensolve of the stack, symmetrized only when it breaks the Hermiticity rule
    hermitian = bool(np.all(herm <= tol.eq_tol * np.maximum(1.0, norms)))
    assert hermitian is (not variant.startswith("non_hermitian"))
    w = np.linalg.eigvalsh(ops if hermitian else (ops + ops.conj().transpose(0, 2, 1)) / 2.0)
    assert report.min_eigenvalue.tobytes() == w[:, 0].tobytes()
    assert report.rank.tobytes() == np.count_nonzero(w > tol.psd_tol, axis=1).tobytes()

    # outcome probabilities of the states behind the POVM: the non-Hermitian
    # part breaks completeness by about 1e-6 in the states' directions
    # (not at N = 1, where 1e-6j only moves the imaginary part)
    s = stack_test_states(n)
    a = np.asarray(s.states)
    probs = np.array([np.sum(a.conj() * (f @ a), axis=0).real for f in ops]).T
    broken = bool(np.any(probs < -tol.psd_tol) or np.any(np.abs(probs.sum(axis=1) - 1.0) > tol.eq_tol))
    assert broken is (variant.startswith("non_hermitian") and n > 1)
    ensemble = state_ensemble(s, np.full(n, 1.0 / n))
    if broken:
        with pytest.raises(InvalidPovm):
            usd_report(ensemble, p)
    else:
        probs = np.clip(probs, 0.0, None)
        r = usd_report(ensemble, p)
        errors = probs[:, :n].copy()
        np.fill_diagonal(errors, 0.0)
        assert np.array_equal(r.per_state_success, np.diagonal(probs))
        assert np.array_equal(r.error_matrix, errors)
        assert np.array_equal(r.inconclusive_per_state, probs[:, n])

    # loading and K reconstruction reject exactly what the reference rejects
    bad = np.flatnonzero(~passed)
    if not valid:
        with pytest.raises(InvalidPovm, match="failed validation on load"):
            io.povm_from_doc(io.povm_doc(p))
    elif bad.size:
        with pytest.raises(InvalidPovm) as err:
            io.povm_from_doc(io.povm_doc(p))
        assert err.value.context == {"operator": int(bad[0]) + 1}
        with pytest.raises(RankMismatch):
            lossy_from_povm(p, computational_basis(n))
    else:
        io.povm_from_doc(io.povm_doc(p))


def test_dense_passes_keep_temporaries_below_two_stacks():
    # The whole-stack passes hold about one stack of temporaries; three live ones would read 3x.
    n = 64
    s = stack_test_states(n)
    p = PovmSet(n, build_usd_povm(s).operators)
    ensemble, basis = state_ensemble(s, np.full(n, 1.0 / n)), computational_basis(n)
    for call in (lambda: validate_povm(p), lambda: lossy_from_povm(p, basis), lambda: usd_report(ensemble, p)):
        call()  # warm up: the first call fills caches that later calls read
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * p.stack.nbytes


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


def test_probabilities_reject_a_povm_whose_outcomes_do_not_sum_to_one():
    p = PovmSet(dim=2, operators=[np.eye(2), np.eye(2), np.zeros((2, 2))])  # sums to 2I
    with pytest.raises(InvalidPovm) as err:
        outcome_probabilities(np.eye(2) / 2.0, p)
    assert err.value.context == {"state": 1, "probability_sum": 2.0}


def test_probabilities_negative_beyond_psd_tol_blame_the_povm():
    p = PovmSet(dim=2, operators=[np.diag([1.5, 0.0]), np.diag([0.0, 1.0]), np.diag([-0.5, 0.0])])
    with pytest.raises(InvalidPovm) as err:
        outcome_probabilities(np.diag([1.0, 0.0]), p)
    assert err.value.context == {"state": 1, "outcome": 3, "probability": -0.5}


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
            alpha = s.states[:, j]
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
    reduced, u = subspace_reduce(s)
    out = np.asarray(reduced.states)
    assert reduced.dim == reduced.count == 2
    assert frob(out.conj().T @ out - states.conj().T @ states) < 1e-12
    assert frob(u @ out - states) < 1e-12


def test_subspace_reduce_preserves_overlaps():
    rng = np.random.default_rng(73)
    s = random_state_set(rng, 5, count=3)
    reduced, u = subspace_reduce(s)
    a, out = np.asarray(s.states), np.asarray(reduced.states)
    assert reduced.dim == reduced.count == 3
    assert frob(a.conj().T @ a - out.conj().T @ out) < 1e-10
    assert frob(u @ out - a) < 1e-10


def test_subspace_reduce_takes_no_second_svd(monkeypatch):
    s = random_state_set(np.random.default_rng(74), 64, count=40)
    svds = record_calls(monkeypatch, "svd")
    reduced, _ = subspace_reduce(s)
    assert svds == []  # S V^dag has the SVD (I, s, V^dag)
    u, sv, vh = reduced.svd
    assert np.array_equal(u, np.eye(40)) and sv is s.sv and vh is s.svd[2]
    assert np.array_equal(u @ (sv[:, None] * vh), reduced.states)


@pytest.mark.parametrize("dim, count", [(2, 1), (3, 2), (5, 3), (64, 40)])
def test_fewer_states_than_dimensions_reach_a_usd_povm(dim, count):
    s = random_state_set(np.random.default_rng(100 * dim + count), dim, count)
    reduced, _ = subspace_reduce(s)
    povm = build_usd_povm(reduced)
    assert validate_povm(povm).valid
    report = usd_report(state_ensemble(reduced, np.full(count, 1.0 / count)), povm)
    assert np.abs(report.per_state_success - s.sv[-1] ** 2).max() <= 1e-12
    assert np.abs(report.error_matrix).max() <= 1e-12


def test_state_set_built_directly_checks_its_matrix_before_the_svd():
    with pytest.raises(InvalidMatrix):
        StateSet(dim=2, states=np.full((2, 2), np.nan, dtype=complex)).svd


def test_subspace_reduce_dependent_states():
    column = np.array([1.0, 0.0, 0.0])
    # bypass the factory: the reduced set's own cond_max check catches the dependence
    s = StateSet(dim=3, states=np.column_stack([column, column, column]).astype(complex))
    with pytest.raises(SingularStates) as err:
        subspace_reduce(s)
    assert err.value.context["condition_number"] > DEFAULT_TOL.cond_max
