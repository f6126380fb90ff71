import numpy as np
import pytest

from usd_kit.discrimination import (
    RandomSource,
    density_matrix,
    post_measurement_state,
    sample_outcomes,
    state_ensemble,
    usd_report,
)
from usd_kit.duality import PovmSet, build_usd_povm, state_set
from usd_kit.equivalence import (
    computational_basis,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
)
from usd_kit.errors import (
    DimensionMismatch,
    InvalidEnsemble,
    InvalidPovm,
    ZeroProbabilityBranch,
)

from helpers import fig1_states, random_complex, random_density, random_state_set


def frob(a):
    return np.linalg.norm(a)


def fig1_ensemble(gamma=0.5):
    return state_ensemble(state_set(fig1_states(gamma)), [0.5, 0.5])


def fig1_povm(gamma=0.5):
    return build_usd_povm(state_set(fig1_states(gamma)))


# -- ensembles and density matrices -------------------------------------------

def test_priors_must_sum_to_one():
    with pytest.raises(InvalidEnsemble):
        state_ensemble(state_set(np.eye(2)), [0.6, 0.6])


def test_priors_must_be_nonnegative():
    with pytest.raises(InvalidEnsemble):
        state_ensemble(state_set(np.eye(2)), [1.5, -0.5])


@pytest.mark.parametrize("priors", [[np.nan, np.nan], [np.nan, 1.0]])
def test_priors_must_be_finite(priors):
    with pytest.raises(InvalidEnsemble):
        state_ensemble(state_set(np.eye(2)), priors)


def test_density_matrix_single_state():
    e = state_ensemble(state_set(np.array([[1.0], [0.0]])), [1.0])
    assert np.array_equal(density_matrix(e), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_density_matrix_uniform_basis_is_maximally_mixed():
    e = state_ensemble(state_set(np.eye(4)), np.full(4, 0.25))
    assert frob(density_matrix(e) - np.eye(4) / 4.0) < 1e-14


def test_density_matrix_fig1_mixture():
    rho = density_matrix(fig1_ensemble())
    assert frob(rho - np.diag([0.2, 0.8])) < 1e-12


def test_density_matrix_properties():
    rng = np.random.default_rng(127)
    e = state_ensemble(random_state_set(rng, 4), [0.1, 0.2, 0.3, 0.4])
    rho = density_matrix(e)
    assert frob(rho - rho.conj().T) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


# -- usd_report -----------------------------------------------------------------

def test_report_orthonormal_projective_is_perfect():
    e = state_ensemble(state_set(np.eye(3)), np.full(3, 1.0 / 3.0))
    p = povm_from_lossy(make_lossy(np.eye(3)), computational_basis(3))
    report = usd_report(e, p)
    assert abs(report.total_success - 1.0) < 1e-12
    assert report.total_inconclusive < 1e-12
    assert report.total_error < 1e-12


def test_report_fig1_totals():
    report = usd_report(fig1_ensemble(), fig1_povm())
    assert abs(report.total_success - 0.4) < 1e-12
    assert abs(report.total_inconclusive - 0.6) < 1e-12
    assert report.total_error <= 1e-12


def test_report_overlap_cross_check():
    # two-state bound for equal priors: inconclusive equals the state overlap
    for gamma in (0.2, 0.5, 0.8):
        report = usd_report(fig1_ensemble(gamma), fig1_povm(gamma))
        states = fig1_states(gamma)
        overlap = abs(states[:, 0].conj() @ states[:, 1])
        assert abs(report.total_inconclusive - overlap) < 1e-10
        assert abs(report.total_success - (1.0 - overlap)) < 1e-10


def test_report_naive_projective_measurement_errs():
    ops = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    report = usd_report(fig1_ensemble(), PovmSet(dim=2, operators=ops))
    # prepared state 1 hits detector 2 with probability 1/(1+gamma^2) = 0.8
    assert abs(report.error_matrix[0, 1] - 0.8) < 1e-12
    assert abs(report.error_matrix[1, 0] - 0.2) < 1e-12
    assert abs(report.total_error - 0.5) < 1e-12


def test_report_dimension_mismatch():
    e = state_ensemble(state_set(np.eye(3)), np.full(3, 1.0 / 3.0))
    with pytest.raises(DimensionMismatch):
        usd_report(e, fig1_povm())


def test_report_rows_sum_to_one():
    rng = np.random.default_rng(131)
    for dim in (2, 3, 5):
        s = random_state_set(rng, dim)
        priors = rng.dirichlet(np.ones(dim))
        report = usd_report(state_ensemble(s, priors), build_usd_povm(s))
        rows = (
            report.per_state_success
            + report.error_matrix.sum(axis=1)
            + report.inconclusive_per_state
        )
        assert np.allclose(rows, 1.0, atol=1e-10)


def test_report_agrees_with_evolved_projective_probabilities():
    # evolve each state with the operator realizing the POVM, then measure
    # projectively; entries must match the direct POVM report
    rng = np.random.default_rng(137)
    for dim in (2, 3, 4):
        s = random_state_set(rng, dim)
        priors = rng.dirichlet(np.ones(dim))
        povm_report = usd_report(state_ensemble(s, priors), build_usd_povm(s))
        basis = computational_basis(dim)
        le = lossy_from_povm(build_usd_povm(s), basis)
        k = np.asarray(le.k)
        for i in range(dim):
            evolved = k @ s.column(i)
            for j in range(dim):
                projective = abs(basis.vector(j).conj() @ evolved) ** 2
                via_povm = (
                    povm_report.per_state_success[i]
                    if i == j
                    else povm_report.error_matrix[i, j]
                )
                assert abs(projective - via_povm) < 1e-10


# -- sample_outcomes ---------------------------------------------------------------

def test_sampling_deterministic_povm_puts_all_mass_on_first_outcome():
    ops = (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    p = PovmSet(dim=2, operators=ops)
    stats = sample_outcomes(fig1_ensemble(), p, 500, RandomSource(seed=3))
    assert np.array_equal(stats.counts[:, 0], [500, 500])
    assert stats.counts[:, 1:].sum() == 0


def test_sampling_fig1_frequencies_within_three_sigma():
    stats = sample_outcomes(fig1_ensemble(), fig1_povm(), 100_000, RandomSource(seed=7))
    sigma = np.sqrt(0.4 * 0.6 / 100_000)
    for i in range(2):
        freq = stats.counts[i, i] / 100_000
        assert abs(freq - 0.4) <= 3 * sigma
        assert stats.counts[i, 1 - i] == 0  # zero-error outcome never fires


def test_sampling_same_seed_is_identical():
    a = sample_outcomes(fig1_ensemble(), fig1_povm(), 2000, RandomSource(seed=21))
    b = sample_outcomes(fig1_ensemble(), fig1_povm(), 2000, RandomSource(seed=21))
    assert np.array_equal(a.counts, b.counts)


def test_sampling_seed_selects_the_stream():
    e = fig1_ensemble()
    p = fig1_povm()
    a, b, c = (sample_outcomes(e, p, 999, RandomSource(seed=s)) for s in (7, 7, 8))
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.all(a.counts.sum(axis=1) == 999)


def test_sampling_accepts_the_largest_seed():
    stats = sample_outcomes(fig1_ensemble(), fig1_povm(), 999, RandomSource(seed=2**128 - 1))
    assert np.all(stats.counts.sum(axis=1) == 999)


@pytest.mark.parametrize("trials", [0, 1, 2**63 - 1])
def test_sampling_edge_trial_counts(trials):
    stats = sample_outcomes(fig1_ensemble(), fig1_povm(), trials, RandomSource(seed=4))
    assert stats.counts.shape == (2, 3)
    assert stats.counts.dtype == np.int64
    assert not stats.counts.flags.writeable
    assert np.all(stats.counts.sum(axis=1) == trials)


def test_sampling_rejects_negative_trials():
    with pytest.raises(InvalidEnsemble):
        sample_outcomes(fig1_ensemble(), fig1_povm(), -1, RandomSource(seed=1))


def test_sampling_rejects_trials_beyond_int64():
    with pytest.raises(InvalidEnsemble):
        sample_outcomes(fig1_ensemble(), fig1_povm(), 2**63, RandomSource(seed=1))


@pytest.mark.parametrize("trials", [10.5, 10.0, True, "10", None])
def test_sampling_rejects_non_integer_trials(trials):
    with pytest.raises(InvalidEnsemble):
        sample_outcomes(fig1_ensemble(), fig1_povm(), trials, RandomSource(seed=1))


def test_sampling_accepts_numpy_integer_trials():
    stats = sample_outcomes(fig1_ensemble(), fig1_povm(), np.int64(10), RandomSource(seed=1))
    assert stats.trials == 10
    assert np.all(stats.counts.sum(axis=1) == 10)


def test_sampling_rejects_invalid_povm():
    ops = (np.eye(2), np.eye(2), np.zeros((2, 2)))  # sums to 2I
    with pytest.raises(InvalidPovm):
        sample_outcomes(fig1_ensemble(), PovmSet(dim=2, operators=ops), 10, RandomSource(seed=1))


def test_sampling_frequencies_track_probabilities():
    rng = np.random.default_rng(139)
    s = random_state_set(rng, 3)
    e = state_ensemble(s, np.full(3, 1.0 / 3.0))
    p = build_usd_povm(s)
    trials = 100_000
    stats = sample_outcomes(e, p, trials, RandomSource(seed=11))
    for i in range(3):
        alpha = s.column(i)
        probs = np.array(
            [(alpha.conj() @ np.asarray(op) @ alpha).real for op in p.operators]
        ).clip(0.0)
        for j, prob in enumerate(probs):
            sigma = np.sqrt(max(prob * (1 - prob), 1e-12) / trials)
            assert abs(stats.counts[i, j] / trials - prob) <= 4 * sigma


# -- post_measurement_state -----------------------------------------------------------

def test_post_measurement_identity_outcome_keeps_state():
    rho = density_matrix(fig1_ensemble())
    out = post_measurement_state(rho, np.eye(2))
    assert frob(out - rho) < 1e-12


def test_post_measurement_fig1_inconclusive_branch_drops_rank():
    rho = density_matrix(fig1_ensemble())
    out = post_measurement_state(rho, np.diag([0.0, 0.75]))
    assert frob(out - np.diag([0.0, 1.0])) < 1e-12
    assert np.count_nonzero(np.linalg.eigvalsh(out) > 1e-9) == 1


def test_post_measurement_zero_probability_branch():
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ZeroProbabilityBranch):
        post_measurement_state(rho, np.diag([0.0, 1.0]))


def test_rank_drop_for_marginally_passive_operators():
    rng = np.random.default_rng(149)
    for n in (2, 3, 4):
        le = normalize_passive(make_lossy(random_complex(rng, n)))
        p = povm_from_lossy(le, computational_basis(n))
        rho = random_density(rng, n)
        out = post_measurement_state(rho, p.inconclusive)
        assert np.count_nonzero(np.linalg.eigvalsh(out) > 1e-9) < n
