import math

import numpy as np
import pytest

from usd_kit import linalg, scenarios
from usd_kit.discrimination import state_ensemble, usd_report
from usd_kit.equivalence import computational_basis, inconclusive_rank, povm_from_lossy, reduced_evolution
from usd_kit.errors import ParamOutOfRange
from usd_kit.scenarios import (
    build_scenario,
    fig1_as_embedding,
    fig1_scenario,
    fig2_scenario,
    tight_binding_hamiltonian,
)

from helpers import FIG1_AMPLITUDE, fig1_k, fig1_states, fig2_propagator_closed_form, record_calls

Z_SWEEP = [round(0.2 * i, 1) for i in range(1, 16)]  # 0.2 .. 3.0


def frob(a):
    return np.linalg.norm(a)


def equal_prior_report(scenario):
    n = scenario.input_states.count
    ensemble = state_ensemble(scenario.input_states, np.full(n, 1.0 / n))
    povm = povm_from_lossy(scenario.k, scenario.basis)
    return usd_report(ensemble, povm)


# -- fig1 -----------------------------------------------------------------------

def test_fig1_half_gamma_closed_form():
    sc = fig1_scenario(0.5)
    assert abs(sc.expected["success_per_state"] - 0.4) < 1e-15
    assert abs(sc.expected["inconclusive"] - 0.6) < 1e-15
    assert abs(sc.expected["output_amplitude"] - FIG1_AMPLITUDE) < 1e-15
    assert frob(np.asarray(sc.k.k) - fig1_k()) < 1e-15
    assert frob(np.asarray(sc.input_states.states) - fig1_states()) < 1e-10


def test_fig1_report_matches_expected():
    for gamma in (0.25, 0.5, 0.75):
        sc = fig1_scenario(gamma)
        report = equal_prior_report(sc)
        assert abs(report.total_success - sc.expected["success_per_state"]) < 1e-10
        assert abs(report.total_inconclusive - sc.expected["inconclusive"]) < 1e-10
        assert report.total_error <= 1e-12


def test_fig1_output_amplitude():
    for gamma in (0.1, 0.5, 0.9):
        sc = fig1_scenario(gamma)
        out = np.asarray(sc.k.k) @ sc.input_states.states[:, 0]
        assert abs(np.linalg.norm(out) - sc.expected["output_amplitude"]) < 1e-12
        assert abs(abs(out[0]) - sc.expected["output_amplitude"]) < 1e-12
        assert abs(out[1]) < 1e-12


def test_fig1_near_unit_gamma_limit():
    sc = fig1_scenario(1.0 - 1e-6)
    assert sc.expected["inconclusive"] < 2e-6
    overlap = abs(
        sc.input_states.states[:, 0].conj() @ sc.input_states.states[:, 1]
    )
    assert overlap < 2e-6


def test_fig1_small_gamma_detection_probability_vanishes():
    sc = fig1_scenario(0.1)
    assert abs(sc.expected["success_per_state"] - 0.019801980198019802) < 1e-15
    report = equal_prior_report(sc)
    assert abs(report.total_success - 0.019801980198019802) < 1e-10


def test_fig1_success_plus_inconclusive_is_one():
    for gamma in np.arange(0.1, 1.0, 0.1):
        report = equal_prior_report(fig1_scenario(float(gamma)))
        assert abs(report.total_success + report.total_inconclusive - 1.0) < 1e-12


def test_fig1_attains_two_state_overlap_bound():
    for gamma in np.arange(0.1, 1.0, 0.1):
        sc = fig1_scenario(float(gamma))
        report = equal_prior_report(sc)
        overlap = abs(sc.input_states.states[:, 0].conj() @ sc.input_states.states[:, 1])
        assert abs(report.total_inconclusive - overlap) < 1e-10


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0, 1.5])
def test_fig1_rejects_out_of_range_gamma(gamma):
    with pytest.raises(ParamOutOfRange):
        fig1_scenario(gamma)


# -- fig2 ------------------------------------------------------------------------

def test_fig2_zero_length_is_lossless():
    sc = fig2_scenario(0.0)
    assert frob(np.asarray(sc.k.k) - np.eye(2)) < 1e-12
    assert abs(sc.expected["beta_magnitude"] - 1.0) < 1e-12
    assert abs(sc.expected["inconclusive"]) < 1e-12
    gram = np.asarray(sc.input_states.states).conj().T @ np.asarray(sc.input_states.states)
    assert frob(gram - np.eye(2)) < 1e-10


def test_fig2_unit_length_closed_form():
    sc = fig2_scenario(1.0)
    off = (np.exp(-2j) - np.exp(1j)) / 3.0
    expected_k = np.exp(1j) * np.eye(2) + off * np.ones((2, 2))
    assert frob(np.asarray(sc.k.k) - expected_k) < 1e-12
    assert abs(sc.k.sv[0] - 1.0) < 1e-9
    povm = povm_from_lossy(sc.k, sc.basis)
    assert inconclusive_rank(povm) == 1
    assert frob(np.asarray(sc.full_unitary) - fig2_propagator_closed_form(1.0)) < 1e-12


@pytest.mark.parametrize("z", Z_SWEEP)
def test_fig2_output_structure_over_sweep(z):
    sc = fig2_scenario(z)
    u = np.asarray(sc.full_unitary)
    ins = [np.append(sc.input_states.states[:, i], 0.0) for i in range(2)]
    outs = [u @ v for v in ins]
    # exclusive ports: no cross component
    assert abs(outs[0][1]) < 1e-10
    assert abs(outs[1][0]) < 1e-10
    # the inconclusive port carries the same magnitude for both inputs
    assert abs(abs(outs[0][2]) - abs(outs[1][2])) < 1e-10
    # unitarity preserves the overlap of the full three-port vectors
    before = ins[0].conj() @ ins[1]
    after = outs[0].conj() @ outs[1]
    assert abs(before - after) < 1e-10
    assert abs(sc.k.sv[0] - 1.0) < 1e-9
    assert inconclusive_rank(povm_from_lossy(sc.k, sc.basis)) == 1
    # port amplitude matches the closed-form expectation
    assert abs(abs(outs[0][0]) - sc.expected["beta_magnitude"]) < 1e-10
    # cross-detector probability stays at zero error
    assert equal_prior_report(sc).total_error <= 1e-12


def test_fig2_beta_shrinks_as_overlap_grows():
    pairs = []
    for z in Z_SWEEP:
        sc = fig2_scenario(z)
        overlap = abs(sc.input_states.states[:, 0].conj() @ sc.input_states.states[:, 1])
        pairs.append((overlap, sc.expected["beta_magnitude"]))
    pairs.sort()
    betas = [beta for _, beta in pairs]
    assert all(betas[i] + 1e-9 >= betas[i + 1] for i in range(len(betas) - 1))


def test_fig2_reduced_operator_condition_is_at_most_three():
    # singular values 1 and |e^{iz} + 2 e^{-2iz}| / 3, which lies in [1/3, 1]
    special = [0.0, 1e-300, np.pi / 3, 2 * np.pi / 3, np.pi, 2 * np.pi, 1e300, -1e300]
    grid = np.concatenate([np.linspace(-50.0, 50.0, 4001), special])
    for z in grid:
        assert linalg.sv_condition(fig2_scenario(float(z)).k.sv) <= 3.0 + 1e-12


def test_fig2_report_matches_expected():
    sc = fig2_scenario(1.0)
    report = equal_prior_report(sc)
    assert abs(report.total_success - sc.expected["success_per_state"]) < 1e-10
    assert abs(report.total_inconclusive - sc.expected["inconclusive"]) < 1e-10
    assert report.total_error <= 1e-12


@pytest.mark.parametrize("z", [1e6, 1e9, 1e15])
def test_fig2_report_matches_expected_at_large_z(z):
    sc = fig2_scenario(z)
    report = equal_prior_report(sc)
    amplitude = abs(np.asarray(sc.full_unitary)[0, :2] @ sc.input_states.states[:, 0])
    assert abs(report.total_success - sc.expected["success_per_state"]) <= 1e-10
    assert abs(report.total_inconclusive - sc.expected["inconclusive"]) <= 1e-10
    assert abs(amplitude - sc.expected["beta_magnitude"]) <= 1e-10


@pytest.mark.parametrize("z", [float("inf"), float("nan")])
def test_fig2_rejects_non_finite_z(z):
    with pytest.raises(ParamOutOfRange):
        fig2_scenario(z)


# -- fig1 as an embedding -----------------------------------------------------------

def test_embedding_reduces_back_to_fig1():
    sc = fig1_as_embedding(0.5)
    reduced = reduced_evolution(sc.full_unitary, 2)
    assert np.array_equal(np.asarray(reduced.k), np.asarray(sc.k.k))


def test_embedding_ancilla_mass_equals_inconclusive():
    for gamma in (0.3, 0.5, 0.7):
        sc = fig1_as_embedding(gamma)
        u = np.asarray(sc.full_unitary)
        mass = 0.0
        for i in range(2):
            padded = np.append(sc.input_states.states[:, i], [0.0, 0.0])
            out = u @ padded
            mass += 0.5 * float(np.sum(np.abs(out[2:]) ** 2))
        assert abs(mass - sc.expected["ancilla_mass"]) < 1e-10
        assert abs(mass - sc.expected["inconclusive"]) < 1e-10


def test_embedding_ancilla_mass_vanishes_near_unit_gamma():
    sc = fig1_as_embedding(1.0 - 1e-6)
    assert sc.expected["ancilla_mass"] < 2e-6


def test_build_scenario_dispatch():
    assert build_scenario("fig1", 0.5).name == "fig1"
    assert build_scenario("fig2", 1.0).name == "fig2"
    assert build_scenario("fig1-embed", 0.5).name == "fig1-embed"
    with pytest.raises(ParamOutOfRange):
        build_scenario("fig3", 0.5)


# -- work per grid point --------------------------------------------------------

@pytest.mark.parametrize("name, param", [("fig1", 0.3), ("fig1-embed", 0.3), ("fig2", 1.1)])
def test_one_grid_point_takes_one_svd_of_k_one_of_the_states_and_no_eigh(monkeypatch, name, param):
    build_scenario(name, param)  # fig2 eigensolves its constant Hamiltonian on first use only
    svds, eigh = record_calls(monkeypatch, "svd"), record_calls(monkeypatch, "eigh")
    equal_prior_report(build_scenario(name, param))
    assert (len(svds), len(eigh)) == (2, 0)


def test_fig2_eigensolves_its_hamiltonian_once_and_keeps_unitary_exp_bits(monkeypatch):
    scenarios._waveguide_modes.cache_clear()
    eigh = record_calls(monkeypatch, "eigh")
    for z in (0.4, 1.1, -7.3):
        u = fig2_scenario(z).full_unitary
        assert np.array_equal(u, linalg.unitary_exp(tight_binding_hamiltonian(), math.fmod(z, 2.0 * math.pi)))
    assert eigh == [(3, 3)] * 4  # the cached modes, then one per unitary_exp reference
    assert not any(a.flags.writeable for a in scenarios._waveguide_modes())


def test_computational_basis_is_one_shared_read_only_object():
    basis = computational_basis(3)
    assert computational_basis(3) is basis and build_scenario("fig2", 1.0).basis is computational_basis(2)
    assert np.array_equal(basis.psi, np.eye(3)) and not basis.psi.flags.writeable
    with pytest.raises(ValueError):
        basis.psi.setflags(write=True)
