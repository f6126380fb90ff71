"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import contextlib
import time

import numpy as np

from usd_kit import io
from usd_kit.discrimination import (
    RandomSource,
    post_measurement_state,
    sample_outcomes,
    state_ensemble,
    usd_report,
)
from usd_kit.duality import build_usd_povm
from usd_kit.equivalence import (
    computational_basis,
    dilate_unitary,
    inconclusive_rank,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
)
from usd_kit.linalg import DEFAULT_TOL, spectral_norm
from usd_kit.scenarios import fig1_scenario, fig2_scenario

from helpers import (
    FIG1_AMPLITUDE,
    jordan_k,
    random_basis,
    random_complex,
    random_density,
    random_passive,
    random_state_set,
)


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def equal_prior_report(scenario):
    n = scenario.input_states.count
    ensemble = state_ensemble(scenario.input_states, np.full(n, 1.0 / n))
    return usd_report(ensemble, povm_from_lossy(scenario.k, scenario.basis))


def test_criterion_1_fig1_closed_form():
    with criterion(1, "beam-splitter scenario reproduces its closed form"):
        start = time.perf_counter()
        scenario = fig1_scenario(0.5)
        report = equal_prior_report(scenario)
        assert abs(report.total_success - 0.4) <= 1e-10
        assert abs(report.total_inconclusive - 0.6) <= 1e-10
        for i in range(2):
            out = np.asarray(scenario.k.k) @ scenario.input_states.states[:, i]
            assert abs(np.linalg.norm(out) - FIG1_AMPLITUDE) <= 1e-10
            assert abs(abs(out[i]) - FIG1_AMPLITUDE) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_fig1_attains_overlap_bound():
    with criterion(2, "inconclusive probability equals the state overlap"):
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            scenario = fig1_scenario(gamma)
            report = equal_prior_report(scenario)
            closed_form = (1.0 - gamma**2) / (1.0 + gamma**2)
            overlap = abs(
                scenario.input_states.states[:, 0].conj()
                @ scenario.input_states.states[:, 1]
            )
            assert abs(report.total_inconclusive - closed_form) <= 1e-10
            assert abs(report.total_inconclusive - overlap) <= 1e-10


def test_criterion_3_jordan_block_boundary():
    with criterion(3, "Jordan-block boundary: norm one at 1/sqrt(2), unbounded above"):
        assert abs(spectral_norm(jordan_k(1.0 / np.sqrt(2.0))) - 1.0) <= 1e-9
        moduli = np.abs(np.linalg.eigvals(jordan_k(0.8)))
        assert np.allclose(moduli, 0.8, atol=1e-12)
        assert moduli.max() < 1.0
        assert spectral_norm(jordan_k(0.8)) > 1.0


def test_criterion_4_channel_measurement_equivalence():
    with criterion(4, "channel and measurement probabilities agree entrywise"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for n in (2, 3, 4, 8):
            for _ in range(25):
                k = random_passive(rng, n)
                le = make_lossy(k)
                basis = random_basis(rng, n)
                povm = povm_from_lossy(le, basis)
                completion_min = np.linalg.eigvalsh(np.asarray(povm.inconclusive)).min()
                assert completion_min >= -DEFAULT_TOL.psd_tol
                rhos = np.stack([random_density(rng, n) for _ in range(100)])
                rows = basis.psi.conj().T @ k  # row i is psi_i^dag K
                lhs = np.einsum("ij,rjk,ik->ri", rows, rhos, rows.conj()).real
                f_stack = np.stack([np.asarray(op) for op in povm.operators[:n]])
                rhs = np.einsum("rjk,ikj->ri", rhos, f_stack).real
                assert np.max(np.abs(lhs - rhs)) <= 1e-10
        assert time.perf_counter() - start < 30.0


def test_criterion_5_povm_reconstruction_roundtrip():
    with criterion(5, "POVM -> operator -> POVM round trip with random phases"):
        rng = np.random.default_rng(2025)
        for n in (2, 3, 4, 5):
            for _ in range(25):
                povm = build_usd_povm(random_state_set(rng, n))
                basis = random_basis(rng, n)
                phases = rng.uniform(-np.pi, np.pi, size=n)
                rebuilt = povm_from_lossy(lossy_from_povm(povm, basis, phases), basis)
                for a, b in zip(povm.operators, rebuilt.operators):
                    assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-9


def test_criterion_6_unitary_dilation():
    with criterion(6, "dilation is unitary and keeps the operator bit for bit"):
        rng = np.random.default_rng(2026)
        for n in (2, 3, 4, 8):
            for _ in range(25):
                le = make_lossy(random_passive(rng, n))
                u = dilate_unitary(le)
                assert np.linalg.norm(u.conj().T @ u - np.eye(2 * n)) <= 1e-10
                assert np.array_equal(u[:n, :n], np.asarray(le.k))


def test_criterion_7_fig2_output_structure():
    with criterion(7, "waveguide sweep: exclusive ports, marginal norm, rank one"):
        for step in range(1, 16):
            z = 0.2 * step
            scenario = fig2_scenario(z)
            u = np.asarray(scenario.full_unitary)
            ins = [np.append(scenario.input_states.states[:, i], 0.0) for i in range(2)]
            outs = [u @ vec for vec in ins]
            assert abs(outs[0][1]) <= 1e-10
            assert abs(outs[1][0]) <= 1e-10
            assert abs(abs(outs[0][2]) - abs(outs[1][2])) <= 1e-10
            assert abs(ins[0].conj() @ ins[1] - outs[0].conj() @ outs[1]) <= 1e-10
            assert abs(spectral_norm(scenario.k.k) - 1.0) <= 1e-9
            povm = povm_from_lossy(scenario.k, scenario.basis)
            assert inconclusive_rank(povm) == 1


def test_criterion_8_rank_drop_on_the_boundary():
    with criterion(8, "marginally passive operators drop the inconclusive rank"):
        rng = np.random.default_rng(2028)
        for n in (2, 3, 4, 5, 8):
            for _ in range(10):
                le = normalize_passive(make_lossy(random_complex(rng, n)))
                assert abs(le.sv[0] - 1.0) <= 1e-10
                povm = povm_from_lossy(le, computational_basis(n))
                assert inconclusive_rank(povm) < n
                rho = random_density(rng, n)
                assert np.linalg.matrix_rank(rho) == n
                conditioned = post_measurement_state(rho, povm.inconclusive)
                post_rank = np.count_nonzero(
                    np.linalg.eigvalsh(conditioned) > DEFAULT_TOL.psd_tol
                )
                assert post_rank < n


def test_criterion_9_monte_carlo_soundness():
    with criterion(9, "Monte Carlo frequencies inside 4 sigma, reruns identical"):
        start = time.perf_counter()
        scenario = fig1_scenario(0.5)
        ensemble = state_ensemble(scenario.input_states, [0.5, 0.5])
        povm = povm_from_lossy(scenario.k, scenario.basis)
        trials = 100_000
        expected = {0: 0.4, 1: 0.0, 2: 0.6}

        stats = sample_outcomes(ensemble, povm, trials, RandomSource(seed=7))
        for prepared in range(2):
            probabilities = np.zeros(3)
            probabilities[prepared] = expected[0]  # own detector fires
            probabilities[2] = expected[2]  # inconclusive port
            for outcome, probability in enumerate(probabilities):
                sigma = np.sqrt(probability * (1.0 - probability) / trials)
                freq = stats.counts[prepared, outcome] / trials
                assert abs(freq - probability) <= 4.0 * sigma

        rerun = sample_outcomes(ensemble, povm, trials, RandomSource(seed=7))
        assert np.array_equal(stats.counts, rerun.counts)
        doc = {"counts": [[int(c) for c in row] for row in stats.counts]}
        redoc = {"counts": [[int(c) for c in row] for row in rerun.counts]}
        assert io.render_json(doc).encode() == io.render_json(redoc).encode()
        assert time.perf_counter() - start < 10.0
