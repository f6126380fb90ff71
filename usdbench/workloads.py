"""Seeded input pools, timed operations and output checks for each workload.

Every op calls ``usd_kit`` through module attributes (``uk.state_set``,
``ukio.read_json``, ``ukcli.main``) so that the tracer, which rebinds those
attributes, sees each call.  Results are read only through ``usd_report``,
``validate_povm``, ``io.povm_doc`` and the CLI's own output, never through
the internal layout of ``PovmSet``.

An op returns what its check needs; checks run after the op's timer stops.
A check returns ``None`` when every output is right, else a one-line reason.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import usd_kit as uk
import usd_kit.cli as ukcli
import usd_kit.io as ukio

# Pool sizes: enough distinct inputs that a median is not one input's cost,
# few enough that one traced pool cycle fits well inside a short run.
POOL_SIZE = {"dense-n64": 2, "montecarlo-n8": 16, "sweep-fig": 4, "cli-n32": 2}

# Tolerances, each the one the test suite uses for the same property.
ROUNDTRIP_TOL = 1e-9  # POVM -> K -> POVM operators agree in Frobenius norm (criterion 5)
UNITARY_TOL = 1e-10  # ||U'U - I||_F of a dilation (criterion 6)
SCENARIO_TOL = 1e-10  # report versus closed form (test_scenarios)
SCENARIO_ERROR_TOL = 1e-12  # total error probability of an exact USD scheme
SIGMA_BOUND = 5.0  # Monte Carlo frequency versus analytic probability

MC_DIM = 8
MC_TRIALS = 100_000
SWEEP_POINTS = 16  # grid points per scenario per op
CLI_DIM = 32
CLI_TRIALS = 10_000
CLI_SUBCOMMANDS = ("povm-from-k", "validate", "k-from-povm", "embed", "discriminate", "example")
CHILD_TIMEOUT_S = 60.0


def _random_states(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m / np.linalg.norm(m, axis=0)


def _flat_report(r) -> np.ndarray:
    return np.concatenate(
        [np.ravel(r.per_state_success), np.ravel(r.error_matrix), np.ravel(r.inconclusive_per_state)]
    )


def _unit_priors(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


# -- dense-n64 ---------------------------------------------------------------

def _dense_inputs(rng, workdir):
    return [_random_states(rng, 64) for _ in range(POOL_SIZE["dense-n64"])]


def _dense_op(states):
    s = uk.state_set(states)
    povm = uk.build_usd_povm(s)
    validation = uk.validate_povm(povm)
    basis = uk.computational_basis(s.dim)
    le = uk.lossy_from_povm(povm, basis)
    rebuilt = uk.povm_from_lossy(le, basis)
    ensemble = uk.state_ensemble(s, _unit_priors(s.dim))
    report = uk.usd_report(ensemble, rebuilt)
    u = uk.dilate_unitary(le)
    return povm, validation, le, rebuilt, ensemble, report, u


def _dense_check(states, out):
    povm, validation, le, rebuilt, ensemble, report, u = out
    if not validation.valid:
        return "built POVM fails validate_povm"
    if not uk.validate_povm(rebuilt).valid:
        return "round-tripped POVM fails validate_povm"
    diff = np.max(np.abs(_flat_report(uk.usd_report(ensemble, povm)) - _flat_report(report)))
    if not diff <= ROUNDTRIP_TOL:
        return f"round-trip report differs by {diff:.3e}"
    n = le.dim
    residual = np.linalg.norm(u.conj().T @ u - np.eye(2 * n))
    if not residual <= UNITARY_TOL:
        return f"dilation unitarity residual {residual:.3e} exceeds {UNITARY_TOL:.0e}"
    if not np.array_equal(u[:n, :n], np.asarray(le.k)):
        return "dilation top-left block differs from K"
    return None


# -- montecarlo-n8 -------------------------------------------------------------

def _mc_inputs(rng, workdir):
    return [
        (_random_states(rng, MC_DIM), int(rng.integers(0, 2**31)))
        for _ in range(POOL_SIZE["montecarlo-n8"])
    ]


def _mc_op(item):
    states, sample_seed = item
    s = uk.state_set(states)
    povm = uk.build_usd_povm(s)
    ensemble = uk.state_ensemble(s, _unit_priors(s.dim))
    report = uk.usd_report(ensemble, povm)
    stats = uk.sample_outcomes(ensemble, povm, MC_TRIALS, uk.RandomSource(seed=sample_seed))
    return report, stats


def _mc_check(item, out):
    report, stats = out
    n = len(report.per_state_success)
    probs = np.zeros((n, n + 1))
    probs[:, :n] = report.error_matrix
    probs[np.arange(n), np.arange(n)] = report.per_state_success
    probs[:, n] = report.inconclusive_per_state
    counts = np.asarray(stats.counts)
    if counts.shape != probs.shape or np.any(counts.sum(axis=1) != MC_TRIALS):
        return "sampled counts do not sum to the trials per state"
    sigma = np.sqrt(probs * (1.0 - probs) / MC_TRIALS)
    excess = np.abs(counts / MC_TRIALS - probs) - SIGMA_BOUND * sigma
    if np.any(excess > 0.0):
        return f"sampled frequency beyond {SIGMA_BOUND:g} sigma of usd_report"
    return None


# -- sweep-fig -----------------------------------------------------------------

def _sweep_inputs(rng, workdir):
    grids = []
    for _ in range(POOL_SIZE["sweep-fig"]):
        gammas = rng.uniform(0.05, 0.95, size=(2, SWEEP_POINTS))
        zs = rng.uniform(0.1, 3.0, size=SWEEP_POINTS)
        grids.append(
            [("fig1", float(g)) for g in gammas[0]]
            + [("fig1-embed", float(g)) for g in gammas[1]]
            + [("fig2", float(z)) for z in zs]
        )
    return grids


def _sweep_op(grid):
    out = []
    for name, param in grid:
        scenario = uk.build_scenario(name, param)
        povm = uk.povm_from_lossy(scenario.k, scenario.basis)
        ensemble = uk.state_ensemble(
            scenario.input_states, _unit_priors(scenario.input_states.count)
        )
        out.append((scenario, ensemble, uk.usd_report(ensemble, povm)))
    return out


def _ancilla_mass(scenario, ensemble) -> float:
    u = np.asarray(scenario.full_unitary)
    states = np.asarray(scenario.input_states.states)
    dim = states.shape[0]
    leaked = u[dim:, :dim] @ states
    return float(np.asarray(ensemble.priors) @ np.sum(np.abs(leaked) ** 2, axis=0))


def _sweep_check(grid, out):
    for (name, param), (scenario, ensemble, report) in zip(grid, out):
        computed = {
            "success_per_state": report.total_success,
            "inconclusive": report.total_inconclusive,
        }
        if "ancilla_mass" in scenario.expected:
            computed["ancilla_mass"] = _ancilla_mass(scenario, ensemble)
        for key, value in computed.items():
            gap = abs(scenario.expected[key] - value)
            if not gap <= SCENARIO_TOL:
                return f"{name}({param!r}) {key} off by {gap:.3e}"
        if not report.total_error <= SCENARIO_ERROR_TOL:
            return f"{name}({param!r}) error probability {report.total_error:.3e}"
    return None


# -- cli-n32 -------------------------------------------------------------------

@dataclass(frozen=True)
class CliSession:
    """One session's input files and the argv of each subcommand, in order."""

    workdir: Path
    argvs: tuple[tuple[str, ...], ...]


def _cli_inputs(rng, workdir):
    sessions = []
    for idx in range(POOL_SIZE["cli-n32"]):
        d = Path(workdir) / f"session{idx}"
        d.mkdir(parents=True, exist_ok=True)
        g = rng.standard_normal((CLI_DIM, CLI_DIM)) + 1j * rng.standard_normal((CLI_DIM, CLI_DIM))
        top = uk.spectral_norm(g)
        le = uk.make_lossy(g / (top * rng.uniform(1.05, 2.0)))
        states = uk.discriminable_states(le, uk.computational_basis(CLI_DIM))
        ensemble = uk.state_ensemble(states, _unit_priors(CLI_DIM))
        ukio.write_json(d / "k.json", ukio.matrix_doc(le.k))
        ukio.write_json(d / "ensemble.json", ukio.ensemble_doc(ensemble))
        phases = ",".join(format(x, ".17g") for x in rng.uniform(-np.pi, np.pi, CLI_DIM))
        f = {name: str(d / name) for name in ("k.json", "ensemble.json", "povm.json", "k2.json", "u.json")}
        sessions.append(
            CliSession(
                workdir=d,
                argvs=(
                    ("povm-from-k", "--k", f["k.json"], "--out", f["povm.json"], "--json"),
                    ("validate", "--povm", f["povm.json"], "--json"),
                    ("k-from-povm", "--povm", f["povm.json"], f"--phases={phases}",
                     "--out", f["k2.json"], "--json"),
                    ("embed", "--k", f["k2.json"], "--out", f["u.json"], "--json"),
                    ("discriminate", "--ensemble", f["ensemble.json"], "--povm", f["povm.json"],
                     "--trials", str(CLI_TRIALS), "--seed", str(int(rng.integers(0, 2**31))),
                     "--json"),
                    ("example", "--name", "fig1", "--param", format(rng.uniform(0.05, 0.95), ".17g"),
                     "--json"),
                ),
            )
        )
    return sessions


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment for a child process, importing usd_kit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd, env=None):
    """Run a child to completion; return (exit code, stdout, stderr, wall s, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak RSS is known; a child
    still running after ``CHILD_TIMEOUT_S`` is killed, and is always waited for.
    """
    err_path = Path(cwd) / f".stderr-{os.getpid()}"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env or child_env(), cwd=cwd
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read()
    err_path.unlink()
    return proc.returncode, out.decode(), stderr.decode(), wall, usage.ru_maxrss / 1024.0


def cli_session_subprocess(session: CliSession):
    """Each subcommand as ``python -m usd_kit``; returns per-command results."""
    results = []
    env = child_env()
    for argv in session.argvs:
        code, out, err, wall, rss = run_child(
            [sys.executable, "-m", "usd_kit", *argv], session.workdir, env
        )
        results.append((argv[0], code, out, err, wall, rss))
    return results


def cli_session_inprocess(session: CliSession):
    """The same session through ``usd_kit.cli.main`` so io and cli spans are visible."""
    results = []
    for argv in session.argvs:
        out, err = stdio.StringIO(), stdio.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ukcli.main(list(argv))
        results.append((argv[0], code, out.getvalue(), err.getvalue(), time.perf_counter() - t0, 0.0))
    return results


def _cli_check(session: CliSession, results):
    docs = {}
    for name, code, out, err, _, _ in results:
        if code != 0:
            return f"{name} exited {code}: {err.strip()[:200]}"
        try:
            docs[name] = json.loads(out)
        except json.JSONDecodeError:
            return f"{name} printed output that is not JSON"
    try:
        ukio.povm_from_doc(ukio.read_json(session.workdir / "povm.json"))
        ukio.matrix_from_doc(ukio.read_json(session.workdir / "k2.json"))
        ukio.matrix_from_doc(ukio.read_json(session.workdir / "u.json"))
    except uk.errors.UsdKitError as exc:
        return f"written file does not load back: {exc}"
    counts = np.asarray(docs["discriminate"]["outcomes"]["counts"])
    if counts.shape != (CLI_DIM, CLI_DIM + 1) or np.any(counts.sum(axis=1) != CLI_TRIALS):
        return "discriminate counts do not sum to the trials per state"
    return None


@dataclass(frozen=True)
class Workload:
    """``op`` is what the untraced run times; ``traced_op`` does the same work
    in this process so the tracer sees it (they differ only for cli-n32)."""

    make_inputs: object
    op: object
    check: object
    traced_op: object


WORKLOAD = {
    "dense-n64": Workload(_dense_inputs, _dense_op, _dense_check, _dense_op),
    "montecarlo-n8": Workload(_mc_inputs, _mc_op, _mc_check, _mc_op),
    "sweep-fig": Workload(_sweep_inputs, _sweep_op, _sweep_check, _sweep_op),
    "cli-n32": Workload(_cli_inputs, cli_session_subprocess, _cli_check, cli_session_inprocess),
}


def build_inputs(workload: str, seed: int, workdir) -> list:
    """The workload's pool, a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, list(WORKLOAD).index(workload)])
    return WORKLOAD[workload].make_inputs(rng, workdir)
