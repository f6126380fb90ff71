import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usd_kit import duality, io
from usd_kit.cli import main
from usd_kit.discrimination import state_ensemble
from usd_kit.duality import PovmSet, build_usd_povm, state_set
from usd_kit.equivalence import (
    computational_basis,
    make_lossy,
    povm_from_lossy,
    projective_basis,
)
from usd_kit.errors import InvalidEnsemble, InvalidPovm, ParseError

from helpers import fig1_k, fig1_states, jordan_k, random_complex, random_passive, record_calls


# -- JSON rendering ---------------------------------------------------------

def test_render_json_roundtrips_doubles_exactly():
    values = [0.1, 1.0 / 3.0, np.pi, 1e-300, 6.02e23, -0.0, 2.0**-52]
    text = io.render_json(values)
    parsed = np.array([float(x) for x in json.loads(text)])
    assert parsed.tobytes() == np.array(values).tobytes()  # bit for bit, sign of zero too


def _as_tuples(value):
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize("seed", range(4))
def test_render_json_float_block_matches_the_walk(seed):
    # Nested lists of floats take one %-format; tuples always take the walk.
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e-300, -1e-300, 1e300, 0.1]
    x = rng.standard_normal((3, 4, 2)) * 10.0 ** rng.integers(-320, 300, size=(3, 4, 2))
    x.flat[rng.choice(x.size, 8, replace=False)] = special
    doc = {"block": x.tolist(), "row": [-0.0, 1.5], "ints": [1, 2.0], "flags": [True, 0.5], "empty": [[]]}
    assert io._float_block(doc["block"]) is not None and io._float_block(doc["ints"]) is None
    text = io.render_json(doc)
    assert text == io.render_json(_as_tuples(doc))
    back = json.loads(text)
    assert np.array(back["block"]).tobytes() == x.tobytes()  # bit for bit, sign of zero too
    assert np.array(back["row"]).tobytes() == np.array([-0.0, 1.5]).tobytes()


def test_render_json_rejects_non_finite():
    with pytest.raises(ValueError):
        io.render_json(float("inf"))


def test_render_json_is_deterministic():
    doc = {"b": [1.5, 2], "a": "text", "flag": True, "none": None}
    assert io.render_json(doc) == io.render_json(doc)


# -- matrix documents ----------------------------------------------------------

def test_matrix_doc_roundtrip_bit_for_bit():
    rng = np.random.default_rng(151)
    m = random_complex(rng, 3, 4)
    doc = json.loads(io.render_json(io.matrix_doc(m)))
    back = io.matrix_from_doc(doc)
    assert np.array_equal(back, m)


def test_matrix_doc_rejects_unknown_keys():
    doc = io.matrix_doc(np.eye(2))
    doc["comment"] = "nope"
    with pytest.raises(ParseError):
        io.matrix_from_doc(doc)


def test_matrix_doc_rejects_shape_mismatch():
    doc = io.matrix_doc(np.eye(2))
    doc["rows"] = 3
    with pytest.raises(ParseError):
        io.matrix_from_doc(doc)


def test_matrix_doc_rejects_non_finite_entries():
    doc = {"rows": 1, "cols": 1, "data": [[[1e400, 0.0]]]}
    with pytest.raises(ParseError):
        io.matrix_from_doc(doc)


# -- ensemble documents ----------------------------------------------------------

def fig1_ensemble_doc(gamma=0.5):
    e = state_ensemble(state_set(fig1_states(gamma)), [0.5, 0.5])
    return io.ensemble_doc(e)


def test_ensemble_doc_roundtrip():
    doc = json.loads(io.render_json(fig1_ensemble_doc()))
    e = io.ensemble_from_doc(doc)
    assert np.array_equal(np.asarray(e.states.states), fig1_states())
    assert np.array_equal(np.asarray(e.priors), [0.5, 0.5])


def test_ensemble_doc_rejects_bad_priors():
    doc = fig1_ensemble_doc()
    doc["priors"] = [0.9, 0.9]
    from usd_kit.errors import InvalidEnsemble

    with pytest.raises(InvalidEnsemble):
        io.ensemble_from_doc(doc)


def test_ensemble_doc_rejects_dependent_states():
    from usd_kit.errors import SingularStates

    column = [[1.0, 0.0], [0.0, 0.0]]
    doc = {"dim": 2, "states": [column, column], "priors": [0.5, 0.5]}
    with pytest.raises(SingularStates):
        io.ensemble_from_doc(doc)


# -- POVM documents -----------------------------------------------------------------

def test_povm_doc_roundtrip_bit_for_bit(tmp_path):
    p = build_usd_povm(state_set(fig1_states()))
    path = tmp_path / "povm.json"
    io.write_json(path, io.povm_doc(p))
    back = io.povm_from_doc(io.read_json(path))
    for original, loaded in zip(p.operators, back.operators):
        assert np.array_equal(np.asarray(original), np.asarray(loaded))


def test_povm_doc_rejects_incomplete_set():
    p = build_usd_povm(state_set(fig1_states()))
    doc = io.povm_doc(p)
    doc["operators"][1] = (1.5 * np.asarray(p.operators[1])).tolist()
    doc["operators"][1] = io.matrix_doc(1.5 * np.asarray(p.operators[1]))["data"]
    with pytest.raises(InvalidPovm):
        io.povm_from_doc(doc)


RANK_TWO_POVM = (0.5 * np.eye(2), np.diag([0.0, 0.5]), np.diag([0.5, 0.0]))  # complete and PSD
ZERO_DETECTION_POVM = (np.zeros((2, 2)), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("ops", [RANK_TWO_POVM, ZERO_DETECTION_POVM], ids=["rank-two", "zero"])
def test_povm_doc_rejects_detection_operator_not_rank_one(ops):
    doc = io.povm_doc(PovmSet(dim=2, operators=ops))
    with pytest.raises(InvalidPovm) as err:
        io.povm_from_doc(doc)
    assert err.value.context["operator"] == 1
    assert io.povm_from_doc(doc, validate=False).dim == 2


def test_povm_doc_wrong_operator_count():
    p = build_usd_povm(state_set(fig1_states()))
    doc = io.povm_doc(p)
    doc["operators"] = doc["operators"][:2]
    with pytest.raises(ParseError):
        io.povm_from_doc(doc)


# -- CLI ----------------------------------------------------------------------------

def one_envelope(stderr: str) -> dict:
    """The single ``{code, message, context}`` line a failing command prints."""
    lines = stderr.splitlines()
    assert len(lines) == 1
    envelope = json.loads(lines[0])
    assert set(envelope) == {"code", "message", "context"}
    return envelope


def write_fig1_files(tmp_path, gamma=0.5):
    k_path = tmp_path / "k.json"
    ensemble_path = tmp_path / "ensemble.json"
    io.write_json(k_path, io.matrix_doc(fig1_k(gamma)))
    io.write_json(ensemble_path, fig1_ensemble_doc(gamma))
    return k_path, ensemble_path


def test_cli_dual_fig1(tmp_path, capsys):
    _, ensemble_path = write_fig1_files(tmp_path)
    assert main(["dual", "--states", str(ensemble_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_residual"] <= 1e-10


def test_cli_dual_orthonormal_states_are_self_dual(tmp_path, capsys):
    e = state_ensemble(state_set(np.eye(2)), [0.5, 0.5])
    path = tmp_path / "orthonormal.json"
    io.write_json(path, io.ensemble_doc(e))
    assert main(["dual", "--states", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    duals = io.matrix_from_doc(doc["duals"])
    assert np.linalg.norm(duals - np.eye(2)) < 1e-12


def test_cli_dual_dependent_states_exit_2(tmp_path, capsys):
    column = [[1.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    io.write_json(path, {"dim": 2, "states": [column, column], "priors": [0.5, 0.5]})
    assert main(["dual", "--states", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "singular_states"


def test_cli_dual_fewer_states_than_dimensions_names_the_counts(tmp_path, capsys):
    path = tmp_path / "two_in_three.json"
    io.write_json(path, io.ensemble_doc(state_ensemble(state_set(np.eye(3)[:, :2]), [0.5, 0.5])))
    assert main(["dual", "--states", str(path), "--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "dimension_mismatch"
    assert err["context"] == {"states": 2, "dim": 3}
    assert "subspace_reduce" not in err["message"]


# Exact stdout of validate and dual on N = 2 inputs whose numbers are exact in
# binary: the projective POVM of the computational basis and its orthonormal states.
GOLDEN_STDOUT = {
    ("validate", False): (
        "op    herm_residual   min_eigenvalue   rank\n"
        "  1   0               0                1\n"
        "  2   0               0                1\n"
        "  3   0               0                0\n"
        "completeness_residual  0\n"
        "valid                  true\n"
    ),
    ("validate", True): (
        '{"operators": [{"hermiticity_residual": 0, "min_eigenvalue": 0, "rank": 1}, '
        '{"hermiticity_residual": 0, "min_eigenvalue": 0, "rank": 1}, '
        '{"hermiticity_residual": 0, "min_eigenvalue": 0, "rank": 0}], '
        '"completeness_residual": 0, "valid": true}\n'
    ),
    ("dual", False): (
        "dual vectors (columns) (2x2):\n"
        "  [+1+0j  +0+0j]\n"
        "  [+0+0j  +1+0j]\n"
        "max pairing residual: 0\n"
    ),
    ("dual", True): (
        '{"duals": {"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
        '"residual_matrix": [[0, 0], [0, 0]], "max_residual": 0}\n'
    ),
    ("povm-from-k", False): (
        "wrote                  out.json\n"
        "dim                    2\n"
        "spectral_norm          0.707106781187\n"
        "completeness_residual  0\n"
        "valid                  true\n"
    ),
    ("povm-from-k", True): (
        '{"out": "out.json", "dim": 2, "spectral_norm": 0.70710678118654757, "validation": {"operators": '
        '[{"hermiticity_residual": 0, "min_eigenvalue": 0, "rank": 1}, '
        '{"hermiticity_residual": 0, "min_eigenvalue": 0, "rank": 1}, '
        '{"hermiticity_residual": 0, "min_eigenvalue": 0.5, "rank": 2}], '
        '"completeness_residual": 0, "valid": true}}\n'
    ),
    ("k-from-povm", False): "wrote          out.json\ndim            2\nspectral_norm  1\npassive        true\n",
    ("k-from-povm", True): '{"out": "out.json", "dim": 2, "spectral_norm": 1, "passive": true}\n',
    ("embed", False): "wrote               out.json\ndim                 4\nunitarity_residual  6.75322301446e-16\n",
    ("embed", True): '{"out": "out.json", "dim": 4, "unitarity_residual": 6.7532230144642595e-16}\n',
    ("discriminate", False): (
        "state   p(success)      p(inconclusive)\n"
        "    1   0.25            0.5\n"
        "    2   0.25            0.5\n"
        "total_success       0.25\n"
        "total_error         0.25\n"
        "total_inconclusive  0.5\n"
    ),
    ("discriminate", True): (
        '{"report": {"per_state_success": [0.25, 0.25], "error_matrix": [[0, 0.25], [0.25, 0]], '
        '"inconclusive_per_state": [0.5, 0.5], "total_success": 0.25, "total_error": 0.25, '
        '"total_inconclusive": 0.5}}\n'
    ),
    ("discriminate-povm", False): (
        "state   p(success)      p(inconclusive)\n"
        "    1   1               0\n"
        "    2   0.25            0.75\n"
        "total_success       0.625\n"
        "total_error         0\n"
        "total_inconclusive  0.375\n"
    ),
    ("discriminate-povm", True): (
        '{"report": {"per_state_success": [1, 0.25], "error_matrix": [[0, 0], [0, 0]], '
        '"inconclusive_per_state": [0, 0.75], "total_success": 0.625, "total_error": 0, '
        '"total_inconclusive": 0.375}}\n'
    ),
    ("discriminate-trials", False): (
        "state   p(success)      p(inconclusive)\n"
        "    1   0.25            0.5\n"
        "    2   0.25            0.5\n"
        "total_success       0.25\n"
        "total_error         0.25\n"
        "total_inconclusive  0.5\n"
        "counts (100 trials/state, seed 3):\n"
        "  state 1: [32, 17, 51]\n"
        "  state 2: [24, 29, 47]\n"
    ),
    ("discriminate-trials", True): (
        '{"report": {"per_state_success": [0.25, 0.25], "error_matrix": [[0, 0.25], [0.25, 0]], '
        '"inconclusive_per_state": [0.5, 0.5], "total_success": 0.25, "total_error": 0.25, '
        '"total_inconclusive": 0.5}, "outcomes": {"trials_per_state": 100, "seed": 3, '
        '"counts": [[32, 17, 51], [24, 29, 47]]}}\n'
    ),
    ("example", False): (
        "scenario                    fig1\n"
        "param                       0.5\n"
        "expected.output_amplitude   0.632455532034\n"
        "expected.success_per_state  0.4\n"
        "expected.inconclusive       0.6\n"
        "expected.overlap            0.6\n"
        "spectral_norm               1\n"
        "state   p(success)      p(inconclusive)\n"
        "    1   0.4             0.6\n"
        "    2   0.4             0.6\n"
        "total_success       0.4\n"
        "total_error         6.90462129458e-33\n"
        "total_inconclusive  0.6\n"
    ),
    ("example", True): (
        '{"name": "fig1", "param": 0.5, "expected": {"output_amplitude": 0.63245553203367588, '
        '"success_per_state": 0.40000000000000002, "inconclusive": 0.59999999999999998, '
        '"overlap": 0.59999999999999998}, "spectral_norm": 1, "report": {"per_state_success": '
        '[0.39999999999999986, 0.39999999999999986], "error_matrix": [[0, 2.5569075145616493e-33], '
        '[1.1252335074603769e-32, 0]], "inconclusive_per_state": [0.6000000000000002, 0.60000000000000009], '
        '"total_success": 0.39999999999999986, "total_error": 6.9046212945827092e-33, '
        '"total_inconclusive": 0.60000000000000009}}\n'
    ),
}

# Files written by the subcommands of GOLDEN_ARGV, text and --json alike.
GOLDEN_FILES = {
    "povm-from-k": (
        '{"dim": 2, "operators": [[[[0.25, 0], [0.25, 0]], [[0.25, 0], [0.25, 0]]], '
        '[[[0.25, 0], [-0.25, 0]], [[-0.25, -0.0], [0.25, 0]]], [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}\n'
    ),
    "k-from-povm": (
        '{"rows": 2, "cols": 2, "data": [[[0.87758256189037276, 0.47942553860420301], [0, 0]], '
        '[[0, 0], [0.48445621085532237, -0.12370197962726147]]]}\n'
    ),
    "embed": (
        '{"rows": 4, "cols": 4, "data": [[[0.5, 0], [0.5, 0], [0.70710678118654724, 0], '
        '[1.6653345369377348e-16, 0]], [[-0.5, 0], [0.5, 0], [1.6653345369377348e-16, 0], '
        '[0.70710678118654746, 0]], [[0.70710678118654746, 0], [0, 0], [-0.5, 0], [0.5, 0]], '
        '[[0, 0], [0.70710678118654757, 0], [-0.5, 0], [-0.5, 0]]]}\n'
    ),
}

# Exact-binary N=2 inputs: K = [[1, 1], [-1, 1]] / 2, the states e_1 and e_2,
# and the rank-one POVM diag(1, 0), diag(0, 1/4), diag(0, 3/4).
GOLDEN_ARGV = {
    "povm-from-k": ["povm-from-k", "--k", "k.json", "--out", "out.json"],
    "k-from-povm": ["k-from-povm", "--povm", "povm.json", "--phases=0.5,-0.25", "--out", "out.json"],
    "embed": ["embed", "--k", "k.json", "--out", "out.json"],
    "discriminate": ["discriminate", "--ensemble", "ensemble.json", "--k", "k.json"],
    "discriminate-povm": ["discriminate", "--ensemble", "ensemble.json", "--povm", "povm.json"],
    "discriminate-trials": ["discriminate", "--ensemble", "ensemble.json", "--k", "k.json",
                            "--trials", "100", "--seed", "3"],
    "example": ["example", "--name", "fig1", "--param", "0.5"],
}


@pytest.mark.parametrize("command, as_json", [key for key in sorted(GOLDEN_STDOUT) if key[0] in ("validate", "dual")])
def test_cli_validate_and_dual_stdout_is_pinned(tmp_path, capsys, command, as_json):
    povm_path, states_path = tmp_path / "povm.json", tmp_path / "states.json"
    ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))], dtype=complex)
    io.write_json(povm_path, io.povm_doc(PovmSet(dim=2, operators=ops)))
    io.write_json(states_path, io.ensemble_doc(state_ensemble(state_set(np.eye(2)), [0.5, 0.5])))
    argv = ["validate", "--povm", str(povm_path)] if command == "validate" else ["dual", "--states", str(states_path)]
    assert main(argv + ["--json"] * as_json) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (GOLDEN_STDOUT[command, as_json], "")


@pytest.mark.parametrize("command, as_json", [key for key in sorted(GOLDEN_STDOUT) if key[0] in GOLDEN_ARGV])
def test_cli_subcommand_stdout_and_files_are_pinned(tmp_path, capsys, monkeypatch, command, as_json):
    monkeypatch.chdir(tmp_path)
    ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 0.25]), np.diag([0.0, 0.75])], dtype=complex)
    io.write_json("k.json", io.matrix_doc(np.array([[0.5, 0.5], [-0.5, 0.5]])))
    io.write_json("ensemble.json", io.ensemble_doc(state_ensemble(state_set(np.eye(2)), [0.5, 0.5])))
    io.write_json("povm.json", io.povm_doc(PovmSet(dim=2, operators=ops)))
    assert main(GOLDEN_ARGV[command] + ["--json"] * as_json) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (GOLDEN_STDOUT[command, as_json], "")
    if command in GOLDEN_FILES:
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == GOLDEN_FILES[command]


def test_cli_povm_from_k_and_validate(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    assert main(["povm-from-k", "--k", str(k_path), "--out", str(povm_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation"]["valid"] is True
    assert main(["validate", "--povm", str(povm_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert [op["rank"] for op in report["operators"]] == [1, 1, 1]


def test_cli_povm_from_k_non_passive_exit_3(tmp_path, capsys):
    k_path = tmp_path / "kj.json"
    io.write_json(k_path, io.matrix_doc(jordan_k(0.9)))
    out_path = tmp_path / "povm.json"
    assert main(["povm-from-k", "--k", str(k_path), "--out", str(out_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "not_passive"


def test_cli_validate_invalid_povm_exit_2(tmp_path, capsys):
    p = build_usd_povm(state_set(fig1_states()))
    doc = io.povm_doc(p)
    doc["operators"][2] = io.matrix_doc(-np.asarray(p.operators[2]))["data"]
    path = tmp_path / "broken.json"
    io.write_json(path, doc)
    assert main(["validate", "--povm", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["valid"] is False
    err = json.loads(captured.err)
    assert err["code"] == "invalid_povm"


def test_cli_k_from_povm_recovers_fig1(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    main(["povm-from-k", "--k", str(k_path), "--out", str(povm_path), "--json"])
    capsys.readouterr()
    out_path = tmp_path / "k_back.json"
    assert (
        main(["k-from-povm", "--povm", str(povm_path), "--out", str(out_path), "--json"])
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["passive"] is True
    back = io.matrix_from_doc(io.read_json(out_path))
    assert np.linalg.norm(back - fig1_k()) < 1e-10


def test_cli_k_from_povm_rank_two_operator_exit_2(tmp_path, capsys):
    path = tmp_path / "rank_two.json"
    io.write_json(path, io.povm_doc(PovmSet(dim=2, operators=RANK_TWO_POVM)))
    out_path = tmp_path / "k.json"
    assert main(["k-from-povm", "--povm", str(path), "--out", str(out_path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == "invalid_povm"
    assert err["context"] == {"operator": 1}
    assert not out_path.exists()


def test_cli_k_from_povm_with_phases(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    main(["povm-from-k", "--k", str(k_path), "--out", str(povm_path), "--json"])
    capsys.readouterr()
    out_path = tmp_path / "k_phased.json"
    code = main(
        [
            "k-from-povm",
            "--povm",
            str(povm_path),
            "--phases",
            "0.3,-1.2",
            "--out",
            str(out_path),
            "--json",
        ]
    )
    assert code == 0
    capsys.readouterr()
    back = make_lossy(io.matrix_from_doc(io.read_json(out_path)))
    rebuilt = povm_from_lossy(back, computational_basis(2))
    original = io.povm_from_doc(io.read_json(povm_path))
    for a, b in zip(rebuilt.operators, original.operators):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) < 1e-9


def test_cli_k_from_povm_negative_first_phase_in_either_spelling(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    main(["povm-from-k", "--k", str(k_path), "--out", str(povm_path)])
    outputs = []
    for spelling in (["--phases", "-1.2,0.3"], ["--phases=-1.2,0.3"]):
        out_path = tmp_path / f"k{len(outputs)}.json"
        assert main(["k-from-povm", "--povm", str(povm_path), *spelling, "--out", str(out_path)]) == 0
        outputs.append(out_path.read_text())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    k = io.matrix_from_doc(json.loads(outputs[0]))
    assert np.angle(k[0, 0]) == pytest.approx(-1.2)  # row i of Psi^dag K carries e^{i phi_i}
    # a non-finite first phase reaches the phase check in either spelling too
    out_path = tmp_path / "k_inf.json"
    assert main(["k-from-povm", "--povm", str(povm_path), "--phases", "-inf,0", "--out", str(out_path)]) == 2
    assert one_envelope(capsys.readouterr().err)["code"] == "param_out_of_range"
    assert not out_path.exists()


@pytest.mark.parametrize("phases", ["inf,0", "0,nan", "-inf,0"])
def test_cli_k_from_povm_non_finite_phase_exit_2(tmp_path, capsys, phases):
    k_path, _ = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    main(["povm-from-k", "--k", str(k_path), "--out", str(povm_path)])
    capsys.readouterr()
    out_path = tmp_path / "k_out.json"
    argv = ["k-from-povm", "--povm", str(povm_path), f"--phases={phases}", "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_envelope(captured.err)["code"] == "param_out_of_range"
    assert not out_path.exists()


def test_cli_povm_roundtrip_with_custom_basis(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    basis_path = tmp_path / "basis.json"
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    io.write_json(basis_path, io.matrix_doc(hadamard))
    povm_path = tmp_path / "povm.json"
    back_path = tmp_path / "k_back.json"
    assert (
        main(
            [
                "povm-from-k",
                "--k",
                str(k_path),
                "--basis",
                str(basis_path),
                "--out",
                str(povm_path),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "k-from-povm",
                "--povm",
                str(povm_path),
                "--basis",
                str(basis_path),
                "--out",
                str(back_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    original = io.povm_from_doc(io.read_json(povm_path))
    rebuilt = povm_from_lossy(
        make_lossy(io.matrix_from_doc(io.read_json(back_path))),
        projective_basis(hadamard),
    )
    for a, b in zip(original.operators, rebuilt.operators):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) < 1e-9


def test_cli_rejects_non_unitary_basis(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    basis_path = tmp_path / "basis.json"
    io.write_json(basis_path, io.matrix_doc(np.diag([1.0, 0.5])))
    code = main(
        [
            "povm-from-k",
            "--k",
            str(k_path),
            "--basis",
            str(basis_path),
            "--out",
            str(tmp_path / "povm.json"),
        ]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "not_unitary"


def test_cli_embed_writes_unitary(tmp_path, capsys):
    k_path, _ = write_fig1_files(tmp_path)
    out_path = tmp_path / "u.json"
    assert main(["embed", "--k", str(k_path), "--out", str(out_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4
    assert doc["unitarity_residual"] <= 1e-10
    u = io.matrix_from_doc(io.read_json(out_path))
    assert np.array_equal(u[:2, :2], fig1_k())


def test_cli_discriminate_with_k(tmp_path, capsys):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    code = main(
        ["discriminate", "--ensemble", str(ensemble_path), "--k", str(k_path), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["report"]["total_success"] - 0.4) < 1e-10
    assert abs(doc["report"]["total_inconclusive"] - 0.6) < 1e-10


def test_cli_discriminate_count_and_dimension_errors_name_the_numbers(tmp_path, capsys):
    ensemble_path = tmp_path / "two_in_three.json"
    k_path, povm_path = tmp_path / "k.json", tmp_path / "povm.json"
    io.write_json(ensemble_path, io.ensemble_doc(state_ensemble(state_set(np.eye(3)[:, :2]), [0.5, 0.5])))
    io.write_json(k_path, io.matrix_doc(np.eye(3)))
    io.write_json(povm_path, fig1_povm_doc())
    assert main(["discriminate", "--ensemble", str(ensemble_path), "--k", str(k_path)]) == 2
    assert one_envelope(capsys.readouterr().err) == {
        "code": "dimension_mismatch",
        "message": "report needs one detection operator per state: 2 states, 3 detection operators",
        "context": {"states": 2, "detection_operators": 3},
    }
    assert main(["discriminate", "--ensemble", str(ensemble_path), "--povm", str(povm_path)]) == 2
    assert one_envelope(capsys.readouterr().err) == {
        "code": "dimension_mismatch",
        "message": "ensemble dimension 3 does not match POVM dimension 2",
        "context": {"ensemble_dim": 3, "povm_dim": 2},
    }


def test_cli_shape_errors_name_the_numbers(tmp_path, capsys):
    k_path, basis_path, wide_path = tmp_path / "k.json", tmp_path / "basis.json", tmp_path / "wide.json"
    povm_path, out_path = tmp_path / "povm.json", tmp_path / "out.json"
    io.write_json(k_path, io.matrix_doc(np.eye(8) / 2.0))
    io.write_json(basis_path, io.matrix_doc(np.eye(2)))
    io.write_json(wide_path, io.matrix_doc(np.full((2, 3), 0.1)))
    io.write_json(povm_path, io.povm_doc(build_usd_povm(state_set(np.eye(8)))))
    cases = [
        (["povm-from-k", "--k", str(k_path), "--basis", str(basis_path)],
         "basis dimension 2 does not match operator dimension 8", {"basis_dim": 2, "dim": 8}),
        (["k-from-povm", "--povm", str(povm_path), "--phases=0.1,0.2"],
         "expected 8 phases, got shape (2,)", {"phases": 2, "dim": 8}),
        (["embed", "--k", str(wide_path)],
         "evolution operator must be square, got 2x3", {"rows": 2, "cols": 3}),
    ]
    for argv, message, context in cases:
        assert main([*argv, "--out", str(out_path)]) == 2
        assert one_envelope(capsys.readouterr().err) == {
            "code": "dimension_mismatch", "message": message, "context": context,
        }
    assert not out_path.exists()


DISCRIMINATE = ["discriminate", "--ensemble", "{ensemble}", "--k", "{k}"]


@pytest.mark.parametrize("argv, edit, code, message, context", [
    ([*DISCRIMINATE, "--trials", "-1"], {}, "invalid_ensemble",
     "trials_per_state must be an integer in [0, 2**63), got -1", {"trials_per_state": -1}),
    ([*DISCRIMINATE, "--trials", "1", "--seed", "-1"], {}, "param_out_of_range",
     "seed must be an integer in [0, 2**128), got -1", {"seed": -1}),
    (DISCRIMINATE, {"priors": [1.0]}, "invalid_ensemble",
     "expected 2 priors, got shape (1,)", {"priors": 1, "states": 2}),
    (DISCRIMINATE, {"priors": [0.5, 0.6]}, "invalid_ensemble",
     "priors sum to 1.1, expected 1", {"total": 1.1}),
    (["dual", "--states", "{ensemble}"], {"states": 3, "priors": [0.5, 0.25, 0.25]}, "invalid_states",
     "need between 1 and 2 states in dimension 2, got 3", {"states": 3, "dim": 2}),
    (["example", "--name", "fig1", "--param", "2"], {}, "param_out_of_range",
     "gamma must lie strictly between 0 and 1, got 2.0", {"gamma": 2.0}),
    (["example", "--name", "fig2", "--param", "nan"], {}, "param_out_of_range",
     "z must be finite, got nan", {"z": "nan"}),
], ids=["trials", "seed", "priors-count", "priors-sum", "state-count", "fig1-gamma", "fig2-z"])
def test_cli_domain_errors_name_the_numbers(tmp_path, capsys, argv, edit, code, message, context):
    # edit overrides the fig1 ensemble's fields; an integer "states" repeats its states to that count
    k_path, ensemble_path = write_fig1_files(tmp_path)
    doc = fig1_ensemble_doc()
    if "states" in edit:
        edit = {**edit, "states": (doc["states"] * edit["states"])[: edit["states"]]}
    io.write_json(ensemble_path, {**doc, **edit})
    argv = [arg.format(k=k_path, ensemble=ensemble_path) for arg in argv]
    assert main(argv) == 2
    assert one_envelope(capsys.readouterr().err) == {"code": code, "message": message, "context": context}


def test_cli_discriminate_trials_byte_identical(tmp_path, capsys):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    argv = [
        "discriminate",
        "--ensemble",
        str(ensemble_path),
        "--k",
        str(k_path),
        "--trials",
        "100000",
        "--seed",
        "7",
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    counts = json.loads(first)["outcomes"]["counts"]
    assert sum(counts[0]) == 100000


def test_cli_discriminate_povm_with_trials_validates_once(tmp_path, capsys, monkeypatch):
    _, ensemble_path = write_fig1_files(tmp_path)
    povm_path = tmp_path / "povm.json"
    io.write_json(povm_path, io.povm_doc(build_usd_povm(state_set(fig1_states()))))
    passes, calls = [], record_calls(monkeypatch, "eigvalsh")
    stack_pass = duality._stack_pass
    monkeypatch.setattr(duality, "_stack_pass", lambda *args: passes.append(1) or stack_pass(*args))
    argv = ["discriminate", "--ensemble", str(ensemble_path), "--povm", str(povm_path), "--trials", "100"]
    assert main(argv) == 0
    assert passes == [1]  # the load's validation; sampling reads the probability rule only
    assert calls == [(3, 2, 2)]  # the whole stack
    capsys.readouterr()


def test_cli_discriminate_seed_selects_the_counts(tmp_path, capsys):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    outcomes = []
    for seed in ("7", "7", "8"):
        argv = [
            "discriminate",
            "--ensemble",
            str(ensemble_path),
            "--k",
            str(k_path),
            "--trials",
            "10000",
            "--seed",
            seed,
            "--json",
        ]
        assert main(argv) == 0
        outcomes.append(json.loads(capsys.readouterr().out)["outcomes"])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["counts"] != outcomes[2]["counts"]
    assert set(outcomes[0]) == {"trials_per_state", "seed", "counts"}


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_cli_discriminate_rejects_seed_outside_philox_keys(tmp_path, capsys, seed):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    argv = [
        "discriminate",
        "--ensemble",
        str(ensemble_path),
        "--k",
        str(k_path),
        "--trials",
        "10",
        "--seed",
        seed,
        "--json",
    ]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "param_out_of_range"


@pytest.mark.parametrize("trials, code", [(2**63 - 1, 0), (2**63, 2), (10**20, 2)])
def test_cli_discriminate_trials_up_to_int64(tmp_path, capsys, trials, code):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    argv = ["discriminate", "--ensemble", str(ensemble_path), "--k", str(k_path), "--json"]
    assert main(argv + ["--trials", str(trials)]) == code
    captured = capsys.readouterr()
    if code:
        assert json.loads(captured.err)["code"] == "invalid_ensemble"
    else:
        assert [sum(row) for row in json.loads(captured.out)["outcomes"]["counts"]] == [trials, trials]


HUGE = 10**400  # a JSON integer beyond double range


def fig1_povm_doc():
    return io.povm_doc(build_usd_povm(state_set(fig1_states())))


def fig1_k_doc():
    return io.matrix_doc(fig1_k())


def replace_node(doc, path, value):
    """``doc`` with its node at ``path`` (a tuple of keys) replaced by ``value``."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def cli_argv(command: str, file: Path) -> list[str]:
    """``usd-kit <command> <file>``, with an ``--out`` beside the file for ``embed``."""
    out = ["--out", str(file.with_name("out.json"))] if command.startswith("embed") else []
    return [*command.split(), str(file), *out]


@pytest.mark.parametrize(
    "command, doc, path, needle",
    [
        ("embed --k", fig1_k_doc, ("data", 1, 0, 0), "entry (1,0)"),
        ("embed --k", fig1_k_doc, ("cols",), "row 0"),
        ("validate --povm", fig1_povm_doc, ("operators", 2, 0, 1, 1), "operator 3: entry (0,1)"),
        ("dual --states", fig1_ensemble_doc, ("states", 1, 1, 0), "state 1: entry (1,0)"),
        ("dual --states", fig1_ensemble_doc, ("priors", 0), "priors"),
    ],
    ids=["matrix-entry", "matrix-cols", "povm-entry", "ensemble-state-entry", "priors"],
)
def test_cli_huge_json_integer_is_a_parse_error(tmp_path, capsys, command, doc, path, needle):
    doc = replace_node(json.loads(io.render_json(doc())), path, HUGE)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(cli_argv(command, file)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse_error"
    assert needle in err["message"]


@pytest.mark.parametrize(
    "mutation",
    [True, "1.0", None, HUGE, math.nan, "short", "nested"],
    ids=["true", "string", "null", "huge", "nan", "short", "nested"],
)
@pytest.mark.parametrize(
    "read, doc, path, needle",
    [
        (io.matrix_from_doc, fig1_k_doc, ("data", 1, 0, 0), "matrix data: entry (1,0)"),
        (io.ensemble_from_doc, fig1_ensemble_doc, ("states", 1, 1, 0), "ensemble state 1: entry (1,0)"),
        (io.povm_from_doc, fig1_povm_doc, ("operators", 2, 0, 1, 1), "povm operator 3: entry (0,1)"),
        (io.ensemble_from_doc, fig1_ensemble_doc, ("priors", 0), "ensemble: priors"),
    ],
    ids=["matrix", "ensemble-state", "povm-operator", "priors"],
)
def test_reader_rejects_a_bad_leaf_and_names_its_spot(read, doc, path, needle, mutation):
    """One leaf turned into a non-number, a non-finite number, or the list
    holding it cut one short or nested one level deeper."""
    doc = json.loads(io.render_json(doc()))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "short":
        parent.pop()
    else:
        parent[path[-1]] = [parent[path[-1]]] if mutation == "nested" else mutation
    doc = json.loads(json.dumps(doc))  # exactly what the decoder hands over
    if path[0] == "priors" and mutation == "short":
        # one prior short of the states is a count mismatch, a domain error as before
        with pytest.raises(InvalidEnsemble):
            read(doc)
        return
    with pytest.raises(ParseError) as err:
        read(doc)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf8", "nested-past-the-decoder"]
)
def test_cli_undecodable_file_is_a_parse_error(tmp_path, capsys, content):
    file = tmp_path / "povm.json"
    file.write_bytes(content)
    assert main(["validate", "--povm", str(file)]) == 1
    assert one_envelope(capsys.readouterr().err)["code"] == "parse_error"


# -- malformed documents always leave through the error envelope --------------------

LEAVES = [HUGE, -HUGE, True, "1.0", math.nan]


def json_nodes(doc, path=()):
    """``(path, value)`` for every node of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, item in items:
        yield from json_nodes(item, path + (key,))


def malformed(node, mutation):
    """A leaf of the wrong kind, a list one element short (ragged), or one more level of nesting."""
    if mutation == "ragged" and isinstance(node, list):
        return node[:-1]
    if mutation in ("ragged", "nested"):
        return [node]
    return mutation


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["matrix", "ensemble", "povm"]),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    mutation=st.sampled_from(LEAVES + ["ragged", "nested"]),
    node=st.integers(0, 2**16),
)
@example(kind="matrix", dim=2, seed=0, mutation=HUGE, node=6)  # real part of entry (0,0)
@example(kind="matrix", dim=2, seed=0, mutation=HUGE, node=2)  # cols
@example(kind="ensemble", dim=1, seed=0, mutation=HUGE, node=8)  # the prior
@example(kind="povm", dim=1, seed=0, mutation=-HUGE, node=6)  # real part of F_1
def test_cli_malformed_documents_exit_through_the_envelope(kind, dim, seed, mutation, node):
    rng = np.random.default_rng(seed)
    states = random_complex(rng, dim)
    states /= np.linalg.norm(states, axis=0)
    if kind == "matrix":
        doc, command = io.matrix_doc(random_passive(rng, dim)), "embed --k"
    elif kind == "ensemble":
        ensemble = state_ensemble(state_set(states), np.full(dim, 1.0 / dim))
        doc, command = io.ensemble_doc(ensemble), "dual --states"
    else:
        doc, command = io.povm_doc(build_usd_povm(state_set(states))), "validate --povm"
    doc = json.loads(io.render_json(doc))
    nodes = list(json_nodes(doc))
    path, value = nodes[node % len(nodes)]
    doc = replace_node(doc, path, malformed(value, mutation))
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "doc.json"
        file.write_text(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(cli_argv(command, file))
    assert code in (1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"code", "message", "context"}


def test_cli_example_fig1_json(capsys):
    assert main(["example", "--name", "fig1", "--param", "0.5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["report"]["total_success"] - 0.4) < 1e-10
    assert abs(doc["report"]["total_inconclusive"] - 0.6) < 1e-10
    assert abs(doc["expected"]["output_amplitude"] - 0.6324555320336759) < 1e-12


def test_cli_example_fig2_json(capsys):
    assert main(["example", "--name", "fig2", "--param", "1.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["spectral_norm"] - 1.0) < 1e-9
    assert abs(doc["report"]["total_error"]) < 1e-12


def test_cli_example_fig1_embed_json(capsys):
    assert main(["example", "--name", "fig1-embed", "--param", "0.5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unitary_dim"] == 4
    assert abs(doc["ancilla_mass"] - 0.6) < 1e-10


def test_cli_example_bad_param_exit_2(capsys):
    assert main(["example", "--name", "fig1", "--param", "1.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "param_out_of_range"


def test_cli_missing_file_exit_1(tmp_path, capsys):
    assert main(["dual", "--states", str(tmp_path / "nope.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse_error"


def test_cli_usage_error_exit_1(capsys):
    assert main(["discriminate", "--json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse_error"


def test_cli_tolerance_env_override(tmp_path, capsys, monkeypatch):
    _, ensemble_path = write_fig1_files(tmp_path)
    monkeypatch.setenv("USD_KIT_TOL", "1e-8")
    assert main(["dual", "--states", str(ensemble_path), "--json"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("USD_KIT_TOL", "0.5")
    assert main(["dual", "--states", str(ensemble_path), "--json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse_error"


def test_cli_human_output_mentions_totals(tmp_path, capsys):
    k_path, ensemble_path = write_fig1_files(tmp_path)
    assert main(["discriminate", "--ensemble", str(ensemble_path), "--k", str(k_path)]) == 0
    out = capsys.readouterr().out
    assert "total_success" in out
    assert "total_inconclusive" in out
