import argparse
import ast
import copy
import dataclasses
import functools
import importlib
import pickle
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import usd_kit
from usd_kit import cli, linalg
from usd_kit.duality import check_density_matrix
from usd_kit.errors import UsdKitError

# The public surface, one name per identity.  A change to it is deliberate:
# edit this list and record the change in CHANGES.md.
PUBLIC_NAMES = [
    "DiscriminationReport",
    "LossyEvolution",
    "OutcomeStats",
    "PovmSet",
    "ProjectiveBasis",
    "RandomSource",
    "Scenario",
    "StateEnsemble",
    "StateSet",
    "ToleranceContext",
    "ValidationReport",
    "build_scenario",
    "build_usd_povm",
    "computational_basis",
    "density_matrix",
    "dilate_unitary",
    "discriminable_states",
    "dual_set",
    "dyadic_form",
    "fig1_as_embedding",
    "fig1_scenario",
    "fig2_scenario",
    "inconclusive_rank",
    "lossy_from_povm",
    "make_lossy",
    "normalize_passive",
    "outcome_probabilities",
    "post_measurement_state",
    "povm_from_lossy",
    "projective_basis",
    "psd_sqrt",
    "reduced_evolution",
    "sample_outcomes",
    "singular_values",
    "spectral_norm",
    "state_ensemble",
    "state_set",
    "subspace_reduce",
    "unitary_exp",
    "usd_report",
    "validate_povm",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(usd_kit.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(usd_kit, name) is not None


def test_every_parameter_is_read():
    # A parameter that the body never reads (``self`` aside) is dead surface:
    # callers pass it and nothing happens.  Parameter defaults are not the body.
    dead = []
    for path in sorted(Path(usd_kit.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            dead += [f"{path.name}:{fn.lineno} {name}({p})" for p in params if p != "self" and p not in read]
    assert dead == []


def test_every_error_type_is_raised():
    # A leaf error type that nothing raises is dead surface: callers catch it and nothing comes.
    def leaves(cls):
        subs = cls.__subclasses__()
        return [leaf for sub in subs for leaf in leaves(sub)] if subs else [cls.__name__]

    raised = set()
    for path in Path(usd_kit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(set(leaves(UsdKitError)) - raised) == []


def test_docstring_cross_references_resolve():
    # :func:`x` and :class:`x` name a name of their own module, or module.name in the package.
    broken, seen = [], 0
    for path in sorted(Path(usd_kit.__file__).parent.glob("*.py")):
        refs = re.findall(r":(?:func|class):`([^`]+)`", path.read_text(encoding="utf-8"))
        seen += len(refs)
        for ref in refs:  # a module without references is not imported: __main__ would run the cli
            owner, _, name = ref.rpartition(".")
            if not hasattr(importlib.import_module(f"usd_kit.{owner or path.stem}"), name):
                broken.append(f"{path.name}: {ref}")
    assert seen and broken == []


def test_readme_command_lines_parse():
    # every usd-kit line of README's sh blocks (continuations joined) parses, and together they
    # cover every subcommand: a renamed option or subcommand cannot leave the README behind
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    parser = cli.build_parser()
    seen = set()
    for line in lines:
        words = shlex.split(line, comments=True)
        if words[:1] == ["usd-kit"]:
            seen.add(parser.parse_args(words[1:]).command)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert seen == set(commands)


def _arrays(obj):
    """Every array reachable from ``obj`` through attributes, tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [a for item in obj.values() for a in _arrays(item)]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return _arrays(vars(obj)) if hasattr(obj, "__dict__") else []


def test_results_stay_read_only_through_copy_deepcopy_and_pickle():
    s = usd_kit.state_set([[1.0, 0.6], [0.0, 0.8]])
    povm = usd_kit.build_usd_povm(s)
    ensemble = usd_kit.state_ensemble(s, [0.5, 0.5])
    results = [
        s,
        povm,
        usd_kit.PovmSet(2, povm.operators),
        usd_kit.validate_povm(povm),
        usd_kit.make_lossy(np.diag([0.5, 1.0])),
        usd_kit.computational_basis(2),
        ensemble,
        usd_kit.usd_report(ensemble, povm),
        usd_kit.sample_outcomes(ensemble, povm, 10, usd_kit.RandomSource(seed=1)),
        usd_kit.build_scenario("fig1-embed", 0.5),
    ]
    for result in results:
        assert copy.copy(result) is result and copy.deepcopy([result])[0] is result
        back = pickle.loads(pickle.dumps(result))
        arrays = _arrays(back)
        assert arrays and not any(a.flags.writeable for a in arrays), type(result).__name__
        assert all(np.array_equal(a, b) for a, b in zip(arrays, _arrays(result)))
        for x, y in ((result, back), (back, result)):  # records compare and hash by identity
            assert x == x and x != y and x in [y, x] and len({x, y, x}) == 2
    for scenario in (usd_kit.build_scenario(name, 0.5) for name in ("fig1", "fig2", "fig1-embed")):
        for result in (scenario, copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
            with pytest.raises(TypeError):
                result.expected["overlap"] = 0.0
        assert scenario.expected["overlap"] > 0.0
    assert "svd" in vars(pickle.loads(pickle.dumps(s)))  # the cached SVD travels with the set
    svd = vars(pickle.loads(pickle.dumps(povm)))["svd"]  # and so does the built POVM's
    assert all(not a.flags.writeable and np.array_equal(a, b) for a, b in zip(svd, povm.svd))


def test_records_built_directly_are_read_only():
    # the one initializer freezes what it is given: arrays in place, the arrays of an SVD, and dicts
    eye = np.eye(2, dtype=complex)
    s = usd_kit.StateSet(dim=2, states=eye)
    assert s.states is eye and not eye.flags.writeable
    le = usd_kit.LossyEvolution(k=np.eye(2, dtype=complex), svd=tuple(np.linalg.svd(np.eye(2))), passive=True)
    assert not any(a.flags.writeable for a in (le.k, *le.svd))
    scenario = usd_kit.Scenario(name="eye", k=le, basis=usd_kit.computational_basis(2), input_states=s,
                                expected={"overlap": 0.0})
    with pytest.raises(TypeError):
        scenario.expected["overlap"] = 1.0
    assert scenario.full_unitary is None


RECORDS = linalg._Immutable.__subclasses__()


def test_the_nine_result_records_share_one_base():
    assert sorted(c.__name__ for c in RECORDS) == [
        "DiscriminationReport", "LossyEvolution", "OutcomeStats", "PovmSet", "ProjectiveBasis",
        "Scenario", "StateEnsemble", "StateSet", "ValidationReport",
    ]


@pytest.mark.parametrize("record", RECORDS, ids=lambda c: c.__name__)
def test_records_name_a_missing_or_unknown_field(record):
    # a record is built from exactly its own fields; a cached svd and a defaulted field may be left out
    def build(**fields):  # the shared initializer: PovmSet's own takes a dense stack
        obj = object.__new__(record)
        linalg._Immutable.__init__(obj, **fields)
        return obj

    fields = dataclasses.fields(record)
    names = [f.name for f in fields]
    optional = [f.name for f in fields if f.default is not dataclasses.MISSING]
    cached = isinstance(vars(record).get("svd"), functools.cached_property)
    assert optional == (["full_unitary"] if record is usd_kit.Scenario else [])
    for given in (names, [n for n in names if n not in optional], names + ["svd"] * cached):
        obj = build(**dict.fromkeys(given))
        assert all(getattr(obj, n) is None for n in names)
    for name in names:
        if name not in optional:
            with pytest.raises(TypeError, match=f"missing fields \\['{name}'\\]"):
                build(**dict.fromkeys(n for n in names if n != name))
    with pytest.raises(TypeError, match=r"unknown fields \['bogus'\]"):
        build(**dict.fromkeys(names), bogus=None)
    if not cached and "svd" not in names:  # only a cached slot is an allowed extra
        with pytest.raises(TypeError, match=r"unknown fields \['svd'\]"):
            build(**dict.fromkeys(names), svd=None)


def test_a_misspelled_state_set_raises():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(TypeError, match=r"StateSet: missing fields \['states'\], unknown fields \[\]"):
        usd_kit.StateSet(dim=2)
    with pytest.raises(TypeError, match=r"StateSet: missing fields \[\], unknown fields \['state'\]"):
        usd_kit.StateSet(dim=2, states=eye, state=1)


def test_public_factories_copy_what_the_caller_passes():
    # each factory keeps a read-only copy, so the caller's array stays writeable
    states, k, psi, u = (np.eye(n, dtype=complex) for n in (2, 2, 2, 3))
    priors = np.array([0.5, 0.5])
    stack = np.array(usd_kit.build_usd_povm(usd_kit.state_set(np.eye(2))).operators)
    kept = [
        (states, usd_kit.state_set(states).states),
        (k, usd_kit.make_lossy(k).k),
        (psi, usd_kit.projective_basis(psi).psi),
        (priors, usd_kit.state_ensemble(usd_kit.state_set(np.eye(2)), priors).priors),
        (stack, usd_kit.PovmSet(2, stack).stack),
        (u, usd_kit.reduced_evolution(u, 2).k),
    ]
    for given, copy_ in kept:
        assert given.flags.writeable and not copy_.flags.writeable and not np.shares_memory(given, copy_)


LIBRARY_ERRORS = [
    (lambda: usd_kit.state_ensemble(usd_kit.state_set(np.eye(2)), [1.5, -0.5]),
     "priors must be finite and nonnegative", {"prior": 2, "value": -0.5}),
    (lambda: usd_kit.outcome_probabilities(np.eye(2) / 2.0, usd_kit.build_usd_povm(usd_kit.state_set(np.eye(3)))),
     "density matrix dimension 2 does not match POVM dimension 3", {"rho_dim": 2, "povm_dim": 3}),
    (lambda: usd_kit.post_measurement_state(np.eye(2) / 2.0, np.eye(3)),
     "operator shape (3, 3) does not match state shape (2, 2)", {"operator_dim": 3, "state_dim": 2}),
    (lambda: usd_kit.PovmSet(0, []), "POVM dimension must be at least 1, got 0", {"dim": 0}),
    (lambda: usd_kit.PovmSet(2, np.zeros((2, 2, 2))), "expected 3 operators of size 2x2", {"dim": 2}),
    (lambda: usd_kit.PovmSet(1, [[[1.0]], [[np.nan]]]), "POVM operators contain NaN or Inf entries",
     {"operator": 2}),
    (lambda: usd_kit.build_usd_povm(usd_kit.state_set(np.eye(2)), [0.5]),
     "expected 2 scaling weights, got (1,)", {"weights": 1, "dim": 2}),
    (lambda: usd_kit.build_usd_povm(usd_kit.state_set(np.eye(2)), [0.5, -1.0]),
     "scaling weights must be finite and strictly positive", {"weight": 2, "value": -1.0}),
    (lambda: check_density_matrix([[0.5, 1.0], [0.0, 0.5]]),
     "density matrix is not Hermitian (residual 1.414e+00)", {"residual": 2.0**0.5}),
    (lambda: check_density_matrix(np.eye(2)), "density matrix trace is 2.0, expected 1", {"trace": 2.0}),
    (lambda: check_density_matrix(np.diag([1.5, -0.5])),
     "density matrix has eigenvalue -5.000e-01 below -psd_tol", {"min_eigenvalue": -0.5}),
    (lambda: usd_kit.normalize_passive(usd_kit.make_lossy(np.eye(2)), float("inf")),
     "rescaling factor must be finite, got inf", {"gamma": float("inf")}),
    (lambda: usd_kit.normalize_passive(usd_kit.make_lossy(np.eye(2)), -1.0),
     "cannot rescale by nonpositive factor -1.0", {"gamma": -1.0}),
    (lambda: usd_kit.reduced_evolution(np.eye(2), 3), "subspace dimension 3 out of range for size 2",
     {"subspace_dim": 3, "dim": 2}),
    (lambda: usd_kit.make_lossy(np.zeros(3)), "evolution operator must be 2-dimensional, got ndim=1", {"ndim": 1}),
    (lambda: usd_kit.make_lossy(np.zeros((0, 3))), "evolution operator must not be empty", {"rows": 0, "cols": 3}),
    (lambda: usd_kit.unitary_exp(np.eye(2), float("inf")), "evolution time must be finite, got inf",
     {"t": float("inf")}),
]


@pytest.mark.parametrize("call, message, context", LIBRARY_ERRORS, ids=[
    "prior", "rho-dim", "operator-dim", "povm-dim", "povm-shape", "povm-finite", "weights-count", "weight-value",
    "rho-hermitian", "rho-trace", "rho-positive", "gamma-finite", "gamma-positive", "subspace-dim",
    "matrix-ndim", "matrix-empty", "time-finite",
])
def test_library_errors_name_the_numbers(call, message, context):
    with pytest.raises(UsdKitError) as info:
        call()
    assert (str(info.value), info.value.context) == (message, context)
