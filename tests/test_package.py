import argparse
import ast
import copy
import importlib
import pickle
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import usd_kit
from usd_kit import cli
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
    for scenario in (usd_kit.build_scenario(name, 0.5) for name in ("fig1", "fig2", "fig1-embed")):
        for result in (scenario, copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
            with pytest.raises(TypeError):
                result.expected["overlap"] = 0.0
        assert scenario.expected["overlap"] > 0.0
    assert "svd" in vars(pickle.loads(pickle.dumps(s)))  # the cached SVD travels with the set
    svd = vars(pickle.loads(pickle.dumps(povm)))["svd"]  # and so does the built POVM's
    assert all(not a.flags.writeable and np.array_equal(a, b) for a, b in zip(svd, povm.svd))
