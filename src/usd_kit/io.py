"""JSON file formats for matrices, ensembles and POVMs.

Documents are strict: unknown keys are rejected and every number must be
finite.  Numbers are serialized with 17 significant digits so a
write/read round trip reproduces IEEE doubles bit for bit.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import linalg
from .duality import PovmSet, _fill, _state_set, validate_povm
from .discrimination import StateEnsemble, state_ensemble
from .errors import InvalidPovm, ParseError
from .linalg import DEFAULT_TOL, ToleranceContext

MATRIX_KEYS = {"rows", "cols", "data"}
ENSEMBLE_KEYS = {"dim", "states", "priors"}
POVM_KEYS = {"dim", "operators"}


# -- canonical JSON rendering ----------------------------------------------

def _render(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"cannot serialize non-finite number {v!r}")
        text = format(v, ".17g")
        out.append("-0.0" if text == "-0" else text)  # "-0" parses as the integer 0
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, list) and (block := _float_block(value)) is not None:
        out.append(block)
    elif isinstance(value, dict):
        out.append("{")
        for idx, (key, item) in enumerate(value.items()):
            if idx:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for idx, item in enumerate(list(value)):
            if idx:
                out.append(", ")
            _render(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _float_block(value: list) -> str | None:
    """``value`` rendered as :func:`_render` would, by one ``%`` format, when it
    is nested lists of one shape whose every leaf is a finite ``float``; else ``None``."""
    try:
        a = np.array(value, dtype=object)
    except ValueError:  # a list of arrays that numpy cannot stack
        return None
    if a.size == 0 or set(map(type, a.flat)) != {float} or not np.isfinite(a.astype(float)).all():
        return None
    template = "%.17g"
    for k in reversed(a.shape):
        template = "[" + ", ".join([template] * k) + "]"
    # "%.17g" writes -0.0 as "-0", and no other number it writes ends in "-0"
    return (template % tuple(a.flat)).replace("-0,", "-0.0,").replace("-0]", "-0.0]")


def render_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit numbers."""
    out: list[str] = []
    _render(value, out)
    return "".join(out)


# -- shared pieces -----------------------------------------------------------

def _entry_pairs(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one level per axis of ``m``."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _floats(data, shape: tuple) -> np.ndarray | None:
    """``data`` as a float array in one numpy pass when it is nested lists of
    ``shape`` whose every leaf is an ``int`` or ``float`` (not a ``bool``)
    with a finite double value, else ``None``.  Sized by the data, never by
    the declared shape."""
    a = np.array(data, dtype=object)
    types = set(map(type, a.flat))
    if a.shape == shape and all(issubclass(t, (int, float)) and t is not bool for t in types):
        with suppress(OverflowError):  # an integer beyond double range
            x = a.astype(float)
            if np.isfinite(x).all():
                return x
    return None


def _pairs(data, shape: tuple, where) -> np.ndarray:
    """The complex array of ``shape`` held as nested ``[re, im]`` pairs: a
    ``(rows, cols)`` matrix named ``where``, or a list of matrices or
    ``(rows,)`` columns whose element k ``where(k)`` names.  Rejected data
    is walked again, by the same rule, only to name its first bad spot."""
    x = _floats(data, (*shape, 2))
    if x is not None:
        return x.view(complex)[..., 0]
    full, path = (*shape, 2), ()
    while len(path) < len(full) and isinstance(data, list) and len(data) == full[len(path)]:
        rest = full[len(path) + 1:]
        path += (next(i for i, item in enumerate(data) if _floats(item, rest) is None),)
        data = data[path[-1]]
    if callable(where):  # a stack arrives as a list of its declared length
        where, path, shape = where(path[0]), path[1:], shape[1:]
    if not path:
        raise ParseError(f"{where}: expected {shape[0]} rows")
    if len(path) == 1 and len(shape) == 2:
        raise ParseError(f"{where}: row {path[0]} must have {shape[1]} entries")
    col = path[1] if len(shape) == 2 else 0  # a state is a rows x 1 column
    raise ParseError(f"{where}: entry ({path[0]},{col}) must be a [re, im] pair of finite numbers")


def _require_keys(doc, keys: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if set(doc) != keys:
        missing = sorted(keys - set(doc))
        unknown = sorted(set(doc) - keys)
        raise ParseError(
            f"{where}: wrong keys (missing {missing}, unknown {unknown})"
        )


def _require_dim(doc, key: str, where: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ParseError(f"{where}: {key} must be a positive integer")
    return value


# -- matrix documents --------------------------------------------------------

def matrix_doc(m) -> dict:
    mat = linalg.as_matrix(m)
    return {"rows": mat.shape[0], "cols": mat.shape[1], "data": _entry_pairs(mat)}


def matrix_from_doc(doc) -> np.ndarray:
    _require_keys(doc, MATRIX_KEYS, "matrix")
    rows = _require_dim(doc, "rows", "matrix")
    cols = _require_dim(doc, "cols", "matrix")
    return _pairs(doc["data"], (rows, cols), "matrix data")


# -- ensemble documents --------------------------------------------------------

def ensemble_doc(e: StateEnsemble) -> dict:
    states = _entry_pairs(np.asarray(e.states.states).T)
    return {"dim": e.dim, "states": states, "priors": [float(x) for x in e.priors]}


def ensemble_from_doc(doc, ctx: ToleranceContext = DEFAULT_TOL) -> StateEnsemble:
    _require_keys(doc, ENSEMBLE_KEYS, "ensemble")
    dim = _require_dim(doc, "dim", "ensemble")
    raw_states = doc["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise ParseError("ensemble: states must be a non-empty list")
    states = _pairs(raw_states, (len(raw_states), dim), lambda k: f"ensemble state {k}")
    priors = doc["priors"]
    priors = _floats(priors, (len(priors),)) if isinstance(priors, list) else None
    if priors is None:
        raise ParseError("ensemble: priors must be a list of finite numbers")
    return state_ensemble(_state_set(linalg._freeze(states.T), ctx), priors)  # _pairs checked every entry


# -- POVM documents ------------------------------------------------------------

def povm_doc(p: PovmSet) -> dict:
    return {
        "dim": p.dim,
        "operators": _entry_pairs(p.operators),
    }


def povm_from_doc(doc, ctx: ToleranceContext = DEFAULT_TOL, validate: bool = True) -> PovmSet:
    """Parse a POVM document; with ``validate`` the full invariants are enforced.

    Validation is one :func:`duality.validate_povm` call: the report must be
    valid (Hermiticity, positivity, completeness) and its ``rank_one``
    verdict true for every detection operator, the :func:`duality.rank_one_rule`
    on its largest diagonal entry (at least ``lambda_1 / N``):
    ``lambda_2/lambda_1`` up to ``psd_tol / N`` always passes, from
    ``psd_tol`` on always fails, and so does an operator with ``||F||_F <= psd_tol``.
    The verdict comes from the report's own pass, so no defect is formed twice.
    Failures raise ``InvalidPovm``.
    """
    _require_keys(doc, POVM_KEYS, "povm")
    dim = _require_dim(doc, "dim", "povm")
    raw_ops = doc["operators"]
    if not isinstance(raw_ops, list) or len(raw_ops) != dim + 1:
        raise ParseError(f"povm: expected {dim + 1} operators for dimension {dim}")
    ops = linalg._freeze(_pairs(raw_ops, (dim + 1, dim, dim), lambda k: f"povm operator {k + 1}"))
    # PovmSet's fields without its checks, which _pairs has made
    p = _fill(object.__new__(PovmSet), dim=dim, vectors=None, weights=None, inconclusive=ops[-1], stack=ops)
    if validate:
        report = validate_povm(p, ctx)
        if not report.valid:
            raise InvalidPovm(
                "POVM failed validation on load",
                completeness_residual=report.completeness_residual,
                min_eigenvalues=report.min_eigenvalue.tolist(),
            )
        bad = np.flatnonzero(~report.rank_one)
        if bad.size:
            raise InvalidPovm(f"detection operator {bad[0] + 1} is not rank one", operator=int(bad[0]) + 1)
    return p


# -- file helpers --------------------------------------------------------------

def read_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the decoder's limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    try:
        Path(path).write_text(render_json(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
