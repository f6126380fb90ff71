"""JSON file formats for matrices, ensembles and POVMs.

Documents are strict: unknown keys are rejected and every number must be
finite.  Numbers are serialized with 17 significant digits so a
write/read round trip reproduces IEEE doubles bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import linalg
from .duality import PovmSet, rank_one_rule, state_set, validate_povm
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


def render_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit numbers."""
    out: list[str] = []
    _render(value, out)
    return "".join(out)


# -- shared pieces -----------------------------------------------------------

def _entry_pairs(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one level per axis of ``m``."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A JSON number is finite when it is a finite double: NaN, infinities
    and integers beyond double range are not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _parse_complex_rows(data, rows: int, cols: int, where: str) -> np.ndarray:
    """The ``rows x cols`` complex matrix of checked ``[re, im]`` pairs; sized
    by the data, never by the declared shape alone."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_number, entry)):
                raise ParseError(f"{where}: entry ({i},{j}) must be a [re, im] pair")
            if not (_is_finite(entry[0]) and _is_finite(entry[1])):
                raise ParseError(f"{where}: entry ({i},{j}) is not finite")
    return np.array(data, dtype=float).view(complex)[..., 0]


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
    return _parse_complex_rows(doc["data"], rows, cols, "matrix data")


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
    columns = []
    for idx, vec in enumerate(raw_states):
        col = _parse_complex_rows(
            [[entry] for entry in vec] if isinstance(vec, list) else vec,
            dim,
            1,
            f"ensemble state {idx}",
        )
        columns.append(col[:, 0])
    priors = doc["priors"]
    if not isinstance(priors, list) or not all(
        _is_number(x) and _is_finite(x) for x in priors
    ):
        raise ParseError("ensemble: priors must be a list of finite numbers")
    states = state_set(np.column_stack(columns), ctx)
    return state_ensemble(states, [float(x) for x in priors], ctx)


# -- POVM documents ------------------------------------------------------------

def povm_doc(p: PovmSet) -> dict:
    return {
        "dim": p.dim,
        "operators": _entry_pairs(p.operators),
    }


def povm_from_doc(doc, ctx: ToleranceContext = DEFAULT_TOL, validate: bool = True) -> PovmSet:
    """Parse a POVM document; with ``validate`` the full invariants are enforced.

    Validation covers Hermiticity, positivity, completeness and then
    :func:`duality.rank_one_rule` for each detection operator, pivoted on its
    largest diagonal entry (at least ``lambda_1 / N``): ``lambda_2/lambda_1``
    up to ``psd_tol / N`` always passes, from ``psd_tol`` on (or a zero
    operator) always fails.  Failures raise ``InvalidPovm``.
    """
    _require_keys(doc, POVM_KEYS, "povm")
    dim = _require_dim(doc, "dim", "povm")
    raw_ops = doc["operators"]
    if not isinstance(raw_ops, list) or len(raw_ops) != dim + 1:
        raise ParseError(f"povm: expected {dim + 1} operators for dimension {dim}")
    operators = [
        _parse_complex_rows(op, dim, dim, f"povm operator {idx + 1}")
        for idx, op in enumerate(raw_ops)
    ]
    p = PovmSet(dim=dim, operators=operators, scaling=None)
    if validate:
        report = validate_povm(p, ctx)
        if not report.valid:
            raise InvalidPovm(
                "POVM failed validation on load",
                completeness_residual=report.completeness_residual,
                min_eigenvalues=[d.min_eigenvalue for d in report.operators],
            )
        f = p.operators[:dim]
        diag = np.diagonal(f, axis1=1, axis2=2).real
        rows = f[np.arange(dim), diag.argmax(axis=1)]  # row k is e_j^dag F_k for the largest F_k[j, j]
        bad = np.flatnonzero(~rank_one_rule(f, rows, diag.max(axis=1), ctx)[2])
        if bad.size:
            raise InvalidPovm(f"detection operator {bad[0] + 1} is not rank one", operator=int(bad[0]) + 1)
    return p


# -- file helpers --------------------------------------------------------------

def read_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    try:
        Path(path).write_text(render_json(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
