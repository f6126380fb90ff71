"""Command line front end.

Results go to stdout (JSON with ``--json``, aligned text otherwise);
every failure emits exactly one JSON error object ``{code, message,
context}`` on stderr.  Exit codes: 0 success, 1 I/O or parse problem,
2 domain validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io, linalg
from .discrimination import RandomSource, sample_outcomes, state_ensemble, usd_report
from .duality import dual_set, validate_povm
from .equivalence import (
    computational_basis,
    dilate_unitary,
    lossy_from_povm,
    make_lossy,
    povm_from_lossy,
    projective_basis,
)
from .errors import InvalidPovm, ParseError, UsdKitError
from .linalg import DEFAULT_TOL, ToleranceContext
from .scenarios import build_scenario

TOL_ENV_VAR = "USD_KIT_TOL"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems through the JSON envelope
        raise ParseError(f"argument error: {message}")


def _tolerances_from_env() -> ToleranceContext:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"{TOL_ENV_VAR} must be a real number, got {raw!r}") from exc
    if not 1e-14 <= value <= 1e-6:
        raise ParseError(
            f"{TOL_ENV_VAR} must lie in [1e-14, 1e-6], got {value!r}"
        )
    return ToleranceContext(eq_tol=value)


def _load_basis(path, dim: int, ctx: ToleranceContext):
    if path is None:
        return computational_basis(dim)
    return projective_basis(io.matrix_from_doc(io.read_json(path)), ctx)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _print_pairs(pairs: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


def _matrix_lines(m: np.ndarray, label: str) -> list[str]:
    lines = [f"{label} ({m.shape[0]}x{m.shape[1]}):"]
    for i in range(m.shape[0]):
        entries = "  ".join(
            f"{v.real:+.6g}{v.imag:+.6g}j" for v in np.asarray(m)[i]
        )
        lines.append(f"  [{entries}]")
    return lines


def _report_doc(report) -> dict:
    return {
        "per_state_success": [float(x) for x in report.per_state_success],
        "error_matrix": [[float(x) for x in row] for row in report.error_matrix],
        "inconclusive_per_state": [float(x) for x in report.inconclusive_per_state],
        "total_success": report.total_success,
        "total_error": report.total_error,
        "total_inconclusive": report.total_inconclusive,
    }


def _print_report_human(report) -> None:
    print("state   p(success)      p(inconclusive)")
    for i in range(len(report.per_state_success)):
        print(
            f"{i + 1:>5}   {report.per_state_success[i]:<14.10g}  "
            f"{report.inconclusive_per_state[i]:<.10g}"
        )
    _print_pairs(
        [
            ("total_success", _fmt(report.total_success)),
            ("total_error", _fmt(report.total_error)),
            ("total_inconclusive", _fmt(report.total_inconclusive)),
        ]
    )


def _validation_doc(report) -> dict:
    return {
        "operators": [
            {
                "hermiticity_residual": d.hermiticity_residual,
                "min_eigenvalue": d.min_eigenvalue,
                "rank": d.rank,
            }
            for d in report.operators
        ],
        "completeness_residual": report.completeness_residual,
        "valid": report.valid,
    }


# -- command handlers --------------------------------------------------------

def _cmd_dual(args, ctx: ToleranceContext) -> int:
    ensemble = io.ensemble_from_doc(io.read_json(args.states), ctx)
    duals = dual_set(ensemble.states, ctx)
    pairing = np.asarray(duals.duals).conj().T @ np.asarray(ensemble.states.states)
    residual = np.abs(pairing - np.eye(ensemble.dim))
    doc = {
        "duals": io.matrix_doc(duals.duals),
        "residual_matrix": [[float(x) for x in row] for row in residual],
        "max_residual": float(residual.max()),
    }
    if args.json:
        print(io.render_json(doc))
    else:
        for line in _matrix_lines(np.asarray(duals.duals), "dual vectors (columns)"):
            print(line)
        print(f"max pairing residual: {_fmt(residual.max())}")
    return 0


def _cmd_povm_from_k(args, ctx: ToleranceContext) -> int:
    k = io.matrix_from_doc(io.read_json(args.k))
    le = make_lossy(k, ctx)
    basis = _load_basis(args.basis, le.dim, ctx)
    povm = povm_from_lossy(le, basis, ctx)
    io.write_json(args.out, io.povm_doc(povm))
    report = validate_povm(povm, ctx)
    doc = {
        "out": str(args.out),
        "dim": povm.dim,
        "spectral_norm": float(le.sv[0]),
        "validation": _validation_doc(report),
    }
    if args.json:
        print(io.render_json(doc))
    else:
        _print_pairs(
            [
                ("wrote", str(args.out)),
                ("dim", str(povm.dim)),
                ("spectral_norm", _fmt(le.sv[0])),
                ("completeness_residual", _fmt(report.completeness_residual)),
                ("valid", str(report.valid).lower()),
            ]
        )
    return 0


def _cmd_k_from_povm(args, ctx: ToleranceContext) -> int:
    povm = io.povm_from_doc(io.read_json(args.povm), ctx, validate=True)
    basis = _load_basis(args.basis, povm.dim, ctx)
    phases = None
    if args.phases is not None:
        try:
            phases = [float(x) for x in args.phases.split(",")]
        except ValueError as exc:
            raise ParseError(f"cannot parse --phases {args.phases!r}") from exc
    le = lossy_from_povm(povm, basis, phases, ctx)
    io.write_json(args.out, io.matrix_doc(le.k))
    doc = {
        "out": str(args.out),
        "dim": le.dim,
        "spectral_norm": float(le.sv[0]),
        "passive": le.passive,
    }
    if args.json:
        print(io.render_json(doc))
    else:
        _print_pairs(
            [
                ("wrote", str(args.out)),
                ("dim", str(le.dim)),
                ("spectral_norm", _fmt(le.sv[0])),
                ("passive", str(le.passive).lower()),
            ]
        )
    return 0


def _cmd_validate(args, ctx: ToleranceContext) -> int:
    povm = io.povm_from_doc(io.read_json(args.povm), ctx, validate=False)
    report = validate_povm(povm, ctx)
    doc = _validation_doc(report)
    if args.json:
        print(io.render_json(doc))
    else:
        print("op    herm_residual   min_eigenvalue   rank")
        for i, d in enumerate(report.operators):
            print(
                f"{i + 1:>3}   {d.hermiticity_residual:<14.6g}  "
                f"{d.min_eigenvalue:<15.6g}  {d.rank}"
            )
        _print_pairs(
            [
                ("completeness_residual", _fmt(report.completeness_residual)),
                ("valid", str(report.valid).lower()),
            ]
        )
    if not report.valid:
        raise InvalidPovm(
            "POVM is invalid", completeness_residual=report.completeness_residual
        )
    return 0


def _cmd_embed(args, ctx: ToleranceContext) -> int:
    k = io.matrix_from_doc(io.read_json(args.k))
    le = make_lossy(k, ctx)
    u = dilate_unitary(le, ctx)
    residual = linalg.check_unitary(u, ctx, "dilation")
    io.write_json(args.out, io.matrix_doc(u))
    doc = {
        "out": str(args.out),
        "dim": u.shape[0],
        "unitarity_residual": float(residual),
    }
    if args.json:
        print(io.render_json(doc))
    else:
        _print_pairs(
            [
                ("wrote", str(args.out)),
                ("dim", str(u.shape[0])),
                ("unitarity_residual", _fmt(residual)),
            ]
        )
    return 0


def _cmd_discriminate(args, ctx: ToleranceContext) -> int:
    ensemble = io.ensemble_from_doc(io.read_json(args.ensemble), ctx)
    if args.povm is not None:
        povm = io.povm_from_doc(io.read_json(args.povm), ctx, validate=True)
    else:
        le = make_lossy(io.matrix_from_doc(io.read_json(args.k)), ctx)
        povm = povm_from_lossy(le, computational_basis(le.dim), ctx)
    report = usd_report(ensemble, povm, ctx)
    doc = {"report": _report_doc(report)}
    if args.trials is not None:
        stats = sample_outcomes(ensemble, povm, args.trials, RandomSource(seed=args.seed), ctx)
        doc["outcomes"] = {
            "trials_per_state": stats.trials,
            "seed": stats.seed,
            "counts": [[int(c) for c in row] for row in stats.counts],
        }
    if args.json:
        print(io.render_json(doc))
    else:
        _print_report_human(report)
        if args.trials is not None:
            print(f"counts ({args.trials} trials/state, seed {args.seed}):")
            for i, row in enumerate(doc["outcomes"]["counts"]):
                print(f"  state {i + 1}: {row}")
    return 0


def _cmd_example(args, ctx: ToleranceContext) -> int:
    scenario = build_scenario(args.name, args.param, ctx)
    povm = povm_from_lossy(scenario.k, scenario.basis, ctx)
    n = scenario.input_states.count
    ensemble = state_ensemble(scenario.input_states, np.full(n, 1.0 / n), ctx)
    report = usd_report(ensemble, povm, ctx)
    doc = {
        "name": scenario.name,
        "param": float(args.param),
        "expected": {key: float(value) for key, value in scenario.expected.items()},
        "spectral_norm": float(scenario.k.sv[0]),
        "report": _report_doc(report),
    }
    if scenario.full_unitary is not None:
        u = np.asarray(scenario.full_unitary)
        doc["unitary_dim"] = u.shape[0]
        if scenario.name == "fig1-embed":
            d = scenario.input_states.dim
            leaked = u[d:, :d] @ np.asarray(scenario.input_states.states)
            doc["ancilla_mass"] = float(ensemble.priors @ np.sum(np.abs(leaked) ** 2, axis=0))
    if args.json:
        print(io.render_json(doc))
    else:
        pairs = [("scenario", scenario.name), ("param", _fmt(args.param))]
        pairs += [(f"expected.{k}", _fmt(v)) for k, v in scenario.expected.items()]
        pairs += [("spectral_norm", _fmt(scenario.k.sv[0]))]
        if "ancilla_mass" in doc:
            pairs.append(("ancilla_mass", _fmt(doc["ancilla_mass"])))
        _print_pairs(pairs)
        _print_report_human(report)
    return 0


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usd-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="dual vectors of an ensemble's states")
    p.add_argument("--states", required=True, help="ensemble JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("povm-from-k", help="POVM induced by a lossy operator")
    p.add_argument("--k", required=True, help="matrix JSON file")
    p.add_argument("--basis", help="measurement basis matrix JSON file")
    p.add_argument("--out", required=True, help="output POVM JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_povm_from_k)

    p = sub.add_parser("k-from-povm", help="lossy operator realizing a POVM")
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--basis", help="measurement basis matrix JSON file")
    p.add_argument("--phases", help="comma separated phases, one per state")
    p.add_argument("--out", required=True, help="output matrix JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_k_from_povm)

    p = sub.add_parser("validate", help="diagnostics for a POVM file")
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("embed", help="embed a passive operator in a unitary")
    p.add_argument("--k", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True, help="output matrix JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("discriminate", help="discrimination report for an ensemble")
    p.add_argument("--ensemble", required=True, help="ensemble JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--povm", help="POVM JSON file")
    group.add_argument("--k", help="matrix JSON file (computational basis)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per prepared state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_discriminate)

    p = sub.add_parser("example", help="run a named scenario")
    p.add_argument("--name", required=True, choices=["fig1", "fig2", "fig1-embed"])
    p.add_argument("--param", required=True, type=float, help="gamma for fig1 variants, z for fig2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_example)

    return parser


def _sanitize(value):
    """Keep error contexts serializable (inf/nan become strings)."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_sanitize(item) for item in list(value)]
    return value


def main(argv=None) -> int:
    try:
        ctx = _tolerances_from_env()
        args = build_parser().parse_args(argv)
        return args.handler(args, ctx)
    except UsdKitError as exc:
        envelope = {"code": exc.code, "message": str(exc), "context": _sanitize(exc.context)}
        print(io.render_json(envelope), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        envelope = {"code": "io_error", "message": str(exc), "context": {}}
        print(io.render_json(envelope), file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
