"""Typed exceptions shared across the package.

Every exception carries a stable machine-readable ``code`` plus an
``exit_code`` used by the command line front end: 1 for I/O and parse
problems, 2 for domain validation failures, 3 for numeric failures
(singularity, positivity or passiveness violations).
"""

from __future__ import annotations


class UsdKitError(Exception):
    """Base class. ``context`` holds structured detail for error reports."""

    code: str = "error"
    exit_code: int = 2

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class ParseError(UsdKitError):
    code = "parse_error"
    exit_code = 1


# -- domain validation (exit code 2) --------------------------------------

class InvalidMatrix(UsdKitError):
    code = "invalid_matrix"


class DimensionMismatch(UsdKitError):
    code = "dimension_mismatch"


class InvalidStateSet(UsdKitError):
    code = "invalid_states"


class SingularStates(UsdKitError):
    code = "singular_states"


class InvalidEnsemble(UsdKitError):
    code = "invalid_ensemble"


class InvalidPovm(UsdKitError):
    code = "invalid_povm"


class InvalidDensityMatrix(UsdKitError):
    code = "invalid_density_matrix"


class ParamOutOfRange(UsdKitError):
    code = "param_out_of_range"


class RankMismatch(UsdKitError):
    code = "rank_mismatch"


class InfeasibleScaling(UsdKitError):
    code = "infeasible_scaling"


# -- numeric failures (exit code 3) ----------------------------------------

class NumericError(UsdKitError):
    exit_code = 3


class SingularMatrix(NumericError):
    code = "singular_matrix"


class NotHermitian(NumericError):
    code = "not_hermitian"


class NotPositive(NumericError):
    code = "not_positive"


class NotUnitary(NumericError):
    code = "not_unitary"


class NotPassive(NumericError):
    code = "not_passive"


class GammaTooSmall(NumericError):
    code = "gamma_too_small"


class DegenerateBasisAlignment(NumericError):
    code = "degenerate_basis_alignment"


class ZeroProbabilityBranch(NumericError):
    code = "zero_probability_branch"
