"""Exception types shared across the package, and the integer check its
file loaders share.

Each maps to a stable CLI exit code (see cli.py): ConfigError -> 2,
DataError -> 3, ShapeError / ContractError -> 4.
"""


class GradeditError(Exception):
    """Base class for all package errors."""


class ShapeError(GradeditError):
    """Operand dimensions are incompatible."""


class ConfigError(GradeditError):
    """A configuration value violates its invariants."""


class DataError(GradeditError):
    """A dataset file or record is malformed or incomplete."""


class ContractError(GradeditError):
    """A caller broke an API contract (e.g. stale forward trace)."""


def json_int(value: object, what: str) -> int:
    """`value`, a number read from a file, if it is an int; a float, a
    string or a bool raises DataError rather than being converted."""
    if type(value) is not int:
        raise DataError(f"{what} must be an integer, got {value!r}")
    return value
