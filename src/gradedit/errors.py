"""Exception types shared across the package, and the readers that every
value from a file or a config passes through.

Each exception maps to a stable CLI exit code (see cli.py): ConfigError ->
2, DataError -> 3, ShapeError / ContractError -> 4. A number read from a
file or a config must be a JSON int or float: a string, a bool or a null is
never converted, and neither is an integer too large for a float.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class GradeditError(Exception):
    """Base class for all package errors."""


class ShapeError(GradeditError):
    """Operand dimensions are incompatible."""


class ConfigError(GradeditError):
    """A configuration value violates its invariants."""


class DataError(GradeditError):
    """A dataset file or record is malformed or incomplete."""


class ContractError(GradeditError):
    """A caller broke an API contract (e.g. an editor that mutates its input model)."""


_NUMBER_TYPES = {int, float}

# The error class a reader raises: configs pass ConfigError (exit 2), files
# keep DataError (exit 3).
Error = type[GradeditError]


def json_file(path: str | Path, what: str, version: int | None = None,
              error: Error = DataError) -> dict:
    """`json_object` of the text in the file at `path`; text that is not
    UTF-8 raises `error`."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise error(f"{what} is not UTF-8 text: {e}") from e
    return json_object(text, what, version, error)


def json_object(text: str, what: str, version: int | None = None,
                error: Error = DataError) -> dict:
    """The JSON object in `text`, with the integer `version` as its
    `format_version` if one is given (`true` is not 1). Malformed JSON,
    another JSON value or another version raises `error`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"malformed {what}: {e}") from e
    if not isinstance(obj, dict):
        raise error(f"{what} must hold a JSON object")
    got = obj.get("format_version")
    if version is not None and (type(got) is not int or got != version):
        raise error(f"{what}: format version {got!r} unsupported (want {version})")
    return obj


def json_bool(value: object, what: str, error: Error = DataError) -> bool:
    """`value` if it is a bool; 0, 1, a string or a null raises `error`."""
    if type(value) is not bool:
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def json_int(value: object, what: str, low: int | None = None, error: Error = DataError) -> int:
    """`value` if it is an int, at least `low` if one is given; a float, a
    string or a bool raises `error` rather than being converted."""
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return value


def json_number(value: object, what: str, low: float | None, strict: bool = False,
                error: Error = DataError, high: float | None = None) -> float:
    """`value`, a finite JSON number (`json_floats` of shape ()), as a
    float; at least `low` (above it if `strict`) when `low` is given, and
    at most `high` when `high` is given."""
    number = float(json_floats(value, (), what, error))
    if low is not None and not (number > low if strict else number >= low):
        raise error(f"{what} must be {'>' if strict else '>='} {low}, got {value!r}")
    if high is not None and number > high:
        raise error(f"{what} must be <= {high}, got {value!r}")
    return number


def json_floats(value: object, shape: tuple[int, ...], what: str,
                error: Error = DataError) -> np.ndarray:
    """Nested lists of JSON numbers as a finite float64 array of exactly
    `shape`. A string, bool or null leaf, a ragged or wrongly shaped list,
    an integer too large for a float, a NaN or an infinity raises `error`.

    `np.array(..., dtype=np.float64)` alone would turn `true` into 1.0 and
    `"2"` into 2.0, so the leaf types of each innermost list are checked
    first, one set per list."""
    rows = [[value]]
    for n in shape:
        rows = [node for row in rows for node in row]
        if not all(type(node) is list and len(node) == n for node in rows):
            raise error(f"{what} must be nested lists of numbers of shape {shape}")
    if not all(_NUMBER_TYPES.issuperset(map(type, row)) for row in rows):
        bad = next(leaf for row in rows for leaf in row if type(leaf) not in _NUMBER_TYPES)
        raise error(f"{what} must hold only JSON numbers, got {bad!r}")
    try:
        array = np.array(value, dtype=np.float64)
    except OverflowError as e:
        raise error(f"{what} holds an integer too large for a float") from e
    if not np.isfinite(array).all():
        raise error(f"{what} holds a non-finite value")
    return array


def layer_indices(layers: object, num_layers: int | None) -> list[int]:
    """`layers`, a non-empty list, tuple or range of integer layer indices
    below `num_layers` (if given), in order without repeats; anything else
    raises ConfigError."""
    if not isinstance(layers, (list, tuple, range)) or not layers:
        raise ConfigError(f"editable layers must be a non-empty list of layer indices, "
                          f"got {layers!r}")
    for l in layers:
        json_int(l, "an editable layer", 0, ConfigError)
        if num_layers is not None and l >= num_layers:
            raise ConfigError(f"layer {l} not in the model's {num_layers} layers")
    return list(dict.fromkeys(layers))


def json_example(obj: object, dim: int, classes: int, what: str, x: str = "x",
                 y: str = "y") -> tuple[np.ndarray, int]:
    """The (input, label) pair under keys `x`, `y` of the JSON object `obj`:
    a finite float64 input of shape (dim,) and an integer label in
    [0, classes); anything else raises DataError."""
    if not isinstance(obj, dict) or x not in obj or y not in obj:
        raise DataError(f"{what} must be an object with fields {x!r} and {y!r}")
    label = json_int(obj[y], f"{what}: label {y!r}", 0)
    if label >= classes:
        raise DataError(f"{what}: label {label} is outside the {classes} classes")
    return json_floats(obj[x], (dim,), f"{what}: input {x!r}"), label
