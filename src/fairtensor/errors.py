"""Exception types shared across the package, the config-field checks, the
bound on dense allocations and the one reader of JSON input files."""

import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Mapping


class FairtensorError(Exception):
    """Base class for package-specific errors."""


class ParseError(FairtensorError, ValueError):
    """A data file row could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyDatasetError(FairtensorError, ValueError):
    """An input dataset contains no usable records."""


class SplitError(FairtensorError, ValueError):
    """A dataset cannot be partitioned as requested."""


class ConfigError(FairtensorError, ValueError):
    """A configuration value is invalid or inconsistent with the data."""


class UndefinedMetricError(FairtensorError, ValueError):
    """A metric has no defined value for the given inputs."""


# Most cells a step may hold as one dense float64 array: 22 times the paper's
# 589 x 252 x 10 tensor, 268 MB per array.
MAX_DENSE_CELLS = 2**25


def _check_dense_cells(n_cells: int, what: str) -> None:
    """Raise :class:`ConfigError` when ``what`` would allocate a dense array
    of more than :data:`MAX_DENSE_CELLS` cells."""
    if n_cells > MAX_DENSE_CELLS:
        raise ConfigError(
            f"{what} needs {n_cells} dense cells, more than MAX_DENSE_CELLS = {MAX_DENSE_CELLS}"
        )


def read_json(path: str | Path, what: str):
    """The parsed JSON document in the UTF-8 file ``path``; a file that
    cannot be read or is not JSON is a :class:`ConfigError` naming ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ConfigError(f"{what} {path} is not JSON: {exc}") from None


_type_hints = functools.cache(typing.get_type_hints)  # resolving them costs ~0.2 ms


def _fits(t, value) -> bool:
    """Whether ``value`` fits the type ``t``: a float takes an int, neither
    number takes a bool, a ``tuple[X, ...]`` takes a list or tuple of X
    (JSON has no tuples), a dict or dataclass type takes its instances and
    other types must match exactly."""
    if typing.get_origin(t) is tuple:
        item = typing.get_args(t)[0]
        return isinstance(value, (list, tuple)) and all(_fits(item, v) for v in value)
    if t in (int, float):
        return isinstance(value, (int, t)) and not isinstance(value, bool)
    if t is dict or is_dataclass(t):
        return isinstance(value, t)
    return type(value) is t


def _type_name(t) -> str:
    if t is type(None):
        return "None"
    return str(t) if typing.get_args(t) else t.__name__


def check_fields(cls, doc, what: str) -> Mapping:
    """``doc`` if it is a mapping whose keys all name fields of the dataclass
    ``cls`` and that holds every field without a default; otherwise a
    :class:`ConfigError` naming ``what``.  The values are left to
    :func:`check_types`, which the config classes run on construction."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{what} lacks required field(s): {missing}")
    return doc


def check_types(cls, values: Mapping, what: str) -> None:
    """Raise a :class:`ConfigError` naming ``what`` unless each of ``values``
    fits the annotation of its field of the dataclass ``cls`` (``X | None``
    also takes None).  A container's own contents, such as a dict's
    entries, are left to its class's checks."""
    hints = _type_hints(cls)
    for name, value in values.items():
        union = typing.get_origin(hints[name]) in (typing.Union, types.UnionType)
        allowed = typing.get_args(hints[name]) if union else (hints[name],)
        if not any(_fits(t, value) for t in allowed):
            expected = " or ".join(map(_type_name, allowed))
            got = type(value).__name__
            raise ConfigError(f"{what} field {name!r} must be {expected}, got {got}")
