"""Exception types shared across the package, and the config-key check."""

from dataclasses import fields
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


def check_fields(cls, doc, what: str) -> Mapping:
    """``doc`` if it is a mapping whose keys all name fields of the dataclass
    ``cls``; otherwise a :class:`ConfigError` naming ``what``."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {unknown}")
    return doc
