"""Config dataclasses from JSON files, and checks of their field types and seeds.

Every failure raises the caller's error class with a message naming the
file, key or field, so that the CLI reports it as invalid input.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path

# Field annotation (a string under postponed evaluation) -> the types its
# value may have. A bool is not accepted as a number.
SCALAR_TYPES: Mapping[str, type | tuple[type, ...]] = {
    "int": int,
    "float": (int, float),
    "bool": bool,
    "str": str,
}


def read_json(path: str | Path, error: type[Exception]):
    """The decoded JSON value of the file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def from_json(cls, raw, where: str, error: type[Exception]):
    """cls(**raw), naming where raw is not a JSON object, has unknown keys
    or holds a value cls rejects with error."""
    if not isinstance(raw, dict):
        raise error(f"{where}: expected a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"{where}: unknown config key(s) {', '.join(map(repr, unknown))}")
    try:
        return cls(**raw)
    except error as exc:
        raise error(f"{where}: {exc}") from exc


def check_type(
    name: str, annotation: str, value, error: type[Exception], types: Mapping = SCALAR_TYPES
) -> None:
    """Raise error naming the field when value is not of its annotated type."""
    expected = types[annotation]
    if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
        raise error(f"{name} must be of type {annotation}, got {value!r}")


def check_seed(seed: int, error: type[Exception]) -> None:
    """Raise error unless seed >= 0."""
    if seed < 0:
        raise error(f"seed must be >= 0, got {seed}")
