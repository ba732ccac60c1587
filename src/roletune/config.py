"""One JSON schema for every configuration: the dataclass fields themselves.

A config dataclass inherits `Config`, and its field annotations are its whole
schema. `to_dict` writes the fields as JSON values (tuples as lists);
`from_dict` reads a JSON object back and checks every key and value against
the annotations before the constructor's own range checks run. Config files,
corpus recipes, run manifests and checkpoint headers all come in through
`from_dict`, so a mistyped or non-finite value fails there with a
ConfigError naming its source and key, and never reaches the numerics.

Annotations understood: int, float, bool, str, tuple[T, ...] (a list of any
length), tuple[T, U, ...] (a list of that length), dict[str, T] (an object
whose every value is a T), each optionally `| None`.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .errors import ConfigError

# the JSON values a scalar annotation accepts
JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def conforms(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotation: its JSON type (a boolean
    is no number), a tuple's length and element types, a dict's value types,
    and a finite float."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return bool(optional)
    if kind.startswith("dict[str, "):
        item = kind[len("dict[str, "):-1]
        return isinstance(value, dict) and all(conforms(v, item) for v in value.values())
    if kind.startswith("tuple["):
        items = [item.strip() for item in kind[len("tuple["):-1].split(",")]
        if not isinstance(value, list):
            return False
        if items[-1] == "...":
            items = items[:1] * len(value)
        return len(value) == len(items) and all(map(conforms, value, items))
    if not isinstance(value, JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
        return False
    return not isinstance(value, float) or math.isfinite(value)


class Config:
    """Mixin of a config dataclass: JSON out and in through its own fields."""

    def to_dict(self) -> dict:
        """The fields as JSON values, tuples as lists."""
        return {f.name: list(value) if isinstance(value := getattr(self, f.name), tuple)
                else value for f in fields(self)}

    @classmethod
    def from_dict(cls, values, where: str | None = None):
        """The config one JSON object describes. A non-object, an unknown key,
        a value that does not fit its field, or one the constructor rejects
        raises ConfigError naming `where` (default: the class name)."""
        where = where or cls.__name__
        if not isinstance(values, dict):
            raise ConfigError(f"{where} must be a JSON object, not {type(values).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in values.items():
            if key not in types:
                raise ConfigError(f"{where}: unknown key {key!r}")
            if not conforms(value, types[key]):
                raise ConfigError(f"{where}: {key} is {value!r}, not {types[key]}")
        try:
            return cls(**values)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{where}: {e}") from e
