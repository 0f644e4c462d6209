"""One JSON mapping for every frozen config dataclass.

Fleet manifests, the cluster's ``/shards`` body, chaos soak reports and
the CLI all move configs to and from plain JSON objects. Two functions
do it for every class, driven by the dataclass fields and their type
hints:

* :func:`from_dict` builds ``cls`` from a JSON object. Unknown keys
  raise :class:`~repro.errors.ConfigError` naming the valid fields, at
  every nesting level; value checks stay in each class's
  ``__post_init__``.
* :func:`to_dict` emits every field. Nested dataclasses recurse, tuples
  become lists, and a value with a ``to_json_dict()`` method (a
  :class:`~repro.datasets.MissingPattern` scenario) uses it.

This module imports only :mod:`repro.errors`, so every layer can use it.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ConfigError

__all__ = ["from_dict", "to_dict"]


def _decode(hint, value, where: str):
    if value is None:
        return None
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        options = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        # A one-type optional decodes as that type; a wider union (a
        # FaultPlan's ids-or-scenario drop) is left to __post_init__.
        return _decode(options[0], value, where) if len(options) == 1 else value
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(
                f"{where!r} must be a JSON array, got {type(value).__name__}"
            )
        item = typing.get_args(hint)[0]  # every config tuple is tuple[X, ...]
        return tuple(
            _decode(item, entry, f"{where}[{i}]") for i, entry in enumerate(value)
        )
    return value


def from_dict(cls, payload, where: str | None = None):
    """Build the config dataclass ``cls`` from a JSON object.

    Omitted fields keep their defaults. ``where`` names the payload's
    position in an enclosing document for error messages.
    """
    where = where or cls.__name__
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{where!r} must be a JSON object, got {type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} field(s) {unknown} in {where!r}; "
            f"valid fields: {sorted(known)}"
        )
    hints = typing.get_type_hints(cls)
    return cls(**{
        name: _decode(hints[name], value, f"{where}.{name}")
        for name, value in payload.items()
    })


def _encode(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return value


def to_dict(obj) -> dict:
    """Every field of the dataclass ``obj`` as a JSON-ready mapping."""
    return {
        f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)
    }
