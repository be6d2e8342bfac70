"""Config specs: frozen dataclasses read from JSON objects and written back.

A spec's fields are its config keys. ``Spec.from_dict`` checks an object
against them and names the path of a fault, e.g.
``aggregation[0].stacker.bogus``. Values are kept as given, so a report's
config echo keeps its bytes. Range rules stay in each ``__post_init__``.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import MISSING, asdict, fields

from .errors import ConfigError

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list"}


def read_object(d, types: dict, required=(), path: str = "") -> dict:
    """d's entries checked against ``types`` (key -> type): a bool is not
    an int, an int is a float, a float must be finite, ``object`` takes
    any value and a Spec type is read recursively."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {d!r}")
    prefix = f"{path}." if path else ""
    unknown = [prefix + k for k in sorted(set(d) - set(types))]
    if unknown:
        raise ConfigError("unknown key " + ", ".join(unknown))
    missing = [prefix + k for k in required if k not in d]
    if missing:
        raise ConfigError("missing required key " + ", ".join(missing))
    return {k: _read_value(v, types[k], prefix + k) for k, v in d.items()}


def _read_value(value, t, path: str):
    if isinstance(t, type) and issubclass(t, Spec):
        return t.from_dict(value, path)
    if t in (int, float):    # a float, or an int read as one, is finite
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (abs(value) <= sys.float_info.max if t is float
                   else isinstance(value, int)))
    else:
        ok = isinstance(value, t)
    if not ok:
        raise ConfigError(f"{path} must be {_TYPE_NAMES[t]}, got {value!r}")
    return value


class Spec:
    """Base of the frozen config dataclasses."""

    @classmethod
    def from_dict(cls, d, path: str = ""):
        hints = typing.get_type_hints(cls)
        kw = read_object(d, {f.name: hints[f.name] for f in fields(cls)},
                         [f.name for f in fields(cls) if f.default is MISSING
                          and f.default_factory is MISSING], path)
        try:
            return cls(**kw)
        except ConfigError as err:    # a range rule: name the entry
            if not path:
                raise
            raise ConfigError(f"{path}: {err}") from None

    def as_dict(self) -> dict:
        return asdict(self)
