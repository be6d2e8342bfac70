"""Config specs: frozen dataclasses read from JSON objects and written back.

A spec's fields are its config keys. ``Spec.from_dict`` checks an object
against them and names the path of a fault, e.g.
``aggregation[0].stacker.bogus``. Values are kept as given, so a report's
config echo keeps its bytes. A spec declares each field's range once, as
a rule in its class-level ``RULES``; every construction checks them, a
direct library call as much as a config file. A rule is a (predicate,
phrase) pair, e.g. ``count(1)`` is an integer >= 1.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
import typing
from dataclasses import MISSING, asdict, fields

from .errors import ConfigError, RuleError

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list"}


def is_number(v) -> bool:
    """A finite real that is not a bool."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def is_count(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def number(lo: float, hi: float = math.inf, ends: str = "[]"):
    """A finite number from lo to hi; ``ends`` closes ("[", "]") or opens
    ("(", ")") each end, e.g. ``number(0, 1, "[)")``."""
    above = operator.ge if ends[0] == "[" else operator.gt
    below = operator.le if ends[1] == "]" else operator.lt
    if hi == math.inf:
        phrase = f"a number {'>=' if ends[0] == '[' else '>'} {lo:g}"
    else:
        phrase = f"a number in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    return (lambda v: is_number(v) and above(v, lo) and below(v, hi)), phrase


def count(lo: int):
    """An integer >= lo."""
    return (lambda v: is_count(v) and v >= lo), f"an integer >= {lo}"


def check(name: str, value, rule) -> None:
    """RuleError unless ``value`` satisfies ``rule``."""
    ok, phrase = rule
    if not ok(value):
        raise RuleError(f"{name} must be {phrase}, got {value!r}")


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

    RULES: dict = {}    # field -> rule

    def __post_init__(self) -> None:
        for name, rule in self.RULES.items():
            check(name, getattr(self, name), rule)

    @classmethod
    def from_dict(cls, d, path: str = ""):
        hints = typing.get_type_hints(cls)
        kw = read_object(d, {f.name: hints[f.name] for f in fields(cls)},
                         [f.name for f in fields(cls) if f.default is MISSING
                          and f.default_factory is MISSING], path)
        try:
            return cls(**kw)
        except ConfigError as err:
            if not path:
                raise
            # a rule's message starts with the value's name, which extends
            # the entry's path; any other fault follows it
            sep = "." if isinstance(err, RuleError) else ": "
            raise type(err)(f"{path}{sep}{err}") from None

    def as_dict(self) -> dict:
        return asdict(self)
