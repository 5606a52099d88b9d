"""Exception hierarchy shared across the package, and the type rule for
numeric options.

The CLI maps these onto exit codes: configuration and domain errors exit
with 1, anything that points at a broken input file (parse failures,
corrupt bundles, degenerate data) exits with 2.
"""

import json
import math
from dataclasses import fields
from numbers import Integral, Real


class TabsynthError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TabsynthError):
    """Invalid run configuration (bad flag value, inconsistent options)."""


class SchemaError(TabsynthError):
    """Data does not conform to the declared or inferred table schema."""


class ParseError(TabsynthError):
    """A file could not be parsed (CSV cells, schema JSON, plan JSON)."""


class BundleError(TabsynthError):
    """A model bundle is corrupt, truncated or from an unknown format."""


class DegenerateDataError(TabsynthError):
    """Input data carries no usable signal (e.g. zero variance everywhere)."""


class PrivacyError(TabsynthError):
    """Invalid privacy parameters or accounting state."""


def typed_number(name: str, value, kind: type):
    """``value`` as ``kind`` (int or float), taking numpy scalars too; a bool,
    a string, null, a list, a fraction for an int, or a NaN or infinity is a
    ConfigError."""
    if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
        wanted = "an integer" if kind is int else "a number"
        raise ConfigError(f"option {name!r} must be {wanted}, got {json.dumps(value, default=repr)}")
    try:
        number = kind(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"option {name!r} must be finite, got {number}")
    return number


def check_number_fields(instance, positive: bool = False, zero_ok: tuple = ()) -> None:
    """``typed_number`` on each int and float field of a frozen dataclass, in
    place; with ``positive``, the options' range rule too: each must be > 0,
    or >= 0 where ``zero_ok`` names it, else a ConfigError names it."""
    for f in fields(instance):
        kind = {"int": int, "float": float}.get(getattr(f.type, "__name__", f.type))
        if kind is not None:
            value = typed_number(f.name, getattr(instance, f.name), kind)
            object.__setattr__(instance, f.name, value)
            if positive and not (value > 0 or value == 0 and f.name in zero_ok):
                bound = ">= 0" if f.name in zero_ok else "> 0"
                raise ConfigError(f"option {f.name!r} must be {bound}, got {value}")
