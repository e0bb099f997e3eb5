"""Strict JSON text, and the one reader of the JSON objects the program takes.

Every JSON the program writes goes through :func:`dumps`, which writes a
non-finite float as ``null``; the standard library writes ``NaN`` and
``Infinity``, tokens that JSON does not have.  Every JSON object it reads (a
run config, its blocks, a law) goes through :func:`read_block`."""

from __future__ import annotations

import dataclasses
import json
import math


def _strict(value):
    """``value`` with every non-finite float, at any depth of its dicts,
    lists and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def dumps(value, **kwargs) -> str:
    """``json.dumps`` of ``value`` as strict JSON, a non-finite float as null."""
    return json.dumps(_strict(value), allow_nan=False, **kwargs)


class SchemaError(ValueError):
    """A JSON object that does not fit its declaration; ``config.ConfigError``."""


def _wrong():  # a raise where an expression goes
    raise TypeError


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)  # OverflowError beyond the float range


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():  # 64.0, never 64.5
        return int(value)
    return value if isinstance(value, int) and not isinstance(value, bool) else _wrong()


def _of(cls):
    return lambda value: value if isinstance(value, cls) else _wrong()


def _list(read, length: int | None = None):
    def read_list(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError
        return tuple(map(read, value))
    return read_list


def _or_list(read):
    return lambda value: _list(read)(value) if isinstance(value, list) else read(value)


# A declaration maps each key of a JSON object to (kind, default): the kind
# is how messages name it and a reader that returns the value as the program
# takes it, or raises TypeError; the default is what an absent key takes.
NUMBER = ("a number", _number)
INTEGER = ("an integer", _integer)
STRING = ("a string", _of(str))
BOOL = ("true or false", _of(bool))
OBJECT = ("a JSON object", _of(dict))
NUMBER_OR_NULL = ("a number or null", lambda value: None if value is None else _number(value))
NUMBERS = ("a list of numbers", _list(_number))
NUMBER_OR_NUMBERS = ("a number or a list of numbers", _or_list(_number))
INTEGER_OR_INTEGERS = ("an integer or a list of integers", _or_list(_integer))
PAIRS = ("a list of [number, number] pairs", _list(_list(_number, 2)))
REQUIRED = dataclasses.MISSING  # the default of a key that must be given


class SameAs(str):
    """A default: the value of the key of this name, declared before."""


def fed(cls, **kinds) -> dict[str, tuple]:
    """The keys that feed the same-named fields of the dataclass ``cls``,
    each with the field's default (REQUIRED where it has none)."""
    return {name: (kind, cls.__dataclass_fields__[name].default) for name, kind in kinds.items()}


def read_block(obj, keys: dict[str, tuple], block: str = "", one_of: tuple = ()) -> dict:
    """Every declared key of the JSON object ``obj``, read by its kind or
    taken as its default; ``block`` names ``obj`` in messages ("" for the top
    level), and exactly one of the keys ``one_of`` must be given."""
    at = f"{block}: " if block else ""
    if not isinstance(obj, dict):
        raise SchemaError(f"{block or 'the config'} must be a JSON object, got {obj!r:.60}")
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise SchemaError(f"{at}unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")
    if one_of and sum(key in obj for key in one_of) != 1:
        raise SchemaError(f"{at}give exactly one of {' and '.join(map(repr, one_of))}")
    out = {}
    for key, ((kind, read), default) in keys.items():
        if key not in obj and default is REQUIRED:
            raise SchemaError(f"{at}missing required key {key!r}")
        try:
            out[key] = read(obj[key]) if key in obj else (
                out[default] if isinstance(default, SameAs) else default)
        except OverflowError:
            raise SchemaError(f"{at}{key!r} is beyond the float range") from None
        except TypeError:
            raise SchemaError(f"{at}{key!r} must be {kind}, got {obj[key]!r:.60}") from None
    return out
