"""Strict JSON text: every JSON the program writes goes through :func:`dumps`,
which writes a non-finite float as ``null``.  The standard library writes
``NaN`` and ``Infinity`` instead, tokens that JSON does not have and strict
readers reject."""

from __future__ import annotations

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
