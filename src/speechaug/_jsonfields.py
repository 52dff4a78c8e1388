"""Field checks for the JSON objects speechaug reads back: chain configs,
traces and manifest records.

A field's type is named as a JSON kind (``"a string"``, ``"a number"``, ...),
and every refusal is a ValueError naming the field in one style:
``missing fields: a, b``, ``unknown fields: c``, ``a must be a string, not int``.
"""

from __future__ import annotations

from typing import Any, Mapping

# The Python values each JSON kind takes: a list or a tuple where JSON has
# an array, any Mapping where it has an object.
_KINDS: dict[str, tuple[type, ...]] = {
    "a string": (str,),
    "a number": (int, float),
    "an integer": (int,),
    "a boolean": (bool,),
    "a list": (list, tuple),
    "an object": (Mapping,),
}


def typed(value: Any, name: str, kind: str) -> Any:
    """``value`` when it is of the JSON ``kind``, a bool only of a boolean
    (JSON true is no number); else a ValueError naming it ``name``."""
    if not isinstance(value, _KINDS[kind]) or (isinstance(value, bool) and kind != "a boolean"):
        raise ValueError(f"{name} must be {kind}, not {type(value).__name__}")
    return value


def fields(
    data: Any,
    kinds: Mapping[str, str],
    where: str = "",
    *,
    what: str = "the value",
    defaults: Mapping[str, Any] = {},
    closed: bool = False,
) -> dict[str, Any]:
    """The fields of the JSON object ``data`` that ``kinds`` names, each
    ``typed``, with ``defaults`` standing in for those missing. The object
    is named ``where`` (``what`` at the top, where ``where`` is empty) and a
    field ``where.key`` (``key`` at the top). A ``closed`` object refuses a
    key ``kinds`` does not name; any other ignores it."""
    prefix = f"{where}." if where else ""
    typed(data, where or what, "an object")
    if closed:
        unknown = [f"{prefix}{key}" for key in data if key not in kinds]
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(unknown)}")
    missing = [prefix + key for key in kinds if key not in data and key not in defaults]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    return {
        key: typed(data[key] if key in data else defaults[key], prefix + key, kind)
        for key, kind in kinds.items()
    }
