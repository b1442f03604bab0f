"""The one JSON rule. Every reader of configs, results files, checkpoint
headers and attention dumps parses with :func:`loads` and type-checks with
:func:`typed`, so a bad document fails the same way wherever it is read."""

import json

_NAMES = {int: "int", float: "number", str: "string", bool: "boolean", list: "array", dict: "object"}


def loads(text):
    """``json.loads``, except that nesting too deep for the parser's stack
    raises ``ValueError("nested too deeply")`` like any other bad document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def typed(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind``, else ``ValueError`` naming ``what``.

    The type must match exactly, so JSON ``true`` is not the int 1. A
    ``float`` takes any JSON number and returns it as a float, but refuses
    an int that no float can hold, as RFC 8259 lets a reader do.
    """
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} is out of float range") from None
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_NAMES[kind]}, got {value!r}")
    return value
