"""Checks of parsed JSON fields, shared by the parser of every input format.

A bad field raises ``ArgumentError``, which carries its name; the message
names it too, so a caller need only add where the input came from."""

from __future__ import annotations

import sys

import numpy as np

# the most numbers an input may ask one array to hold, 128 MB as float64: a
# check config's largest arrays, a frame's, a solver grid's, a plane extension's
_MAX_ENTRIES = 1 << 24


class ArgumentError(ValueError):
    """A bad argument or input field; ``name`` is the parameter or field at fault."""

    def __init__(self, name: str, problem: str):
        super().__init__(problem)
        self.name = name


def _short(value) -> str:
    """The repr of ``value``, cut to 80 characters for a message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field(obj, name: str):
    """The field ``name`` of ``obj``, which must be a JSON object that has it."""
    if not isinstance(obj, dict):
        raise ArgumentError(name, f"expected a JSON object with field '{name}', "
                                  f"got {_short(obj)}")
    if name not in obj:
        raise ArgumentError(name, f"missing field '{name}'")
    return obj[name]


def _int_field(obj, name: str, lowest: int = 1) -> int:
    value = _field(obj, name)
    if not _is_int(value) or value < lowest:
        raise ArgumentError(name, f"field '{name}' must be an integer >= {lowest}, "
                                  f"got {_short(value)}")
    return value


def _positive_field(obj, name: str):
    """A positive JSON number that a float can hold, as it was written."""
    value = _field(obj, name)
    if not _is_number(value) or not 0 < value <= sys.float_info.max:
        raise ArgumentError(name, f"field '{name}' must be a positive finite number, "
                                  f"got {_short(value)}")
    return value


def _is_numeric(value) -> bool:
    """Whether ``value`` is a JSON number or nested lists of them."""
    if isinstance(value, list):
        return all(map(_is_numeric, value))
    return _is_number(value)


def _numbers(value, name: str) -> np.ndarray:
    """``value`` as a float array, which must hold only finite JSON numbers."""
    arr = None
    if _is_numeric(value):
        try:
            arr = np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged lists, or an int past float range
            pass
    if arr is None or not np.all(np.isfinite(arr)):
        raise ArgumentError(name, f"field '{name}' must hold finite numbers, got {_short(value)}")
    return arr


def _number_array(value, name: str) -> np.ndarray:
    """``value``, nested lists of JSON numbers of equal length, as a float
    array.  Numbers are told by the dtype numpy gives the lists, which is a
    few times faster than ``_is_numeric`` on a large grid; true and false
    among numbers pass as 1 and 0."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ArgumentError(name, f"field '{name}' must hold numbers in nested lists of "
                                  f"equal length, got {_short(value)}")
    return arr.astype(float, copy=False)
