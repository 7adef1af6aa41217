"""Range checks for the counts and real numbers every entry point takes.

Each check returns what it accepts, a real as a float, so JSON's 1 is kept as 1.0.
"""
from __future__ import annotations

import numbers
import sys

import numpy as np


def check_count(name: str, value, low: int, high: int | None = None):
    """`value`, if it is an integer (a bool is not) in [low, high]; else a ValueError.

    A float count would otherwise fail deep inside a run, as a TypeError traceback.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def check_real(name: str, value, bounds: str = "> 0", holds=lambda v: v > 0) -> float:
    """`float(value)`, if it is a real number (a bool is not) of float range that passes `holds`.

    A JSON `true` would otherwise pass every range test as the number 1, and Python's json
    reads `Infinity` and `NaN`; the range test rejects them and integers past a float's.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or not holds(value)):
        raise ValueError(f"{name} must be a number {bounds}, got {value!r}")
    return float(value)
