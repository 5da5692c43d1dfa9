"""NaN-safe checks for the numeric parameters of the public boundary.

Every comparison with NaN is False, so a guard written ``if x <= 0:
raise`` lets NaN through.  Each check here is one negated comparison
that NaN and ±inf fail.  It returns the value, so a constructor can
check and store in one line, and its ``ValueError`` names the
parameter::

    self.duration_s = positive(duration_s, "duration_s")
    # ValueError: duration_s must be finite and positive, got nan

Per-event paths (event scheduling, packet construction, jitter-buffer
observations, per-frame costs) keep an inline negated comparison
instead: a call there would be paid by every packet and frame.
"""

from __future__ import annotations

import math
from typing import NoReturn, TypeVar

Number = TypeVar("Number", int, float)


def _refuse(value: object, name: str, requirement: str) -> NoReturn:
    raise ValueError(f"{name} must be {requirement}, got {value!r}")


def finite(value: Number, name: str) -> Number:
    """``value``, if it is neither NaN nor infinite."""
    if not -math.inf < value < math.inf:
        _refuse(value, name, "finite")
    return value


def positive(value: Number, name: str) -> Number:
    """``value``, if it is finite and > 0."""
    if not 0 < value < math.inf:
        _refuse(value, name, "finite and positive")
    return value


def non_negative(value: Number, name: str) -> Number:
    """``value``, if it is finite and >= 0."""
    if not 0 <= value < math.inf:
        _refuse(value, name, "finite and non-negative")
    return value


def at_least(value: Number, minimum: Number, name: str) -> Number:
    """``value``, if it is finite and >= ``minimum``."""
    if not minimum <= value < math.inf:
        _refuse(value, name, f">= {minimum}")
    return value


def fraction(value: float, name: str, ends: str = "[]") -> float:
    """``value``, if it lies in [0, 1]; ``ends`` ``"(]"``, ``"[)"`` or
    ``"()"`` leaves out 0, 1 or both."""
    above = 0 < value if ends[0] == "(" else 0 <= value
    below = value < 1 if ends[1] == ")" else value <= 1
    if not (above and below):
        _refuse(value, name, f"in {ends[0]}0, 1{ends[1]}")
    return value
