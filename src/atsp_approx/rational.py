"""Exact rational parsing/formatting helpers."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def parse_rational(value) -> Fraction:
    """Parse an int, float-free decimal string, or "p/q" string into a Fraction.

    Floats are rejected unless they are integral, to avoid importing binary
    rounding error into an exact pipeline; so are booleans and the
    non-finite floats that JSON's Infinity and NaN decode to.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"cannot parse rational from bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"refusing non-finite cost {value!r}")
        if value != int(value):
            raise InputError(f"refusing inexact float cost {value!r}; pass a string")
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}: {exc}") from None
    raise InputError(f"cannot parse rational from {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" for exact JSON round-tripping."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
