"""Exact rational parsing/formatting helpers."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ContractViolation, InputError


# CPython 3.11's default limit on int <-> str conversion; bounding numerals
# here makes 3.10 and 3.11 agree and keeps a short string like "1e400000000"
# from expanding into a huge integer.
MAX_DIGITS = 4300
_INT_LIMIT = 10 ** MAX_DIGITS
# The common denominator of an instance's costs may have no more bits than
# the denominator of one numeral can (10^MAX_DIGITS): each numeral is
# bounded, but the lcm of many distinct denominators is not.
MAX_DEN_BITS = _INT_LIMIT.bit_length()


def parse_rational(value) -> Fraction:
    """Parse an int, float-free decimal string, or "p/q" string into a Fraction.

    Floats are rejected unless they are integral, to avoid importing binary
    rounding error into an exact pipeline; so are booleans and the
    non-finite floats that JSON's Infinity and NaN decode to.  Integers of
    more than MAX_DIGITS digits, and strings with more than MAX_DIGITS
    digits or an exponent beyond +-MAX_DIGITS, are rejected before any
    Fraction is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"cannot parse rational from bool {value!r}")
    if isinstance(value, int):
        if abs(value) >= _INT_LIMIT:
            raise InputError(f"refusing integer with more than {MAX_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"refusing non-finite cost {value!r}")
        if value != int(value):
            raise InputError(f"refusing inexact float cost {value!r}; pass a string")
        return Fraction(int(value))
    if isinstance(value, str):
        text = value.strip()
        # a plain ASCII integer or a ratio p/q of two, the common tokens,
        # skips Fraction's regex
        num, slash, den = text.partition("/")
        plain = text.isascii() and num.isdigit() and (not slash or den.isdigit())
        digits = len(text) - len(slash) if plain else sum(c.isdecimal() for c in text)
        if digits > MAX_DIGITS:
            raise InputError(f"refusing rational string with {digits} digits "
                             f"(limit {MAX_DIGITS})")
        if plain:
            q = int(den) if slash else 1
            if not q:
                raise InputError(f"cannot parse rational {value!r}: Fraction({int(num)}, 0)")
            return Fraction(int(num), q)
        _, has_exponent, exponent = text.lower().partition("e")
        if has_exponent:
            try:
                too_large = abs(int(exponent)) > MAX_DIGITS
            except ValueError:
                too_large = False  # malformed; Fraction reports it below
            if too_large:
                raise InputError(f"refusing rational string with exponent beyond "
                                 f"+-{MAX_DIGITS}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}: {exc}") from None
    raise InputError(f"cannot parse rational from {type(value).__name__}")


def fits_digits(q: Fraction) -> bool:
    """Whether neither the numerator nor the denominator of q has more than
    MAX_DIGITS digits, so that q can be reported and read back exactly."""
    return abs(q.numerator) < _INT_LIMIT and q.denominator < _INT_LIMIT


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" for exact JSON round-tripping.

    A numerator or denominator of more than MAX_DIGITS digits, which
    `parse_rational` would not read back (and CPython would not convert),
    is refused as input too large to report exactly."""
    q = Fraction(q)
    if not fits_digits(q):
        raise InputError(f"refusing to report a rational with more than {MAX_DIGITS} "
                         "digits; the instance's costs are too large")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def common_denominator(values: Sequence[Fraction], den: int = 1) -> tuple[list[int], int]:
    """The values as integer numerators over one denominator, the lcm of
    theirs and of ``den``; ints count as numerators over 1.

    A loop rather than ``lcm(*...)``: an argument tuple of one entry per
    value, on every call, fills CPython's tuple free lists (about 1 MB of
    peak RSS on the benchmark)."""
    for q in values:
        den = math.lcm(den, q.denominator)
    return [q.numerator * (den // q.denominator) for q in values], den


def over_lcm(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """a and b as int numerators over the lcm of their denominators, that
    lcm last: what `common_denominator([a, b])` gives, with no list built,
    for the constant factors the checks compare on every call."""
    den = math.lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def lowest_terms(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """Int numerators over ``den`` divided by their gcd with it: the same
    values over their least common denominator, which is what
    `common_denominator` gives for them (1 when there are none).  Each
    numerator must be an int (not a bool, float or Fraction) and ``den`` a
    positive int.

    A loop rather than ``gcd(*...)``, for the reason `common_denominator`
    gives."""
    if type(den) is not int or den < 1:
        raise ContractViolation(f"denominator must be a positive int, got {den!r}")
    d = den
    for a in nums:
        if type(a) is not int:
            raise ContractViolation(f"numerator {a!r} is not an int")
        d = math.gcd(d, a)
    return [a // d for a in nums], den // d
