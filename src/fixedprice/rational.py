"""Exact rational parsing, formatting, and high-precision rounding helpers.

All probabilities and prices in this package are ``fractions.Fraction``
values.  JSON files may spell a rational as an integer, a decimal string
("0.25"), or a slash string ("1/6"); decimals are parsed exactly as scaled
integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction, Rational]

# Largest decimal exponent accepted in a string: Fraction builds 10**exponent
# exactly, which takes seconds for exponents in the millions.  The value is
# the interpreter's default int_max_str_digits, the bound that already
# applies to the digits of an integer.
MAX_DECIMAL_EXPONENT = 4300


def parse_rational(value: RationalLike) -> Fraction:
    """Parse a JSON-style rational (int, "a/b", or exact decimal string);
    a Fraction comes back as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, float):
        raise ValueError(
            f"refusing to parse float {value!r}; pass an int, Fraction, or string"
        )
    if isinstance(value, str):
        _, e, exponent = value.strip().lower().partition("e")
        try:
            too_big = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_big = False  # not an integer exponent; Fraction() reports it
        if too_big:
            raise ValueError(
                f"decimal exponent of {value[:40]!r} exceeds {MAX_DECIMAL_EXPONENT}"
            )
        # Fraction() parses both "a/b" and decimal strings exactly.
        try:
            return Fraction(value.strip())
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", or a bare integer string when exact."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def lcm_of_denominators(values: Iterable[Fraction]) -> int:
    """The least common multiple of the denominators (1 for no values)."""
    # A list, not a generator: *args from a generator is a resized tuple,
    # which ends on another size's free list and so grows the free lists.
    return math.lcm(*[v.denominator for v in values])


def coerce_rational(value) -> Fraction:
    """Like :func:`parse_rational` but also accepts floats exactly.

    A Python float is a dyadic rational; this conversion is exact and is
    appropriate for caller-supplied numeric parameters (not for JSON data,
    where decimals must round-trip through strings).  An infinite or NaN
    float raises ``ValueError``.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
        return Fraction(value)
    return parse_rational(value)


def round_to_rational(value: Fraction, tol: Fraction) -> Fraction:
    """Best rational approximation of ``value`` within ``tol``.

    Walks the continued-fraction convergents of ``value`` and returns the
    first one within ``tol``; used to turn extended-precision floating
    results into small exact rationals.
    """
    value = Fraction(value)
    if tol <= 0:
        return value
    a0 = value.numerator // value.denominator  # floor
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    rest = value - a0
    while abs(value - Fraction(p_cur, q_cur)) > tol and rest != 0:
        rest = 1 / rest
        a = rest.numerator // rest.denominator
        rest -= a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return Fraction(p_cur, q_cur)
