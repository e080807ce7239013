"""Decimal parsing and rendering helpers shared by the tools and evaluator.

All user-visible numbers are rendered as plain decimal strings: integers
without a decimal point, everything else with up to ten fractional digits
(trailing zeros trimmed). Values whose exact decimal expansion is short are
rendered exactly, so table cells round-trip without loss.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

MAX_FRAC_DIGITS = 10

# Comma used as a 3-digit grouping separator inside a numeral.
_GROUPED_RE = re.compile(r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?\Z")
_GROUP_COMMA_RE = re.compile(r"(?<=\d),(?=\d{3}(?!\d))")


def is_grouped_decimal(text: str) -> bool:
    """True for a numeral with optional valid 3-digit comma grouping."""
    return _GROUPED_RE.match(text) is not None


def strip_grouping(text: str) -> str:
    """Remove commas acting as 3-digit grouping separators."""
    return _GROUP_COMMA_RE.sub("", text)


def _trim(digits: str) -> str:
    if "." in digits:
        digits = digits.rstrip("0").rstrip(".")
    return digits


def _quantize(dec: Decimal, places: int) -> str:
    with localcontext() as ctx:
        ctx.prec = max(28, dec.adjusted() + places + 5)
        quant = dec.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
    return _trim(format(quant, "f"))


def format_number(value: int | float | Fraction) -> str:
    """Render a number as a decimal string.

    Fractions with a short exact decimal expansion render exactly; other
    values are rounded (half up) to MAX_FRAC_DIGITS fractional digits.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("cannot format a non-finite number")
        return _quantize(Decimal(repr(value)), MAX_FRAC_DIGITS)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        digits = _exact_frac_digits(value.denominator)
        places = digits if digits is not None else MAX_FRAC_DIGITS
        int_digits = len(str(abs(value.numerator) // value.denominator))
        with localcontext() as ctx:
            ctx.prec = int_digits + places + 10
            dec = Decimal(value.numerator) / Decimal(value.denominator)
        return _quantize(dec, places)
    raise TypeError(f"cannot format {type(value).__name__} as a number")


def _exact_frac_digits(denominator: int, limit: int = 30) -> int | None:
    """Fractional digits of the exact decimal expansion, or None if too long.

    Finite expansions exist only for denominators of the form 2^a * 5^b;
    the expansion then has max(a, b) digits.
    """
    twos = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    fives = 0
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return None
    digits = max(twos, fives)
    return digits if digits <= limit else None
