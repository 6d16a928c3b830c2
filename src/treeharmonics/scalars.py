"""Exact scalars.

Every scalar is an exact rational, so each certified quantity is exact.  An
integral value coordinate is an int, which skips the gcd of every `Fraction`
operation, and any other one a `fractions.Fraction`; `n == Fraction(n)` and
their hashes agree, so both forms key one interned node.  A distance is a
`Fraction`, but a sum that only ever skipped zero terms stays the int 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ValidationError

Scalar = Union[Fraction, int]


def canonical(x: Scalar) -> Scalar:
    """x as an int when it is integral, else as the Fraction it is."""
    return x.numerator if x.denominator == 1 else x


def format_scalar(x: Scalar) -> str:
    """Serialize a scalar as 'p/q' (or 'p').

    The int 0 of an all-zero distance prints as "0.0".  Every recorded output
    digest depends on that rendering, so it stays.
    """
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def parse_scalar(s: str) -> Fraction:
    """An exact scalar from its text; a JSON number is no scalar text."""
    if type(s) is not str:
        raise ValidationError(f"cannot parse scalar {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse scalar {s!r}") from exc


def read_int(value, name: str, least: int | None = None) -> int:
    """An integer of a document: a JSON integer, never a bool, a float or a
    text, and at least `least` if one is given; else a ValidationError naming it."""
    if type(value) is not int or least is not None and value < least:
        least_text = "" if least is None else f" of at least {least}"
        raise ValidationError(f"{name} must be an integer{least_text}, got {value!r}")
    return value
