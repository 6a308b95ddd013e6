"""Exact scalar coefficients.

Every coefficient in this package is a ``fractions.Fraction`` (always in
lowest terms, positive denominator); floats never enter the exact core.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats (exact core only)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def is_dyadic(x: Fraction) -> bool:
    """True iff x = k / 2**n (denominator a power of two)."""
    d = x.denominator
    return d & (d - 1) == 0
