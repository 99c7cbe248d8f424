"""Exact integer money and rational arithmetic helpers.

All monetary amounts are integers in micro-currency units. A run computes
each amount from integers alone: a validated rate's numerator and
denominator times integer quantities give one (numerator, denominator)
pair, which is rounded half-up once, so conservation checks can demand
exact equality. Fractions exist only in validated scenario values.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd

Money = int


def round_ratio(n: int, d: int) -> int:
    """Round n/d (d > 0) to the nearest integer, halves away from floor."""
    return (2 * n + d) // (2 * d)


def limit_ratio(n: int, d: int, max_d: int) -> tuple[int, int]:
    """The closest p/q to n/d (d > 0) with 0 < q <= max_d (max_d >= 1), in lowest terms.

    The integer form of `Fraction(n, d).limit_denominator(max_d)` as
    Python 3.11 computes it: the same continued-fraction walk, and the
    same tie rule, which keeps the last convergent when it lies no
    farther from n/d than the semiconvergent bound.
    """
    g = gcd(n, d)
    n, d = n // g, d // g
    if d <= max_d:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_d:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_d - q0) // q1
    bound_p, bound_q = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |bound - n/d|, both sides times d·q1·bound_q > 0
    if abs(p1 * d - n * q1) * bound_q <= abs(bound_p * d - n * bound_q) * q1:
        return p1, q1
    return bound_p, bound_q


def ratio_str(n: int, d: int) -> str:
    """n/d (d > 0) as `str(Fraction(n, d))` renders it: "p/q", or "p" when whole."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Parse a rational from config input.

    Accepts ints, "p/q" strings, and decimal notation. Floats are
    interpreted by their decimal repr ("0.1" means exactly 1/10, not the
    nearest binary float), so scenario files stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num.strip()), int(den.strip()))
        try:
            return Fraction(Decimal(text))
        except InvalidOperation as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def frac_str(value: Fraction) -> str:
    """Canonical "p/q" rendering used in reports (stable across runs)."""
    return f"{value.numerator}/{value.denominator}"


def ceil_div(num: int, den: int) -> int:
    if den <= 0:
        raise ValueError("denominator must be positive")
    return -(-num // den)
