"""Integer currency helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cloudmarket.money import (
    as_fraction, ceil_div, frac_str, limit_ratio, ratio_str, round_ratio,
)


def round_half_up(value: Fraction | int) -> int:
    """Round a rational to the nearest integer, halves away from floor.

    The exact reference the integer formulas are checked against: no
    run rounds a Fraction, so it lives with the tests.
    """
    return math.floor(value + Fraction(1, 2))


def test_round_half_up_at_the_boundary():
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(-5, 2)) == -2
    assert round_half_up(Fraction(7, 2)) == 4


def test_round_half_up_passes_integers_through():
    assert round_half_up(17) == 17
    assert round_half_up(Fraction(12)) == 12


@given(st.fractions(min_value=-10**9, max_value=10**9))
def test_round_half_up_within_half(value):
    rounded = round_half_up(value)
    assert abs(Fraction(rounded) - value) <= Fraction(1, 2)
    # exact halves go up, never down
    if value - Fraction(rounded) == Fraction(1, 2):
        pytest.fail("half was rounded down")


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**4))
def test_ceil_div_matches_float_ceiling(num, den):
    assert ceil_div(num, den) == -(-num // den)
    assert ceil_div(num, den) * den >= num
    assert (ceil_div(num, den) - 1) * den < num


def test_as_fraction_parses_ratio_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_frac_str_round_trips():
    for f in (Fraction(1, 2), Fraction(5), Fraction(-7, 3)):
        assert as_fraction(frac_str(f)) == f


@given(st.integers(min_value=-10**12, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_round_ratio_matches_round_half_up(n, d):
    assert round_ratio(n, d) == round_half_up(Fraction(n, d))
    # the pair need not be in lowest terms
    assert round_ratio(3 * n, 3 * d) == round_ratio(n, d)


@settings(max_examples=2_000, derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-1.7976931348623157e308)
@example(0.5 + 1e-7)
@example(1 / 3)
def test_limit_ratio_matches_limit_denominator(x):
    expected = Fraction(x).limit_denominator(10**6)
    assert limit_ratio(*x.as_integer_ratio(), 10**6) == (expected.numerator, expected.denominator)


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=50),
)
@example(1, 2, 1)  # midway between 0 and 1: the floor is kept
@example(-3, 2, 1)
def test_limit_ratio_matches_limit_denominator_on_small_bounds(n, d, max_d):
    # tie-prone ratios, not in lowest terms, under small denominators
    expected = Fraction(n, d).limit_denominator(max_d)
    assert limit_ratio(n, d, max_d) == (expected.numerator, expected.denominator)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_ratio_str_renders_as_fraction_does(n, d):
    assert ratio_str(n, d) == str(Fraction(n, d))
