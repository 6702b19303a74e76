"""Exact-arithmetic checks for the formal series toolkit."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borelsum.series import (
    FormalSeries,
    bernoulli_number,
    bernoulli_poly,
    borel_transform,
    series_quotient_even,
)

# classic table, checked against the Akiyama-Tanigawa recurrence by hand
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    20: Fraction(-174611, 330),
}

small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)


@pytest.mark.parametrize("n,value", sorted(BERNOULLI_TABLE.items()))
def test_bernoulli_number_table(n, value):
    assert bernoulli_number(n) == value


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 21])
def test_bernoulli_number_odd_vanishes(n):
    assert bernoulli_number(n) == 0


@given(
    n=st.integers(min_value=1, max_value=12),
    x=small_fractions,
)
def test_bernoulli_poly_forward_difference(n, x):
    """B_n(x+1) - B_n(x) = n x^{n-1} characterises the polynomials."""
    lhs = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
    assert lhs == n * x ** (n - 1)


@given(n=st.integers(min_value=0, max_value=12), x=small_fractions)
def test_bernoulli_poly_reflection(n, x):
    assert bernoulli_poly(n, 1 - x) == (-1) ** n * bernoulli_poly(n, x)


def test_bernoulli_poly_at_zero_gives_numbers():
    for n in range(0, 13):
        assert bernoulli_poly(n, 0) == bernoulli_number(n)


def test_formal_series_validation():
    with pytest.raises(ValueError):
        FormalSeries((Fraction(1),), "q")
    with pytest.raises(ValueError):
        FormalSeries((), "p")
    s = FormalSeries((Fraction(1), Fraction(2)), "p")
    assert s.order == 2
    assert s[1] == 2


def test_borel_transform_shifts_and_divides():
    src = FormalSeries(
        (Fraction(7), Fraction(1), Fraction(4), Fraction(9), Fraction(16)),
        "inverse-x",
    )
    out = borel_transform(src)
    assert out.variable_kind == "p"
    assert out.coeffs == (
        Fraction(1),
        Fraction(4, 1),
        Fraction(9, 2),
        Fraction(16, 6),
    )


def test_borel_transform_requires_inverse_series():
    with pytest.raises(ValueError):
        borel_transform(FormalSeries((Fraction(1), Fraction(2)), "p"))


def _trig(m: int, order: int, odd: int) -> FormalSeries:
    """cos(m p) (odd = 0) or sin(m p) (odd = 1) to the given order."""
    return FormalSeries(tuple(
        Fraction((-1) ** (i // 2) * m**i, factorial(i)) if i % 2 == odd else Fraction(0)
        for i in range(order)), "p")


def test_quotient_times_denominator_restores_numerator():
    num = _trig(2, 12, odd=1)
    den = _trig(3, 12, odd=0)
    q = series_quotient_even(num, den)
    back = tuple(sum(q[j] * den[i - j] for j in range(i + 1)) for i in range(q.order))
    assert back == num.coeffs[: q.order]


def test_quotient_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        series_quotient_even(_trig(1, 4, odd=0), _trig(1, 4, odd=1))
