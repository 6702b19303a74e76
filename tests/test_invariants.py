"""Coefficient tables and root-of-unity evaluations of the finite sum."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum.checks import TREFOIL_SCALED
from borelsum.invariants import (
    CoefficientTable,
    RationalAngle,
    f_at_root_of_unity,
    phi,
    poincare_coeffs,
    trefoil_coeffs,
)

TREFOIL_A = (
    Fraction(1),
    Fraction(23),
    Fraction(1681, 2),
    Fraction(257543, 6),
    Fraction(67637281, 24),
)


def test_rational_angle_reduction():
    assert RationalAngle(Fraction(7, 3)).reduced() == (1, 3)
    assert RationalAngle(Fraction(-1, 4)).reduced() == (3, 4)
    assert RationalAngle(Fraction(2)).reduced() == (0, 1)


def test_trefoil_leading_coefficients():
    table = trefoil_coeffs(5)
    assert table.a[:5] == TREFOIL_A
    for n, value in enumerate(TREFOIL_SCALED):
        assert table.scaled(n) == value


def test_trefoil_f_series_matches_scaled():
    series = trefoil_coeffs(4).f_series()
    assert series.variable_kind == "inverse-x"
    assert series.coeffs == TREFOIL_SCALED


@pytest.mark.parametrize("route", ["generating-function", "bernoulli-closed-form"])
def test_trefoil_routes_agree_on_prefix(route):
    assert trefoil_coeffs(10, route=route).a == trefoil_coeffs(10).a


def test_trefoil_rejects_unknown_route():
    with pytest.raises(ValueError):
        trefoil_coeffs(4, route="guesswork")


def test_poincare_leading_coefficients():
    table = poincare_coeffs(4)
    assert table.a[:2] == (Fraction(1), Fraction(119))
    assert table.scaled(1) == Fraction(119, 120)
    assert table.scaled(2) == Fraction(129361, 28800)
    assert table.scaled(3) == Fraction(353851559, 10368000)


def test_coefficient_table_validates_name():
    with pytest.raises(ValueError):
        CoefficientTable("granny", "generating-function", (Fraction(1),))


@given(
    num=st.integers(min_value=-8, max_value=8),
    den=st.integers(min_value=1, max_value=9),
)
def test_finite_sum_has_period_one(num, den):
    alpha = Fraction(num, den)
    left = f_at_root_of_unity(alpha)
    right = f_at_root_of_unity(alpha + 1)
    assert abs(left - right) < mp.mpf("1e-20")


def test_finite_sum_at_a_quarter_turn():
    """q = i: 1 + (1 - i) + (2 - 2i) + 4."""
    assert abs(f_at_root_of_unity(Fraction(1, 4)) - mp.mpc(8, -3)) < mp.mpf("1e-24")


# a/d with 0 < |a| < 2d, gcd(a, d) = 1 and d <= 24: 718 angles
ANGLES = [Fraction(a, d) for d in range(1, 25) for a in range(1 - 2 * d, 2 * d)
          if a and gcd(a, d) == 1]


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_finite_sum_does_not_depend_on_the_working_precision(dps):
    """The sum at dps digits agrees with the sum at dps + 20 to its last digits."""
    assert len(ANGLES) == 718
    for alpha in ANGLES:
        with mp.workdps(dps + 20):
            reference = f_at_root_of_unity(alpha)
        with mp.workdps(dps):
            value = f_at_root_of_unity(alpha)
            bound = mp.mpf(10) ** (3 - dps) * max(1, abs(reference))
        assert abs(value - reference) <= bound, alpha


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("den", [100, 200, 300])
def test_finite_sum_keeps_its_digits_at_large_denominators(den, dps):
    """|(q)_n| rises to about e^{0.16 d} before the sum settles, so the loop
    needs guard digits growing with d to keep the last digits of the sum."""
    for num in (1, 7, den // 2 - 1, den - 1):
        alpha = Fraction(num, den)
        with mp.workdps(dps + 60):
            reference = f_at_root_of_unity(alpha)
        with mp.workdps(dps):
            value = f_at_root_of_unity(alpha)
            bound = mp.mpf(10) ** (3 - dps) * max(1, abs(reference))
        assert abs(value - reference) <= bound, alpha


def test_phi_at_integers_and_halves():
    """Small denominators reduce to short sums evaluable by hand."""
    assert abs(phi(1) - mp.expjpi(mp.mpf(1) / 12)) < mp.mpf("1e-24")
    assert abs(phi(Fraction(1, 2)) - 3 * mp.expjpi(mp.mpf(1) / 24)) < mp.mpf("1e-24")
    omega = mp.expjpi(mp.mpf(2) / 3)
    target = mp.expjpi(mp.mpf(1) / 36) * (5 - omega)
    assert abs(phi(Fraction(1, 3)) - target) < mp.mpf("1e-24")


def test_phi_alpha_two():
    # alpha = 2 reduces to the same finite sum as alpha = 0 with a new prefactor
    assert abs(phi(2) - mp.expjpi(mp.mpf(2) / 12)) < mp.mpf("1e-24")
