"""Coefficient tables and root-of-unity evaluations of the finite sum."""

from fractions import Fraction
from functools import cache
from math import factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum.characters import chi12, chi60, l_value_negative
from borelsum.checks import TREFOIL_SCALED
from borelsum.errors import DomainError
from borelsum.invariants import (
    CoefficientTable,
    RationalAngle,
    f_at_root_of_unity,
    phi,
    poincare_coeffs,
    trefoil_coeffs,
)
from borelsum.series import bernoulli_poly

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


def test_poincare_rejects_unknown_route():
    with pytest.raises(ValueError):
        poincare_coeffs(4, route="guesswork")


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


def test_angles_must_be_rational():
    """A float or mpf angle is refused before any work: 0.1 as a binary
    fraction has denominator 2^55, so its sum would run 10^16 terms."""
    with pytest.raises(DomainError, match="alpha"):
        phi(0.1)
    with pytest.raises(DomainError, match="alpha"):
        f_at_root_of_unity(mp.mpf(1) / 3)
    assert phi("1/3") == phi(Fraction(1, 3)) == phi(RationalAngle(Fraction(1, 3)))


# ---------------------------------------------------------------------------
# reference copy of the Fraction routines the tables were once built with:
# truncated cos/sin series, Cauchy product, long division, and the difference
# of two Bernoulli-polynomial sums; the library now builds the tables on
# integers (see the invariants module docstring)

REFERENCE_ORDER = 120


def _ref_cos(m: int, order: int) -> list[Fraction]:
    out = [Fraction(0)] * order
    fact = Fraction(1)
    for i in range(order):
        if i > 0:
            fact *= i
        if i % 2 == 0:
            out[i] = Fraction((-1) ** (i // 2) * m**i) / fact
    return out


def _ref_sin(m: int, order: int) -> list[Fraction]:
    out = [Fraction(0)] * order
    fact = Fraction(1)
    for i in range(order):
        if i > 0:
            fact *= i
        if i % 2 == 1:
            out[i] = Fraction((-1) ** ((i - 1) // 2) * m**i) / fact
    return out


def _ref_product(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    n = min(len(f), len(g))
    out = [Fraction(0)] * n
    for i in range(n):
        if f[i]:
            for j in range(n - i):
                out[i + j] += f[i] * g[j]
    return out


def _ref_quotient(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    n = min(len(num), len(den))
    q = [Fraction(0)] * n
    for i in range(n):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= den[j] * q[i - j]
        q[i] = acc / den[0]
    return q


@cache
def _ref_delta(m: int) -> Fraction:
    return bernoulli_poly(m, Fraction(1, 12)) - bernoulli_poly(m, Fraction(5, 12))


@cache
def _ref_table(which: str, route: str) -> tuple[Fraction, ...]:
    """a_0..a_REFERENCE_ORDER by the old routine; a table of lower order is
    its prefix, since each a_n depends only on the series up to its own index."""
    order = REFERENCE_ORDER
    if which == "poincare":
        n_coeffs = 2 * order + 1
        q = _ref_quotient(_ref_product(_ref_cos(5, n_coeffs), _ref_cos(9, n_coeffs)),
                          _ref_cos(15, n_coeffs))
        return tuple(q[2 * n] * factorial(2 * n) for n in range(order + 1))
    if route == "bernoulli-closed-form":
        return tuple(Fraction(24) ** n * 6 * Fraction((-6) ** n, factorial(n + 1))
                     * _ref_delta(2 * n + 2) for n in range(order + 1))
    n_coeffs = 2 * order + 2
    q = _ref_quotient(_ref_sin(2, n_coeffs), [2 * c for c in _ref_cos(3, n_coeffs)])
    return tuple(q[2 * n + 1] * Fraction(factorial(2 * n + 1), factorial(n))
                 for n in range(order + 1))


@pytest.mark.parametrize("which,route", [
    ("trefoil", "generating-function"),
    ("trefoil", "bernoulli-closed-form"),
    ("poincare", "generating-function"),
    ("poincare", "bernoulli-closed-form"),
])
def test_tables_equal_the_fraction_reference(which, route):
    reference = _ref_table(which, route)
    coeffs = poincare_coeffs if which == "poincare" else trefoil_coeffs
    for order in range(1, REFERENCE_ORDER + 1):
        table = coeffs(order, route=route)
        assert table.a == reference[:order + 1], order
        assert table.route == route


def _ref_l_value(chi, k: int) -> Fraction:
    """L(-k, C) = -(M^k/(k+1)) sum_{a=1}^{M} C(a) B_{k+1}(a/M), term by term."""
    m = chi.modulus
    return -Fraction(m**k, k + 1) * sum(
        chi(a) * bernoulli_poly(k + 1, Fraction(a, m)) for a in range(1, m + 1) if chi(a))


def test_l_value_negative_of_chi12_equals_the_polynomial_sum():
    # the indices m = k + 1 of the trefoil tables up to REFERENCE_ORDER
    for m in range(2, 2 * REFERENCE_ORDER + 3, 2):
        assert l_value_negative(chi12(), m - 1) == _ref_l_value(chi12(), m - 1), m


@pytest.mark.parametrize("which", [1, 2])
def test_l_value_negative_of_chi60_equals_the_polynomial_sum(which):
    chi = chi60(which)
    for k in range(41):  # odd and even k; each table is odd, so L(-k) = 0 at odd k
        assert l_value_negative(chi, k) == _ref_l_value(chi, k), k


def test_l_value_negative_rejects_negative_index():
    with pytest.raises(ValueError):
        l_value_negative(chi12(), -1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_trig_series_coefficients(m):
    c = _ref_cos(m, 9)
    s = _ref_sin(m, 9)
    for i in range(9):
        if i % 2 == 0:
            assert c[i] == Fraction((-1) ** (i // 2) * m**i, factorial(i))
            assert s[i] == 0
        else:
            assert s[i] == Fraction((-1) ** ((i - 1) // 2) * m**i, factorial(i))
            assert c[i] == 0


def test_trig_pythagoras_through_truncation():
    order = 10
    c = _ref_cos(5, order)
    s = _ref_sin(5, order)
    total = [_ref_product(c, c)[i] + _ref_product(s, s)[i] for i in range(order)]
    assert total[0] == 1
    assert all(v == 0 for v in total[1:])


small_fractions = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12)


@given(
    a=st.lists(small_fractions, min_size=1, max_size=5),
    b=st.lists(small_fractions, min_size=1, max_size=5),
)
def test_series_product_matches_convolution(a, b):
    prod = _ref_product(a, b)
    for i in range(min(len(a), len(b))):
        assert prod[i] == sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0))
