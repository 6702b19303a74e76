"""Sign characters mod 12 and 60, and the exact even L-values built from them."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum import checks
from borelsum.characters import (
    DirichletCharacter,
    chi12,
    chi60,
    l_series_partial,
    l_value_cyclotomic,
    l_value_exact,
    l_value_negative,
)
from borelsum.errors import DomainError


def test_chi12_sign_pattern():
    chi = chi12()
    assert [chi(n) for n in range(12)] == [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]
    assert chi(13) == 1 and chi(23) == 1 and chi(17) == -1


def test_chi60_supports():
    """Sign tables, not true characters: balanced +-1 on units, 0 elsewhere."""
    one, two = chi60(1), chi60(2)
    for n in range(60):
        if gcd(n, 60) != 1:
            assert one(n) == 0 and two(n) == 0
    for chi in (one, two):
        signs = [chi(n) for n in range(60)]
        assert signs.count(1) == 4 and signs.count(-1) == 4
    assert any(one(n) != two(n) for n in range(60))


def test_chi60_rejects_other_labels():
    with pytest.raises(ValueError):
        chi60(3)


def test_character_table_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(3, (1, 1))
    with pytest.raises(ValueError):
        DirichletCharacter(2, (1, 2))


@given(m=st.integers(min_value=0, max_value=400), n=st.integers(min_value=0, max_value=400))
def test_chi12_is_multiplicative(m, n):
    chi = chi12()
    assert chi(m * n) == chi(m) * chi(n)


@given(n=st.integers(min_value=0, max_value=1000))
def test_chi12_periodicity(n):
    chi = chi12()
    assert chi(n) == chi(n + 12) == chi(n + 120)


def test_l_value_exact_first_rationals():
    # r(1) derived by hand from the degree-4 Bernoulli difference
    assert l_value_exact(0) == (Fraction(1, 6), 2)
    assert l_value_exact(1) == (Fraction(23, 1296), 4)


def test_l_value_exact_rejects_negative():
    with pytest.raises(ValueError):
        l_value_exact(-1)


def test_l2_against_trigamma():
    """Independent route: the s=2 value from four trigamma evaluations."""
    r, s = l_value_exact(0)
    assert s == 2
    closed = mp.mpf(r.numerator) / r.denominator * mp.pi**s / mp.sqrt(3)
    with mp.workdps(40):
        psi = lambda a: mp.polygamma(1, mp.mpf(a) / 12)
        oracle = (psi(1) - psi(5) - psi(7) + psi(11)) / 144
    assert abs(closed - oracle) < mp.mpf("1e-20")


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_partial_sums_respect_certified_tail(n):
    assert all(l_series_partial(chi12(), 2 * n + 2, t)[1] > 0 for t in (40, 200))
    assert checks.l_value_fill((40, 200), 80, [n]) <= 1


def test_hurwitz_sums_match_the_l_values():
    """The trefoil sums the closed route restores, against exact L-values."""
    assert checks.l_value_hurwitz_gap() < mp.mpf("1e-20")


def test_partial_sum_rejects_divergent_exponent():
    with pytest.raises(ValueError):
        l_series_partial(chi12(), 1, 50)


@pytest.mark.parametrize("chi", [chi12(), chi60(1), chi60(2)], ids=["chi12", "chi60-1", "chi60-2"])
def test_l_value_cyclotomic_with_no_phase_is_l_value_negative(chi):
    """At s = 0 the phase is 1 and C is the sign table itself."""
    for k in range(4):
        exact = l_value_negative(chi, k)
        value = l_value_cyclotomic(chi.table, k, 0, 2)
        assert abs(value - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf("1e-20"), k


def test_l_value_cyclotomic_matches_the_bernoulli_polynomial_sum():
    """L(-p, C) = -(M^p/(p+1)) sum_{n<=M} C(n) B_{p+1}(n/M) for a phase of
    order 2h = 24 on the mod-12 character, summed term by term with
    mp.bernpoly at 20 more digits."""
    chi = chi12()
    for p, s, h in ((1, 1, 12), (1, -5, 12), (0, 7, 36), (2, 3, 12)):
        modulus = 12 * h // gcd(12, h)
        got = l_value_cyclotomic(chi.table, p, s, h)
        with mp.extradps(20):
            want = -(mp.mpf(modulus) ** p / (p + 1)) * mp.fsum(
                chi(n) * mp.expjpi(mp.mpf(s * n * n) / h) * mp.bernpoly(p + 1, mp.mpf(n) / modulus)
                for n in range(1, modulus + 1))
        assert abs(got - want) < mp.mpf("1e-22"), (p, s, h)


def test_l_value_cyclotomic_needs_mean_zero_and_a_period():
    """The Lawrence-Zagier lemma wants C of mean zero: a table that is 1 at
    every odd n has mean 1/2.  An odd s h leaves no period of the form
    lcm(P, h)."""
    with pytest.raises(DomainError, match="mean"):
        l_value_cyclotomic((0, 1), 0, 0, 2)
    with pytest.raises(ValueError, match="even"):
        l_value_cyclotomic(chi12().table, 1, 1, 3)
