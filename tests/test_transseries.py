"""Factorial-growth blocks of the Taylor coefficients and their ladder."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from borelsum import checks
from borelsum.checks import TREFOIL_TAYLOR
from borelsum.transseries import (
    TransseriesTable,
    block_term,
    closed_bn,
    exact_bn,
    extract_ckl,
    normalized_residual,
    stirling_gammas,
)


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("n,value", list(enumerate(TREFOIL_TAYLOR)))
def test_exact_bn_first_values(n, value):
    assert exact_bn(n) == value


@pytest.mark.parametrize("n", range(0, 13))
def test_two_exact_routes_agree(n):
    """Bernoulli-difference route versus the L-value assembly, both rational."""
    assert exact_bn(n) == closed_bn(n)


def test_closed_bn_rejects_negative():
    with pytest.raises(ValueError):
        closed_bn(-1)


def test_blocks_recompose_the_coefficient():
    n = 10
    total = mp.fsum(block_term(k, n) for k in range(1, 16))
    rel = abs(total - _mpf(exact_bn(n))) / _mpf(exact_bn(n))
    assert rel < mp.mpf("1e-18")


def test_blocks_vanish_off_the_character_support():
    assert block_term(2, 7) == 0
    assert block_term(3, 7) == 0
    assert block_term(6, 7) == 0


def test_leading_block_dominates():
    n = 30
    ratio = block_term(1, n) / _mpf(exact_bn(n))
    assert abs(ratio - 1) < mp.mpf("1e-20")


def test_residual_ratios_near_one_over_25():
    values = [normalized_residual(n) for n in range(30, 38)]
    for a, b in zip(values, values[1:]):
        r = b / a
        assert abs(r - mp.mpf(1) / 25) < mp.mpf("0.2") / 25


def test_stirling_gammas_exact_ladder():
    assert stirling_gammas(4) == [
        Fraction(8),
        Fraction(15),
        Fraction(65, 16),
        Fraction(-75, 128),
    ]


def test_stirling_gammas_validation():
    with pytest.raises(ValueError):
        stirling_gammas(0)


@pytest.mark.parametrize("n", [10**3, 10**4])
def test_stirling_gammas_match_the_factorial_ratio(n):
    """sqrt(pi) (2n+3)!/((n+1)! n! 4^n n^{3/2}) against sum_{l<7} g_l n^-l,
    off by about g_7 n^-7."""
    with mp.workdps(60):
        ratio = Fraction(math.factorial(2 * n + 3),
                         math.factorial(n + 1) * math.factorial(n) * 4**n)
        exact = mp.sqrt(mp.pi) * _mpf(ratio) / mp.power(n, mp.mpf(3) / 2)
        ladder = mp.fsum(_mpf(g) / mp.mpf(n) ** l for l, g in enumerate(stirling_gammas(7)))
        assert abs(exact - ladder) <= mp.mpf(n) ** -7


def test_predicted_c10_closed_form():
    predicted = extract_ckl(5, 0)
    target = 72 * mp.sqrt(3) / (mp.sqrt(mp.pi) * mp.pi**4)
    assert abs(predicted.value(1, 0) - target) < mp.mpf("1e-22")
    assert predicted.value(2, 0) == 0
    assert abs(predicted.value(5, 0) + predicted.value(1, 0) / 625) < mp.mpf("1e-22")


def test_extract_ckl_validation():
    with pytest.raises(ValueError):
        extract_ckl(0, 2)


def test_reconstruct_normalization_guard():
    """Block k is suppressed by k^{-2n}; at small n the k >= 5 blocks show."""
    table = extract_ckl(7, 2)
    n = 5
    blocks = mp.fsum(table.value(k, l) / mp.mpf(n) ** l / mp.mpf(k) ** (2 * n)
                     for k in range(1, 8) for l in range(3))
    target = mp.power(table.base, n) * mp.power(n, table.power) * blocks
    assert abs(table.reconstruct(n) - target) < mp.mpf("1e-20") * abs(target)
    assert table.value(2, 0) == 0
    assert table.value(99, 0) == 0


def test_verify_report_full_window():
    table = extract_ckl(7, 6)
    ns = range(30, 61, 5)
    window = list(checks.transseries_window(table, ns))
    assert [c.name for c in window] == ["transseries-reconstruction",
                                        "transseries-residual-decay"]
    assert all(c.passed for c in window)
    assert checks.reconstruction_error(table, ns) < mp.mpf("1e-6")
    for r in checks.omitted_term_ratios(table, ns):
        assert mp.mpf("0.5") < r < 3
    for _, fitted, expected in checks.level_decay(table, 30, 60):
        assert abs(fitted - expected) < mp.mpf("0.25")
    c10 = table.value(1, 0)
    trend = [_mpf(exact_bn(n)) * mp.power(table.base, -n) / mp.power(n, table.power)
             for n in (30, 60)]
    assert abs(trend[-1] - c10) < mp.mpf("0.05") * abs(c10)
    assert abs(trend[-1] - c10) < abs(trend[0] - c10)
