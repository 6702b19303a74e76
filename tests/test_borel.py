"""Branch-point sums in the Borel plane and their Taylor data."""

import math
import time
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum import checks
from borelsum.borel import (
    TERM_BUDGET,
    SqrtBranched,
    periodic_power_sum,
    poincare_borel,
    poincare_coefficient_trig,
    trefoil_bn_exact,
    trefoil_borel,
    trefoil_taylor_exact,
)
from borelsum.checks import TREFOIL_TAYLOR
from borelsum.errors import ConvergenceError, DomainError, OnCutError
from borelsum.invariants import trefoil_coeffs


@pytest.mark.parametrize("n,value", list(enumerate(TREFOIL_TAYLOR)))
def test_trefoil_taylor_first_values(n, value):
    assert trefoil_bn_exact(n) == value


def test_trefoil_taylor_exact_list():
    assert trefoil_taylor_exact(3) == list(TREFOIL_TAYLOR)


@pytest.mark.parametrize("n", range(0, 9))
def test_taylor_matches_rescaled_asymptotic_coefficients(n):
    """Dual route: b_n from the closed form vs a_{n+1}/(n! 24^{n+1})."""
    a = trefoil_coeffs(n + 2).a
    assert trefoil_bn_exact(n) == a[n + 1] / (factorial(n) * 24 ** (n + 1))


def test_numeric_taylor_agrees_with_exact():
    got = trefoil_borel().taylor_coeffs(4)
    for v, b in zip(got, TREFOIL_TAYLOR):
        assert abs(v - mp.mpf(b.numerator) / b.denominator) < mp.mpf("1e-10")


def test_poincare_taylor_periodic_route():
    """The 60-periodic coefficients let the Taylor sums close exactly."""
    assert max(checks.poincare_taylor_gaps(3)) < mp.mpf("1e-20")


def test_trefoil_singularity_layout():
    mdl = trefoil_borel()
    for n in range(1, 13):
        assert abs(mdl.eta(n) - mp.pi**2 * n**2 / 6) < mp.mpf("1e-20")
        if n % 2 == 0 or n % 3 == 0:
            assert mdl.coeff(n) == 0
    assert mdl.coeff(1) > 0 and mdl.coeff(5) < 0


def test_eta_and_coeff_reject_index_zero():
    mdl = trefoil_borel()
    with pytest.raises(ValueError):
        mdl.eta(0)
    with pytest.raises(ValueError):
        mdl.coeff(0)


def _reweighted(mdl, residue, factor):
    """mdl under its own label with w_residue multiplied by factor."""
    def weights():
        w = list(mdl.weights())
        w[residue - 1] *= factor
        return w

    return SqrtBranched(mdl.label, mdl.k, mdl.a0, mdl.nu, mdl.power, weights, mdl.period)


def test_eval_at_origin_is_b0():
    """eval's direct sum against the exact trefoil b_0, and against the
    Hurwitz sum of taylor_coeffs on a model that is not built in."""
    b0 = TREFOIL_TAYLOR[0]
    got = trefoil_borel().eval(0, tol="1e-10")
    assert abs(got - mp.mpf(b0.numerator) / b0.denominator) < mp.mpf("1e-10")
    mdl = _reweighted(trefoil_borel(), 7, 3)
    assert abs(mdl.eval(0, tol="1e-10") - mdl.taylor_coeffs(1)[0]) < mp.mpf("1e-10")


def test_eval_second_sheet_flips_sign():
    mdl = trefoil_borel()
    p = mp.mpf("0.37")
    assert mdl.eval(p, sheet=1) == -mdl.eval(p, sheet=0)


def test_eval_sheet_conflicts_and_validation():
    mdl = trefoil_borel()
    with pytest.raises(ValueError):
        mdl.eval(0.2, sheet=2)


def test_eval_refuses_the_cut():
    mdl = trefoil_borel()
    with pytest.raises(OnCutError):
        mdl.eval(mdl.eta(1))
    with pytest.raises(OnCutError):
        mdl.eval(mdl.eta(1) + 5)


def test_eval_above_cut_is_finite():
    mdl = trefoil_borel()
    v = mdl.eval(mdl.eta(1) + mp.j * mp.mpf("0.3"), tol="1e-8")
    assert mp.isfinite(v)


def test_power_law_tail_caps_accuracy():
    with pytest.raises(ConvergenceError):
        trefoil_borel().eval(mp.mpf("0.1"), tol="1e-30")


def test_budget_message_names_the_model():
    with pytest.raises(ConvergenceError, match="trefoil"):
        trefoil_borel().eval(mp.mpf("0.1"), tol="1e-30")


def test_eval_past_the_float_range_runs_out_of_budget():
    """|p| = 1e400 overflows a float; the count reads that as past the budget."""
    with pytest.raises(ConvergenceError, match="trefoil"):
        trefoil_borel().eval(mp.mpc(0, "1e400"))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0, -1], ids=str)
@pytest.mark.parametrize("method", ["eval"])
def test_methods_refuse_a_tolerance_that_certifies_nothing(method, tol):
    for mdl in (trefoil_borel(), poincare_borel()):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="tolerance"):
            getattr(mdl, method)(mp.mpf("0.37"), tol=tol)
        assert time.perf_counter() - start < 0.1


@given(n=st.integers(min_value=1, max_value=400))
def test_tail_law_envelopes_hold(n):
    """The float bounds of the term counts hold at every index."""
    for mdl in (trefoil_borel(), poincare_borel()):
        assert abs(mdl.coeff(n)) <= mdl.coeff_bound * n**mdl.power
        assert mdl.nu_lower * n**2 <= mdl.eta(n)


@pytest.mark.parametrize("n", range(1, 61))
def test_poincare_coefficient_trig_route(n):
    """Character-table coefficients equal the product-of-cosines form."""
    assert abs(poincare_borel().coeff(n) - poincare_coefficient_trig(n)) < mp.mpf(
        "1e-22"
    )


def test_poincare_coefficients_have_period_sixty():
    mdl = poincare_borel()
    assert mdl.period == 60
    for n in range(1, 61):
        assert mdl.coeff(n) == mdl.coeff(n + 60)


def test_periodic_power_sum_matches_partial_sums():
    mdl = poincare_borel()
    s = mp.mpf(2)
    closed = periodic_power_sum(mdl, s)
    n_cut = 4000
    partial = mp.fsum(
        mdl.coeff(n) * mdl.eta(n) ** (-s) for n in range(1, n_cut + 1)
    )
    # tail of sum c_n (nu n^2)^{-2} is below bound * integral n^{-4}
    tail = mp.mpf(mdl.coeff_bound) * mp.mpf(mdl.nu_lower) ** (-s) * (
        n_cut ** (-3) / 3
    )
    assert abs(closed - partial) <= tail


def test_periodic_power_sum_keys_on_every_weight():
    """Two models under one label, differing in one weight, keep their own
    sums: each sum is the Hurwitz form of that model's weights."""
    mdl = trefoil_borel()
    doubled = _reweighted(mdl, 5, 2)
    w, w2 = mdl.table()[1], doubled.table()[1]
    assert sum(a != b for a, b in zip(w, w2)) == 1
    first = periodic_power_sum(mdl, 2)
    second = periodic_power_sum(doubled, 2)
    assert first != second
    for g, value in ((mdl, first), (doubled, second), (mdl, first)):
        assert periodic_power_sum(g, 2) == value
    # only residue 5 differs: the gap is w_5 nu^{-2} zeta(3, 5/12) / 12^3
    gap = w[4] * mdl.nu() ** -2 * mp.zeta(3, mp.mpf(5) / 12) / 12**3
    assert abs(second - first - gap) < mp.mpf("1e-22")


def test_periodic_power_sum_is_kept_per_64_bit_bucket(monkeypatch):
    """A sum is summed once per 64-bit bucket of the working precision: a
    second call at another precision of the same bucket makes no mp.zeta
    call and returns the bucket's value rounded to its own precision, and
    the next bucket sums anew."""
    mdl = _reweighted(trefoil_borel(), 1, 1)  # the trefoil's data, no sum kept yet
    calls, zeta = [0], mp.zeta

    def counted(*args):
        calls[0] += 1
        return zeta(*args)

    monkeypatch.setattr(mp, "zeta", counted)
    s = mp.mpf(7) / 2
    with mp.workprec(128):
        at_bucket = periodic_power_sum(mdl, s)
    filled = calls[0]
    assert filled == sum(1 for w in mdl.table()[1] if w)
    for prec in (65, 100, 127, 128):
        with mp.workprec(prec):
            assert periodic_power_sum(mdl, s) == +at_bucket, prec
    assert calls[0] == filled
    with mp.workprec(129):
        periodic_power_sum(mdl, s)
    assert calls[0] == 2 * filled


def test_appendix_route_conversion_factor():
    """Matched truncations make the slowly-converging ratio exact."""
    for terms in (500, 4000):
        gap, _ = checks.appendix_factor_gap(mp.mpf("0.1"), terms)
        assert gap < mp.mpf("1e-9")


def test_term_budget_is_generous():
    assert TERM_BUDGET >= 10_000

