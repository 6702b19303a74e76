"""Branch-point sums in the Borel plane and their Taylor data."""

import math
import time
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum import borel, checks
from borelsum.borel import (
    TERM_BUDGET,
    SqrtBranched,
    TailLaw,
    periodic_power_sum,
    periodic_weights,
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
    got = trefoil_borel().taylor_coeffs(4, tol="1e-10")
    for v, b in zip(got, TREFOIL_TAYLOR):
        assert abs(v - mp.mpf(b.numerator) / b.denominator) < mp.mpf("1e-10")


def test_poincare_taylor_periodic_route():
    """The 60-periodic coefficients let the Taylor sums close exactly."""
    assert max(checks.poincare_taylor_gaps(3, "1e-20")) < mp.mpf("1e-20")


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


def test_eval_at_origin_is_b0():
    mdl = trefoil_borel()
    b0 = TREFOIL_TAYLOR[0]
    got = mdl.eval(0, tol="1e-10")
    assert abs(got - mp.mpf(b0.numerator) / b0.denominator) < mp.mpf("1e-10")


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
@pytest.mark.parametrize("method", ["eval", "taylor_coeffs"])
def test_methods_refuse_a_tolerance_that_certifies_nothing(method, tol):
    call = {"eval": lambda g: g.eval(mp.mpf("0.37"), tol=tol),
            "taylor_coeffs": lambda g: g.taylor_coeffs(2, tol=tol)}[method]
    for mdl in (trefoil_borel(), poincare_borel()):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="tolerance"):
            call(mdl)
        assert time.perf_counter() - start < 0.1


@given(n=st.integers(min_value=1, max_value=400))
def test_tail_law_envelopes_hold(n):
    for mdl in (trefoil_borel(), poincare_borel()):
        law = mdl.tail
        assert abs(mdl.coeff(n)) <= law.coeff_bound * n**law.power + mp.mpf("1e-20")
        assert law.eta_lower * n**2 <= mdl.eta(n) <= law.eta_upper * n**2


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
    tail = mp.mpf(mdl.tail.coeff_bound) * mp.mpf(mdl.tail.eta_lower) ** (-s) * (
        n_cut ** (-3) / 3
    )
    assert abs(closed - partial) <= tail


def test_periodic_power_sum_requires_period():
    mdl = SqrtBranched("aperiodic", 3, 1, lambda n: mp.mpf(n) ** 2, lambda n: mp.mpf(1),
                       TailLaw(1, 0, 1, 1))
    with pytest.raises(ValueError):
        periodic_power_sum(mdl, 2)


def test_periodic_power_sum_checks_the_structure():
    """A tail power that is only an envelope leaves c_n / n^power aperiodic."""
    mdl = trefoil_borel()
    loose = SqrtBranched("trefoil", mdl.k, mdl.a0, mdl.eta, mdl.coeff,
                         TailLaw(3.34, 2, 1.64, 1.645), period=12)
    with pytest.raises(ValueError):
        periodic_power_sum(loose, 2)


def test_periodic_power_sum_keys_on_every_weight(monkeypatch):
    """Weight tables that differ in one entry are two cache entries."""
    monkeypatch.setattr(borel, "_PERIODIC_SUM_CACHE", {})
    mdl = trefoil_borel()
    doubled = SqrtBranched("trefoil", mdl.k, mdl.a0, mdl.eta,
                           lambda n: 2 * mdl.coeff(n) if n % 12 == 5 else mdl.coeff(n),
                           mdl.tail, period=12)
    w, w2 = periodic_weights(mdl), periodic_weights(doubled)
    assert sum(a != b for a, b in zip(w, w2)) == 1
    first = periodic_power_sum(mdl, 2)
    second = periodic_power_sum(doubled, 2)
    assert len(borel._PERIODIC_SUM_CACHE) == 2
    assert first != second
    assert periodic_power_sum(mdl, 2) == first
    assert len(borel._PERIODIC_SUM_CACHE) == 2


def test_appendix_route_conversion_factor():
    """Matched truncations make the slowly-converging ratio exact."""
    for terms in (500, 4000):
        gap, _ = checks.appendix_factor_gap(mp.mpf("0.1"), terms)
        assert gap < mp.mpf("1e-9")


def test_term_budget_is_generous():
    assert TERM_BUDGET >= 10_000


def test_tail_law_is_frozen():
    law = TailLaw(1.0, 0, 0.5, 0.6)
    with pytest.raises(AttributeError):
        law.coeff_bound = 2.0
