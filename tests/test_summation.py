"""Lateral and median resummations: closed route, integrals, cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from borelsum import checks, summation
from borelsum.errors import DomainError, RayGeometryError, ToleranceError
from borelsum.summation import (
    AverageKind,
    averaged_value,
    cross_routes,
    dirichlet_delta,
    median_laplace_unit,
    median_laplace_unit_closed,
    radial_limit,
    route_gap,
    sum_erfi,
    sum_eta_integral,
    sum_median,
)

# median at x = 2, agreed on by three routes at 25 digits
MEDIAN_TREFOIL_AT_2 = mp.mpf("1.647573486032229956085889")


def test_closed_route_frozen_value():
    res = sum_erfi("trefoil", 2, tol="1e-14")
    assert res.model == "trefoil"
    assert res.kind is AverageKind.MEDIAN
    assert res.route == "erfi-series"
    assert abs(res.value - MEDIAN_TREFOIL_AT_2) < mp.mpf("1e-21")


def test_closed_route_tends_to_one():
    far = sum_erfi("trefoil", 600, tol="1e-12").value
    assert abs(far - 1) < mp.mpf("0.01")
    assert abs(far - 1) > 0


@given(x=st.floats(min_value=0.5, max_value=50))
def test_median_is_real_on_the_positive_axis(x):
    for model in ("trefoil", "poincare"):
        assert checks.reality_gap(model, [mp.mpf(x)], "1e-10") < mp.mpf("1e-18")


@settings(max_examples=10)
@given(
    re=st.floats(min_value=0.5, max_value=6),
    im=st.floats(min_value=0.1, max_value=4),
)
def test_lateral_conjugation_symmetry(re, im):
    """Reality of the coefficients swaps the two laterals under conjugation."""
    assert checks.conjugation_gap([mp.mpc(re, im)], "1e-12") < mp.mpf("1e-12")


def test_laterals_differ_by_twice_delta():
    x = mp.mpf(2)
    mur = sum_erfi("trefoil", x, kind="mur", tol="1e-14").value
    mul = sum_erfi("trefoil", x, kind="mul", tol="1e-14").value
    med = sum_erfi("trefoil", x, kind="median", tol="1e-14").value
    delta = dirichlet_delta("trefoil", x)
    assert abs(mur - mul - 2 * delta) < mp.mpf("5e-13")
    assert abs((mur + mul) / 2 - med) < mp.mpf("1e-22")


def test_delta_is_imaginary_on_the_real_axis():
    d = dirichlet_delta("trefoil", 2)
    assert abs(mp.re(d)) < mp.mpf("1e-24")
    assert abs(mp.im(d) - mp.mpf("0.8298760358")) < mp.mpf("1e-9")


def test_closed_route_rejects_left_half_plane():
    with pytest.raises(DomainError):
        sum_erfi("trefoil", -1)
    with pytest.raises(DomainError):
        sum_erfi("trefoil", mp.mpc(0, 2))


def test_model_names_are_validated():
    with pytest.raises(ValueError):
        sum_erfi("lens", 2)


def test_kind_names_are_validated():
    with pytest.raises(ValueError):
        sum_erfi("trefoil", 2, kind="upper")


def test_eta_integral_matches_closed_median():
    x = mp.mpf(2)
    mul = sum_eta_integral(x, side="mul", tol="1e-12")
    mur = sum_eta_integral(x, side="mur", tol="1e-12")
    assert mul.route == "eta-integral"
    med = (mul.value + mur.value) / 2
    assert abs(med - MEDIAN_TREFOIL_AT_2) < mp.mpf("1e-10")


def test_eta_integral_rejects_zero():
    with pytest.raises(DomainError):
        sum_eta_integral(0)


def test_eta_integral_near_the_imaginary_axis():
    """At 0.4+2i the default pi/16 offset would leave cos(theta) ~ 0.001."""
    x = mp.mpc("0.4", 2)
    mur = sum_eta_integral(x, side="mur", tol="1e-10")
    assert abs(mur.value - sum_erfi("trefoil", x, "mur", tol="1e-12").value) < mp.mpf("1e-8")


def test_eta_integral_without_room_raises():
    with pytest.raises(RayGeometryError):
        sum_eta_integral(1j, side="mur")


def test_cross_routes_trefoil_keys_and_gaps():
    routes = cross_routes("trefoil", 2, tol="1e-10")
    assert set(routes) == {
        "erfi-series",
        "eta-integral-average",
        "eta-integral-mul-plus-delta",
    }
    ref = routes["erfi-series"]
    for v in routes.values():
        assert abs(v - ref) < mp.mpf("1e-9")


def test_cross_routes_poincare_keys_and_gaps():
    routes = cross_routes("poincare", 3, tol="1e-10")
    assert set(routes) == {"erfi-series", "finite-part-quadrature"}
    gap = abs(routes["erfi-series"] - routes["finite-part-quadrature"])
    assert gap < mp.mpf("1e-12")


def test_sum_median_folds_cross_gap_into_error():
    res = sum_median("trefoil", 2, cross_check=True)
    assert res.err_estimate >= abs(res.value - MEDIAN_TREFOIL_AT_2)
    assert abs(res.value - MEDIAN_TREFOIL_AT_2) < mp.mpf("1e-10")


def test_sum_median_cross_check_value_is_the_closed_route_at_tol():
    x = mp.mpc(2, "1.5")
    res = sum_median("trefoil", x, tol="1e-14", cross_check=True)
    reference = sum_erfi("trefoil", x, tol="1e-20").value
    assert abs(res.value - reference) < mp.mpf("1e-14")
    assert set(res.routes) == {
        "erfi-series", "eta-integral-average", "eta-integral-mul-plus-delta",
    }
    assert res.err_estimate == max(route_gap(res.routes), mp.mpf("1e-14"))
    assert sum_median("trefoil", x).routes is None


def test_sum_median_raises_when_routes_disagree(monkeypatch):
    monkeypatch.setattr(
        summation, "cross_routes",
        lambda model, x, tol="1e-10": {"erfi-series": mp.mpf(0), "other": mp.mpf(1)},
    )
    with pytest.raises(ToleranceError):
        sum_median("trefoil", 2, cross_check=True, cross_tol="1e-6")


@pytest.mark.parametrize("model,b0,tol,bound", [
    ("trefoil", Fraction(23, 24), "1e-12", "1e-12"),
    # quadratic term decay makes tight tolerances need too many terms here
    ("poincare", Fraction(119, 120), "1e-6", "1e-5"),
])
def test_averaged_value_at_origin_is_b0(model, b0, tol, bound):
    got = averaged_value(model, "median", 0, tol=tol)
    assert abs(got - mp.mpf(b0.numerator) / b0.denominator) < mp.mpf(bound)


@given(p=st.floats(min_value=0.0, max_value=40.0))
def test_lateral_mean_equals_median_exactly(p):
    """Odd-weight crossed terms are imaginary and cancel in the mean."""
    mur = averaged_value("trefoil", "mur", p, tol="1e-8")
    mul = averaged_value("trefoil", "mul", p, tol="1e-8")
    med = averaged_value("trefoil", "median", p, tol="1e-8")
    assert mp.re(mur) == mp.re(mul)
    assert mp.im(mur) == -mp.im(mul)
    assert abs((mur + mul) / 2 - med) < mp.mpf("1e-24")


def test_averaged_value_crossed_terms_appear_past_first_singularity():
    p = mp.pi**2 / 6 + mp.mpf("0.1")
    mur = averaged_value("trefoil", "mur", p, tol="1e-10")
    assert abs(mp.im(mur)) > mp.mpf("0.01")


def test_averaged_value_domain_errors():
    with pytest.raises(DomainError):
        averaged_value("trefoil", "median", -1)
    mdl = summation.trefoil_borel()
    with pytest.raises(DomainError):
        averaged_value(mdl, "median", mdl.eta(1))


def test_laplace_unit_quadrature_matches_closed_form():
    # the k = 5 endpoint subtraction amplifies roundoff, so it gets a
    # looser target than k = 3 at the working precision
    y = mp.mpf("4.2")
    for k, tol, bound in ((3, "1e-11", "1e-10"), (5, "1e-9", "1e-8")):
        quad = median_laplace_unit(k, y, tol=tol)
        closed = median_laplace_unit_closed(k, y)
        assert abs(quad - closed) < mp.mpf(bound)


def test_laplace_unit_rejects_other_weights():
    with pytest.raises(ValueError):
        median_laplace_unit_closed(4, 1)
    with pytest.raises(ValueError):
        median_laplace_unit(7, 1)


def test_radial_limit_reaches_the_boundary_value():
    res = radial_limit(Fraction(1))
    assert res.route == "radial"
    gap = checks.phi_gap(Fraction(1), res.value)
    assert gap < mp.mpf("1e-8")
    assert res.err_estimate >= gap


@pytest.mark.parametrize("alpha", [Fraction(1, 5), Fraction(2, 5), Fraction(1, 3),
                                   Fraction(3, 4)])
def test_radial_limit_err_estimate_covers_the_error(alpha):
    """The rung tolerance, amplified by the extrapolation weights, counts."""
    res = radial_limit(alpha)
    assert res.err_estimate >= checks.phi_gap(alpha, res.value)


def test_radial_limit_half():
    res = radial_limit(Fraction(1, 2))
    target = 3 * mp.expjpi(mp.mpf(1) / 24)
    assert abs(res.value - target) < mp.mpf("1e-8")


def test_radial_limit_validation():
    with pytest.raises(DomainError):
        radial_limit(0)
    with pytest.raises(ValueError):
        radial_limit(1, eps0=0)
    with pytest.raises(ValueError):
        radial_limit(1, eps0="-0.01")
    with pytest.raises(ValueError):
        radial_limit(1, ratio=1)
    with pytest.raises(ValueError):
        radial_limit(1, rungs=1)
