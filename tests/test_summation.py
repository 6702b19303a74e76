"""Lateral and median resummations: closed route, integrals, cross-checks."""

import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from borelsum import checks, invariants, modular, specfun, summation
from borelsum.borel import SqrtBranched, poincare_borel, trefoil_borel
from borelsum.errors import ConvergenceError, DomainError, RayGeometryError, ToleranceError
from borelsum.modular import zagier_g
from borelsum.summation import (
    AverageKind,
    averaged_value,
    cross_routes,
    dirichlet_delta,
    median_boundary_sum,
    median_laplace_unit,
    median_laplace_unit_closed,
    radial_limit,
    route_gap,
    sum_erfi,
    sum_eta_integral,
    sum_median,
    sum_theta,
)

# median at x = 2, agreed on by the closed route, the eta-integral average
# and eta-integral mul plus delta at 40 and 60 digits
MEDIAN_TREFOIL_AT_2 = mp.mpf("1.647573486032229842086266")


def test_closed_route_frozen_value():
    res = sum_erfi("trefoil", 2, tol="1e-21")
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


def _scaled(mdl, factor):
    """The model with every weight multiplied by factor, under the same
    label, so that no sum keyed by label can hand back the original's."""
    return SqrtBranched(mdl.label, mdl.k, mdl.a0, mdl.nu, mdl.power,
                        lambda: [factor * w for w in mdl.weights()], mdl.period)


@pytest.mark.parametrize("model", [trefoil_borel, poincare_borel])
def test_closed_route_is_linear_in_the_coefficients(model):
    """Both weights: the closed route uses the model's own coefficients."""
    mdl = model()
    for x in (mp.mpf(2), mp.mpc("0.7", "1.3")):
        once = sum_erfi(mdl, x, tol="1e-16").value - 1
        twice = sum_erfi(_scaled(mdl, 2), x, tol="1e-16").value - 1
        assert abs(twice - 2 * once) < mp.mpf("1e-15")


def test_tolerance_below_roundoff_raises():
    """At 25 digits 1e-30 is below the roundoff of the sum itself."""
    with pytest.raises(ToleranceError):
        sum_erfi("trefoil", 2, tol="1e-30")
    with pytest.raises(ToleranceError):
        sum_median("poincare", 2, tol="1e-30")
    with pytest.raises(ToleranceError):
        radial_limit(Fraction(1, 3), tol="1e-30")
    with pytest.raises(ToleranceError):
        sum_eta_integral(mp.mpc(2, "1.5"), "mul", tol="1e-40")
    with pytest.raises(ToleranceError):
        zagier_g(1, tol="1e-40")
    with pytest.raises(ToleranceError):
        zagier_g(1, tol="1e-40", route="direct")
    with pytest.raises(ToleranceError):
        zagier_g(1, tol="1e-40", route="closed")
    with pytest.raises(ToleranceError):
        radial_limit(Fraction(1, 3), tol="1e-30", model="poincare")


def test_readme_quick_start_at_fifteen_digits():
    """mpmath's default precision leaves the default tolerances reachable."""
    poincare_at_2 = sum_erfi("poincare", 2, tol="1e-20").value
    with mp.workdps(15):
        res = sum_median("trefoil", 2, cross_check=True)
        assert abs(res.value - MEDIAN_TREFOIL_AT_2) < mp.mpf("1e-12")
        assert abs(sum_erfi("poincare", 2).value - poincare_at_2) < mp.mpf("1e-12")
        limit = radial_limit(Fraction(1, 2))
        assert checks.phi_gap(Fraction(1, 2), limit.value) <= limit.err_estimate


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_raises(tol):
    """A nan or inf tol certifies nothing, so the closed route rejects it,
    on the real axis too, where the median sums no Gaussian series."""
    for kind in ("median", "mul"):
        with pytest.raises(ValueError):
            sum_erfi("trefoil", 2, kind=kind, tol=tol)


@pytest.mark.parametrize("kind", ["median", "mur", "mul"])
def test_tolerance_near_roundoff_is_reached_near_the_boundary(kind):
    """At 0.01 + 3i the terms reach 10^4 while the trefoil sums are O(10^2):
    the working precision must grow with them for the floor tolerance."""
    x = mp.mpc("0.01", 3)
    tol = mp.mpf("1e-22")
    value = sum_erfi("trefoil", x, kind=kind, tol=tol).value
    with mp.workdps(mp.dps + 30):
        reference = sum_erfi("trefoil", x, kind=kind, tol="1e-45").value
        assert abs(value - reference) <= tol


def _reference_error(model, x, tol, kind="median"):
    """|value at tol - value at dps + 30 and a far smaller tol|, of the
    closed route of a sum_erfi kind or, for kind "delta", of dirichlet_delta."""
    def value(t):
        if kind == "delta":
            return dirichlet_delta(model, x, tol=t)
        return sum_erfi(model, x, kind, tol=t).value

    got = value(tol)
    with mp.workdps(mp.dps + 30):
        return abs(got - value(mp.mpf(tol) * mp.mpf(10) ** -10))


@pytest.mark.parametrize("x", ["2", "0.6"])
def test_poincare_tol_1e28_at_50_digits(x):
    """The fixed two-order peel ran out of terms here."""
    with mp.workdps(50):
        assert _reference_error("poincare", mp.mpf(x), mp.mpf("1e-28")) <= mp.mpf("1e-28")


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_tolerance_near_roundoff_is_reached(model):
    """tol = 10^(5-dps) at 50 digits on three corners and an inner point of
    the default route grid; the actual error must not exceed the tolerance."""
    with mp.workdps(50):
        tol = mp.mpf(10) ** (5 - mp.dps)
        for x in (mp.mpf("0.6"), mp.mpc(8, 2), mp.mpc("0.6", 2), mp.mpc("3.07", "0.67")):
            assert _reference_error(model, x, tol) <= tol, x


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_verify_suite_floor_is_the_routes_floor_and_a_digit(dps):
    """checks._reachable lifts a tol to ten times summation._roundoff_floor,
    the value 10^(4-dps) it had as its own constant."""
    with mp.workdps(dps):
        floor = mp.mpf(10) ** (4 - dps)
        assert checks._reachable("1e-300") == floor
        assert checks._reachable(floor / 2) == floor
        assert checks._reachable("1e-10") == mp.mpf("1e-10")


# the real axis, both half planes, Re x = 1e-3 and |x| >= 40
CALIBRATION_GRID = [("2", "0"), ("0.6", "2"), ("3", "-1.5"), ("1e-3", "0.5"),
                    ("1e-3", "-3"), ("40", "0"), ("6", "-45")]


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_closed_route_family_meets_its_claimed_tolerance(model, dps):
    """The three kinds and delta claim tol as their error (err_estimate);
    against the same sums at dps + 30, at every precision and every point
    of the grid, the claim holds.  tol = 10^(5-dps) near the floor, and
    1e-8 and 10^-floor(dps/2), where the kernels, sized to tol, work at
    far fewer digits than the working precision."""
    with mp.workdps(dps):
        for tol in (mp.mpf(10) ** (5 - dps), mp.mpf("1e-8"), mp.mpf(10) ** -(dps // 2)):
            for re_part, im_part in CALIBRATION_GRID:
                x = mp.mpc(re_part, im_part)
                for kind in ("median", "mul", "mur", "delta"):
                    assert _reference_error(model, x, tol, kind) <= tol, (x, tol, kind)


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_theta_route_is_within_its_estimate_of_the_closed_route(model, dps):
    """sum_theta against the closed route at dps + 30, on the grid and at
    the tolerances of the closed-route family: its err_estimate covers the
    error and stays within tol."""
    with mp.workdps(dps):
        for tol in (mp.mpf(10) ** (5 - dps), mp.mpf("1e-8"), mp.mpf(10) ** -(dps // 2)):
            for re_part, im_part in CALIBRATION_GRID:
                x = mp.mpc(re_part, im_part)
                res = sum_theta(model, x, tol=tol)
                assert res.route == "theta-series"
                with mp.workdps(dps + 30):
                    error = abs(res.value - sum_erfi(model, x, tol=tol * mp.mpf(10) ** -10).value)
                assert error <= res.err_estimate <= tol, (x, tol)


def test_theta_route_knows_only_the_two_models():
    with pytest.raises(ValueError, match="theta route"):
        sum_theta(_scaled(trefoil_borel(), 2), 2)
    with pytest.raises(ToleranceError):
        sum_theta("trefoil", 2, tol="1e-30")


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_sum_median_takes_the_cheaper_route(model):
    """The theta series at moderate |x|, the closed route far out, where
    the theta series needs thousands of terms; a model without a theta
    series always takes the closed route."""
    for x in (mp.mpf(2), mp.mpc("3.2", 2)):
        assert sum_median(model, x).route == "theta-series", x
    assert sum_median(model, mp.mpf("1e5")).route == "erfi-series"
    mdl = _scaled(summation._resolve_model(model), 1)
    assert sum_median(mdl, 2).route == "erfi-series"


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_sum_median_value_does_not_depend_on_the_cross_check(model):
    for x in (mp.mpf(2), mp.mpc(2, "1.5"), mp.mpf("1e5")):
        alone = sum_median(model, x, tol="1e-14")
        checked = sum_median(model, x, tol="1e-14", cross_check=True)
        assert checked.value == alone.value and checked.route == alone.route, x


@pytest.mark.parametrize("x", ["2", "0.6"])
def test_sum_median_poincare_tol_1e28_at_50_digits(x):
    """The two calls at tol 1e-28 of the tight-tolerance benchmark."""
    tol = mp.mpf("1e-28")
    with mp.workdps(50):
        res = sum_median("poincare", mp.mpf(x), tol=tol)
        with mp.workdps(80):
            reference = sum_erfi("poincare", mp.mpf(x), tol=tol * mp.mpf(10) ** -10).value
        assert abs(res.value - reference) <= tol


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_closed_route_beyond_the_float_range(model):
    """|x| = 1e400 overflows a float; every kind is then a0 within tol."""
    mdl = summation._resolve_model(model)
    tol = mp.mpf("1e-20")
    for x in (mp.mpf("1e400"), mp.mpc("1e400", "-3e399")):
        for kind in ("median", "mul", "mur"):
            assert abs(sum_erfi(model, x, kind, tol=tol).value - mdl.a0) <= tol, (x, kind)


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_closed_route_sums_delta_at_most_once(monkeypatch, model):
    """The closed base sums the lateral value on the side of Im x, so that
    lateral and the median on the real axis make no Gaussian sum, and every
    other kind exactly one, through dirichlet_delta."""
    calls = [0]
    inner = summation._gaussian_sum

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(summation, "_gaussian_sum", counted)
    cases = [(mp.mpc(2, "1.5"), "mul", 0), (mp.mpc(2, "-1.5"), "mur", 0),
             (mp.mpf(2), "median", 0),
             (mp.mpc(2, "1.5"), "median", 1), (mp.mpc(2, "-1.5"), "median", 1),
             (mp.mpc(2, "1.5"), "mur", 1), (mp.mpc(2, "-1.5"), "mul", 1),
             (mp.mpf(2), "mul", 1), (mp.mpf(2), "mur", 1)]
    for x, kind, want in cases:
        calls[0] = 0
        sum_erfi(model, x, kind, tol="1e-16")
        assert calls[0] == want, (x, kind)


def _mpf_guard(n_terms, stride, beta, s, slack):
    """modular._theta_guard in mpf."""
    size = 1 / (2 * beta) + 1 / mp.sqrt(2 * mp.e * beta) if s else mp.sqrt(mp.pi / beta) / 2
    return (int(2 * mp.log10(max(1, mp.mpf(n_terms) / stride))) + 3
            + max(0, int(mp.ceil(mp.log10(size) - slack))))


def _delta_case(mdl, re_x, tol):
    """(x, scale, beta, mpf target) of the lateral difference's Gaussian sum."""
    x = mp.mpc(re_x, "0.7")
    pref = mp.gamma(1 - mp.mpf(mdl.k) / 2) * mp.power(x, mp.mpf(mdl.k) / 2 - 1)
    scale = abs(pref) * mdl.coeff_bound
    return x, scale, mp.mpf(mdl.nu_lower) * re_x, tol / (2 * scale)


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model", [trefoil_borel, poincare_borel])
def test_gaussian_terms_equal_the_mpf_loop(model, dps):
    """The float cutoff of the lateral difference (_gaussian_terms) picks
    the smallest count whose mpf bound gaussian_tail meets tol/2, and guard
    digits by the rule of modular._theta_guard in mpf, on Re x from 1e-5
    to 1e3 and tolerances from the roundoff floor to 1e-10; at the top of
    the range e^{-2 beta n} underflows a float.  At Re x = 1e-9 the mpf
    count passes the term budget and the cutoff raises ConvergenceError."""
    mdl = model()
    with mp.workdps(dps):
        assert math.exp(-2 * mdl.nu_lower * 1e3 * 8) == 0
        tols = (summation._roundoff_floor(), mp.mpf(10) ** (5 - dps), mp.mpf("1e-10"))
        for j in range(33):
            for tol in tols:
                x, scale, beta, target = _delta_case(mdl, mp.mpf(10) ** (-5 + mp.mpf(j) / 4), tol)
                n, guard = summation._gaussian_terms(mdl, x, scale, tol)
                assert specfun.gaussian_tail(n, beta, mdl.power) <= target, (x, tol)
                assert n == 1 or specfun.gaussian_tail(n - 1, beta, mdl.power) > target, (x, tol)
                slack = mp.log10(tol / scale) - 3 + dps
                assert guard == _mpf_guard(n, mdl.period, beta, mdl.power, slack), (x, tol)
        x, scale, beta, target = _delta_case(mdl, mp.mpf("1e-9"), tols[0])
        assert specfun.gaussian_tail(summation.TERM_BUDGET, beta, mdl.power) > target
        with pytest.raises(ConvergenceError):
            summation._gaussian_terms(mdl, x, scale, tols[0])


@pytest.mark.parametrize("re_part", ["1e-320", "1e-330"])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_dirichlet_delta_with_beta_below_the_float_range(model, re_part):
    """Re x so small that beta is subnormal or 0 as a float: the cutoff
    raises ConvergenceError, as past the term budget, and does not divide
    by zero."""
    with pytest.raises(ConvergenceError):
        dirichlet_delta(model, mp.mpc(re_part, 1), tol="1e-10")


def test_laterals_differ_by_twice_delta():
    x = mp.mpf(2)
    mur = sum_erfi("trefoil", x, kind="mur", tol="1e-14").value
    mul = sum_erfi("trefoil", x, kind="mul", tol="1e-14").value
    med = sum_erfi("trefoil", x, kind="median", tol="1e-14").value
    delta = dirichlet_delta("trefoil", x)
    assert abs(mur - mul - 2 * delta) < mp.mpf("5e-13")
    assert abs((mur + mul) / 2 - med) < mp.mpf("1e-22")


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_closed_route_kinds_share_one_lateral_and_one_delta(model, dps):
    """Every kind of the closed route is one lateral base L plus a multiple
    of one delta, so the kinds agree with each other far inside tol, on and
    off the real axis."""
    tol = mp.mpf("1e-10")
    with mp.workdps(dps):
        for x in (2, mp.mpc(2, "1.5"), mp.mpc("0.7", "-0.4"), mp.mpc(5, 3), mp.mpc("0.3", 2)):
            mur, mul, med = (sum_erfi(model, x, kind, tol=tol).value
                             for kind in ("mur", "mul", "median"))
            assert abs((mur + mul) / 2 - med) <= tol / 1000, x


def test_delta_is_imaginary_on_the_real_axis():
    d = dirichlet_delta("trefoil", 2)
    assert abs(mp.re(d)) < mp.mpf("1e-24")
    assert abs(mp.im(d) - mp.mpf("0.8298760358")) < mp.mpf("1e-9")


def test_closed_route_rejects_left_half_plane():
    with pytest.raises(DomainError):
        sum_erfi("trefoil", -1)
    with pytest.raises(DomainError):
        sum_erfi("trefoil", mp.mpc(0, 2))


@pytest.mark.parametrize("call", [
    lambda: sum_erfi("trefoil", mp.mpc(2, "nan")),
    lambda: sum_median("trefoil", mp.mpc("nan", 1)),
    lambda: sum_erfi("poincare", mp.mpc("inf", 1), kind="mul"),
    lambda: dirichlet_delta("trefoil", 2, tol="nan"),
    lambda: dirichlet_delta("trefoil", mp.mpc(2, "inf")),
    lambda: sum_eta_integral(mp.inf),
    lambda: sum_eta_integral(mp.nan),
    lambda: sum_eta_integral(mp.mpc(2, "inf")),
    lambda: radial_limit(mp.inf),
    lambda: averaged_value("trefoil", "median", mp.nan),
    lambda: trefoil_borel().eval(mp.nan),
], ids=["sum_erfi-x", "sum_median-x", "sum_erfi-inf-x", "delta-tol", "delta-x",
        "eta-integral-inf", "eta-integral-nan", "eta-integral-inf-im", "radial-alpha",
        "averaged-p", "eval-p"])
def test_non_finite_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("kind", ["mul", "mur", "median"])
def test_closed_value_builds_the_weights_once(kind):
    """A model's weights() runs once per working precision, however many
    closed-route calls use it."""
    mdl = poincare_borel()
    precs = []

    def counted():
        precs.append(mp.prec)
        return mdl.weights()

    model = SqrtBranched(mdl.label, mdl.k, mdl.a0, mdl.nu, mdl.power, counted, mdl.period)
    first = sum_erfi(model, mp.mpc(2, "1.5"), kind, tol="1e-16").value
    built = len(precs)
    for _ in range(3):
        assert sum_erfi(model, mp.mpc(2, "1.5"), kind, tol="1e-16").value == first
    assert len(precs) == built
    assert len(set(precs)) == len(precs)


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
    """At 0.4+2i the mur sector is only 0.197 rad wide; its bisector keeps
    the ray 0.2 from x and cos(theta) at 0.099.  sum_eta_integral takes the
    wide mul side and the Stokes jump there; the direct mur ray, which
    cross_routes takes, agrees too."""
    x = mp.mpc("0.4", 2)
    want = sum_erfi("trefoil", x, "mur", tol="1e-12").value
    mur = sum_eta_integral(x, side="mur", tol="1e-10")
    assert abs(mur.value - want) < mp.mpf("1e-8")
    direct = summation._eta_integral_value(x, AverageKind.MUR, mp.mpf("1e-10"))
    assert abs(direct - want) < mp.mpf("1e-8")


@pytest.mark.parametrize("side", ["mul", "median"])
def test_eta_integral_by_the_stokes_jump_near_the_axis(side):
    """At x = 2 e^{i(-pi/2 + 2e-3)} the mul sector is 2e-3 rad wide and its
    bisector passes about 2e-3 from x, where the direct ray took minutes.
    sum_eta_integral takes the mur ray and the jump mul = mur - 2 delta
    (median = mur - delta) instead: within tol of the closed route at
    dps + 30, within 3 s, at 15 digits."""
    with mp.workdps(15):
        x = 2 * mp.expj(-mp.pi / 2 + mp.mpf("2e-3"))
        start = time.perf_counter()
        res = sum_eta_integral(x, side, tol="1e-9")
        elapsed = time.perf_counter() - start
    with mp.workdps(45):
        want = sum_erfi("trefoil", res.x, side, tol="1e-20").value
    assert abs(res.value - want) <= res.err_estimate
    assert elapsed < 3


def test_eta_integral_without_room_raises():
    with pytest.raises(RayGeometryError):
        sum_eta_integral(1j, side="mur")


@pytest.mark.parametrize("side", ["mul", "mur"])
@pytest.mark.parametrize("arg", ["-1.3", "-0.9", "0", "0.9", "1.3"])
def test_eta_integral_on_the_bisector_matches_the_closed_route(arg, side):
    """Every ray in the sector gives the same lateral value, so the bisector
    ray of either side, which cross_routes integrates, must agree with the
    erfi series across the whole half plane; so must sum_eta_integral, the
    wide side's ray plus the Stokes jump where side is the narrow one."""
    x = 2 * mp.expj(mp.mpf(arg))
    want = sum_erfi("trefoil", x, side, tol="1e-16").value
    direct = summation._eta_integral_value(x, AverageKind(side), mp.mpf("1e-14"))
    assert abs(direct - want) < mp.mpf("1e-12")
    got = sum_eta_integral(x, side=side, tol="1e-14").value
    assert abs(got - want) < mp.mpf("1e-12")


@pytest.mark.parametrize("side", ["mul", "mur", "median"])
@pytest.mark.parametrize("x", ["2+1.5j", "0.7"])
@pytest.mark.parametrize("dps", [15, 25, 50])
def test_eta_integral_error_estimate_covers_the_error(dps, x, side):
    """sum_eta_integral claims tol = 10^(5-dps) as its error (err_estimate);
    against the closed route at dps + 30 and tol 10^(-5-dps) the claim
    holds at 15, 25 and 50 digits on both lateral sides and for the median,
    each the wide side's ray plus its share of the Stokes jump."""
    with mp.workdps(dps):
        tol = mp.mpf(10) ** (5 - dps)
        res = sum_eta_integral(mp.mpmathify(x), side=side, tol=tol)
    with mp.workdps(dps + 30):
        reference = sum_erfi("trefoil", res.x, side, tol=tol * mp.mpf(10) ** -10).value
        assert abs(res.value - reference) <= res.err_estimate, (dps, x, side)


@functools.cache
def _closed_reference(dps, x, side):
    """The closed route at x to 10^-(dps+5), at dps + 30 digits."""
    with mp.workdps(dps + 30):
        return sum_erfi("trefoil", mp.mpmathify(x), side, tol=mp.mpf(10) ** -(dps + 5)).value


@pytest.mark.parametrize("side", ["mul", "mur", "median"])
@pytest.mark.parametrize("x", ["2+1.5j", "0.7", "0.3+2j", "5-4j"])
@pytest.mark.parametrize("dps", [15, 25, 50])
def test_eta_integral_error_estimate_covers_the_error_at_loose_tolerances(dps, x, side):
    """The ray's length, theta cutoffs and working bits follow tol, not the
    working precision, so the claim must hold at loose tolerances too:
    within err_estimate of the closed route at dps + 30, from tol 1e-3 to
    1e-10, at 15, 25 and 50 digits, on both laterals and the median."""
    reference = _closed_reference(dps, x, side)
    for tol in ("1e-3", "1e-6", "1e-8", "1e-10"):
        with mp.workdps(dps):
            res = sum_eta_integral(mp.mpmathify(x), side=side, tol=tol)
        with mp.workdps(dps + 30):
            assert abs(res.value - reference) <= res.err_estimate, tol


def test_eta_integral_at_a_tolerance_above_the_ray_tail():
    """At tol 0.5 the tail bound is met before t = 2; the ray is clamped at
    rho = 2, since ray_integrate needs t_min < t_max."""
    res = sum_eta_integral(mp.mpc(2, "1.5"), tol="0.5")
    assert abs(res.value - sum_erfi("trefoil", res.x, "mul").value) <= res.err_estimate


def test_eta_integral_ray_too_close_to_x_raises():
    """A mur sector 1e-6 rad wide leaves the ray 1e-6 from x, below sqrt(tol);
    left of the imaginary axis the mul sector would cross Re z = 0."""
    x = 2 * mp.expj(mp.pi / 2 - mp.mpf("1e-6"))
    with pytest.raises(RayGeometryError):
        sum_eta_integral(x, side="mur", tol="1e-10")
    with pytest.raises(RayGeometryError):
        sum_eta_integral(mp.mpc(-1, 1), side="mul")


@pytest.mark.parametrize("run,budget", [
    pytest.param(lambda: sum_eta_integral(mp.mpc(2, "1.5"), "mul", tol="1e-16"), 348,
                 id="eta-integral-mul"),
    pytest.param(lambda: zagier_g(1, tol="1e-16"), 330, id="zagier-g-1"),
    pytest.param(lambda: cross_routes("poincare", mp.mpc(2, "1.5"), "2.5e-10"), 440,
                 id="poincare-cross-routes"),
    pytest.param(lambda: cross_routes("trefoil", mp.mpc(2, "1.5"), "2.5e-10"), 594,
                 id="trefoil-cross-routes"),
])
def test_quadrature_evaluation_budgets(monkeypatch, run, budget):
    """Integrand evaluations, summed over every quadrature panel at 25
    digits, stay within budget: the bisector ray, the single finite-part
    pass on [0, 1] and the order ladder each take a share of the cut."""
    assert _evaluations(monkeypatch, run) <= budget


def _evaluations(monkeypatch, run) -> int:
    """Integrand evaluations of run(), summed over every quadrature panel."""
    total = [0]
    inner = specfun.integrate_segment

    def counted(f, a, b, order=24):
        total[0] += order
        return inner(f, a, b, order)

    monkeypatch.setattr(specfun, "integrate_segment", counted)
    run()
    return total[0]


@pytest.mark.parametrize("run,evaluations", [
    pytest.param(lambda: sum_eta_integral(mp.mpc(2, "1.5"), "mul", tol="2.5e-10"), 140,
                 id="eta-integral-mul"),
    pytest.param(lambda: sum_eta_integral(mp.mpc(2, "1.5"), "mur", tol="2.5e-10"), 140,
                 id="eta-integral-mur"),
    pytest.param(lambda: sum_eta_integral(mp.mpc(2, "1.5"), "median", tol="2.5e-10"), 140,
                 id="eta-integral-median"),
    pytest.param(lambda: zagier_g(1, tol="1e-16"), 279, id="zagier-g-1"),
    pytest.param(lambda: cross_routes("poincare", mp.mpc(2, "1.5"), "2.5e-10"), 440,
                 id="poincare-cross-routes"),
])
def test_quadrature_evaluation_counts_are_pinned(monkeypatch, run, evaluations):
    """The exact integrand evaluations of the reference calls at 25
    digits, so that any change in the panels or the order ladder shows."""
    assert _evaluations(monkeypatch, run) == evaluations


@pytest.mark.parametrize("run", [
    pytest.param(lambda: sum_eta_integral(mp.mpc(2, "1.5"), "mul", tol="1e-16"),
                 id="sum-eta-integral"),
    pytest.param(lambda: zagier_g(1, tol="1e-12", route="direct"), id="g-direct"),
])
def test_folded_rays_take_one_theta_sum_per_node(monkeypatch, run):
    """Each integrand evaluation of a folded eta ray serves a node and its
    mirror with one theta sum, taken at |tau| = t >= 1, so eta never
    inverts."""
    sums, nodes = [0], []
    theta_sum, segment = modular._theta_sum, specfun.integrate_segment

    def counted_theta(*args):
        sums[0] += 1
        return theta_sum(*args)

    def recorded_segment(f, a, b, order=24):
        return segment(specfun.FixedKernel(lambda t: nodes.append((t, f.wp)) or f.f(t), f.wp),
                       a, b, order)

    monkeypatch.setattr(modular, "_theta_sum", counted_theta)
    monkeypatch.setattr(specfun, "integrate_segment", recorded_segment)
    run()
    assert sums[0] == len(nodes) > 0
    assert all(t >= 1 << wp for t, wp in nodes)


def test_cross_routes_trefoil_keys_and_gaps():
    routes = cross_routes("trefoil", 2, tol="1e-10")
    assert set(routes) == {
        "erfi-series",
        "theta-series",
        "eta-integral-average",
        "eta-integral-mul-plus-delta",
    }
    ref = routes["erfi-series"]
    for v in routes.values():
        assert abs(v - ref) < mp.mpf("1e-9")


def test_cross_routes_poincare_keys_and_gaps():
    routes = cross_routes("poincare", 3, tol="1e-10")
    assert set(routes) == {"erfi-series", "theta-series", "finite-part-quadrature"}
    gap = abs(routes["erfi-series"] - routes["finite-part-quadrature"])
    assert gap < mp.mpf("1e-12")


def test_cross_routes_of_a_custom_five_half_model():
    """A model of k = 5 other than the trefoil's own is checked by
    finite-part quadrature, as a Poincare-like model is: the eta integral
    sums the trefoil's theta series, whatever the model's weights."""
    mdl = _scaled(trefoil_borel(), 2)
    routes = cross_routes(mdl, 2, tol="1e-10")
    assert set(routes) == {"erfi-series", "finite-part-quadrature"}
    assert route_gap(routes) < mp.mpf("1e-10")
    assert sum_median(mdl, 2, cross_check=True).err_estimate < mp.mpf("1e-8")


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
        "erfi-series", "theta-series", "eta-integral-average", "eta-integral-mul-plus-delta",
    }
    assert res.err_estimate == max(route_gap(res.routes), mp.mpf("1e-14"))
    assert sum_median("trefoil", x).routes is None


@pytest.mark.parametrize("cross_check", [
    pytest.param(True, id="cross-check"),
    pytest.param(False, id="cross-tol-alone"),
])
def test_sum_median_raises_when_routes_disagree(monkeypatch, cross_check):
    """A given cross_tol runs the cross-check and holds the routes to it,
    with or without cross_check."""
    monkeypatch.setattr(
        summation, "cross_routes",
        lambda model, x, tol="1e-10": {"erfi-series": mp.mpf(0), "other": mp.mpf(1)},
    )
    with pytest.raises(ToleranceError):
        sum_median("trefoil", 2, cross_check=cross_check, cross_tol="1e-6")


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
    with pytest.raises(DomainError, match="p must be real"):
        averaged_value("trefoil", "median", 1 + 1j)


def test_averaged_value_budget_names_the_model():
    """At |p| = 2e10 the tail bound needs far more than TERM_BUDGET terms,
    as eval finds; averaged_value shares its count and its check."""
    with pytest.raises(ConvergenceError, match="trefoil"):
        averaged_value("trefoil", "median", 2e10)


TOL_GATES = {
    "sum_erfi": lambda tol: sum_erfi("trefoil", 2, tol=tol),
    "sum_median": lambda tol: sum_median("trefoil", 2, tol=tol),
    "sum_theta": lambda tol: sum_theta("poincare", 2, tol=tol),
    "sum_median.cross_tol": lambda tol: sum_median("trefoil", 2, cross_check=True,
                                                   cross_tol=tol),
    "sum_eta_integral": lambda tol: sum_eta_integral(mp.mpc(2, 1.5), tol=tol),
    "cross_routes": lambda tol: cross_routes("trefoil", 2, tol=tol),
    "dirichlet_delta": lambda tol: dirichlet_delta("trefoil", mp.mpc(2, 1), tol=tol),
    "averaged_value": lambda tol: averaged_value("trefoil", "median", 1, tol=tol),
    "radial_limit": lambda tol: radial_limit(1, tol=tol),
    "median_laplace_unit": lambda tol: median_laplace_unit(3, mp.mpc(2, 1.5), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0, -1], ids=str)
@pytest.mark.parametrize("entry", sorted(TOL_GATES))
def test_entry_points_refuse_a_tolerance_that_certifies_nothing(entry, tol):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="tolerance"):
        TOL_GATES[entry](tol)
    assert time.perf_counter() - start < 0.1


def test_laplace_unit_quadrature_matches_closed_form():
    for y in (mp.mpf("4.2"), 4.2 * mp.expj(0.9), 4.2 * mp.expj(-0.9),
              mp.mpf("0.3"), mp.mpf(30)):
        for k, tol, bound in ((3, "1e-11", "1e-10"), (5, "1e-9", "1e-8")):
            quad = median_laplace_unit(k, y, tol=tol)
            closed = median_laplace_unit_closed(k, y)
            assert abs(quad - closed) < mp.mpf(bound), (y, k)


_LAPLACE_GRID = (("0.3", "0.2"), (2, "1.5"), (16, -10), (60, 40), ("0.01", 3), (130, -5),
                 ("1e-3", "1e-3"), (400, 300))


def _laplace_grid_meets(tol):
    """Both weights meet tol over the calibration grid, from y near 0 to
    |y| = 500, against the closed form at dps + 30."""
    for re_y, im_y in _LAPLACE_GRID:
        y = mp.mpc(re_y, im_y)
        for k in (3, 5):
            quad = median_laplace_unit(k, y, tol=tol)
            with mp.extradps(30):
                closed = median_laplace_unit_closed(k, y)
            assert abs(quad - closed) <= tol, (y, k)


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_laplace_unit_quadrature_is_calibrated_near_roundoff(dps):
    """Both weights meet tol = 10^(5 - dps) at every working precision,
    from y near 0 to |y| = 500, against the closed form at dps + 30."""
    with mp.workdps(dps):
        _laplace_grid_meets(mp.mpf(10) ** (5 - dps))


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_laplace_unit_quadrature_meets_its_floor(dps):
    """The same grid at the smallest tolerance the route accepts, 10^(2 - dps)."""
    with mp.workdps(dps):
        _laplace_grid_meets(mp.mpf(10) ** (2 - dps))


@pytest.mark.parametrize("k,y", [(3, mp.mpc(2, "1.5")), (5, mp.mpc(60, 40))])
def test_laplace_unit_refuses_a_tolerance_below_its_floor(k, y):
    """At 25 digits tol = 1e-40 is far below 10^(2 - dps): ToleranceError,
    naming the tolerance, before any quadrature."""
    start = time.perf_counter()
    with pytest.raises(ToleranceError, match="tolerance 1.0e-40"):
        median_laplace_unit(k, y, tol="1e-40")
    assert time.perf_counter() - start < 0.1


def test_laplace_unit_refuses_a_tolerance_below_the_rounding_of_its_value():
    """At y = 1e-3 + 400i the k = 5 transform is 1.9e4 in size, so at 25
    digits its rounding, about 5e-22, is above the floor 1e-23; at
    y = -10 - 3i (size 2.5e5) so is the k = 3 one.  Both raise
    ToleranceError at the floor, and meet a tol above their rounding."""
    for k, y in ((5, mp.mpc("1e-3", 400)), (3, mp.mpc(-10, -3))):
        with pytest.raises(ToleranceError, match="rounding"):
            median_laplace_unit(k, y, tol="1e-23")
        with mp.extradps(30):
            closed = median_laplace_unit_closed(k, y)
        assert abs(median_laplace_unit(k, y, tol="1e-19") - closed) <= mp.mpf("1e-19")


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
    """The rung tolerance, amplified by the ladder's gain, counts: at 15, 25
    and 50 digits, at the default tol and at 10^(5 - dps), against phi at
    dps + 30."""
    for dps in (15, 25, 50):
        for tol in sorted({"1e-10", f"1e{5 - dps}"}):
            with mp.workdps(dps):
                res = radial_limit(alpha, tol=tol)
            with mp.workdps(dps + 30):
                gap = checks.phi_gap(alpha, res.value)
            assert res.err_estimate >= gap, (alpha, dps, tol)


def test_radial_limit_half():
    res = radial_limit(Fraction(1, 2))
    target = 3 * mp.expjpi(mp.mpf(1) / 24)
    assert abs(res.value - target) < mp.mpf("1e-8")


@pytest.mark.parametrize("alpha", [Fraction(1, 5), Fraction(2, 5), Fraction(1, 3),
                                   Fraction(3, 4)])
def test_poincare_radial_limit_err_estimate_covers_the_error(alpha):
    """The Poincare twin of test_radial_limit_err_estimate_covers_the_error:
    at 15, 25 and 50 digits, at the default tol and at 10^(5 - dps), against
    the finite boundary sum of the median's theta series at dps + 30."""
    for dps in (15, 25, 50):
        for tol in sorted({"1e-10", f"1e{5 - dps}"}):
            with mp.workdps(dps):
                res = radial_limit(alpha, tol=tol, model="poincare")
            assert (res.model, res.route) == ("poincare", "radial")
            with mp.workdps(dps + 30):
                gap = abs(res.value - median_boundary_sum(alpha, "poincare"))
            assert res.err_estimate >= gap, (alpha, dps, tol)


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_lateral_base_meets_its_tolerance_on_the_imaginary_axis(model, dps):
    """L at x = i y, arg x = +-pi/2, the edge of the sector of _peel_order's
    bound: within tol of the boundary value (phi for the trefoil, the theta
    series' finite sum for the Poincare sphere) less sgn(y) delta*, both at
    dps + 30, on both half axes, at 1e-10 and 10^(5 - dps)."""
    mdl = summation._resolve_model(model)
    for alpha in (Fraction(1), Fraction(-1, 3), Fraction(3, 4), Fraction(-5, 7)):
        for tol in {mp.mpf("1e-10"), mp.mpf(10) ** (5 - dps)}:
            with mp.workdps(dps):
                y = alpha.denominator / (2 * mp.pi * alpha.numerator)
                got = summation._lateral(mdl, mp.mpc(0, y), tol)
            with mp.workdps(dps + 30):
                y = alpha.denominator / (2 * mp.pi * alpha.numerator)
                boundary = (invariants.phi(alpha) if model == "trefoil"
                            else median_boundary_sum(alpha, model))
                want = boundary - mp.sign(y) * summation._delta_boundary(mdl, alpha, mp.mpc(0, y))
                assert abs(got - want) <= tol, (alpha, tol)


def test_median_boundary_sum_is_phi_for_the_trefoil():
    """Zagier's strange identity on all 718 angles a/d with d <= 24 and
    0 < |a| < 2d: the theta series of the trefoil median at the root of
    unity, a cyclotomic L-value, against the q-factorial sum phi, which
    shares no code with it."""
    worst = mp.mpf(0)
    for d in range(1, 25):
        for a in range(1 - 2 * d, 2 * d):
            if a and math.gcd(a, d) == 1:
                alpha = Fraction(a, d)
                worst = max(worst, abs(median_boundary_sum(alpha) - invariants.phi(alpha)))
    assert worst < mp.mpf("1e-20")


def test_boundary_values_know_two_models():
    """delta* and the boundary sum need the model's theta series: a model
    built by hand has none, and alpha = 0 is no boundary point."""
    scaled = _scaled(trefoil_borel(), 2)
    with pytest.raises(ValueError, match="trefoil and poincare"):
        radial_limit(1, model=scaled)
    with pytest.raises(ValueError, match="trefoil and poincare"):
        median_boundary_sum(1, scaled)
    with pytest.raises(DomainError, match="nonzero"):
        median_boundary_sum(0, "poincare")
    with pytest.raises(DomainError, match="nonzero"):
        radial_limit(0, model="poincare")


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("model,x", [("trefoil", mp.mpc(2, "1.5")), ("poincare", "0.7"),
                                     ("trefoil", mp.mpc("1e-3", -3)),
                                     ("poincare", mp.mpc("1e-6", "0.16")),
                                     ("trefoil", mp.mpc(6, -45))], ids=str)
def test_dirichlet_delta_has_a_roundoff_floor(model, x, dps):
    """delta is rounded relative to its own size, so a tol below 64 eps
    times the larger of its first-term bound and |delta| raises
    ToleranceError; at 25 digits tol 1e-30 and 1e-40 returned values
    1.4e-26 (trefoil, 2+1.5i) and 2.6e-28 (Poincare, 0.7) off, with no
    refusal.  At that floor delta is within tol of its value at dps + 30."""
    mdl = summation._resolve_model(model)
    with mp.workdps(dps):
        xz = mp.mpc(x)
        first = (abs(summation._delta_prefactor(mdl, xz)) * mdl.coeff_bound
                 * mp.exp(-mdl.nu_lower * mp.re(xz)))
        with pytest.raises(ToleranceError, match="floor"):
            dirichlet_delta(model, xz, tol=mp.mpf(10) ** (-dps - 15))
        size = max(first, abs(dirichlet_delta(model, xz, tol=mp.mpf(10) ** (5 - dps))))
        floor = summation._delta_floor() * size
        with pytest.raises(ToleranceError, match="floor"):
            dirichlet_delta(model, xz, tol=floor / 2)
        got = dirichlet_delta(model, xz, tol=floor * (1 + mp.mpf("1e-6")))
    with mp.workdps(dps + 30):
        want = summation._delta(mdl, xz, floor * mp.mpf("1e-10"))
        assert abs(got - want) <= floor, (model, x)


NEAR_AXIS_IM = ["0.16", "-0.16", "0.21", "-0.21", "3"]


@pytest.mark.parametrize("re_part", ["1e-6", "1e-4", "1e-2"])
@pytest.mark.parametrize("model", ["trefoil", "poincare"])
def test_closed_route_near_the_imaginary_axis(model, re_part):
    """Median and laterals where the Stokes sum runs to thousands of terms
    and the algebraic sum stops far sooner, against the same values at
    dps + 30 (laterals as median -+ delta there), within tol."""
    tol = mp.mpf("1e-14")
    for im_part in NEAR_AXIS_IM:
        x = mp.mpc(re_part, im_part)
        got = {kind: sum_erfi(model, x, kind, tol=tol).value
               for kind in ("median", "mul", "mur")}
        with mp.workdps(mp.dps + 30):
            median = sum_erfi(model, x, tol="1e-24").value
            delta = dirichlet_delta(model, x, tol="1e-24")
        want = {"median": median, "mul": median - delta, "mur": median + delta}
        for kind in got:
            assert abs(got[kind] - want[kind]) <= tol, (model, x, kind)


@pytest.mark.parametrize("model", ["trefoil", "poincare"])
@pytest.mark.parametrize("im_part", ["0.16", "-3"])
def test_dirichlet_delta_far_down_the_gaussian(model, im_part):
    """At Re x = 1e-6 the Gaussian sum takes thousands of recurrence steps
    per residue; against one exp per term at dps + 20."""
    mdl = summation._resolve_model(model)
    x = mp.mpc("1e-6", im_part)
    tol = mp.mpf("1e-16")
    got = dirichlet_delta(model, x, tol=tol)
    with mp.workdps(mp.dps + 20):
        nu = mdl.eta(1)
        n_max = int(mp.sqrt(mp.dps * mp.log(10) / (nu * mp.re(x)))) + 1
        k = mdl.k
        pref = mp.j**k * mp.gamma(1 - mp.mpf(k) / 2) * mp.power(x, mp.mpf(k) / 2 - 1)
        want = pref * mp.fsum(c * mp.exp(-nu * n * n * x)
                              for n in range(1, n_max + 1) if (c := mdl.coeff(n)))
    assert abs(got - want) <= tol, (model, x)


def test_radial_limit_work_budget(monkeypatch):
    """radial_limit sums the closed route's algebraic parts once, at the
    boundary point, as far as their own bound asks (N_alg = 20 here, 7 of
    them with a nonzero weight), and adds delta's boundary value, a finite
    cyclotomic sum: radial_limit(3/4) makes 7 kernel calls and 3 exp calls.
    It made 5,831 and 6,065 when each term paid a whole kernel, and these
    bounds were 250 and 800 while it ran a nine-rung ladder."""
    calls = {"kernel": 0, "exp": 0}
    kernel, exp = summation._algebraic, mp.exp

    def counted_kernel(z, k0, digits):
        calls["kernel"] += 1
        return kernel(z, k0, digits)

    def counted_exp(x):
        calls["exp"] += 1
        return exp(x)

    monkeypatch.setattr(summation, "_algebraic", counted_kernel)
    monkeypatch.setattr(mp, "exp", counted_exp)
    radial_limit(Fraction(3, 4))
    assert calls["kernel"] <= 12
    assert calls["exp"] <= 10


def test_radial_limit_validation():
    with pytest.raises(DomainError):
        radial_limit(0)


def test_radial_limits_take_rational_angles_only(monkeypatch):
    """A float or mpf angle raises DomainError naming alpha before any work,
    by the rule of invariants.RationalAngle: its binary fraction would size
    the ladder for denominator 1, and radial_limit(0.3) returned a value
    8e-3 off the one at Fraction(3, 10).  A Fraction and an "a/b" string
    agree.  eta_tilde_radial's work is its residue-class sweep and the
    real kernel that it steps; eta_tilde stays patched, so that a return to
    the generic route is caught too."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the angle was checked")

    with monkeypatch.context() as patch:
        patch.setattr(summation, "_closed_value", no_work)
        patch.setattr(summation, "_lateral", no_work)
        patch.setattr(summation, "l_value_cyclotomic", no_work)
        patch.setattr(modular, "eta_tilde", no_work)
        patch.setattr(modular, "_boundary_ladder", no_work)
        patch.setattr(modular, "_fixed_gauss_ladder", no_work)
        with pytest.raises(DomainError, match="alpha"):
            radial_limit(0.3)
        with pytest.raises(DomainError, match="alpha"):
            radial_limit(0.3, model="poincare")
        with pytest.raises(DomainError, match="alpha"):
            median_boundary_sum(0.3)
        with pytest.raises(DomainError, match="alpha"):
            modular.eta_tilde_radial(mp.mpf(1) / 3)
    assert radial_limit(Fraction(3, 10)).value == radial_limit("3/10").value
    assert modular.eta_tilde_radial(Fraction(1, 3)) == modular.eta_tilde_radial("1/3")


@pytest.mark.parametrize("alpha", ["1/0", "abc"])
@pytest.mark.parametrize("entry", [invariants.phi, invariants.f_at_root_of_unity,
                                   radial_limit, modular.eta_tilde_radial])
def test_angle_strings_that_are_no_rational_raise_domain_error(entry, alpha):
    """A string that is no rational raises DomainError naming alpha, where "1/0"
    raised ZeroDivisionError and "abc" a bare ValueError."""
    with pytest.raises(DomainError, match="alpha"):
        entry(alpha)
