"""Named identity checks shared by ``borelsum verify`` and the test suite.

Each residual function evaluates one identity at the points it is given and
returns its worst residual (exact checks return whether the identity holds),
so the command line and the tests measure an identity the same way and
differ only in points and bounds.  ``run_suite`` assembles the three verify
suites from them, at fixed points and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp

from .borel import periodic_power_sum, poincare_appendix_direct, poincare_borel, trefoil_borel
from .characters import chi12, chi60, l_series_partial, l_value_exact
from .invariants import phi, poincare_coeffs, trefoil_coeffs
from .modular import eta_tilde, eta_tilde_radial, rational_parts, zagier_g, zagier_g_taylor
from .series import borel_transform
from .summation import (
    _roundoff_floor,
    cross_routes,
    dirichlet_delta,
    median_boundary_sum,
    radial_limit,
    route_gap,
    sum_erfi,
)
from .transseries import NORMALIZATION, closed_bn, exact_bn, extract_ckl, normalized_residual

__all__ = ["Check", "SUITES", "run_suite"]

# f_n = a_n / 24^n and the Borel-plane Taylor values b_n, as printed
TREFOIL_SCALED = (
    Fraction(1),
    Fraction(23, 24),
    Fraction(1681, 1152),
    Fraction(257543, 82944),
    Fraction(67637281, 7962624),
)
TREFOIL_TAYLOR = (
    Fraction(23, 24),
    Fraction(1681, 1152),
    Fraction(257543, 165888),
    Fraction(67637281, 47775744),
)
APPENDIX_FACTOR = -900


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def printed_coefficients_match() -> bool:
    table = trefoil_coeffs(len(TREFOIL_SCALED) - 1)
    return all(table.scaled(n) == f for n, f in enumerate(TREFOIL_SCALED))


def borel_first_values_match(bn, count: int) -> bool:
    """bn(n) equals the printed b_n for n < count."""
    return all(bn(n) == TREFOIL_TAYLOR[n] for n in range(count))


def coefficient_routes_agree(n: int) -> bool:
    """Both models' tables to order n agree between their two routes."""
    return all(coeffs(n).a == coeffs(n, route="bernoulli-closed-form").a
               for coeffs in (trefoil_coeffs, poincare_coeffs))


def borel_routes_agree(n_max: int) -> bool:
    return all(exact_bn(n) == closed_bn(n) for n in range(n_max + 1))


def formal_borel_agrees() -> bool:
    formal = borel_transform(trefoil_coeffs(12).f_series())
    return formal.coeffs[10] == exact_bn(10)


def poincare_first_coefficients_match() -> bool:
    a = poincare_coeffs(1).a
    return a[0] == 1 and a[1] == 119


def _chi12_l_value(j: int):
    # L(2j+2) for the period-12 sign table, exact up to the working precision
    r, s = l_value_exact(j)
    return mp.mpf(r.numerator) / r.denominator * mp.pi**s / mp.sqrt(3)


def l_value_fill(terms, dps: int, js=range(26)):
    """Worst |partial sum - L(2j+2)| / certified tail over j in js and each
    truncation in terms, summed at dps digits; at most 1 when every
    certified tail holds."""
    chi = chi12()
    worst = mp.mpf(0)
    with mp.workdps(dps):
        for j in js:
            exact_val = _chi12_l_value(j)
            for n in terms:
                partial, tail = l_series_partial(chi, 2 * j + 2, n)
                worst = max(worst, abs(partial - exact_val) / tail)
    return +worst


def l_value_hurwitz_gap():
    """Worst relative gap, j < 26, between the Hurwitz-zeta sum the closed
    route restores, periodic_power_sum(trefoil, j + 3/2), and kappa nu^{-(j+3/2)} L(2j+2)."""
    mdl = trefoil_borel()
    kappa = 3 * mp.pi / (2 * mp.sqrt(2))
    nu = mp.pi**2 / 6
    worst = mp.mpf(0)
    for j in range(26):
        s = mp.mpf(2 * j + 3) / 2
        target = kappa * nu ** (-s) * _chi12_l_value(j)
        worst = max(worst, abs(periodic_power_sum(mdl, s) - target) / abs(target))
    return worst


def l2_closed_form_gap():
    """|L(2) by trigamma values - pi^2 / (6 sqrt 3)|."""
    trigamma = (
        mp.polygamma(1, mp.mpf(1) / 12)
        - mp.polygamma(1, mp.mpf(5) / 12)
        - mp.polygamma(1, mp.mpf(7) / 12)
        + mp.polygamma(1, mp.mpf(11) / 12)
    ) / 144
    return abs(trigamma - mp.pi**2 / (6 * mp.sqrt(3)))


def route_gap_at(model, points, tol):
    """Worst route_gap of cross_routes over the points."""
    return max(route_gap(cross_routes(model, x, tol=tol)) for x in points)


# per model: the sign table of its theta series (sum_theta), the transform
# that carries it to the Borel weights, and that transform's constant
THETA_WEIGHTS = {
    "trefoil": (chi12(), mp.cos, lambda: 3 * mp.pi / (4 * mp.sqrt(6))),
    "poincare": (chi60(2), mp.sin, lambda: -1 / mp.sqrt(480)),
}


def theta_weight_gap(model):
    """Worst |w_m - K sum_a C(a) T(2 pi m a/M)| over m = 1..M, w_m the Borel
    weights of the model as its appendix prints them, and C mod M, T and K
    its THETA_WEIGHTS: the weights are the finite Fourier transform of the
    theta series' sign table."""
    mdl = trefoil_borel() if model == "trefoil" else poincare_borel()
    chi, trig, constant = THETA_WEIGHTS[model]
    weights = mdl.table()[1]
    scale = constant()
    return max(abs(w - scale * mp.fsum(chi(a) * trig(2 * mp.pi * m * a / chi.modulus)
                                       for a in range(1, chi.modulus + 1)))
               for m, w in enumerate(weights, 1))


def delta_theta_gap(x, tol):
    """Lateral difference against the weighted theta series at x."""
    delta = dirichlet_delta("trefoil", x, tol=tol)
    theta_form = (mp.j * mp.sqrt(2) * (mp.pi * x) ** mp.mpf("1.5")
                  * eta_tilde(2 * mp.pi * mp.j * x))
    return abs(delta - theta_form)


def phi_gap(alpha, value, weight=1):
    """A boundary value at angle alpha against weight * phi(alpha); radial
    limits of eta_tilde have weight -2."""
    return abs(value - weight * phi(alpha))


def g_inversion_gap(alphas, tol, g=zagier_g):
    """Worst |g(a) - (i a)^{-3/2} g(-1/a)| over the alphas."""
    worst = mp.mpf(0)
    for alpha in alphas:
        a, _ = rational_parts(alpha)
        right = mp.power(mp.j * a, mp.mpf("-1.5")) * g(Fraction(-1) / alpha, tol=tol)
        worst = max(worst, abs(g(alpha, tol=tol) - right))
    return worst


def two_phi_gap(tol, g=zagier_g):
    """|phi(1) + i^{-3/2} phi(-1) - g(1)|."""
    two_phi = phi(1) + mp.power(mp.j, mp.mpf("-1.5")) * phi(-1)
    return abs(two_phi - g(Fraction(1), tol=tol))


def g_route_ratio(x, direct_tol, laplace_tol, g=zagier_g):
    """Direct-route g over Laplace-route g at x; x-independent in theory."""
    return g(x, tol=direct_tol, route="direct") / g(x, tol=laplace_tol)


def g_closed_gap(xs, tol, g=zagier_g):
    """Worst |g(x) by the closed route's lateral base - g(x) by the
    Laplace route| over the xs.  Equal in theory: the paper's eta-integral
    formula for L, Zagier's theorem on g and the delta-theta identity
    together say so, and this gap measures that chain."""
    return max(abs(g(x, tol=tol, route="closed") - g(x, tol=tol)) for x in xs)


def radial_gap(alpha, model, tol):
    """|radial_limit(alpha, tol, model) - median_boundary_sum(alpha, model)|."""
    limit = radial_limit(alpha, tol=tol, model=model).value
    return abs(limit - median_boundary_sum(alpha, model))


def g_route_constant():
    """The measured value of g_route_ratio, 2 pi / sqrt 3 e^{-i pi/4}."""
    return 2 * mp.pi / mp.sqrt(3) * mp.expjpi(mp.mpf(-1) / 4)


def g_jet_gaps(count: int):
    """(|c_n - t_n|, |t_n|) for n < count, with c_n the Taylor coefficients
    of g at 0 and t_n = (-pi i/12)^n a_n."""
    a = trefoil_coeffs(count).a
    targets = [(-mp.pi * mp.j / 12) ** n * _mpf(a[n]) for n in range(count)]
    return [(abs(c - t), abs(t)) for c, t in zip(_g_jet(count, mp.prec), targets)]


@lru_cache(maxsize=None)
def _g_jet(count: int, prec: int):
    """zagier_g_taylor(count), once per working precision prec (in bits)."""
    return tuple(zagier_g_taylor(count))


def reality_gap(model, points, tol):
    """Worst |Im median| over real points."""
    return max(abs(mp.im(sum_erfi(model, x, tol=tol).value)) for x in points)


def conjugation_gap(points, tol):
    """Worst |conj mul(x) - mur(conj x)| for the trefoil over the points."""
    worst = mp.mpf(0)
    for x in points:
        left = mp.conj(sum_erfi("trefoil", x, kind="mul", tol=tol).value)
        right = sum_erfi("trefoil", mp.conj(x), kind="mur", tol=tol).value
        worst = max(worst, abs(left - right))
    return worst


def asymptotic_ratio(x, orders, tol):
    """Worst |median(x) - sum_{n<N} f_n x^-n| / |f_N x^-N| over N in orders;
    at most 2 when each remainder is within twice the first omitted term."""
    table = trefoil_coeffs(max(orders))
    value = sum_erfi("trefoil", x, tol=tol).value
    worst = mp.mpf(0)
    for top in orders:
        partial = mp.fsum(_mpf(table.scaled(n)) / x**n for n in range(top))
        omitted = abs(_mpf(table.scaled(top))) / x**top
        worst = max(worst, abs(value - partial) / omitted)
    return worst


def appendix_factor_gap(p, terms: int):
    """(|r - APPENDIX_FACTOR| / 900, r) with r the Poincare transform over its
    literal appendix form, both summed to the same truncation at p."""
    mdl = poincare_borel()
    partial = mp.fsum(
        mdl.coeff(n) * mp.power(mdl.eta(n) - p, mp.mpf("-1.5"))
        for n in range(1, terms + 1)
    )
    ratio = partial / poincare_appendix_direct(p, terms=terms)
    return abs(ratio - APPENDIX_FACTOR) / abs(APPENDIX_FACTOR), ratio


def poincare_taylor_gaps(count: int):
    """|b_n - a_{n+1} / ((n+1)! n! 120^{n+1})| for n < count, b_n from the
    resummed Poincare transform."""
    table = poincare_coeffs(count)
    got = poincare_borel().taylor_coeffs(count)
    return [abs(got[n] - _mpf(table.scaled(n + 1) / factorial(n)))
            for n in range(count)]


def reconstruction_error(table, ns):
    """Worst relative error of the transseries table against exact b_n."""
    worst = mp.mpf(0)
    for n in ns:
        exact = _mpf(exact_bn(n))
        worst = max(worst, abs(table.reconstruct(n) - exact) / abs(exact))
    return worst


def omitted_term_ratios(table, ns):
    """Per n in ns, the reconstruction error over the first omitted k=1
    monomial c[1, l_max+1] b^n n^{p-l_max-1}; order 1 when the window is
    honest."""
    top = table.l_max + 1
    c_next = abs(extract_ckl(1, top).value(1, top))
    return [abs(table.reconstruct(n) - _mpf(exact_bn(n)))
            / (mp.power(table.base, n) * mp.power(n, table.power - top) * c_next)
            for n in ns]


def level_decay(table, n_lo: int, n_hi: int):
    """(L, fitted, expected) per truncation level L < l_max: the power of n in
    the k=1 residual b_n - reconstruct(n, l_cap=L, k_cap=1), with b^n divided
    out, fitted between n_lo and n_hi, next to the expected 3/2 - (L+1)."""
    out = []
    for level in range(table.l_max):
        lo, hi = (abs(_mpf(exact_bn(n)) - table.reconstruct(n, l_cap=level, k_cap=1))
                  * mp.power(table.base, -n) for n in (n_lo, n_hi))
        fitted = mp.log(hi / lo) / mp.log(mp.mpf(n_hi) / n_lo)
        out.append((level, fitted, table.power - (level + 1)))
    return out


def mean_residual_ratio(n0: int, count: int):
    """Mean ratio of successive k=1 residuals over n0..n0+count-1; 1/25 in
    theory."""
    residuals = [normalized_residual(m) for m in range(n0, n0 + count)]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    return sum(ratios) / len(ratios)


@dataclass(frozen=True)
class Check:
    """One named residual against its bound, a decimal string.  Exact
    checks carry the integers residual 0 (holds) or 1 and bound 0."""

    name: str
    residual: object
    bound: object
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= mp.mpf(self.bound))


def _exact(name: str, ok: bool, note: str = "") -> Check:
    return Check(name, 0 if ok else 1, 0, note)


def _exact_suite():
    yield _exact("trefoil-scaled-coefficients", printed_coefficients_match())
    yield _exact("borel-taylor-first-values", borel_first_values_match(exact_bn, 2))
    yield _exact("coefficient-route-agreement", coefficient_routes_agree(40))
    yield _exact("borel-route-agreement", borel_routes_agree(30),
                 "exact_bn and closed_bn multiply the same l_value_negative(chi12, 2n+3), "
                 "so this compares only their rational prefactors")
    yield _exact("formal-borel-cross", formal_borel_agrees())
    # the certified tail at s = 52 is ~1e-90, so the partials must be summed
    # well below that roundoff level for the ratio to test the bound itself
    yield Check("l-value-certified-partials", l_value_fill((60,), 120), "1")
    yield Check("l2-closed-form", l2_closed_form_gap(), "1e-12")


def _reachable(tol):
    """tol, or at low precision the routes' floor (summation._roundoff_floor)
    and a digit."""
    return max(mp.mpf(tol), 10 * _roundoff_floor())


def _identity_suite():
    # g(1) and g(1/2) enter three checks each; evaluate them once
    g = lru_cache(maxsize=None)(zagier_g)
    yield Check("delta-theta-identity", delta_theta_gap(mp.mpf(1), _reachable("1e-20")), "1e-12")
    for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        yield Check(f"strange-radial-{a.numerator}-{a.denominator}",
                    phi_gap(a, eta_tilde_radial(a)[0], -2), "1e-4")
    for a in (Fraction(1), Fraction(2), Fraction(1, 2)):
        yield Check(f"g-modularity-{a.numerator}-{a.denominator}",
                    g_inversion_gap([a], _reachable("1e-16"), g), "1e-6")
    yield Check("two-phi-identity", two_phi_gap(_reachable("1e-16"), g), "1e-4")
    # matched truncation: the n^-3 coefficient decay caps plain partial sums
    # near 1e-7, but the same cutoff on both sides cancels exactly in the ratio
    gap, ratio = appendix_factor_gap(mp.mpf("0.1"), 4000)
    yield Check("poincare-appendix-factor", gap, "1e-9",
                f"measured conversion factor {mp.nstr(ratio, 12)}")
    r_one = g_route_ratio(Fraction(1), _reachable("1e-14"), _reachable("1e-16"), g)
    r_half = g_route_ratio(Fraction(1, 2), _reachable("1e-14"), _reachable("1e-16"), g)
    reference = g_route_constant()
    yield Check("g-direct-route-constant", abs(r_one - r_half) / abs(r_one), "1e-6",
                f"measured ratio {mp.nstr(r_one, 12)}; "
                f"2*pi/sqrt(3)*exp(-i*pi/4) = {mp.nstr(reference, 12)}; "
                f"difference {mp.nstr(abs(r_one - reference), 3)}")
    yield Check("l-value-hurwitz-sums", l_value_hurwitz_gap(), f"1e{5 - mp.dps}",
                "relative, against kappa nu^-s L(2s-1)")
    yield Check("g-closed-route", g_closed_gap((Fraction(1), Fraction(1, 2)),
                                               _reachable("1e-16"), g), "1e-10",
                "closed lateral base L(i/(2 pi x)) against the Laplace route, x = 1, 1/2")


def _summation_suite():
    for model, x in (("trefoil", "2"), ("trefoil", "5+3i"), ("poincare", "3"),
                     ("poincare", "8+2i")):
        point = mp.mpc(complex(x.replace("i", "j")))
        yield Check(f"cross-route-{model}-{x}", route_gap_at(model, [point], "1e-10"), "1e-8")
    for model in THETA_WEIGHTS:
        yield Check(f"theta-weights-{model}", theta_weight_gap(model), f"1e{5 - mp.dps}",
                    "Borel weights against the transform of the theta sign table")
    closed_tol = _reachable("1e-14")
    yield Check("median-reality", reality_gap("trefoil", [mp.mpf("3.7")], closed_tol), "1e-10")
    yield Check("conjugation-symmetry", conjugation_gap([mp.mpc(2, "1.5")], "1e-12"), "1e-8")
    yield Check("asymptotic-truncation", asymptotic_ratio(mp.mpf(20), [4], closed_tol), "2",
                "remainder over the first omitted term")
    limit = radial_limit(Fraction(1), tol="1e-12").value
    yield Check("radial-limit-alpha-1", phi_gap(Fraction(1), limit), "1e-4")
    for model in ("trefoil", "poincare"):
        for a in (Fraction(1), Fraction(1, 3), Fraction(3, 4)):
            yield Check(f"radial-limit-{model}-{a.numerator}-{a.denominator}",
                        radial_gap(a, model, _reachable("1e-12")), "1e-10",
                        "against the median's theta series at the root of unity")


def _poincare_transseries_suite():
    yield _exact("poincare-first-coefficients", poincare_first_coefficients_match())
    yield Check("poincare-borel-taylor", max(poincare_taylor_gaps(7)), "1e-8")
    yield from transseries_window(extract_ckl(7, 6), range(30, 61, 5))


def transseries_window(table, ns):
    """The reconstruction error of table over ns, and the mean k=1 residual
    ratio over ns[0]..ns[0]+7 against 1/25.  The decay bound also rules out the
    k^{-n} normalization, whose mean ratio would be 1/5."""
    yield Check("transseries-reconstruction", reconstruction_error(table, ns), "1e-6",
                f"window k <= {table.k_max}, l <= {table.l_max}, "
                f"normalization {NORMALIZATION}")
    mean_ratio = mean_residual_ratio(ns[0], 8)
    yield Check("transseries-residual-decay", abs(mean_ratio - mp.mpf(1) / 25), "0.008",
                f"mean k=1 residual ratio {mp.nstr(mean_ratio, 8)}")


SUITES = {
    "exact": (_exact_suite,),
    "identities": (_identity_suite,),
    "all": (_exact_suite, _identity_suite, _summation_suite, _poincare_transseries_suite),
}


def run_suite(name: str) -> list:
    """The checks of one verify suite, in order, at the working precision."""
    return [check for group in SUITES[name] for check in group()]
