"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test exercises the full advertised tolerance of its criterion; the
printed line carries the measured worst case so a red run says how far off
it landed.
"""

import time
from fractions import Fraction

from mpmath import mp

from borelsum import checks
from borelsum.borel import trefoil_bn_exact
from borelsum.characters import l_value_exact
from borelsum.modular import eta_tilde_radial
from borelsum.summation import radial_limit
from borelsum.transseries import extract_ckl


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_exact_coefficient_suite():
    start = time.perf_counter()
    series_ok = checks.printed_coefficients_match()
    taylor_ok = checks.borel_first_values_match(trefoil_bn_exact, 4)
    elapsed = time.perf_counter() - start
    _line(
        1,
        series_ok and taylor_ok and elapsed < 1.0,
        f"exact rational equality, zero tolerance, {elapsed:.3f}s",
    )


def test_criterion_02_cross_route_coefficients():
    start = time.perf_counter()
    a_ok = checks.coefficient_routes_agree(41)
    b_ok = checks.borel_routes_agree(30)
    elapsed = time.perf_counter() - start
    _line(
        2,
        a_ok and b_ok and elapsed < 10.0,
        f"a_n exact to n=40 and b_n exact to n=30, {elapsed:.1f}s",
    )


def test_criterion_03_l_value_suite():
    start = time.perf_counter()
    # the tightest certified tail (s = 52, 400 terms) is near 1e-133, so the
    # partials are summed at 150 digits to keep roundoff out of the comparison
    worst = checks.l_value_fill((50, 400), 150)
    r0, s0 = l_value_exact(0)
    l2 = mp.mpf(r0.numerator) / r0.denominator * mp.pi**s0 / mp.sqrt(3)
    l2_gap = abs(l2 - mp.pi**2 / (6 * mp.sqrt(3)))
    elapsed = time.perf_counter() - start
    _line(
        3,
        worst <= 1 and l2_gap < mp.mpf("1e-12") and elapsed < 5.0,
        f"partials inside certified tails (worst fill {mp.nstr(worst, 3)}), "
        f"L(2) gap {mp.nstr(l2_gap, 3)}, {elapsed:.1f}s",
    )


def test_criterion_04_summation_cross_routes():
    start = time.perf_counter()
    grid = [
        mp.mpf("0.6"), mp.mpf(1), mp.mpf(2), mp.mpf("3.5"), mp.mpf(5),
        mp.mpf(8), mp.mpf(12), mp.mpf(20), mp.mpf(35), mp.mpf(50),
        mp.mpc(1, "0.8"), mp.mpc(1, "-0.8"), mp.mpc(2, "1.5"),
        mp.mpc(2, "-1.5"), mp.mpc(5, 3), mp.mpc(5, -3), mp.mpc("0.5", 2),
        mp.mpc("0.5", -2), mp.mpc(3, 4), mp.mpc(8, 2),
    ]
    assert len(grid) == 20
    worst = checks.route_gap_at("trefoil", grid, "1e-9")
    elapsed = time.perf_counter() - start
    _line(
        4,
        worst < mp.mpf("1e-8") and elapsed < 120.0,
        f"three routes on 20 points, worst gap {mp.nstr(worst, 3)}, {elapsed:.1f}s",
    )


def test_criterion_05_reality_and_conjugation():
    start = time.perf_counter()
    reals = [mp.mpf("0.5") + mp.mpf("49.5") * j / 9 for j in range(10)]
    worst_im = checks.reality_gap("trefoil", reals, "1e-12")
    points = [mp.mpc(1, "0.8"), mp.mpc(2, "1.5"), mp.mpc(5, 3),
              mp.mpc("0.7", "-1.2"), mp.mpc(3, "2.4")]
    worst_conj = checks.conjugation_gap(points, "1e-12")
    elapsed = time.perf_counter() - start
    _line(
        5,
        worst_im <= mp.mpf("1e-10") and worst_conj <= mp.mpf("1e-8")
        and elapsed < 60.0,
        f"worst Im {mp.nstr(worst_im, 3)} on 10 real points, worst lateral "
        f"conjugation gap {mp.nstr(worst_conj, 3)} on 5 points, {elapsed:.1f}s",
    )


def test_criterion_06_asymptoticity():
    start = time.perf_counter()
    worst_ratio = max(checks.asymptotic_ratio(x, range(6), "1e-16")
                      for x in (mp.mpf(10), mp.mpf(20), mp.mpf(40)))
    elapsed = time.perf_counter() - start
    _line(
        6,
        worst_ratio <= 2 and elapsed < 30.0,
        f"remainders within twice the first omitted term (worst ratio "
        f"{mp.nstr(worst_ratio, 3)}), {elapsed:.1f}s",
    )


def test_criterion_07_radial_limits():
    start = time.perf_counter()
    worst = max(checks.phi_gap(alpha, radial_limit(alpha).value)
                for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2)))
    elapsed = time.perf_counter() - start
    _line(
        7,
        worst < mp.mpf("1e-4") and elapsed < 300.0,
        f"extrapolated boundary values, worst gap {mp.nstr(worst, 3)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_lateral_difference_identities():
    start = time.perf_counter()
    delta_gap = checks.delta_theta_gap(mp.mpf(1), "1e-20")
    strange = max(checks.phi_gap(alpha, eta_tilde_radial(alpha)[0], -2)
                  for alpha in (Fraction(1), Fraction(1, 2)))
    modular = checks.g_inversion_gap((Fraction(1), Fraction(2), Fraction(1, 2)), "1e-16")

    deriv = max(gap / size for gap, size in checks.g_jet_gaps(4))

    elapsed = time.perf_counter() - start
    _line(
        8,
        delta_gap < mp.mpf("1e-12") and strange < mp.mpf("1e-4")
        and modular < mp.mpf("1e-6") and deriv < mp.mpf("1e-3")
        and elapsed < 300.0,
        f"lateral difference vs weighted theta {mp.nstr(delta_gap, 3)}, "
        f"radial boundary {mp.nstr(strange, 3)}, inversion "
        f"{mp.nstr(modular, 3)}, derivative rel {mp.nstr(deriv, 3)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_poincare_suite():
    start = time.perf_counter()
    first_ok = checks.poincare_first_coefficients_match()
    gaps = checks.poincare_taylor_gaps(7)
    taylor = max(gaps)
    # b_0 = a_1 / 120, so the resummed oracle for a_1 is off by 120 times gaps[0]
    oracle_gap = 120 * gaps[0]
    grid = [mp.mpf(3), mp.mpc(8, 2), mp.mpf("0.6"), mp.mpc(1, "0.8"),
            mp.mpc("0.4", "1.1")]
    cross = checks.route_gap_at("poincare", grid, "1e-9")
    elapsed = time.perf_counter() - start
    _line(
        9,
        first_ok and oracle_gap < mp.mpf("1e-12")
        and taylor < mp.mpf("1e-8") and cross < mp.mpf("1e-8")
        and elapsed < 120.0,
        f"a_0, a_1 against the resummed oracle (gap "
        f"{mp.nstr(oracle_gap, 3)}), Taylor worst {mp.nstr(taylor, 3)} "
        f"to order 6, cross-route worst {mp.nstr(cross, 3)} on 5 points, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_transseries_window():
    start = time.perf_counter()
    table = extract_ckl(7, 6)
    active = sorted({k for (k, _), v in table.c.items() if v})
    window_ok = active == [1, 5, 7]
    rel = checks.reconstruction_error(table, [50])
    mean_ratio = checks.mean_residual_ratio(30, 8)
    decay_ok = abs(mean_ratio - mp.mpf(1) / 25) < mp.mpf("0.2") / 25

    elapsed = time.perf_counter() - start
    _line(
        10,
        window_ok and rel < mp.mpf("1e-6") and decay_ok and elapsed < 60.0,
        f"reconstruction at n=50 rel {mp.nstr(rel, 3)}, residual decay "
        f"{mp.nstr(mean_ratio, 4)} vs 1/25, {elapsed:.1f}s",
    )
