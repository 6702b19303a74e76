"""Error-function kin, ray quadrature, tail bounds, extrapolation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from borelsum.specfun import (
    _LADDER_GAIN,
    _LADDER_RUNGS,
    _ORDERS,
    FixedKernel,
    _algebraic,
    _algebraic_sum,
    _dawson_maclaurin,
    _emodd_tail2,
    _fixed_gauss_ladder,
    _fixed_inverse_three_halves,
    _fixed_phase_sum,
    _fixed_sqrt,
    _from_fixed,
    _gl_fixed,
    _gl_nodes,
    _large_z_sum,
    _log_gaussian_tail,
    _maclaurin_boost,
    _quadratic_phase_sum,
    _ladder_limit,
    _ladder_weights,
    _remainder,
    _remainder_factor,
    _to_fixed,
    dawson,
    dawson_deficit,
    e_mod,
    e_mod_deficit,
    erfi,
    fit_poly_coeffs,
    gaussian_tail,
    integrate_segment,
    ray_integrate,
    richardson_limit,
)

moderate_reals = st.floats(
    min_value=-6, max_value=6, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize("x", ["0.3", "1", "2.5", "-1.7"])
def test_dawson_against_direct_quadrature(x):
    z = mp.mpf(x)
    with mp.workdps(40):
        oracle = mp.exp(-z * z) * mp.quad(lambda t: mp.exp(t * t), [0, z])
    assert abs(dawson(z) - oracle) < mp.mpf("1e-22")


def test_dawson_complex_against_quadrature():
    z = mp.mpc(1, 2)
    with mp.workdps(40):
        oracle = mp.exp(-z * z) * mp.quad(lambda t: mp.exp(t * t), [0, z])
    assert abs(dawson(z) - oracle) < mp.mpf("1e-22")


@pytest.mark.parametrize("x", ["0.5", "1.3", "3"])
def test_erfi_matches_library(x):
    z = mp.mpf(x)
    assert abs(erfi(z) - mp.erfi(z)) < mp.mpf("1e-22") * (1 + abs(mp.erfi(z)))


def test_erfi_complex_matches_library():
    z = mp.mpc("0.7", "1.1")
    assert abs(erfi(z) - mp.erfi(z)) < mp.mpf("1e-22") * (1 + abs(mp.erfi(z)))


@pytest.mark.parametrize("x", ["2", "9", "9.5", "30"])
def test_dawson_deficit_definition_across_branches(x):
    """2 z D(z) - 1 formed at raised precision equals the branch value."""
    z = mp.mpf(x)
    got = dawson_deficit(z)
    with mp.workdps(80):
        direct = 2 * mp.mpf(x) * dawson(mp.mpf(x)) - 1
    assert abs(got - direct) < mp.mpf("1e-22")


def test_dawson_deficit_at_zero():
    assert dawson_deficit(0) == -1


def test_dawson_deficit_decay():
    assert abs(dawson_deficit(40)) < mp.mpf("4e-4")
    assert abs(dawson_deficit(40) - mp.mpf(1) / 3200) < mp.mpf("1e-6")


@pytest.mark.parametrize("x", ["1.5", "8", "25"])
def test_e_mod_deficit_definition(x):
    z = mp.mpf(x)
    got = e_mod_deficit(z)
    with mp.workdps(90):
        zb = mp.mpf(x)
        direct = (zb * zb * (2 * zb * dawson(zb) - 1) - mp.mpf(1) / 2) / mp.sqrt(mp.pi)
    assert abs(got - direct) < mp.mpf("1e-21")


def test_e_mod_limit_and_offset():
    cap = 1 / (2 * mp.sqrt(mp.pi))
    assert abs(e_mod(25) - cap) < mp.mpf("1e-3")
    assert abs(e_mod(mp.mpf("1.2")) - e_mod_deficit(mp.mpf("1.2")) - cap) < mp.mpf("1e-24")


def test_e_mod_deficit_is_even():
    z = mp.mpc("1.1", "0.4")
    assert abs(e_mod_deficit(z) - e_mod_deficit(-z)) < mp.mpf("1e-22")


def _two_z_dawson_minus_leading(z, k0):
    # 2 z D(z) from the library erfi, less its first k0 asymptotic terms
    two_z_d = mp.sqrt(mp.pi) * z * mp.exp(-z * z) * mp.erfi(z)
    return two_z_d - mp.fsum(mp.fac2(2 * k - 1) / (2 * z * z) ** k for k in range(k0))


_DEFICITS = {
    "dawson_deficit": (dawson_deficit, lambda z: _two_z_dawson_minus_leading(z, 1)),
    "e_mod_deficit": (
        e_mod_deficit,
        lambda z: z * z * _two_z_dawson_minus_leading(z, 2) / mp.sqrt(mp.pi),
    ),
    "_emodd_tail2": (_emodd_tail2, lambda z: z * z * _two_z_dawson_minus_leading(z, 4)),
}


@pytest.mark.parametrize("dps", [25, 50])
@pytest.mark.parametrize("name", sorted(_DEFICITS))
def test_deficit_family_against_library_erfi(name, dps):
    """Both sides of the crossover radius |z|^2 = (dps + 12) ln 10, in both
    half planes, inside and beyond the diagonals arg z = +-pi/4.  The angles
    +-(pi/4 - 1e-3) at up to 4 times the crossover are where the radial
    ladders of the closed route put the large-z sum.  The bound is relative
    to the value, which at large |z| is far below 1, so a cut that stops a
    few terms early fails it."""
    func, reference = _DEFICITS[name]
    with mp.workdps(dps):
        crossover = mp.sqrt((dps + 12) * mp.log(10))
        bound = mp.mpf(10) ** (3 - dps)
        near_diagonal = mp.pi / 4 - mp.mpf("1e-3")
        angles = [mp.mpf(a) for a in ("0.4", "1.2", "2.6", "-0.4", "-1.2", "-2.6")]
        for modulus in (mp.mpf("1.5"), crossover * mp.mpf("0.8"), crossover * mp.mpf("1.25"),
                        crossover * 4):
            for angle in angles + [near_diagonal, -near_diagonal]:
                z = modulus * mp.expj(angle)
                got = func(z)
                with mp.workdps(dps + 60):
                    want = reference(z)
                assert abs(got - want) <= bound * abs(want), (name, dps, z)


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_dawson_keeps_its_relative_accuracy_at_small_complex_z(dps):
    """Off the real axis R_0(z) = 2 z D(z) is about 2 z^2 while the Stokes
    term that the Maclaurin branch subtracts and _remainder adds back is
    about sqrt(pi) z: both on the branch's integers, dawson = R_0/(2 z)
    stays within a few eps of D(z).  Added back in mpc, it cancelled the
    digits of 1/|z| (3e4 eps at |z| = 1e-6 and 25 digits)."""
    with mp.workdps(dps):
        for modulus in ("1e-8", "1e-6", "1e-3"):
            for angle in ("0.3", "1.2", "2.9", "-1.5"):
                z = mp.mpf(modulus) * mp.expj(mp.mpf(angle))
                got = dawson(z)
                with mp.workdps(dps + 30):
                    want = mp.sqrt(mp.pi) / 2 * mp.exp(-z * z) * mp.erfi(z)
                    assert abs(got - want) <= mp.mpf(10) ** (1 - dps) * abs(want), (dps, z)


@pytest.mark.parametrize("dps", [25, 50])
def test_dawson_maclaurin_cut(dps):
    """The Maclaurin sum alone, at the working precision, on |z| <= 1 where
    its terms cancel less than one digit: D(z) to 10^(3-dps) relative, so a
    cut that fires early fails it (the boosted kernel hides such a cut).
    At |z| = 1e-3 and 1e-8 the sum is about z, so the fixed-point loop
    needs its extra bits for 1/|z|; just below the crossover radius the sum
    runs under the kernel's own boost for the digits it cancels."""
    with mp.workdps(dps):
        crossover = mp.sqrt((dps + 12) * mp.log(10))
        for modulus in ("1e-8", "1e-3", "0.05", "0.3", "1", crossover * mp.mpf("0.99")):
            for angle in ("0", "0.4", "1.2", "2.6", "-0.7"):
                z = mp.mpf(modulus) * mp.expj(mp.mpf(angle))
                boost = _maclaurin_boost(z, 0) if abs(z) > 1 else 0
                with mp.extradps(boost):
                    got = _dawson_maclaurin(z)
                with mp.workdps(dps + boost + 20):
                    want = mp.sqrt(mp.pi) / 2 * mp.exp(-z * z) * mp.erfi(z)
                assert abs(got - want) <= mp.mpf(10) ** (3 - dps) * abs(want), (dps, z)


def _plain_phase_sum(term, ratio, step, n_first, n_last, stride, weight):
    acc = mp.mpc(0)
    for n in range(n_first, n_last + 1, stride):
        acc += n**weight * term
        term *= ratio
        ratio *= step
    return acc


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("weight", [0, 1])
def test_quadratic_phase_sum_against_plain_loop(dps, weight):
    """The fixed-point kernel of the theta and Gaussian sums against the same
    recurrence in mpc at dps + 20, on the theta shape T = q^{n^2}, n = 12 k
    + 5, with q = e^{pi i tau/12} so near the real axis that |step| = |q|^288
    is 1 - 2e-6, over 2 10^4 steps.  Under the callers' drift guard of
    2 log10(steps) + 3 digits the sum is good to 10^-dps times
    sum |term| n^weight, and no worse than the mpc loop it replaces at the
    same precision (without its own guard bits it is worse)."""
    n_first, stride, steps = 5, 12, 20_000
    n_last = n_first + stride * steps
    with mp.workdps(dps):
        tau = mp.mpc(mp.mpf(2) / 7, "2e-9")
        with mp.extradps(int(2 * mp.log10(steps)) + 3):
            seeds = (mp.expjpi(n_first**2 * tau / 12),
                     mp.expjpi((24 * n_first + 144) * tau / 12), mp.expjpi(24 * tau))
            got = _quadratic_phase_sum(*seeds, n_first, n_last, stride, weight)
            mpc_loop = _plain_phase_sum(*seeds, n_first, n_last, stride, weight)
    assert 1 - mp.mpf("1e-5") < abs(seeds[2]) < 1
    with mp.workdps(dps + 20):
        want = _plain_phase_sum(*seeds, n_first, n_last, stride, weight)
        size = abs(_plain_phase_sum(*map(abs, seeds), n_first, n_last, stride, weight))
        assert abs(got - want) <= mp.mpf(10) ** -dps * size, (dps, weight)
        assert abs(got - want) <= abs(mpc_loop - want), (dps, weight)


def test_fixed_gauss_ladder_steps_the_first_span_and_multiplies_the_rest():
    """On real seeds the first span's sum is _fixed_phase_sum at weight 1
    with zero imaginary parts, bit for bit: the same products, shifts and
    sums, at two integer products a term instead of eight.  Every later
    span j sums the previous one's terms times the first one's over its own
    n, each e^{-j b n^2}: within j (2 (K + 1)^2 + 2) units of 2^-wp a term
    of sum n e^{-j b n^2}, K the steps of the first span.  Gaussian shapes
    T = e^{-b n^2} along n = r + M k, from a few terms to thousands, b near
    the real axis and far from it, with seeds rounded at wp, and spans that
    end before r."""
    wp = 170
    for b, r, period, n_last in [(1e-7, 1, 48, 25_100), (1e-7, 47, 48, 25_100), (0.01, 5, 12, 60),
                                 (2e-4, 7, 36, 400), (0.3, 11, 12, 11), (1e-5, 1, 12, 7_000)]:
        with mp.workprec(wp + 10):
            seeds = [int(mp.exp(-mp.mpf(b) * x) * 2**wp)
                     for x in (r * r, 2 * r * period + period**2, 2 * period**2)]
        spans = [range(r, int(n_last / math.sqrt(j)) + 1, period) for j in range(1, 6)]
        got = _fixed_gauss_ladder(*seeds, spans, wp)
        complex_seeds = [(x, 0) for x in seeds]
        assert (got[0], 0) == _fixed_phase_sum(*complex_seeds, r, n_last, period, 1, wp)
        ulps = 2 * len(spans[0])**2 + 2
        with mp.workdps(60):
            for j, (span, value) in enumerate(zip(spans, got), 1):
                want = mp.fsum(n * mp.exp(-mp.mpf(b) * j * n * n) for n in span)
                assert abs(value - want * 2**wp) <= j * ulps * sum(span), (b, r, j)


def _fixed_grid(wp):
    """(re, im) integers scaled by 2^wp on |z| = 10^-3 .. 10^3, with both
    signs of Im z and Re z < 0 on the outer angles."""
    points = []
    for j in range(-3, 4):
        for angle in ("0.3", "1.5", "2.8", "-0.3", "-1.5", "-2.8"):
            z = mp.mpf(10) ** j * mp.expj(mp.mpf(angle))
            points.append(_to_fixed(z, wp))
    return points


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_fixed_sqrt_and_inverse_three_halves_against_mpmath(dps):
    """The integer complex square root and z^(-3/2) against mp.sqrt and
    mp.power at dps + 20, with bounds from the roundings, d = 2^-wp each.
    sqrt(w), |w| = s: the modulus and the larger part sqrt((s +- Re w)/2)
    are floors, within d(1 + s^(-1/2)/2) as that part is at least
    sqrt(s/2); the other part, Im w over twice the larger, adds at most
    sqrt 2 times that plus d: 4 d (1 + s^(-1/2)) in all.  z^(-3/2), |z| = r:
    1/z is two floors, within 2 d, which move sqrt(1/z) by r^(1/2) d more
    than the root's own error; the product errs by that sum times |1/z|,
    plus 2 d times |sqrt(1/z)|, plus its own floors: below 8 d (1 + 1/r)."""
    with mp.workdps(dps):
        wp = mp.prec + 10
    unit = mp.mpf(2) ** -wp
    for re, im in _fixed_grid(wp):
        with mp.workdps(dps + 20):
            z = mp.mpc(re, im) * unit
            root_re, root_im = _fixed_sqrt((re, im), wp)
            err = abs(mp.mpc(root_re, root_im) * unit - mp.sqrt(z))
            assert err <= 4 * unit * (1 + abs(z) ** -0.5), (dps, z)
            k_re, k_im = _fixed_inverse_three_halves((re, im), wp)
            err = abs(mp.mpc(k_re, k_im) * unit - mp.power(z, mp.mpf("-1.5")))
            assert err <= 8 * unit * (1 + 1 / abs(z)), (dps, z)


@pytest.mark.parametrize("dps", [330, 400])
def test_large_z_cut_past_the_float_range(dps):
    """Past about 310 digits eps |sum| underflows a float, so a cut decided
    on float values of term and eps fires only when the term's shadow
    underflows, near 1e-324 relative.  At z = 40 the large-z series runs
    about 1600 terms before its smallest, far past eps."""
    with mp.workdps(dps):
        z = mp.mpf(40)
        got = dawson_deficit(z)
        eps = +mp.eps
        with mp.workdps(dps + 100):
            want = mp.sqrt(mp.pi) * z * mp.exp(-z * z) * mp.erfi(z) - 1
            assert abs(got - want) <= 10 * eps * abs(want)


def _plain_large_z_sum(z, k0):
    """The large-z series from k = k0 in mpc, one product per factor, to its
    smallest term or until a term is below eps times the sum; also returns
    sum |term|."""
    w = 1 / (2 * z * z)
    term = acc = mp.fac2(2 * k0 - 1) * w**k0
    size = abs(term)
    k = k0
    while (2 * k + 1) * abs(w) < 1:
        term = term * w * (2 * k + 1)
        if abs(term) <= mp.eps * abs(acc):
            break
        acc += term
        size += abs(term)
        k += 1
    return acc, size


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_large_z_sum_against_plain_loop(dps):
    """The fixed-point large-z loop against the same series in mpc at
    dps + 20, from 1.25 to 4 times the crossover radius, on and off the
    diagonals: good to 10^-dps sum |term|, and no worse than the mpc loop
    at the same precision."""
    with mp.workdps(dps):
        crossover = mp.sqrt((dps + 12) * mp.log(10))
        near_diagonal = mp.pi / 4 - mp.mpf("1e-3")
        angles = [mp.mpf(a) for a in ("0", "0.4", "-1.2", "2.6")] + [near_diagonal,
                                                                      -near_diagonal]
        for k0 in (0, 1, 2, 4, 7):
            for factor in ("1.25", "2", "4"):
                for angle in angles:
                    z = crossover * mp.mpf(factor) * mp.expj(angle)
                    got = _large_z_sum(z, k0)
                    mpc_loop, _ = _plain_large_z_sum(z, k0)
                    with mp.workdps(dps + 20):
                        want, size = _plain_large_z_sum(z, k0)
                        err = abs(got - want)
                        assert err <= mp.mpf(10) ** -dps * size, (dps, k0, z)
                        assert err <= abs(mpc_loop - want), (dps, k0, z)


def test_large_z_sum_multiplication_budget(monkeypatch):
    """At 400 digits and z = 40 the large-z loop runs about 390 steps, on
    integers: the mpc products are a fixed handful, as in the theta
    recurrence's transcendental budget, where the mpc loop made two a
    step."""
    mpc_type = type(mp.mpc(1))
    calls = [0]

    def counted(name):
        inner = getattr(mpc_type, name)

        def count(self, other):
            calls[0] += 1
            return inner(self, other)

        monkeypatch.setattr(mpc_type, name, count)

    with mp.workdps(400):
        z = mp.mpc(40)
        counted("__mul__")
        counted("__rmul__")
        _large_z_sum(z, 1)
    assert calls[0] <= 4


@pytest.mark.parametrize("phase", ["0", "0.3", "1.5"])
def test_remainder_factor_bounds_its_gamma_form(phase):
    """The float factor is never below the mp.gamma form at 50 digits, and
    above it by no more than its relative 2^-40 rounding up."""
    with mp.workdps(50):
        phi = mp.mpf(phase)
        for k0 in range(1, 61):
            p = k0 - mp.mpf(1) / 2
            exact = 1 + mp.sqrt(mp.pi) * mp.gamma(p / 2 + 1) / mp.gamma(p / 2 + mp.mpf(1) / 2)
            if phi:
                exact = min(exact, 1 / mp.sin(phi))
            got = _remainder_factor(k0, phi)
            assert exact <= got <= exact * (1 + mp.mpf(2) ** -39), (k0, phase)


@pytest.mark.parametrize("k0", range(2, 13))
def test_remainder_bound_majorizes_the_remainder(k0):
    """|R_K(z)| <= C (2K-1)!!/|2 z^2|^K + sqrt(pi) |z| e^{-Re z^2} on |z| in
    [0.5, 50] and arg z in [0, pi/4 - 0.01]; R_K is even and real on the real
    axis, so this quarter covers the sector |arg z| < pi/4."""
    with mp.workdps(40):
        for i in range(12):
            modulus = mp.mpf("0.5") * mp.mpf(100) ** (mp.mpf(i) / 11)
            for j in range(12):
                angle = (mp.pi / 4 - mp.mpf("0.01")) * j / 11
                z = modulus * mp.expj(angle)
                bound = (_remainder_factor(k0, 2 * angle) * mp.fac2(2 * k0 - 1)
                         / abs(2 * z * z) ** k0
                         + mp.sqrt(mp.pi) * modulus * mp.exp(-mp.re(z * z)))
                assert abs(_remainder(z, k0)) <= bound, (k0, z)


@pytest.mark.parametrize("k0", range(2, 13))
def test_algebraic_part_obeys_the_first_neglected_term_bound(k0):
    """|A_K(z)| <= C (2K-1)!!/|2 z^2|^K, with no Gaussian part, on the grid
    of test_remainder_bound_majorizes_the_remainder: the closed route bounds
    the tail of its algebraic sum by exactly this."""
    with mp.workdps(40):
        for i in range(12):
            modulus = mp.mpf("0.5") * mp.mpf(100) ** (mp.mpf(i) / 11)
            for j in range(12):
                angle = (mp.pi / 4 - mp.mpf("0.01")) * j / 11
                z = modulus * mp.expj(angle)
                bound = (_remainder_factor(k0, 2 * angle) * mp.fac2(2 * k0 - 1)
                         / abs(2 * z * z) ** k0)
                assert abs(_algebraic(z, k0)) <= bound, (k0, z)


def _crossover_modulus(k0, digits, angle):
    """The modulus on the ray at angle where _maclaurin_boost(z, k0, digits)
    turns from the Maclaurin branch to None (the large-z branch), by
    bisection on [0.5, 200]; the rule's bound falls with |z| past |z|^2 = k0."""
    lo, hi = mp.mpf("0.5"), mp.mpf(200)
    assert _maclaurin_boost(lo * mp.expj(angle), k0, digits) is not None
    assert _maclaurin_boost(hi * mp.expj(angle), k0, digits) is None
    for _ in range(40):
        mid = (lo + hi) / 2
        if _maclaurin_boost(mid * mp.expj(angle), k0, digits) is None:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("dps,targets", [(25, (8, 16, 20)), (50, (8, 25, 40))])
@pytest.mark.parametrize("k0", [2, 5, 12])
def test_algebraic_part_meets_an_absolute_target(k0, dps, targets):
    """_algebraic(z, k0, digits), the closed route's kernel, within 10^-digits
    absolute plus its rounding to the working precision, against 2 z D(z)
    less the leading and Stokes terms from the library erfi at dps + 30 and
    the digits that sum cancels.  On the grid of
    test_algebraic_part_obeys_the_first_neglected_term_bound, every third
    modulus, and just either side of the crossover that the target sets,
    where the large-z branch's truncation meets it."""
    with mp.workdps(dps):
        for digits in targets:
            points = []
            for j in range(0, 12, 3):
                angle = (mp.pi / 4 - mp.mpf("0.01")) * j / 11
                points += [mp.mpf("0.5") * mp.mpf(100) ** (mp.mpf(i) / 11) * mp.expj(angle)
                           for i in range(0, 12, 3)]
                lo, hi = _crossover_modulus(k0, digits, angle)
                points += [lo * mp.expj(angle), hi * mp.expj(angle)]
                assert _maclaurin_boost(points[-1], k0, digits) is None
                assert _maclaurin_boost(points[-2], k0, digits) is not None
            for z in points:
                got = _algebraic(z, k0, digits)
                with mp.workdps(dps + 30 + int(0.4343 * abs(z) ** 2)):
                    stokes = mp.j * mp.sqrt(mp.pi) * z * mp.exp(-z * z) if mp.im(z) else 0
                    want = _two_z_dawson_minus_leading(z, k0) - stokes
                    err = abs(got - want)
                    assert err <= mp.mpf(10) ** -digits + mp.mpf(10) ** -dps * abs(want), \
                        (k0, dps, digits, z)


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("power", [0, -1])
def test_algebraic_sum_is_the_sum_of_its_one_term_cases(dps, power):
    """The closed route's integer pass against mp.fsum of weight n^power
    _algebraic(n z_1, K, digits_n) over the same 30 terms, both at the
    working precision: each term runs the same loops at the same
    precision, only from z_1 and w_1 = 1/(2 z_1^2) converted once, so the
    two agree within twice each term's target plus the roundings.  At
    z_1^2 = nu x for x on and off both axes and near the closed route's
    corners, with targets that put the crossover among the terms."""
    with mp.workdps(dps):
        nu = mp.pi**2 / 6
        for x in (mp.mpf("0.3"), mp.mpc(2, 1), mp.mpc(60, 40), mp.mpc(0, 1) / (6 * mp.pi)):
            z_one = mp.sqrt(nu * x)
            for k0, digits in ((4, dps // 2), (7, dps - 5)):
                terms = [(n, mp.mpf(-1) ** n * (1 + mp.mpf(n) / 7), digits + power * math.log10(n))
                         for n in range(1, 31)]
                got = _algebraic_sum(z_one, k0, terms, power)
                parts = [w * mp.mpf(n) ** power * _algebraic(n * z_one, k0, d) for n, w, d in terms]
                want = mp.fsum(parts)
                bound = (mp.fsum(2 * abs(w) * mp.mpf(n) ** power * mp.mpf(10) ** -d
                                 for n, w, d in terms)
                         + 4 * mp.eps * (mp.fsum(abs(v) for v in parts) + abs(want)))
                assert abs(got - want) <= bound, (dps, power, x, k0)


def test_integrate_segment_polynomial():
    wp = mp.prec + 10
    cube = FixedKernel(lambda t: ((t * t * t) >> 2 * wp, 0), wp)
    val = _from_fixed(*integrate_segment(cube, 0, 1 << wp), wp)
    assert abs(val - mp.mpf(1) / 4) < mp.mpf("1e-24")


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_gauss_legendre_rules_have_order_nodes_and_full_degree(dps):
    """Each rule of the order ladder has exactly `order` nodes and
    integrates x^j, j < 2 order, over [-1, 1] to a few eps; an odd order
    has one centre node, at 0."""
    with mp.workdps(dps):
        for order in _ORDERS:
            nodes, weights = _gl_nodes(order)
            assert len(nodes) == len(weights) == order
            for j in range(2 * order):
                exact = mp.mpf(2) / (j + 1) if j % 2 == 0 else 0
                value = mp.fsum(w * x**j for x, w in zip(nodes, weights))
                assert abs(value - exact) <= 4 * mp.eps, (order, j)


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_integer_gauss_legendre_rules_keep_full_degree(dps):
    """The integer rules integrate_segment runs, at a wp inside its 64-bit
    bucket, keep the full degree: with every node and weight within 2^-wp,
    sum w x^j over the rule is within (2j + order + 4) 2^-wp of the
    integral of x^j over [-1, 1], j < 2 order; summed exactly on
    integers."""
    with mp.workdps(dps):
        wp = mp.prec + 13
    assert wp % 64
    for order in _ORDERS:
        nodes, weights = _gl_fixed(order, wp)
        assert len(nodes) == len(weights) == order
        for j in range(2 * order):
            # sum w x^j and the exact 2/(j + 1), both scaled by 2^(wp (j + 1)) (j + 1)
            value = sum(w * x**j for x, w in zip(nodes, weights)) * (j + 1)
            exact = 2 << wp * (j + 1) if j % 2 == 0 else 0
            bound = (2 * j + order + 4) * (j + 1) << wp * j
            assert abs(value - exact) <= bound, (order, j)


def test_ray_integrate_exponential():
    """int e^{-z} dz along the tilted segment z = t e^{i theta},
    0.01 <= t <= 30, is e^{i theta} times a real-parameter integral."""
    unit = mp.expj(mp.mpf("0.2"))
    a, b = mp.mpf("0.01") * unit, 30 * unit
    wp = mp.prec + 10
    kernel = FixedKernel(lambda t: _to_fixed(mp.exp(-mp.mpf((t, -wp)) * unit), wp), wp)
    val = ray_integrate(kernel, "0.01", "30", "1e-20")
    assert abs(unit * val - (mp.exp(-a) - mp.exp(-b))) < mp.mpf("1e-18")


@pytest.mark.parametrize("t_min,t_max", [(0, 2), (-1, 1), (2, 1), (1, 1)])
def test_ray_integrate_needs_a_positive_increasing_interval(t_min, t_max):
    with pytest.raises(ValueError):
        ray_integrate(FixedKernel(lambda t: (t, 0), mp.prec), t_min, t_max, "1e-16")


@given(
    n_cut=st.integers(min_value=3, max_value=60),
    beta_10x=st.integers(min_value=2, max_value=40),
    s=st.integers(min_value=0, max_value=1),
)
def test_gaussian_tail_bounds_the_actual_tail(n_cut, beta_10x, s):
    beta = mp.mpf(beta_10x) / 10
    actual = mp.fsum(
        mp.mpf(n) ** s * mp.exp(-beta * n * n) for n in range(n_cut + 1, n_cut + 400)
    )
    assert actual <= gaussian_tail(n_cut, beta, s)


def test_gaussian_tail_decreases_in_cutoff():
    vals = [gaussian_tail(n, mp.mpf("0.5"), 1) for n in (5, 10, 20)]
    assert vals[0] > vals[1] > vals[2] > 0


@pytest.mark.parametrize("s", [0, 1])
def test_log_gaussian_tail_matches_gaussian_tail(s):
    """The float log-domain tail against ln gaussian_tail at 30 digits, from
    2 beta n near 1e-12, where q = e^{-2 beta n} rounds to 1, to past 745,
    where q underflows a float to 0."""
    with mp.workdps(30):
        for beta in ("1e-14", "1e-7", "0.003", "0.5", "2", "60", "1e3"):
            for n in (1, 8, 39, 300, 5000):
                got = _log_gaussian_tail(n, float(beta), s)
                want = mp.log(gaussian_tail(n, mp.mpf(beta), s))
                assert abs(got - want) <= 1e-12 * max(1, abs(want)), (beta, n, s)


def test_log_gaussian_tail_at_the_float_edges():
    """e^{-2 b n} underflows to 0 for b n > 373 and the tail stays finite;
    a beta that underflows a float to 0, or a subnormal one, reads as an
    infinite tail rather than dividing by zero."""
    assert math.exp(-2 * 1e3 * 8) == 0
    assert _log_gaussian_tail(8, 1e3, 0) == -64e3 - 16e3
    assert _log_gaussian_tail(8, 1e3, 1) == pytest.approx(-80e3 + math.log(9), abs=1e-9)
    for s in (0, 1):
        assert _log_gaussian_tail(8, 0.0, s) == math.inf
        assert _log_gaussian_tail(8, 5e-324, s) > 700


def test_richardson_exact_on_polynomials():
    hs = [mp.mpf(1) / 2**j for j in range(5)]
    vals = [7 + 3 * h + 2 * h**2 - h**3 for h in hs]
    limit, err = richardson_limit(hs, vals)
    assert abs(limit - 7) < mp.mpf("1e-20")
    assert err < mp.mpf("1e-18")


def test_richardson_input_validation():
    with pytest.raises(ValueError):
        richardson_limit([1], [1])
    with pytest.raises(ValueError):
        richardson_limit([1, 2], [0, 0])
    with pytest.raises(ValueError):
        richardson_limit([1, 0], [0, 0])


def _lagrange_weights(nodes):
    """The Lagrange weights at h = 0 of the nodes, prod_{k != j} k/(k - j),
    as exact Fractions."""
    return [math.prod(Fraction(k, k - j) for k in nodes if k != j) for j in nodes]


def test_ladder_gain_is_the_sum_of_the_lagrange_weights():
    """The Lagrange weights at h = 0 of the nodes j h_1, j = 1..16, in exact
    arithmetic: they sum to 1, and their absolute values to _LADDER_GAIN."""
    assert _LADDER_RUNGS == 16
    weights = _lagrange_weights(range(1, _LADDER_RUNGS + 1))
    assert sum(weights) == 1
    assert sum(abs(w) for w in weights) == _LADDER_GAIN == 2**16 - 1


def test_ladder_weights_are_the_exact_lagrange_weights():
    """The integer weights of the ladder's limit and of its last correction
    are the exact Lagrange weights at 0 of all the rungs 1..m and of the
    rungs 2..m, the finest dropped (weight 0): on the sixteen rungs of
    eta_tilde_radial and on ladders around it."""
    for rungs in (2, 3, 9, _LADDER_RUNGS, 20):
        weights, coarser = _ladder_weights(rungs)
        assert weights == _lagrange_weights(range(1, rungs + 1)), rungs
        assert coarser == [0] + _lagrange_weights(range(2, rungs + 1)), rungs


def test_ladder_limit_is_the_richardson_limit():
    """On samples at h_j = j/8, j = 1..16, given as integers scaled by
    2^scale, the limit and the last correction are richardson_limit's on
    the same samples as mpc, with the h in decreasing order, to a few units
    of the samples' rounding times the gain: exact on a polynomial of
    degree 4, and with a correction of its own on e^h (1 + i)."""
    scale = 200
    with mp.workdps(40):
        hs = [mp.mpf(j) / 8 for j in range(1, _LADDER_RUNGS + 1)]
        # the roundings of the samples and of the sums, times the gain, with room
        unit = 64 * _LADDER_GAIN * (mp.eps + mp.mpf(2)**-scale)
        corrections = []
        for f in (lambda h: 7 + 3 * h - h**4 + 2j * h * h, lambda h: mp.exp(h) * (1 + 1j)):
            samples = [_to_fixed(f(h), scale) for h in hs]
            limit, correction = _ladder_limit(samples, scale)
            want, want_correction = richardson_limit(
                hs[::-1], [_from_fixed(*s, scale) for s in samples[::-1]])
            assert abs(limit - want) <= unit
            assert abs(correction - want_correction) <= unit
            assert abs(limit - f(0)) <= unit + correction
            corrections.append(correction)
        assert corrections[0] <= unit < mp.mpf("1e-25") < corrections[1]


def test_fit_poly_coeffs_recovers_polynomial():
    coeffs = [Fraction(2), Fraction(-1, 3), Fraction(5, 7)]
    xs = [mp.mpf(1) / 3, mp.mpf(1) / 5, mp.mpf(1) / 7]
    ys = [
        mp.fsum(mp.mpf(c.numerator) / c.denominator * x**j for j, c in enumerate(coeffs))
        for x in xs
    ]
    got = fit_poly_coeffs(xs, ys)
    for g, c in zip(got, coeffs):
        assert abs(g - mp.mpf(c.numerator) / c.denominator) < mp.mpf("1e-20")


def test_fit_poly_coeffs_validation():
    with pytest.raises(ValueError):
        fit_poly_coeffs([], [])
    with pytest.raises(ValueError):
        fit_poly_coeffs([1, 2], [1])
