"""Theta-built eta functions, their boundary limits, and the g function."""

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import to_fixed

from borelsum import checks, modular, summation
from borelsum.characters import chi12, chi60
from borelsum.errors import ConvergenceError, DomainError
from borelsum.invariants import phi
from borelsum.modular import (
    _eta_nodes,
    _gauss_cutoff,
    eta,
    eta_tilde,
    eta_tilde_radial,
    zagier_g,
    zagier_g_taylor,
)
from borelsum.specfun import (
    _LADDER_GAIN,
    _LADDER_RUNGS,
    _LN10,
    _from_fixed,
    gaussian_tail,
    richardson_limit,
)

G_AT_ONE = mp.mpc("0.0999004225046296", "-0.241180954897479")


def test_eta_at_i_classic_value():
    oracle = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))
    assert abs(eta(mp.j) - oracle) < mp.mpf("1e-22")


def test_eta_routes_agree():
    tau = mp.mpc("0.3", "1.1")
    assert abs(eta(tau) - eta(tau, route="product")) < mp.mpf("1e-22")


def test_eta_inversion_step():
    """eta(-1/tau) = sqrt(-i tau) eta(tau), checked on the product route."""
    tau = 2 * mp.j
    left = eta(-1 / tau, route="product")
    right = mp.sqrt(-mp.j * tau) * eta(tau, route="product")
    assert abs(left - right) < mp.mpf("1e-22")
    # the theta route takes this step internally for |tau| < 1
    assert abs(eta(mp.j / 2) - right) < mp.mpf("1e-22")


def _mirror_points():
    """Seeded tau with |tau| >= 1: four on |tau| = 1, where the mirror is
    tau itself, and eight with |Re tau| up to 3 and Im tau down to 0.05."""
    rng = random.Random(1601)
    points = [mp.expjpi(mp.mpf(rng.uniform(0.05, 0.95))) for _ in range(4)]
    while len(points) < 12:
        tau = mp.mpc(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        if abs(tau) >= 1:
            points.append(tau)
    return points


@pytest.mark.parametrize("tau", _mirror_points(), ids=lambda t: mp.nstr(t, 3))
def test_eta_pair_is_eta_at_tau_and_its_mirror(tau):
    """The integer node kernel of the folded ray, _eta_nodes, gives eta(tau)
    and eta(tau/|tau|^2) from one theta sum, on tau = t u, t = |tau|.  At
    Im tau >= 0.05 the theta guard is at most 6 digits, 20 bits; 40 guard
    bits cover it and the 10 bits of the products."""
    wp = mp.prec + 40
    b = math.pi * float(tau.imag) / 12
    n_terms = _gauss_cutoff(b, 0, -b - (mp.dps + 5) * _LN10)
    near, far = _eta_nodes(tau / abs(tau), wp)(to_fixed(abs(tau)._mpf_, wp), n_terms)
    assert abs(_from_fixed(*near, wp) - eta(tau, route="product")) < mp.mpf("1e-20")
    assert abs(_from_fixed(*far, wp) - eta(tau / abs(tau) ** 2, route="product")) < mp.mpf("1e-20")


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_eta_ray_kernel_pair_matches_eta(dps):
    """At the working bits _eta_ray gives its kernel, the node pair
    (eta(t u), eta(u/t)) of _eta_nodes is within 0.11 10^-dps of eta at
    dps + 30 on four rays, u = e^{i phi}, at nodes from t = 1 out to where
    the theta sum is a few terms long; w with |Im w| = 2 adds no bits."""
    with mp.workdps(dps):
        bound = mp.mpf("0.11") * mp.mpf(10) ** -dps
        for phi in ("0.3", "1.1780972450961724", "1.5707963267948966", "2.6"):
            direction = mp.expj(mp.mpf(phi))
            wp = modular._eta_ray_wp(mp.mpc(3, -2), direction)
            node = _eta_nodes(direction, wp)
            for t in ("1", "1.37", "2.9", "7.25", "31"):
                tf = to_fixed(mp.mpf(t)._mpf_, wp)
                b = math.pi * float(t) * float(direction.imag) / 12
                near, far = node(tf, _gauss_cutoff(b, 0, -b - (mp.dps + 5) * _LN10))
                with mp.extradps(30):
                    tau = mp.mpf((tf, -wp)) * direction
                    assert abs(_from_fixed(*near, wp) - eta(tau)) <= bound, (phi, t)
                    far_err = abs(_from_fixed(*far, wp) - eta(tau / abs(tau) ** 2))
                    assert far_err <= bound, (phi, t)


def test_eta_near_a_cusp_reduces_to_the_fundamental_domain():
    """0.6667 lies 3.3e-5 from the cusp 2/3.  One inversion leaves
    Im(-1/tau) = 2.2e-5, where the theta sum cancels to noise near 5e-28
    on a value near 5e-103, so eta goes on reducing.  A rounding of
    relative eps anywhere in the reduction moves log eta by at most about
    kappa eps, kappa = pi |tau|/(12 |3 tau - 2|^2): the derivative of the
    reduced point's exponent pi i tau_f/12, tau_f = (a tau + b)/(3 tau - 2),
    times |tau|.  Three inversions and two translations round, so
    10 kappa eps bounds the error."""
    with mp.workdps(15):
        tau = mp.mpc("0.6667", "1e-5")
        got = eta(tau)
        bound = 10 * mp.pi * abs(tau) / (12 * abs(3 * tau - 2) ** 2) * mp.eps
    with mp.workdps(55):
        want = eta(tau)
    assert abs(want) < mp.mpf("1e-100")
    assert abs(got - want) <= bound * abs(want)


def test_eta_domain_and_route_validation():
    with pytest.raises(DomainError):
        eta(mp.mpc(1, -1))
    with pytest.raises(DomainError):
        eta_tilde(mp.mpf(1))
    with pytest.raises(ValueError):
        eta(mp.j, route="magic")


def test_eta_tilde_conjugation():
    tau = mp.mpc("0.4", "0.9")
    assert abs(eta_tilde(-mp.conj(tau)) - mp.conj(eta_tilde(tau))) < mp.mpf("1e-22")


def test_delta_equals_weighted_theta():
    assert checks.delta_theta_gap(mp.mpf(1), "1e-20") < mp.mpf("1e-14")


@pytest.mark.parametrize("x", ["0.001", "0.002+0.3j", "1e-5-0.2j"])
def test_delta_equals_weighted_theta_near_the_axis(x):
    """The lateral difference's Gaussian sum (summation._gaussian_sum)
    against the theta sum here.  The two share their cutoff
    (specfun._gauss_cutoff), their guard rule (modular._theta_guard) and
    the fixed-point stepping kernel, which has its own test; their seeds
    and walks are separate: mpc seeds per residue mod the weight period
    there, integer seeds per chain mod 6 here."""
    assert checks.delta_theta_gap(mp.mpmathify(x), "1e-20") < mp.mpf("1e-14")


@pytest.mark.parametrize(
    "alpha", [Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2)]
)
def test_boundary_limit_is_minus_two_phi(alpha):
    limit, err = eta_tilde_radial(alpha)
    assert checks.phi_gap(alpha, limit, -2) < mp.mpf("1e-10")
    assert err < mp.mpf("1e-8")


BOUNDARY_ALPHAS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                   Fraction(1, 4), Fraction(3, 4)]


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("alpha", BOUNDARY_ALPHAS)
def test_eta_tilde_radial_error_estimate_covers_the_error(alpha, dps):
    with mp.workdps(dps):
        limit, err = eta_tilde_radial(alpha)
    with mp.workdps(dps + 30):
        actual = abs(limit + 2 * phi(alpha))
    assert err >= actual, (alpha, dps)


SAMPLER_ALPHAS = BOUNDARY_ALPHAS + [Fraction(-1), Fraction(2), Fraction(5, 7),
                                   Fraction(-7, 12), Fraction(11, 3), Fraction(1, 12)]


def _ladder_start(alpha):
    """The finest rung eps_1 of eta_tilde_radial's ladder at alpha; rung j
    sits at j eps_1."""
    return mp.mpf("1.5e-4") / alpha.denominator**2


# the guard digits of eta_tilde_radial: 5, plus the digits of the gain
LADDER_GUARD = 5 + math.ceil(math.log10(_LADDER_GAIN))


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("alpha", SAMPLER_ALPHAS, ids=str)
def test_boundary_samples_match_eta_tilde(alpha, dps):
    """Every sample of the residue-class sweep, real Gaussian sums mod 12 d
    times their phases, each rung's terms the previous rung's times the
    finest's, against the generic theta sum eta_tilde at the same point, on
    all the rungs."""
    with mp.workdps(dps):
        start = _ladder_start(alpha)
        samples, scale = modular._boundary_ladder(alpha, start)
        assert len(samples) == _LADDER_RUNGS
        for j, sample in enumerate(samples, 1):
            eps = j * start
            want = eta_tilde(mp.mpf(alpha.numerator) / alpha.denominator + mp.j * eps)
            got = _from_fixed(*sample, scale)
            assert abs(got - want) <= mp.mpf(10) ** (5 - dps) * max(1, abs(want)), j


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("alpha", SAMPLER_ALPHAS, ids=str)
def test_eta_tilde_radial_is_the_richardson_limit_of_its_samples(alpha, dps):
    """The limit and the correction of eta_tilde_radial, from exact integer
    Lagrange weights, against the Neville tableau richardson_limit on the
    same samples as mpc at the ladder's guard digits, the h = j eps_1 in
    decreasing order: the limit to its rounding, the err_estimate to its
    rounding plus a few units of the guarded precision times the ladder's
    gain."""
    with mp.workdps(dps):
        limit, err = eta_tilde_radial(alpha)
        rounding = mp.eps * abs(limit)
        with mp.extradps(LADDER_GUARD):
            start = _ladder_start(alpha)
            samples, scale = modular._boundary_ladder(alpha, start)
            values = [_from_fixed(*sample, scale) for sample in reversed(samples)]
            hs = [j * start for j in range(_LADDER_RUNGS, 0, -1)]
            want, correction = richardson_limit(hs, values)
            largest = max(abs(v) for v in values)
            noise = 4 * mp.eps * largest * _LADDER_GAIN
            want_err = correction + mp.eps * largest * _LADDER_GAIN + rounding
        assert abs(limit - want) <= mp.eps * abs(want) + noise
        assert abs(err - want_err) <= mp.eps * want_err + noise


LADDER_GRID = SAMPLER_ALPHAS + sorted(
    {sign * Fraction(a, d) for d in range(1, 7) for a in range(1, 2 * d) if math.gcd(a, d) == 1
     for sign in (1, -1)} - set(SAMPLER_ALPHAS))


@pytest.mark.parametrize("dps, ceiling", [(15, "1e-14"), (25, "1e-21"), (50, "1e-21")])
def test_eta_tilde_radial_reaches_minus_two_phi_on_the_grid(dps, ceiling):
    """eta_tilde_radial against -2 phi at dps + 30 on SAMPLER_ALPHAS and the
    46 angles +-a/d, d <= 6, a < 2 d: its err_estimate covers the error on
    every angle, and the error stays below a ceiling the ladder is measured
    to reach (at most 1.9e-15 at 15 digits, 3.9e-23 at 25 and 50), so that
    a retuned ladder cannot give up digits unnoticed."""
    worst = 0
    for alpha in LADDER_GRID:
        with mp.workdps(dps):
            limit, err = eta_tilde_radial(alpha)
        with mp.workdps(dps + 30):
            actual = abs(limit + 2 * phi(alpha))
        assert actual <= err, (alpha, dps)
        worst = max(worst, actual)
    assert len(LADDER_GRID) == 46 + 5
    assert worst <= mp.mpf(ceiling)


class _CountedInt(int):
    """An int that counts its products with another _CountedInt: the
    stepping and the chain products of _fixed_gauss_ladder, not the sums'
    products by n."""
    products = 0

    def __mul__(self, other):
        if isinstance(other, _CountedInt):
            _CountedInt.products += 1
            return _CountedInt(int(self) * int(other))
        return int(self) * other

    __rmul__ = __mul__

    def __rshift__(self, bits):
        return _CountedInt(int(self) >> bits)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(2, 3), Fraction(-7, 12)], ids=str)
def test_eta_tilde_radial_work_budget(monkeypatch, alpha):
    """One expjpi per ladder, no generic theta sum, and one sweep: the
    finest rung steps exactly as many terms as there are n <= N_1 with
    chi12(n) != 0, at two products a step, and every later rung j takes
    exactly one product a term for as many terms as there are n <= N_j,
    N_j eta_tilde's own cutoff at j eps_1; each residue class r mod 12 d
    sums n = r, r + 12 d, ... <= N_j."""
    def no_work(*args, **kwargs):
        raise AssertionError("the boundary samples went through the generic theta sum")

    expjpi_calls, terms, residues = [0], [0] * _LADDER_RUNGS, []
    expjpi, gauss_ladder = mp.expjpi, modular._fixed_gauss_ladder

    def counted(x):
        expjpi_calls[0] += 1
        return expjpi(x)

    def stepped(term, ratio, step, spans, wp):
        residues.append(spans)
        for j, span in enumerate(spans):
            terms[j] += len(span)
        return gauss_ladder(*map(_CountedInt, (term, ratio, step)), spans, wp)

    monkeypatch.setattr(mp, "expjpi", counted)
    monkeypatch.setattr(modular, "eta_tilde", no_work)
    monkeypatch.setattr(modular, "_theta_sum", no_work)
    monkeypatch.setattr(modular, "_fixed_gauss_ladder", stepped)
    monkeypatch.setattr(_CountedInt, "products", 0)
    eta_tilde_radial(alpha)
    assert expjpi_calls[0] == 1
    chi, period = chi12(), 12 * alpha.denominator
    with mp.extradps(LADDER_GUARD):
        start = _ladder_start(alpha)
        cutoffs = [modular._theta_plan(math.pi * float(j * start) / 12, 1)[0]
                   for j in range(1, _LADDER_RUNGS + 1)]
    assert cutoffs == sorted(cutoffs, reverse=True)
    counts = [sum(1 for n in range(1, n_terms + 1) if chi(n)) for n_terms in cutoffs]
    assert terms == counts
    assert _CountedInt.products == 2 * (counts[0] - len(residues)) + sum(counts[1:])
    for spans in residues:
        r = spans[0].start
        assert spans == [range(r, n_terms + 1, period) for n_terms in cutoffs]


def test_theta_sum_transcendental_call_budget(monkeypatch):
    """Every theta sum makes at most two expjpi calls, q = e^{pi i tau/12}
    and Q = q^24, and steps the rest on integers: near the real axis, where
    the sum runs to thousands of terms, and for the short sums of the eta
    integrand alike."""
    calls = [0]
    inner = mp.expjpi

    def counted(x):
        calls[0] += 1
        return inner(x)

    monkeypatch.setattr(mp, "expjpi", counted)
    for run in [
        lambda: eta_tilde(mp.mpf(2) / 3 + mp.j * mp.mpf("0.002") / 2304),
        lambda: eta(mp.j),
        lambda: eta(mp.mpc("0.3", "0.9")),
    ]:
        calls[0] = 0
        run()
        assert calls[0] <= 2


@pytest.mark.parametrize("call", [
    lambda: eta(2 * mp.j),
    lambda: eta_tilde(mp.mpf("0.004") * mp.j),
    lambda: summation.sum_theta("poincare", mp.mpf("0.7"), tol="1e-15"),
], ids=["eta", "eta_tilde", "sum_theta"])
def test_theta_front_end_seeds_imaginary_tau_by_real_exponentials(monkeypatch, call):
    """On the imaginary axis of tau, eta, eta_tilde and the theta route seed
    _theta_sum with q and Q from two real exponentials: no expjpi call, and
    imaginary integers exactly 0."""
    seeds, expjpi_calls = [], [0]
    theta_sum, expjpi = modular._theta_sum, mp.expjpi

    def recorded(q, big_q, *rest):
        seeds.append((q, big_q))
        return theta_sum(q, big_q, *rest)

    def counted(x):
        expjpi_calls[0] += 1
        return expjpi(x)

    monkeypatch.setattr(modular, "_theta_sum", recorded)
    monkeypatch.setattr(mp, "expjpi", counted)
    call()
    assert len(seeds) == 1 and expjpi_calls[0] == 0
    assert all(q[1] == 0 and big_q[1] == 0 for q, big_q in seeds)


def test_theta_chains_of_the_two_sign_tables():
    """chi12 seeds its chains 1 and 5 mod 6 from Q^0 and Q^1 with ratios
    -Q^2 and -Q^4; chi60(2) has four chains mod 30, and chi60(1), whose
    support squares to 49 mod 120, has none."""
    def exponents(chains):
        powers = [0, 1]  # the exponent of Q at each position
        for i, j in chains.products:
            powers.append(powers[i] + powers[j])
        return (powers[chains.step],
                tuple((c, negative, powers[first], powers[ratio])
                      for c, negative, first, ratio in chains.chains))

    chains = modular._theta_chains(chi12())
    assert chains.half == 6
    assert len(chains.products) == 3  # Q^2, Q^3 and Q^4, one product each
    assert exponents(chains) == (3, ((1, False, 0, 2), (5, True, 1, 4)))
    step, table = exponents(modular._theta_chains(chi60(2)))
    assert step == 15
    assert table == ((1, True, 0, 8), (11, True, 1, 13), (19, True, 3, 17), (29, True, 7, 22))
    with pytest.raises(ValueError, match="no theta chains"):
        modular._theta_chains(chi60(1))


@pytest.mark.parametrize("weight", [0, 1])
def test_theta_sum_of_chi60_against_plain_loop(weight):
    """The chains of chi60(2) against sum C(n) n^weight q^{n^2} term by term."""
    tau = mp.mpc("0.3", "0.02")
    wp = mp.prec + 40
    q, big_q = mp.expjpi(tau / 60), mp.expjpi(2 * tau)  # Q = q^120
    n_terms = 400
    got = _from_fixed(*modular._theta_sum(
        modular._to_fixed(q, wp), modular._to_fixed(big_q, wp), n_terms, weight, wp,
        modular._theta_chains(chi60(2))), wp)
    chi = chi60(2)
    with mp.extradps(10):
        want = mp.fsum(chi(n) * n**weight * mp.expjpi(tau * n * n / 60)
                       for n in range(1, n_terms + 1) if chi(n))
    assert abs(got - want) < mp.mpf(10) ** (4 - mp.dps)


def test_theta_sum_below_the_float_range_raises():
    """Im tau = 1e-400 underflows beta = pi Im tau/12 to 0 in floats: the
    cutoff raises ConvergenceError rather than overflow."""
    with pytest.raises(ConvergenceError):
        eta_tilde(mp.mpc("0.3", "1e-400"))


def _mpf_smallest_count(beta, s, target):
    """The smallest n >= 1 with gaussian_tail(n, beta, s) <= target, in mpf,
    by doubling and bisection: the reference for the float cutoff."""
    lo, hi = 0, 1
    while gaussian_tail(hi, beta, s) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gaussian_tail(mid, beta, s) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _check_count(got, beta, s, target):
    """got is the reference count: it meets the target and got - 1 misses."""
    assert got == _mpf_smallest_count(beta, s, target), (beta, s, target)
    assert gaussian_tail(got, beta, s) <= target
    assert got == 1 or gaussian_tail(got - 1, beta, s) > target


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_gauss_cutoff_equals_the_mpf_loop(dps):
    """specfun._gauss_cutoff, the one cutoff of every theta and Gaussian sum,
    picks the smallest count whose mpf bound gaussian_tail meets the
    target, with both weights, for theta sums from Im tau = 1e-5 to 1e3 at
    eta's target 10^-(dps+5) of the first term.  Past the term budget, at
    Im tau = 1e-12, the theta front end raises ConvergenceError before any
    work.  The lateral difference's use of the cutoff is checked in
    test_summation."""
    with mp.workdps(dps):
        for j in range(33):
            v = mp.mpf(10) ** (-5 + mp.mpf(j) / 4)
            beta = mp.pi * v / 12
            target = mp.exp(-beta) * mp.mpf(10) ** (-(dps + 5))
            for s in (0, 1):
                _check_count(_gauss_cutoff(float(beta), s, float(mp.log(target))), beta, s, target)
        beta = mp.pi * mp.mpf("1e-12") / 12
        for s in (0, 1):
            target = mp.exp(-beta) * mp.mpf(10) ** (-(dps + 5))
            assert _mpf_smallest_count(beta, s, target) > modular._SERIES_BUDGET
            with pytest.raises(ConvergenceError):
                modular._theta_value(mp.mpc("0.3", "1e-12"), s)


def _plain_theta_sums(tau, dps):
    """(eta sum, its sum |term|, eta_tilde sum, its sum |term|) at tau, one
    expjpi per term at dps + 20, with no inversion step."""
    chi = chi12()
    with mp.workdps(dps + 20):
        beta = mp.pi * mp.im(tau) / 12
        n_max = int(mp.sqrt((dps + 20) * mp.log(10) / beta)) + 12
        sums = [mp.mpc(0), mp.mpf(0), mp.mpc(0), mp.mpf(0)]
        for n in range(1, n_max + 1):
            if s := chi(n):
                term = mp.expjpi(mp.mpf(n) ** 2 * tau / 12)
                sums[0] += s * term
                sums[1] += abs(term)
                sums[2] += s * n * term
                sums[3] += n * abs(term)
    return sums


@pytest.mark.parametrize("dps", [15, 25, 50])
@pytest.mark.parametrize("re_part,im_part", [
    pytest.param(Fraction(2, 3), "1e-7", id="2/3+1e-7i"),
    pytest.param(Fraction(1, 3), "1e-6", id="1/3+1e-6i"),
    pytest.param(Fraction(3, 10), "0.9", id="0.3+0.9i"),
    pytest.param(Fraction(5), "2", id="5+2i"),
    pytest.param(Fraction(1, 2), "0.87", id="0.5+0.87i"),
    pytest.param(Fraction(-1, 5), "1.5", id="-0.2+1.5i"),
    pytest.param(Fraction(1, 10), "4", id="0.1+4i"),
    pytest.param(Fraction(2), "30", id="2+30i"),
])
def test_theta_recurrence_matches_plain_sum(re_part, im_part, dps):
    with mp.workdps(dps):
        tz = mp.mpc(mp.mpf(re_part.numerator) / re_part.denominator, mp.mpf(im_part))
        got = eta(tz), eta_tilde(tz)
    plain, size, plain_tilde, size_tilde = _plain_theta_sums(tz, dps)
    bound = mp.mpf(10) ** (5 - dps)
    assert abs(got[0] - plain) <= bound * max(1, size)
    assert abs(got[1] - plain_tilde) <= bound * max(1, size_tilde)


def test_g_frozen_value_and_domain():
    assert abs(zagier_g(1) - G_AT_ONE) < mp.mpf("1e-12")
    with pytest.raises(DomainError):
        zagier_g(0)
    with pytest.raises(ValueError):
        zagier_g(1, route="sideways")


@pytest.mark.parametrize("x", [1 + 1j, mp.mpc(1, 1), mp.mpc(-2, "1e-30")], ids=str)
def test_g_refuses_a_complex_x(x):
    with pytest.raises(DomainError, match="x must be real"):
        zagier_g(x)


def test_g_takes_a_complex_x_on_the_real_axis():
    assert zagier_g(mp.mpc(1, 0), tol="1e-12") == zagier_g(1, tol="1e-12")
    assert zagier_g(1 + 0j, tol="1e-12", route="direct") == zagier_g(1, tol="1e-12", route="direct")


@pytest.mark.parametrize("route", ["laplace", "direct", "closed"])
@pytest.mark.parametrize("dps", [15, 25, 50])
def test_g_meets_loose_tolerances(dps, route):
    """Both routes size their eta ray to tol: at 1e-6 and 1e-10 each value
    is within tol of the same route at dps + 20 and tol 10^-(dps+5)."""
    for x in ("1", "-0.5", "0.2", "7"):
        with mp.workdps(dps + 20):
            reference = zagier_g(mp.mpf(x), tol=mp.mpf(10) ** -(dps + 5), route=route)
        for tol in ("1e-6", "1e-10"):
            with mp.workdps(dps):
                value = zagier_g(mp.mpf(x), tol=tol, route=route)
            with mp.workdps(dps + 20):
                assert abs(value - reference) <= mp.mpf(tol), (x, tol)


@pytest.mark.parametrize("dps", [15, 25, 50])
def test_g_closed_route_matches_the_laplace_route(dps):
    """g(x) = L(i/(2 pi x)), the closed route's lateral base on the
    imaginary axis, shares no ray and no theta sum with the Laplace route;
    the two agree within their two tolerances on both half lines, at the
    smallest tolerance both reach and at 1e-10."""
    with mp.workdps(dps):
        for tol in {mp.mpf("1e-10"), max(mp.mpf("1e-16"), mp.mpf(10) ** (4 - dps))}:
            for x in (Fraction(1), Fraction(1, 2), mp.mpf("-0.8"), mp.mpf(3), mp.sqrt(2)):
                gap = abs(zagier_g(x, tol=tol, route="closed") - zagier_g(x, tol=tol))
                assert gap <= 2 * tol, (x, tol)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: summation.sum_eta_integral(mp.mpc(2, "1.5"), "mul", tol="1e-16"),
                 id="sum-eta-integral"),
    pytest.param(lambda: summation.sum_eta_integral(mp.mpc("0.3", 2), "median", tol="1e-6"),
                 id="sum-eta-integral-loose"),
    pytest.param(lambda: zagier_g(-0.5, tol="1e-10", route="direct"), id="g-direct"),
])
def test_panel_theta_cutoff_never_undercounts(monkeypatch, run):
    """Each doubling panel takes the theta cutoff of its left end, where b t
    is least: at every node it is at least _gauss_cutoff at the node's own
    b t, for the tail the ray's plan holds every node to."""
    plans, nodes = [], []
    plan, node_kernel = modular._eta_ray_plan, modular._eta_nodes

    def recorded_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    def recorded_nodes(direction, wp):
        node = node_kernel(direction, wp)
        b_unit = math.pi * float(direction.imag) / 12

        def recorded(tf, n_terms):
            nodes.append((b_unit * tf / 2**wp, n_terms, plans[-1].log_tail))
            return node(tf, n_terms)

        return recorded

    monkeypatch.setattr(modular, "_eta_ray_plan", recorded_plan)
    monkeypatch.setattr(modular, "_eta_nodes", recorded_nodes)
    run()
    assert nodes
    assert all(n_terms >= _gauss_cutoff(b, 0, log_tail) for b, n_terms, log_tail in nodes)


@pytest.mark.parametrize("tol", ["0.5", "1e-6", "1e-12", "1e-40"])
def test_eta_ray_plan_does_no_more_than_the_working_precision_asks(tol):
    """However fine tol is, the ray stops by the length at which the theta
    sum is 10^-(dps+8) of its leading term and takes no more bits than
    _eta_ray_wp; however coarse, it is at least [1, 2] long."""
    for phi in ("0.3", "1.1780972450961724", "1.5707963267948966"):
        direction = mp.expj(mp.mpf(phi))
        for w in (mp.mpc(3, -2), mp.mpc("0.5", "1e-3"), mp.mpc(-40, 7)):
            rho, wp, counts, _ = modular._eta_ray_plan(w, direction, mp.mpf(tol))
            b = math.pi * float(direction.imag) / 12
            assert 2 <= rho <= max(2, (mp.dps + 8) * _LN10 / b)
            assert wp <= modular._eta_ray_wp(w, direction)
            assert len(counts) == int(rho).bit_length()


def test_g_two_phi_identity():
    assert checks.two_phi_gap("1e-16") < mp.mpf("1e-14")


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2)])
def test_g_inversion_identity(alpha):
    assert checks.g_inversion_gap([alpha], "1e-16") < mp.mpf("1e-12")


def test_g_direct_route_differs_by_fixed_rotation():
    """The rotated-kernel route equals the Laplace route times a constant."""
    ratio = checks.g_route_ratio(1, "1e-12", "1e-14")
    assert abs(ratio - checks.g_route_constant()) < mp.mpf("1e-9")


def test_g_taylor_matches_asymptotic_coefficients():
    """c_n = (-pi i/12)^n a_n ties the boundary jet to the x -> oo series."""
    for gap, size in checks.g_jet_gaps(4):
        assert gap < mp.mpf("1e-6") * (1 + size)


def test_g_taylor_count_validation():
    with pytest.raises(ValueError):
        zagier_g_taylor(0)
    with pytest.raises(ValueError):
        zagier_g_taylor(9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0, -1], ids=str)
@pytest.mark.parametrize("route", ["laplace", "direct", "closed"])
def test_zagier_g_refuses_a_tolerance_that_certifies_nothing(route, tol):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="tolerance"):
        zagier_g(1, tol=tol, route=route)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("x", [1, -0.5])
def test_laplace_route_g_keeps_tau_on_the_imaginary_axis(monkeypatch, x):
    """zagier_g's Laplace route integrates along the imaginary axis of tau,
    theta = 0, where q = e^{pi i tau/12} and Q = q^24 are real; every theta
    sum must see seeds whose imaginary integers are exactly 0, not a
    rounding residue of a rotation."""
    seeds = []
    theta_sum = modular._theta_sum

    def recorded(q, big_q, *rest):
        seeds.append((q, big_q))
        return theta_sum(q, big_q, *rest)

    monkeypatch.setattr(modular, "_theta_sum", recorded)
    zagier_g(x, tol="1e-12")
    assert seeds and all(q[1] == 0 and big_q[1] == 0 for q, big_q in seeds)


@pytest.mark.parametrize("call", [
    lambda: eta(mp.mpc("nan", 1)),
    lambda: eta(mp.mpc(1, "nan")),
    lambda: eta(mp.mpc("nan", 1), "product"),
    lambda: eta_tilde(mp.mpc("nan", 1)),
    lambda: eta_tilde_radial(mp.inf),
    lambda: zagier_g(mp.nan),
    lambda: zagier_g(mp.nan, route="direct"),
    lambda: zagier_g(mp.inf),
], ids=["eta-re", "eta-im", "eta-product", "eta_tilde", "eta_tilde_radial",
        "g-nan", "g-direct-nan", "g-inf"])
def test_non_finite_input_raises_domain_error(call):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="must be finite"):
        call()
    assert time.perf_counter() - start < 0.1
