"""Generalized summation of the factorially divergent series, four ways.

closed route: the median Laplace transform of each branch term
(eta - p)^{-k/2}, k = 2m + 1, reduces to the Dawson remainder R_m,

    a_k eta^{1/2-m} y^{m-1} R_m(sqrt y),   y = eta x,  a_k = 2^m/(2m-1)!!,

(k = 3: eta^{-1/2} 2 (2 sqrt(y) D(sqrt y) - 1)), summed over the
singularities together with the constant term.  The result
is real on x > 0 (the median value) and analytic on Re x > 0, so the same
formula is the analytic continuation of the median everywhere it converges.
The lateral values differ from it by the explicit exponentially small series
dirichlet_delta: mur = median + delta, mul = median - delta.

The slowly convergent algebraic part is accelerated through the periodic
weight table of the model (c_n = n^power w_n): each term keeps only R_K,
and the orders m..K-1 it drops are restored in full through Hurwitz-zeta
sums (periodic_power_sum).  K is chosen per call from the precision, |x| and
tol.  R_K is its algebraic part A_K plus the Stokes term
i sgn(Im z) sqrt(pi) z e^{-z^2}, and as i^k Gamma(1 - k/2) = i sqrt(pi) a_k,
the Stokes terms sum to exactly sgn(Im x) delta.  So the closed base sums
the A_K terms alone, as far as the DLMF 7.12 bound on A_K asks: that is the
lateral value L on the side of Im x (mul above the real axis, mur below it,
the median on it), and

    median = L + sgn(Im x) delta.

Every kind sums L to tol/2, over the N_alg terms that bound asks for, and
delta to tol/4.  Of L's share the tail takes 15/16 and the A_K kernels the
rest, shared over the terms by their coefficient bounds: each kernel gets an
absolute target from tol, and specfun sizes both its branches to it.

integral route (5/2-power model only): the weight-3/2 theta integral

    sqrt(3) x^{3/2} int_ray eta(2 pi i z) (x - z)^{-3/2} dz

along the ray halfway between arg x and the imaginary axis, below the point
x for mul and above it for mur.  On the real parameter t = 2 pi |z| it is
one modular._eta_ray, the same folded eta integral as the direct route of
zagier_g: t = 1 is the fixed point of tau -> -1/tau, so each node and its
mirror 1/t share one theta sum and no node inverts.  The ray takes the
route's tol divided by |sqrt(3) x^{3/2} sqrt(2 pi)|, and sizes its length,
theta cutoffs and working bits to that (modular._eta_ray_plan).
It converges for boundary x on the imaginary axis, where the closed route
diverges, and includes the constant term automatically.  sum_eta_integral
integrates one ray, on the wide side of x (mul when Im x >= 0, else mur);
every other kind is that ray at tol/2 plus the Stokes jump, delta at tol/4.
cross_routes integrates both sides directly, as independent routes.

finite-part quadrature (the Poincare cross-check): median_laplace_unit
integrates the transform with its singularity subtracted, one fixed-point
kernel per node (exp_fixed and cos_sin_fixed) on specfun's integer
Gauss-Legendre quadrature, one mpc per transform.

theta route (sum_theta, both models): on Re x > 0 the median is the
convergent theta series in q = e^{-1/(2 M x)} of the model's sign table C
mod M,

    trefoil:   -1/2 sum n chi_12(n) q^{n^2},   M = 12,
    poincare:  -1/2 sum chi_60^(2)(n) q^{n^2}, M = 60.

These identities are measured here, not derived: sum_theta agrees with
the closed route within its estimate on the calibration grid of the tests,
at 15, 25 and 50 digits down to tol = 10^(5-dps).  By Poisson summation the
dual of each series runs over the exponentials e^{-eta_m x} of the lateral
difference, weighted by the finite Fourier transform of C; verify's
theta-weights checks tie those transforms to the Borel weights of the
paper's appendix.  By Lawrence-Zagier the asymptotic series of the theta
series in 1/x is the model's coefficient table.  The sum runs along the
chains of C (modular._theta_sum): every n with C(n) != 0 has
n^2 = 1 + 2M e_n, so q^{n^2} = q Q^{e_n} with Q = q^{2M} = e^{-1/x}: it is
eta's front end modular._theta_value at tau = i/(2 pi x), and it and the
lateral difference are planned as eta is, by the cutoff
specfun._gauss_cutoff at tol/2 and the guard modular._theta_guard at
tol/1000.  sum_median takes it wherever its nonzero terms cost less than
the closed route's N_alg (_median_value).

radial route (both models): the lateral base L is analytic across the
imaginary axis, and only delta diverges there, so the median's limit along
x = eps + i y is L(i y) + sgn(y) delta*, with no extrapolation.  L is the
closed route's own sum at x = i y (_lateral), where _peel_order's bound
holds on the edge arg x = +-pi/2 of its sector.  delta* is the boundary
value of delta, exact by the Lawrence-Zagier lemma: with C(n) =
w_n e^{-i nu n^2 y} periodic and of mean zero,

    delta* = i^k Gamma(1 - k/2) (i y)^{k/2-1} L(-p, C),

a finite sum of Bernoulli polynomials at roots of unity
(characters.l_value_cyclotomic).  At y = 1/(2 pi alpha) the limit is the
median's theta series at the root of unity e^{2 pi i alpha}, which the same
lemma makes the finite sum median_boundary_sum: for the trefoil, phi(alpha).

Read together, three facts make the trefoil's theta identity more than a
measurement.  The paper's eta-integral formula writes L as the lateral
Laplace value that zagier_g takes at x = i/(2 pi a), so L(i/(2 pi a)) =
g(a); by Zagier's theorem g is the obstruction to the modularity of
eta_tilde, -1/2 eta_tilde(i/(2 pi x)) - g is a multiple of
eta_tilde(2 pi i x); and by the delta-theta identity (verify's check of
that name) that multiple is delta.  So median = L + sgn(Im x) delta is
-1/2 eta_tilde(i/(2 pi x)), the trefoil's theta series.  The chain is
measured, not proved, here: verify's g-closed-route check compares L at
i/(2 pi a) with the Laplace route's g, which shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice

from mpmath import mp
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .borel import (
    TERM_BUDGET,
    SqrtBranched,
    periodic_power_sum,
    poincare_borel,
    trefoil_borel,
)
from .characters import chi12, chi60, l_value_cyclotomic
from .errors import (
    ConvergenceError,
    DomainError,
    RayGeometryError,
    ToleranceError,
    require_finite,
    require_tol,
)
from .modular import _eta_ray, _rational_angle, _theta_chains, _theta_guard, _theta_value
from .specfun import (
    FixedKernel,
    _adaptive_segment,
    _algebraic,
    _fixed_mul,
    _from_fixed,
    _gauss_cutoff,
    _log_gaussian_tail,
    _quadratic_phase_sum,
    _remainder_factor,
    _to_fixed,
    dawson_deficit,
    e_mod_deficit,
)

__all__ = [
    "AverageKind",
    "SummationResult",
    "averaged_value",
    "sum_erfi",
    "sum_eta_integral",
    "sum_theta",
    "dirichlet_delta",
    "cross_routes",
    "route_gap",
    "sum_median",
    "radial_limit",
    "median_boundary_sum",
    "median_laplace_unit",
    "median_laplace_unit_closed",
]


class AverageKind(Enum):
    MUL = "mul"
    MUR = "mur"
    MEDIAN = "median"


_DELTA_FACTOR = {AverageKind.MUL: -1, AverageKind.MEDIAN: 0, AverageKind.MUR: 1}


@dataclass(frozen=True)
class SummationResult:
    """Value of one summation route at one point, with its context.

    err_estimate is the route's own estimate (tol for the closed, integral
    and radial routes, the tail bound plus rounding for the theta route),
    or the cross-route gap when a cross-check measured more.  routes holds
    the independent route values of a cross-checked median, else None."""

    model: str
    x: object
    kind: AverageKind
    route: str
    value: object
    err_estimate: object
    routes: dict | None = None


def _kind(kind) -> AverageKind:
    if isinstance(kind, AverageKind):
        return kind
    return AverageKind(str(kind))


def _resolve_model(model) -> SqrtBranched:
    if isinstance(model, SqrtBranched):
        return model
    if model == "trefoil":
        return trefoil_borel()
    if model == "poincare":
        return poincare_borel()
    raise ValueError("model must be 'trefoil', 'poincare', or a SqrtBranched")


def _require_right_half(x):
    xz = mp.mpc(require_finite(x, "x"))
    if mp.re(xz) <= 0:
        raise DomainError(
            "closed-route sums converge only for Re x > 0; "
            "use the integral or radial route at the boundary"
        )
    return xz


def median_laplace_unit_closed(k: int, y):
    """Median Laplace transform of (1 - p)^{-k/2} against e^{-y p}, k in {3, 5}."""
    z = mp.sqrt(mp.mpc(y))
    if k == 3:
        return 2 * dawson_deficit(z)
    if k == 5:
        return mp.mpf(4) / 3 * mp.sqrt(mp.pi) * e_mod_deficit(z)
    raise ValueError("k must be 3 or 5")


def _finite_part_kernel(k: int, yz, wp: int) -> FixedKernel:
    """The integrand (e^{-y(1-v^2)} - e^{-y} [1 + y v^2 for k = 5]) / v^(k-1)
    of median_laplace_unit as a FixedKernel at wp, for Re y >= 0, where
    |e^{-y(1-v^2)}| <= 1.  Each node works at wp + g bits, g the guard of
    that node: (k - 1) log2(1/v) bits for the cancellation of the numerator
    near v = 0, whose error the division by v^(k-1) multiplies, the bits of
    |Im y| for the reduction of the phase Im y (1 - v^2) mod pi/2 in
    cos_sin_fixed, and 4 more.  The exponent's reduction mod ln 2 needs
    none: its error is n 2^-(wp+g) on a value of size 2^-n.  y and e^{-y}
    are formed once, at the guard of the smallest node wp can hold, and
    shifted down per node: one exp_fixed and one cos_sin_fixed a node."""
    phase_bits = math.ceil(abs(float(yz.imag))).bit_length() + 4
    top = wp + (k - 1) * (wp + 1) + phase_bits
    with mp.workprec(top):
        y_re, y_im = _to_fixed(yz, top)
        e_re, e_im = _to_fixed(mp.exp(-yz), top)
    one = 1 << 2 * wp

    def integrand(v: int):
        prec = wp + (k - 1) * (wp + 1 - v.bit_length()) + phase_bits
        drop = top - prec
        yr, yi = y_re >> drop, y_im >> drop
        v2 = v * v
        s = one - v2  # 1 - v^2, scaled by 2^(2 wp)
        size = exp_fixed(-(yr * s >> 2 * wp), prec)
        cos, sin = cos_sin_fixed(-(yi * s >> 2 * wp), prec)
        lead = e_re >> drop, e_im >> drop
        nr, ni = ((size * cos) >> prec) - lead[0], ((size * sin) >> prec) - lead[1]
        if k == 5:  # less e^{-y} y v^2
            cr, ci = _fixed_mul(lead, (yr * v2 >> 2 * wp, yi * v2 >> 2 * wp), prec)
            nr, ni = nr - cr, ni - ci
            v2 *= v2
        # / v^(k-1), v^(k-1) scaled by 2^((k-1) wp), then down to 2^wp
        lift = (k - 1) * wp
        return ((nr << lift) // v2) >> (prec - wp), ((ni << lift) // v2) >> (prec - wp)

    return FixedKernel(integrand, wp)


def median_laplace_unit(k: int, y, tol="1e-10"):
    """Same transform by finite-part quadrature, subtracting the singularity.

    In u = 1 - p = v^2 the finite part of int_0^1 u^{-k/2} e^{-y(1-u)} du is

        k = 3:  -2 e^{-y} + 2 int_0^1 (e^{-y(1-v^2)} - e^{-y}) / v^2 dv,
        k = 5:  -(2/3 + 2y) e^{-y} + 2 int_0^1 (e^{-y(1-v^2)} - e^{-y}(1 + y v^2)) / v^4 dv,

    both integrands entire, so one adaptive Gauss-Legendre pass on [0, 1],
    to tol/2, gives it to tol.  The integrand is a fixed-point kernel
    (_finite_part_kernel) at prec + 20 bits.  It uses only exp, cos, sin
    and the quadrature, so it shares no code with the Dawson kernel of the
    closed form.  A tol below 10^(2 - dps) raises ToleranceError before any
    work: the quadrature cannot certify it.  So does a tol below twice eps
    (|constant| + |value|), after the work: the quadrature meets tol/2 on
    integers, but the constant and the value are rounded relative to their
    size, which at |y| in the hundreds or Re y < 0 can pass 10^(2 - dps)."""
    if k not in (3, 5):
        raise ValueError("k must be 3 or 5")
    yz = mp.mpc(y)
    tol = require_tol(tol)
    floor = mp.mpf(10) ** (2 - mp.dps)
    if tol < floor:
        raise ToleranceError(f"tolerance {mp.nstr(tol, 3)} is below the finite-part floor "
                             f"{mp.nstr(floor, 3)} of {mp.dps} digits")
    wp = mp.prec + 20
    kernel = _finite_part_kernel(k, yz, wp)
    integral = _from_fixed(*_adaptive_segment(kernel, 0, 1 << wp, tol / 2, 40), wp)
    constant = -2 * mp.exp(-yz) * (1 if k == 3 else mp.mpf(1) / 3 + yz)
    value = constant + 2 * integral
    rounding = 2 * mp.eps * (abs(constant) + abs(value))
    if tol < rounding:
        raise ToleranceError(f"tolerance {mp.nstr(tol, 3)} is below the rounding "
                             f"{mp.nstr(rounding, 3)} of a value of size "
                             f"{mp.nstr(abs(value), 3)} at {mp.dps} digits")
    return value


# the fewest terms N_alg the closed route sums
_MIN_TERMS = 8


def _roundoff_floor():
    """Smallest tolerance the closed and theta routes accept at the working
    precision."""
    return mp.mpf(10) ** (3 - mp.dps)


def _require_reachable(tol):
    """ToleranceError for a tol below _roundoff_floor, before any work."""
    if tol < _roundoff_floor():
        raise ToleranceError(f"tolerance {mp.nstr(tol, 3)} is below the roundoff "
                             f"floor {mp.nstr(_roundoff_floor(), 3)} of {mp.dps} digits")


def _gaussian_terms(mdl: SqrtBranched, x, scale, tol):
    """(N, guard digits) for a sum of terms up to scale n^s e^{-nu n^2 Re x},
    s = mdl.power and nu down to mdl.nu_lower: the cutoff at tol/2, and the
    guard along the residues mod the period at tol/1000."""
    beta = float(mp.mpf(mdl.nu_lower) * mp.re(x))
    n = _gauss_cutoff(beta, mdl.power, float(mp.log(tol / 2)) - float(mp.log(scale)),
                      TERM_BUDGET)
    slack = float(mp.log10(tol / scale)) - 3 + mp.dps
    return n, _theta_guard(n, mdl.period, beta, mdl.power, slack)


def _gaussian_sum(mdl: SqrtBranched, x, n_terms: int):
    """sum_{n <= n_terms} c_n e^{-eta_n x}, c_n = n^p w_n with the weight
    table of mdl, eta_n = nu n^2, at the working precision.

    Per residue a mod the period P, with n = a + P j, the terms step as
    T_{j+1} = T_j R_j and R_{j+1} = R_j Q, Q = e^{-2 nu P^2 x}, from T_0 and
    R_0 = T_1/T_0, in fixed point (specfun._quadratic_phase_sum, Python
    integers scaled by 2^wp, wp = prec + 10 bits), under the caller's guard
    (_gaussian_terms), which covers the drift of the products.  A sum of
    fewer than three terms per residue is direct."""
    period, p = mdl.period, mdl.power
    nu, weights, _ = mdl.table()
    if n_terms <= 2 * period:
        return mp.fsum(w * n**p * mp.exp(-nu * n * n * x) for n in range(1, n_terms + 1)
                       if (w := weights[(n - 1) % period]))
    nu_x = nu * x
    step = mp.exp(-2 * period**2 * nu_x)
    acc = mp.mpc(0)
    for a, w in enumerate(weights, 1):
        if w:
            acc += w * _quadratic_phase_sum(
                mp.exp(-a * a * nu_x), mp.exp(-period * (2 * a + period) * nu_x), step,
                a, n_terms, period, p)
    return acc


def _delta_prefactor(mdl: SqrtBranched, x):
    """i^k Gamma(1 - k/2) x^{k/2-1}, the factor of delta's Gaussian sum and
    of its boundary value."""
    k = mdl.k
    return mp.j**k * mp.gamma(1 - mp.mpf(k) / 2) * mp.power(x, mp.mpf(k) / 2 - 1)


def _delta(mdl: SqrtBranched, xz, tol, pref=None):
    """delta at x, Re x > 0, to tol, with no check of tol: the routes call
    it at tol/4, near their own floor.  pref is _delta_prefactor at x,
    formed here unless the caller has it."""
    if pref is None:
        pref = _delta_prefactor(mdl, xz)
    n_terms, guard = _gaussian_terms(mdl, xz, abs(pref) * mdl.coeff_bound, tol)
    with mp.extradps(guard):
        acc = _gaussian_sum(mdl, xz, n_terms)
    return pref * acc


def _delta_floor():
    """64 eps: the smallest tolerance delta accepts at the working
    precision, per unit of its size.  Its sum runs under guard digits for
    tol, so what tol cannot reach is the rounding of the prefactor and of
    its product with the sum, a few eps relative to delta's own size, which
    is exponentially small, not 1."""
    return 64 * mp.eps


def _require_delta_reachable(tol, floor):
    """ToleranceError for a tol below the floor."""
    if tol < floor:
        raise ToleranceError(f"tolerance {mp.nstr(tol, 3)} is below the roundoff floor "
                             f"{mp.nstr(floor, 3)} of delta at {mp.dps} digits")


def dirichlet_delta(model, x, tol="1e-16"):
    """Exponentially small lateral difference: median - mul = mur - median.

    Equals i^k Gamma(1 - k/2) x^{k/2-1} sum_n c_n e^{-eta_n x}; the sum is a
    weighted theta series, so the cutoff is Gaussian in n.  A tol below
    _delta_floor times the bound |prefactor| coeff_bound e^{-nu Re x} on its
    first term raises ToleranceError before any work; near the imaginary
    axis, where the sum outgrows its first term, a tol below _delta_floor
    times |delta| raises after it.  The routes call the sum itself (_delta)
    at tol/4, with no check."""
    mdl = _resolve_model(model)
    xz = _require_right_half(x)
    tol = require_tol(tol)
    pref = _delta_prefactor(mdl, xz)
    unit = _delta_floor()
    # e^{-nu Re x} in floats underflows to 0 for large Re x, where the
    # check after the work still holds
    _require_delta_reachable(
        tol, unit * abs(pref) * mdl.coeff_bound * math.exp(-mdl.nu_lower * float(mp.re(xz))))
    value = _delta(mdl, xz, tol, pref)
    _require_delta_reachable(tol, unit * abs(value))
    return value


def _theta_data(mdl: SqrtBranched):
    """(C, r) of the median as the theta series -1/2 sum n^r C(n) q^{n^2},
    q = e^{-1/(2 M x)} for C of modulus M, or None for a model that has
    none."""
    if mdl is trefoil_borel():
        return chi12(), 1
    if mdl is poincare_borel():
        return chi60(2), 0
    return None


def _require_theta_data(mdl: SqrtBranched):
    """_theta_data, or ValueError for a model that has no theta series."""
    data = _theta_data(mdl)
    if data is None:
        raise ValueError("the theta route and the boundary values know only the trefoil "
                         "and poincare models")
    return data


def _theta_terms(mdl: SqrtBranched, xz, tol):
    """(N, beta) of the theta route at tol: beta = Re 1/(2 M x), and N the
    count whose tail, half the Gaussian bound at beta, is at most tol/2."""
    chi, power = _theta_data(mdl)
    beta = float(mp.re(1 / xz)) / (2 * chi.modulus)
    return _gauss_cutoff(beta, power, float(mp.log(tol)), TERM_BUDGET), beta


def _theta_median(mdl: SqrtBranched, xz, tol, n_terms: int, beta: float):
    """(value, err_estimate) of the theta route at tol as _theta_terms plans:
    -1/2 modular._theta_value at tau = i/(2 pi x), formed under its guard,
    modular._theta_guard at tol/1000 plus the digits of |x|/Re x, by which
    the rounding of tau, times n^2 in each exponent, can grow against the
    sum.  err_estimate is the tail bound plus that rounding and the final
    rounding at the working precision."""
    chi, power = _theta_data(mdl)
    chains = _theta_chains(chi)
    phase = math.ceil(mp.mag(abs(xz) / mp.re(xz)) * math.log10(2))  # |x|/Re x < 2^mag
    log10_tol = (mp.mag(tol) - 1) * math.log10(2)  # at most log10 tol: tol >= 2^(mag - 1)
    guard = phase + _theta_guard(n_terms, chains.half, beta, power, log10_tol - 3 + mp.dps)
    with mp.extradps(guard):
        tau = mp.j / (2 * mp.pi * xz)
    value = -_theta_value(tau, power, n_terms, guard, chains) / 2
    tail = mp.exp(_log_gaussian_tail(n_terms, beta, power)) / 2
    return value, tail + tol / 1000 + mp.eps * abs(value)


def sum_theta(model, x, tol="1e-12") -> SummationResult:
    """Median value at x, Re x > 0, by its theta series in e^{-1/x}:

        trefoil:   -1/2 sum n chi_12(n) e^{-n^2/(24 x)},
        poincare:  -1/2 sum chi_60^(2)(n) e^{-n^2/(120 x)},

    along the chains of the sign table by modular._theta_sum.
    It shares no Dawson kernel, Hurwitz sum or quadrature with the other
    routes.  err_estimate is the tail bound plus the rounding; a tol below
    the roundoff floor of the closed route raises ToleranceError."""
    tol = require_tol(tol)
    mdl = _resolve_model(model)
    _require_theta_data(mdl)
    xz = _require_right_half(x)
    _require_reachable(tol)
    value, err = _theta_median(mdl, xz, tol, *_theta_terms(mdl, xz, tol))
    return SummationResult(mdl.label, xz, AverageKind.MEDIAN, "theta-series", value, err)


def _peel_order(mdl: SqrtBranched, x, tol):
    """(K, N_alg, guard digits): peel the orders j < K, sum the algebraic
    parts A_K of N_alg terms, and guard the largest restored order.  N_alg
    is the least count, at least _MIN_TERMS, past which the bound on A_K,
    summed as N^{s-2K}/(2K-s), is within tol; K = m + M rises from M = 2
    while one more order, which costs a periodic_power_sum fill, saves 8 terms."""
    m = (mdl.k - 1) // 2
    s = mdl.power
    scale = 2**m / math.prod(range(1, 2 * m, 2)) * mdl.coeff_bound  # a_k A
    log_ax = float(mp.log(abs(x)))  # float(abs(x)) overflows past 1e308

    def log_order(j: int) -> float:
        # log a_k A (2j-1)!!/2^j |x|^{m-1-j} nu^{-j-1/2}: order j over n, up to a zeta
        return (math.log(scale) + math.lgamma(2 * j + 1) - math.lgamma(j + 1)
                - 2 * j * math.log(2) + (m - 1 - j) * log_ax
                - (j + 0.5) * math.log(mdl.nu_lower))

    log_tol = float(mp.log(tol))
    phase = abs(float(mp.arg(x)))

    def terms(big_k: int) -> float:
        log_c = (log_order(big_k) - math.log(2 * big_k - s) - log_tol
                 + math.log(_remainder_factor(big_k, phase)))
        return math.exp(min(log_c / (2 * big_k - s), 100.0))

    big_k = m + 2
    n_exact = terms(big_k)
    while n_exact - (nxt := terms(big_k + 1)) >= 8:
        big_k, n_exact = big_k + 1, nxt
    n_alg = max(_MIN_TERMS, math.ceil(n_exact))
    if n_alg > TERM_BUDGET:
        raise ConvergenceError(f"{mdl.label} closed route: tolerance out of reach")
    # zeta(2j + 1 - s) <= 2 bounds the restored sum of order j
    biggest = max(log_order(j) for j in range(m, big_k)) + math.log(2)
    return big_k, n_alg, max(0, int(biggest / math.log(10)))


def _closed_base(mdl: SqrtBranched, x, big_k: int, n_alg: int, budget):
    """Lateral value L on the side of Im x by the erfi series, for any
    model of odd k: mul above the real axis, mur below it, the median on
    it.  At the working precision, with the order K = big_k and the count
    N_alg = n_alg of _peel_order and the weight table of mdl, its A_K terms
    together within the absolute error budget.

    With k = 2m + 1 and a_k = 2^m/(2m-1)!!, the transform of c (eta - p)^{-k/2}
    is c a_k eta^{1/2-m} y^{m-1} R_m(sqrt y) = c a_k x^{m-1} R_m(sqrt y)/sqrt(eta),
    y = eta x.  Each term keeps only R_K; the orders j = m..K-1 it drops come
    back exactly as a_k (2j-1)!!/2^j x^{m-1-j} periodic_power_sum(j + 1/2).
    Of R_K = A_K + i sgn(Im z) sqrt(pi) z e^{-z^2} only the algebraic parts
    A_K(n z_1) c_n/n, z_1^2 = nu x, are summed, over the n <= N_alg; the
    Stokes terms it leaves out sum to sgn(Im x) delta.  The term of n enters
    L with a factor of at most a_k |x|^{m-1} coeff_bound n^{p-1}/sqrt(nu), so
    its kernel A_K is held to budget/N_alg over that factor."""
    m = (mdl.k - 1) // 2
    p = mdl.power
    a_k = mp.mpf(2) ** m / math.prod(range(1, 2 * m, 2))
    nu, weights, _ = mdl.table()
    restored = mp.fsum(
        math.prod(range(1, 2 * j, 2)) / mp.mpf(2) ** j * x ** (m - 1 - j)
        * periodic_power_sum(mdl, mp.mpf(2 * j + 1) / 2)
        for j in range(m, big_k))
    # in logs: |x| and the budget may lie past the float range
    digits = (math.log10(n_alg * float(a_k) * mdl.coeff_bound / math.sqrt(mdl.nu_lower))
              + (m - 1) * float(mp.log10(abs(x))) - float(mp.log10(budget)))
    # eta_n = nu n^2, so sqrt(y_n) = n sqrt(nu x) and sqrt(eta_n) = n sqrt(nu)
    root_nu = mp.sqrt(nu)
    z_one = root_nu * mp.sqrt(x)
    acc = mp.fsum(w * n**p * _algebraic(n * z_one, big_k, digits + (p - 1) * math.log10(n)) / n
                  for n in range(1, n_alg + 1) if (w := weights[(n - 1) % mdl.period]))
    return mdl.a0 + a_k * (restored + x ** (m - 1) * acc / root_nu)


# the share of L's tolerance that the tail past N_alg takes; the A_K
# kernels take the rest
_TAIL_SHARE = mp.mpf(15) / 16


def _lateral(mdl: SqrtBranched, xz, tol):
    """L at x to tol, on Re x >= 0: of tol the tail bound of _peel_order
    takes _TAIL_SHARE and the kernels the rest, and L is summed under the
    guard digits of _peel_order.  Unlike delta, L is analytic across the
    imaginary axis, and its plan holds there (arg x = +-pi/2); so this
    entry has no Re x > 0 gate, which the public routes keep."""
    tail = tol * _TAIL_SHARE
    big_k, n_alg, boost = _peel_order(mdl, xz, tail)
    with mp.extradps(boost):
        base = _closed_base(mdl, xz, big_k, n_alg, tol - tail)
    return +base


def _closed_value(mdl: SqrtBranched, xz, kind: AverageKind, tol):
    """L + f delta, f = sgn(Im x) + the kind's delta factor: L to tol/2
    (_lateral) and delta to tol/4 for every kind (|f| <= 2), so the kinds
    share one L and one delta."""
    _require_reachable(tol)
    factor = int(mp.sign(mp.im(xz))) + _DELTA_FACTOR[kind]
    base = _lateral(mdl, xz, tol / 2)
    if not factor:
        return base
    return base + factor * _delta(mdl, xz, tol / 4)


def sum_erfi(model, x, kind="median", tol="1e-12") -> SummationResult:
    """Closed-route value of the summed series at x, Re x > 0.

    Per singularity, the constant term bookkeeping makes the value tend
    to 1 as Re x grows; the lateral kinds add or subtract the
    exponentially small series on top of the median."""
    tol = require_tol(tol)
    mdl = _resolve_model(model)
    xz = _require_right_half(x)
    knd = _kind(kind)
    value = _closed_value(mdl, xz, knd, tol)
    return SummationResult(mdl.label, xz, knd, "erfi-series", value, tol)


def _bisector(xz, kind: AverageKind, tol):
    """The angle theta of the lateral ray on side kind: with room the angle
    from x to the imaginary axis on that side, theta = arg x -+ room/2 is
    the bisector, at the distance dist = |x| sin(room/2) from x.
    eta(2 pi i z) (x - z)^{-3/2} is analytic on Re z > 0 away from z = x,
    so every ray inside that sector gives the same lateral value; the
    bisector stays farthest from both the branch point x and the natural
    boundary Re z = 0.  RayGeometryError when Re x < 0, when the sector is
    empty, or when the ray passes within sqrt(tol) of x."""
    orient = _DELTA_FACTOR[kind]
    arg_x = mp.arg(xz)
    room = mp.pi / 2 - orient * arg_x
    half = room / 2
    dist = abs(xz) * mp.sin(half)
    if mp.re(xz) < 0 or room <= 0 or dist < mp.sqrt(tol):
        raise RayGeometryError(
            f"no admissible ray for side '{kind.value}' at arg x = {mp.nstr(arg_x)}"
        )
    return arg_x + orient * half


def _eta_integral_value(xz, kind: AverageKind, tol):
    """The lateral value on side kind (mul or mur) by its bisector ray, to tol."""
    orient = _DELTA_FACTOR[kind]
    theta = _bisector(xz, kind, tol)
    # tau = 2 pi i z along z = r e^{i theta} is t u with t = 2 pi r and
    # u = i e^{i theta}, exactly imaginary on theta = 0.  With W = 2 pi x
    # e^{-i theta}, (x - z)^{-3/2} dz = e^{-i theta/2} sqrt(2 pi)
    # (W - t)^{-3/2} dt, and Im W = -orient 2 pi dist keeps one sign along
    # the ray, so (W - t)^{-3/2} = -orient i (t - W)^{-3/2}
    direction = mp.j * mp.expj(theta)
    w = 2 * mp.pi * xz * mp.expj(-theta)
    scale = mp.sqrt(6 * mp.pi) * mp.power(xz, mp.mpf("1.5"))  # sqrt(3) x^{3/2} sqrt(2 pi)
    ray = _eta_ray(w, direction, tol / abs(scale))
    return -orient * mp.j * mp.expj(-theta / 2) * scale * ray


def sum_eta_integral(x, side="mul", tol="1e-16") -> SummationResult:
    """Integral-route value for the 5/2-power model, constant term included.

    Quadrature of the weight-1/2 theta series against (x - z)^{-3/2} along
    the ray that bisects the sector between arg x and the imaginary axis on
    the wide side of x: below x (mul) when Im x >= 0, above it (mur) when
    Im x < 0.  The ray is folded at the fixed point |z| = 1/(2 pi) of
    tau -> -1/tau, so that one theta sum at |tau| >= 1 serves each node and
    its mirror.  The wide side's kind is that ray at tol.  Every other kind
    (the narrow side, or the median) is the ray at tol/2 plus the Stokes
    jump, with delta (dirichlet_delta) at tol/4 as on the closed route:
    mul = mur - 2 delta, mur = mul + 2 delta, median = mur - delta = mul + delta.

    Each side's sector has room = pi/2 -+ arg x.  RayGeometryError is raised
    when Re x < 0, where a sector would cross Re z = 0, when a sector the
    kind needs is empty, or when its bisector passes within sqrt(tol) of x,
    |x| sin(room/2) < sqrt(tol): the narrow side's sector counts for every
    kind but the wide one, so the domain is the one the direct rays of
    cross_routes have.  A tol below the roundoff floor raises ToleranceError."""
    tol = require_tol(tol)
    _require_reachable(tol)
    kind = _kind(side)
    xz = mp.mpc(require_finite(x, "x"))
    if xz == 0:
        raise DomainError("x must be nonzero")
    narrow, wide = ((AverageKind.MUL, AverageKind.MUR) if mp.im(xz) < 0
                    else (AverageKind.MUR, AverageKind.MUL))
    if kind is wide:
        value = _eta_integral_value(xz, wide, tol)
    else:
        _bisector(xz, narrow, tol)
        factor = _DELTA_FACTOR[kind] - _DELTA_FACTOR[wide]
        value = (_eta_integral_value(xz, wide, tol / 2)
                 + factor * _delta(trefoil_borel(), xz, tol / 4))
    return SummationResult("trefoil", xz, kind, "eta-integral", value, tol)


def cross_routes(model, x, tol="1e-10"):
    """All independent median values at x, as a dict keyed by route.

    Both models: the closed route and the theta series (sum_theta).
    trefoil_borel() itself, whose theta series the eta integral sums: also
    the average of the two eta-integral laterals, and eta-integral mul plus
    the explicit lateral difference.  Every other model (Poincare, or one
    built by hand): also a variant of the closed route with its first three
    nonzero transforms swapped for median_laplace_unit values, each one
    finite-part quadrature pass at tol/8."""
    tol = require_tol(tol)
    mdl = _resolve_model(model)
    xz = _require_right_half(x)
    closed = _closed_value(mdl, xz, AverageKind.MEDIAN, tol)
    routes = {"erfi-series": closed}
    if _theta_data(mdl) is not None:
        routes["theta-series"] = _theta_median(mdl, xz, tol, *_theta_terms(mdl, xz, tol))[0]
    if mdl is trefoil_borel():
        part = tol / 4
        mul = _eta_integral_value(xz, AverageKind.MUL, part)
        mur = _eta_integral_value(xz, AverageKind.MUR, part)
        routes["eta-integral-average"] = (mul + mur) / 2
        routes["eta-integral-mul-plus-delta"] = mul + _delta(mdl, xz, part)
    else:
        # swap the first three nonzero closed-form transforms for quadrature
        other = closed
        for n in islice(filter(mdl.coeff, count(1)), 3):
            eta_n = mdl.eta(n)
            closed_term = median_laplace_unit_closed(mdl.k, eta_n * xz)
            quad = median_laplace_unit(mdl.k, eta_n * xz, tol=tol / 8)
            other += mdl.coeff(n) * eta_n ** (-mp.mpf(mdl.k) / 2 + 1) * (quad - closed_term)
        routes["finite-part-quadrature"] = other
    return routes


def route_gap(routes):
    """Largest pairwise disagreement among the values of a route dict."""
    values = list(routes.values())
    return max(abs(a - b) for a in values for b in values)


# The route choice of sum_median weighs the theta route's nonzero terms
# against the closed route's N_alg, both known before any work.  Per call,
# best of 7 (2 cores, Python 3.11.7, pure-Python mpmath), at tol 1e-12 and
# 25 digits and at tol 1e-25 and 50 digits: a theta term costs 0.41-0.56 us
# on the real axis and about 0.9 us off it, on top of about 0.09 ms per call;
# the closed route at its smallest N_alg = 8 costs 0.27-0.40 ms.  On the real
# axis of both models the routes broke even at 55 to 66 theta terms per unit
# of N_alg (68 once), between |x| = 1300 and 3600, where N_alg is 8 to 13.
# 50 lies below it: a call sent to the closed route early costs at most 17% more.
_THETA_TERMS_PER_CLOSED_TERM = 50


def _closed_terms(mdl: SqrtBranched, xz, tol):
    """N_alg of the closed median at tol, as _closed_value plans it
    (_lateral at tol/2: _peel_order at tol/2 times _TAIL_SHARE), inf past
    the budget."""
    try:
        return _peel_order(mdl, xz, tol / 2 * _TAIL_SHARE)[1]
    except ConvergenceError:
        return math.inf


def _median_value(mdl: SqrtBranched, xz, tol):
    """(value, route, err_estimate) of the median at tol by the cheaper
    route, each with its own estimate (for the closed route, tol): the theta
    series when its nonzero terms, counted by _theta_terms before any work,
    number fewer than _THETA_TERMS_PER_CLOSED_TERM times the closed route's
    N_alg, else the closed route.  N_alg is at least _MIN_TERMS, so a
    theta count below that bound needs no _peel_order.  A route past its
    term budget is never the cheaper one; a tol below _roundoff_floor
    raises for either."""
    _require_reachable(tol)
    data = _theta_data(mdl)
    if data is not None:
        try:
            n_terms, beta = _theta_terms(mdl, xz, tol)
        except ConvergenceError:
            n_terms = math.inf
        chi = data[0]
        # two nonzero residues mod M per chain
        cost = (n_terms * 2 * len(_theta_chains(chi).chains) / chi.modulus
                / _THETA_TERMS_PER_CLOSED_TERM)
        if cost < _MIN_TERMS or cost < _closed_terms(mdl, xz, tol):
            return (*_theta_median(mdl, xz, tol, n_terms, beta), "theta-series")
    return _closed_value(mdl, xz, AverageKind.MEDIAN, tol), tol, "erfi-series"


def sum_median(model, x, tol="1e-12", cross_check: bool = False,
               cross_tol=None) -> SummationResult:
    """Median value at x, Re x > 0, within tol, by the cheaper of the theta
    and closed routes (_median_value); .route names the one taken.

    With cross_check, or with a cross_tol given, the independent routes are
    also evaluated, at a quarter of cross_tol (default max(100 tol, 1e-10)),
    and returned as .routes; their route_gap is folded into err_estimate,
    and if cross_tol is given, exceeding it raises ToleranceError.  The
    value itself does not depend on the cross-check; err_estimate is at
    least tol and the estimate of the route taken."""
    tol = require_tol(tol)
    check_tol = max(tol * 100, mp.mpf("1e-10")) if cross_tol is None else require_tol(cross_tol)
    mdl = _resolve_model(model)
    xz = _require_right_half(x)
    value, err, route = _median_value(mdl, xz, tol)
    err = max(err, tol)
    routes = None
    if cross_check or cross_tol is not None:
        routes = cross_routes(mdl, xz, tol=check_tol / 4)
        gap = route_gap(routes)
        if cross_tol is not None and gap > check_tol:
            raise ToleranceError(
                f"median routes disagree by {mp.nstr(gap)} (allowed {mp.nstr(check_tol)})"
            )
        err = max(gap, err)
    return SummationResult(mdl.label, xz, AverageKind.MEDIAN, route, value, err, routes)


def averaged_value(model, avg, p, tol="1e-10"):
    """Lateral or median continuation of the transform at real p >= 0.

    Median keeps only the branch terms whose singularity lies beyond p
    (real for real coefficients); mur/mul add the purely imaginary
    contribution of the crossed terms, as the limits of eval from the
    upper/lower half plane respectively.  The arithmetic mean of mur and
    mul equals the median exactly for odd weight.  It sums as many terms
    as eval at |p| (SqrtBranched._transform_terms), so a p or tol past the
    term budget raises the same ConvergenceError, naming the model."""
    tol = require_tol(tol)
    mdl = _resolve_model(model)
    knd = _kind(avg)
    pr = require_finite(p, "p")
    if mp.im(pr) != 0:
        raise DomainError(f"p must be real, not {pr}")
    pr = mp.re(pr)
    if pr < 0:
        raise DomainError("p must be nonnegative")
    n_terms = mdl._transform_terms(float(pr), tol)
    expo = -mp.mpf(mdl.k) / 2
    ahead = mp.mpf(0)
    crossed = mp.mpf(0)
    for n in range(1, n_terms + 1):
        c = mdl.coeff(n)
        if c == 0:
            continue
        eta_n = mdl.eta(n)
        if eta_n == pr:
            raise DomainError(f"p coincides with the singularity at {mp.nstr(eta_n)}")
        if eta_n > pr:
            ahead += c * mp.power(eta_n - pr, expo)
        else:
            crossed += c * mp.power(pr - eta_n, expo)
    if knd is AverageKind.MEDIAN:
        return ahead
    phase = mp.j**mdl.k if knd is AverageKind.MUR else (-mp.j) ** mdl.k
    return ahead + phase * crossed


def _boundary_angle(alpha) -> Fraction:
    """alpha as a Fraction (modular._rational_angle); DomainError for 0."""
    frac = _rational_angle(alpha)
    if frac == 0:
        raise DomainError("alpha must be nonzero")
    return frac


def _delta_boundary(mdl: SqrtBranched, frac: Fraction, point):
    """delta* = lim delta(eps + i y) as eps -> 0, at the point i y,
    y = d/(2 pi a) for alpha = a/d: i^k Gamma(1 - k/2) (i y)^{k/2-1} L(-p, C)
    with C(n) = w_n e^{-i nu n^2 y}, by the Lawrence-Zagier lemma, which
    l_value_cyclotomic checks (C must have mean zero).  nu = 2 pi^2/M for the
    modulus M of the model's theta series, whose Gaussians e^{-n^2/(2 M x)}
    are the Poisson duals of delta's e^{-nu n^2 x}; so the phase is
    e^{i pi s n^2/h}, s = -sgn(a) d and h = M |a|, and C has the period
    lcm(P, M |a|).  The L-value is formed under the digits of |prefactor|,
    so that its error of a few eps stays a few eps of delta*."""
    modulus = _require_theta_data(mdl)[0].modulus
    a, d = frac.numerator, frac.denominator
    pref = _delta_prefactor(mdl, point)
    with mp.extradps(max(0, int(mp.log10(abs(pref))) + 1)):
        weights = mdl.table()[1]
        table = (weights[-1], *weights[:-1])  # w_n at index n mod P
        value = l_value_cyclotomic(table, mdl.power, -d if a > 0 else d, modulus * abs(a))
    return pref * value


def median_boundary_sum(alpha, model="trefoil"):
    """The median's boundary value at the root of unity zeta = e^{2 pi i alpha},
    exact up to rounding: the theta series -1/2 sum n^r C(n) q^{n^2} of
    sum_theta at q^{n^2} = zeta^{n^2/(2 M)}, which by the Lawrence-Zagier
    lemma is the finite sum -1/2 L(-r, C zeta^{n^2/(2 M)})
    (characters.l_value_cyclotomic), over the period M d at alpha = a/d.
    For the trefoil it equals phi(alpha) (Zagier's strange identity), and
    it shares no code with phi's q-factorial sum."""
    frac = _boundary_angle(alpha)
    chi, power = _require_theta_data(_resolve_model(model))
    value = l_value_cyclotomic(chi.table, power, frac.numerator, chi.modulus * frac.denominator)
    return -value / 2


def radial_limit(alpha, tol="1e-10", model="trefoil") -> SummationResult:
    """Boundary value of the median at the point i y, y = 1/(2 pi alpha):
    the limit of the median along x = eps + i y as eps -> 0.

    alpha is an int, a Fraction or an "a/b" string; a float or mpf raises
    DomainError (modular._rational_angle).  The closed route's lateral base
    L is analytic across the imaginary axis, so median = L + sgn(Im x) delta
    tends to L(i y) + sgn(y) delta*, with delta* the exact boundary value of
    delta (_delta_boundary).  L is summed at tol/2 by the closed route's own
    plan (_lateral), and delta* is exact up to a few eps, so err_estimate is
    tol.  The limit is median_boundary_sum(alpha, model), for the trefoil
    phi(alpha).  model is "trefoil", "poincare" or one of their SqrtBranched
    models.  A tol below _roundoff_floor raises ToleranceError before any
    work."""
    tol = require_tol(tol)
    _require_reachable(tol)
    frac = _boundary_angle(alpha)
    mdl = _resolve_model(model)
    y = frac.denominator / (2 * mp.pi * frac.numerator)
    point = mp.mpc(0, y)
    value = _lateral(mdl, point, tol / 2) + int(mp.sign(y)) * _delta_boundary(mdl, frac, point)
    return SummationResult(mdl.label, point, AverageKind.MEDIAN, "radial", value, tol)
