"""Dawson-type special functions and the shared quadrature/extrapolation kit.

One kernel, _remainder(z, k0) = 2 z D(z) - sum_{k<k0} (2k-1)!!/(2 z^2)^k,
gives every Dawson-type function: dawson is R_0/(2z), dawson_deficit R_1,
e_mod_deficit z^2 R_2/sqrt(pi).  Removing the leading terms inside the
kernel avoids the cancellation of about 2 k0 log10|z| digits that forming
the difference outside would cost.  The kernel is two parts,

    R_k0(z) = A_k0(z) + i sgn(Im z) sqrt(pi) z e^{-z^2},

the algebraic part _algebraic(z, k0) and the Stokes term _stokes(z), which
vanishes on the real axis; _remainder is _algebraic + _stokes.  The closed
route sums the algebraic parts alone: its Stokes terms add up to a multiple
of summation.dirichlet_delta.  It takes them at n z_1, n = 1..N_alg, from
one integer pass, _algebraic_sum: z_1, w_1 = 1/(2 z_1^2) and sqrt(pi) are
converted once, at the scale of the most demanding term (_fixed_terms);
term n's z is n z_1 and its w is w_1/n^2 by integer division; the weighted
sum leaves as one mpc.  _algebraic, _remainder and _large_z_sum are its
one-term case, so each branch below has one implementation.

_algebraic(z, k0, digits) holds A_k0(z) to the absolute target
10^-digits, plus its rounding to the working precision.  The closed route
passes each term its share of the route's tolerance; dawson, the deficits
and _remainder pass nothing, and the default _relative_digits is
10^-(dps+12) relative to the size of A_k0.  One rule, _maclaurin_boost,
sizes both branches from the target (_plan).  The large-z series summed to
its smallest term errs by at most _remainder_factor times its first
neglected term (below), and the large-z branch is taken once twice that
bound meets the target, which leaves the other half to the roundings, and
in any case past |z|^2 = (dps+12) ln 10.  For the relative default the
crossover is that radius; for the closed route it is far below it.

Below the crossover A_k0 is 2 z D(z) less the leading terms, by Horner's
rule in w = 1/(2 z^2), and less the Stokes term, e^{-z^2} from exp_fixed
and cos_sin_fixed, all on Python integers scaled by 2^wp.  The precision
is 0.4343 |z|^2 digits (the Maclaurin sum's own cancellation) plus log10
of the leading terms where they exceed 1, plus the target's digits and a
guard.  Fixed point rounds to 2^-wp absolute where mpf rounds relative to
each value, so wp adds to that precision the bits of 1/|z| below |z| = 1
and 8 more, as _dawson_maclaurin does, and the bits of 2 |z|^2 k0, by
which the roundings of w and of -z^2 grow; 2 z D, about 2 z^2 at small z,
is kept at the bits of 1/|z| more.  Past the peak of its terms the cut
|term| <= eps |sum| is decided on the integer parts of term and sum, so it
needs no mp abs.  Above the crossover the divergent large-z series is
A_k0, summed from k = k0 in fixed point too: the first term
(2k0-1)!! w^k0, k0 integer products, times the sum of t_k = term_k/first,
t <- (2k+1) w t on integers at wp = prec + 10 bits + the bits of |z|^2,
since the factor 2k+1 < 2|z|^2 multiplies the rounding of w.  prec there
is the target's digits plus log10 of the first term and a guard
(_large_z_digits), at most the working precision, and the first term is
held to wp bits.  The loop stops at the smallest term, found once in
floats, or once |t| <= 2^-16 eps times the sum on the integer norms, which
leaves the dropped tail far below an ulp.  The sizing around the kernels is
in floats: _maclaurin_boost takes |z|^2 and arg z from the float parts of
z and the terms (2k-1)!!/|2 z^2|^k from lgamma, _remainder_factor uses
lgamma rounded up, and the one cutoff of every theta and Gaussian sum,
_gauss_cutoff, is the smallest count whose _log_gaussian_tail, the log of
the mpf bound gaussian_tail, meets the log of the caller's target; each
caller holds it to its own term budget.

For |arg z| < pi/4, A_K(z) is the erfc remainder at w = -+ i z.  DLMF
7.12(i) bounds it by csc(2|arg z|) times the first neglected term
(2K-1)!!/|2 z^2|^K; near the real axis Olver's Stokes-line bound for the
incomplete gamma function gives the factor 1 + chi(K - 1/2),
chi(p) = sqrt(pi) Gamma(p/2 + 1)/Gamma(p/2 + 1/2).  _remainder_factor takes
the smaller.

The theta sums of modular and the Gaussian sum of the lateral difference
step the same recurrence, T <- T R and R <- R Q per term, with |T|, |R| and
|Q| at most 1.  _fixed_phase_sum runs it on Python integers scaled by 2^wp,
wp = prec + 10 bits, after the caller has raised prec by its own guard for
the drift of the products: four integer products and two shifts per
complex product, with no normalisation.  The theta sums seed it on
integers, the Gaussian sum through its mpc wrapper _quadratic_phase_sum.
_fixed_gauss_ladder steps it on real values, two integer products a term,
for the terms e^{-b n^2} of the finest rung of modular's boundary ladder,
and multiplies them into rung j's, e^{-j b n^2}, at one product a term.
The kernels (t - w)^{-3/2} of modular's eta ray integrand stay on the same
integers: _fixed_inverse_three_halves forms z^{-3/2} as (1/z) sqrt(1/z),
1/z from the exact integer norm, and _fixed_sqrt takes the principal root
with math.isqrt, the larger part sqrt((|z| +- Re z)/2) and the other
Im z/(2 larger part), so that neither cancels: the root is good to a few
2^-wp (1 + |z|^{-1/2}), z^{-3/2} to a few 2^-wp (1 + 1/|z|).

Quadrature is composite Gauss-Legendre on real intervals, on Python
integers scaled by 2^wp end to end.  Its integrand is a FixedKernel, a
function from the node t to the (re, im) pair of its value, both at the
kernel's own wp; endpoints, nodes, weights, panel sums and the test
|hi - lo|^2 <= tol^2 are integers too, and ray_integrate forms one mpc per
ray.  The integer rules are cached per (order, wp), each truncated from the
mpf rule of _gl_nodes at the 64-bit bucket above wp, so that a wp that
varies per call reuses one Newton solve.  Each panel walks the orders 8,
12, 17, 24, 34 and returns the first value that agrees with the one of the
order below it to the panel tolerance; a panel that no pair settles is
bisected.  It raises QuadratureError instead of returning a low-quality
value.

modular.eta_tilde_radial extrapolates sixteen samples at j h_1 to 0 by
_ladder_limit, whose Lagrange weights at 0, (-1)^(j-1) C(16, j), do not
depend on h_1: exact integers, so that an error e in every sample moves
the limit by at most e _LADDER_GAIN = e (2^16 - 1).  summation.radial_limit
needs no ladder: it sums the boundary value itself.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, NamedTuple

from mpmath import mp
from mpmath.libmp import dps_to_prec, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, pi_fixed

from .errors import ConvergenceError, QuadratureError

__all__ = [
    "dawson",
    "erfi",
    "e_mod",
    "e_mod_deficit",
    "dawson_deficit",
    "FixedKernel",
    "integrate_segment",
    "ray_integrate",
    "gaussian_tail",
    "richardson_limit",
    "fit_poly_coeffs",
]

_LN10 = 2.302585092994046


def _to_fixed(z, wp: int):
    """(re, im) of z as Python integers scaled by 2^wp, truncated."""
    re, im = mp.mpc(z)._mpc_
    return to_fixed(re, wp), to_fixed(im, wp)


def _from_fixed(re: int, im: int, wp: int):
    """The mpc (re + i im) / 2^wp, rounded to the working precision."""
    return mp.mpc(mp.mpf((re, -wp)), mp.mpf((im, -wp)))


def _fixed_mul(x, y, wp: int):
    """The product of two (re, im) pairs of integers scaled by 2^wp."""
    return (x[0] * y[0] - x[1] * y[1]) >> wp, (x[0] * y[1] + x[1] * y[0]) >> wp


# fixed point rounds each product down to a multiple of 2^-wp, a bias that
# drifts like the rounding of the seeds at prec; these bits keep it well
# below that, so the sum is no less accurate than the same recurrence in mpc
# at prec, whose drift the callers' guard digits cover
_PHASE_GUARD_BITS = 10


def _fixed_phase_sum(term, ratio, step, n_first: int, n_last: int, stride: int,
                     weight: int, wp: int):
    """sum of n^weight T_n over n = n_first, n_first + stride, ... <= n_last,
    where T_{n_first} = term and, from R = ratio, T <- T R and R <- R step
    per stride; every value an (re, im) pair of Python integers scaled by
    2^wp.  Theta and Gaussian sums have this shape with |T|, |R| and |step|
    at most 1, which bounds the drift: each complex product is four integer
    products and two shifts."""
    tr, ti = term
    rr, ri = ratio
    qr, qi = step
    scale = n_first**weight
    sr, si = scale * tr, scale * ti
    for n in range(n_first + stride, n_last + 1, stride):
        tr, ti = (tr * rr - ti * ri) >> wp, (tr * ri + ti * rr) >> wp
        rr, ri = (rr * qr - ri * qi) >> wp, (rr * qi + ri * qr) >> wp
        if weight:
            scale = n**weight
            sr += scale * tr
            si += scale * ti
        else:
            sr += tr
            si += ti
    return sr, si


def _fixed_gauss_ladder(term: int, ratio: int, step: int, spans, wp: int) -> list[int]:
    """sum of n T_n^j over each span j = 1, 2, ..., ranges of n of one start
    and stride, each a prefix of the one before, on integers scaled by 2^wp.
    Along the first span T <- T R and R <- R step, _fixed_phase_sum's real
    part at weight 1 bit for bit; span j's terms are span j - 1's times the
    first one's, rounded down, as T^j = e^{-j b n^2} for T = e^{-b n^2}: a
    T <= 1 off by e gives a T^j off by at most j (e + 2^-wp)."""
    base = [term]
    append = base.append
    for _ in range(len(spans[0]) - 1):
        term = (term * ratio) >> wp
        ratio = (ratio * step) >> wp
        append(term)
    terms, sums = base, [sum(map(mul, spans[0], base))]
    for span in spans[1:]:
        terms = [(t * u) >> wp for t, u in zip(base[:len(span)], terms)]
        sums.append(sum(map(mul, span, terms)))
    return sums


def _fixed_sqrt(z, wp: int):
    """The principal square root of z = (re, im), integers scaled by 2^wp,
    z not on the negative real axis.  The larger part is sqrt((|z| +- re)/2)
    from math.isqrt, the other im/(2 larger part), so neither cancels."""
    re, im = z
    modulus = math.isqrt(re * re + im * im)
    if re >= 0:
        root_re = math.isqrt((modulus + re) << (wp - 1))
        return root_re, (im << wp) // (2 * root_re)
    root_im = math.isqrt((modulus - re) << (wp - 1))
    if im < 0:
        root_im = -root_im
    return (im << wp) // (2 * root_im), root_im


def _fixed_inverse_three_halves(z, wp: int):
    """z^(-3/2) = (1/z) sqrt(1/z), principal branch, for z = (re, im), integers
    scaled by 2^wp, z not on the negative real axis; 1/z = conj(z)/|z|^2
    from the exact integer norm."""
    re, im = z
    norm = re * re + im * im
    inverse = (re << 2 * wp) // norm, (-im << 2 * wp) // norm
    return _fixed_mul(inverse, _fixed_sqrt(inverse, wp), wp)


def _quadratic_phase_sum(term, ratio, step, n_first: int, n_last: int, stride: int,
                         weight: int):
    """_fixed_phase_sum on mpc seeds at wp = prec + _PHASE_GUARD_BITS, as an mpc."""
    wp = mp.prec + _PHASE_GUARD_BITS
    seeds = (_to_fixed(term, wp), _to_fixed(ratio, wp), _to_fixed(step, wp))
    return _from_fixed(*_fixed_phase_sum(*seeds, n_first, n_last, stride, weight, wp), wp)


def _minus_two_square(z, wp: int):
    """-2 z^2 for z = (re, im), integers scaled by 2^wp."""
    re, im = z
    return -((re * re - im * im) >> (wp - 1)), -((re * im) >> (wp - 2))


def _fixed_dawson_maclaurin(z, step, peak: float, shift: int, wp: int):
    # D(z) = sum_k z (-2 z^2)^k / (2k+1)!!, each term the last times
    # step = -2 z^2 over 2k+3, on (re, im) integers scaled by 2^wp.  Terms
    # peak near k ~ |z|^2 = peak; past the peak the cut |term| <= 2^-shift
    # |acc| is decided on integer norms, |re| + |im| >= |term| against
    # max(|re|, |im|) <= |acc|, so it fires no earlier than the same cut on
    # the values, or once the term is within one unit of 2^-wp, below which
    # floor rounding would hold it at -1 for ever
    tr, ti = ar, ai = z
    sr, si = step
    k = 0
    while True:
        d = 2 * k + 3
        tr, ti = ((tr * sr - ti * si) >> wp) // d, ((tr * si + ti * sr) >> wp) // d
        ar += tr
        ai += ti
        k += 1
        if k > peak:
            size = abs(tr) + abs(ti)
            if size <= 2 or size << shift <= max(abs(ar), abs(ai)):
                return ar, ai


def _dawson_maclaurin(z):
    """D(z) by its Maclaurin series, _fixed_dawson_maclaurin cut at eps:
    fixed point rounds to 2^-wp absolute, so wp adds to prec the bits of
    1/|z| below |z| = 1, where the sum is about z, and 8 bits for the
    roundings of about 100 steps."""
    zz = mp.mpc(z)
    if not zz:
        return zz
    wp = mp.prec + max(0, -mp.mag(zz)) + 8
    fixed = _to_fixed(zz, wp)
    return _from_fixed(*_fixed_dawson_maclaurin(fixed, _minus_two_square(fixed, wp), _abs2(zz),
                                                mp.prec - 1, wp), wp)


def _stokes(z):
    """i sgn(Im z) sqrt(pi) z e^{-z^2}, the part of R_k0 past every algebraic
    order; 0 on the real axis.  _remainder adds it above the crossover,
    where e^{-z^2} can pass any fixed scale; below it the Maclaurin branch
    forms the same term on its integers (_maclaurin_term)."""
    s = mp.sign(mp.im(z))
    return s * mp.j * mp.sqrt(mp.pi) * z * mp.exp(-z * z) if s else mp.mpf(0)


def _abs2(zz) -> float:
    """|z|^2 from the float parts of z; inf past the float range."""
    re, im = float(zz.real), float(zz.imag)
    return re * re + im * im


def _phase(zz) -> float:
    """2 |arg z| folded into [0, pi/2], the phase of _remainder_factor for
    A_k0, which is even."""
    angle = abs(math.atan2(float(zz.imag), float(zz.real)))
    return 2 * min(angle, math.pi - angle)


def _log10_term(k: int, r2: float) -> float:
    """log10 (2k-1)!!/(2 r2)^k, the size of the k-th term of the large-z
    series at |z|^2 = r2 > 0."""
    return (math.lgamma(2 * k + 1) - math.lgamma(k + 1) - k * math.log(4 * r2)) / _LN10


def _relative_digits(r2: float, k0: int) -> float:
    """The absolute target, as digits, that holds A_k0 to 10^-(dps+12)
    relative: about the k0-th term of the large-z series where the terms
    fall (|z|^2 > k0 - 1/2), about the (k0-1)-th, the largest of the leading
    terms, where they rise."""
    if not k0:
        return mp.dps + 12
    return mp.dps + 12 - min(_log10_term(k0 - 1, r2), _log10_term(k0, r2))


# digits the Maclaurin branch adds to its target and to the sizes it
# cancels, for the roundings of about e |z|^2 fixed-point steps and of the
# products around them; with 4 its error stayed below 0.017 of the target
# (targets 1e-8 to 1e-60, k0 <= 12, |z| from 0.3 to 30, 0 <= arg z <= pi/2)
_MACLAURIN_GUARD = 4


def _maclaurin_boost(zz, k0: int, digits=None):
    """_maclaurin_boost_at for z, from the float parts of z."""
    return _maclaurin_boost_at(_abs2(zz), _phase(zz), k0, digits)


def _maclaurin_boost_at(r2: float, phase: float, k0: int, digits=None):
    """Digits above mp.dps at which the Maclaurin branch holds A_k0(z) to
    10^-digits absolute (negative when that target is coarser than the
    working precision), or None where the large-z branch meets it.

    The large-z sum stops at its smallest term, index k_s = max(k0,
    ceil(|z|^2 - 1/2)), so it errs by at most _remainder_factor times the
    first neglected term (2j-1)!!/|2 z^2|^j, j = k_s + 1; the one crossover
    rule takes it once twice that meets the target, and in any case past
    |z|^2 = (dps+12) ln 10, where that term is about 10^-(dps+12), below
    what the working precision resolves of the values it is added to.
    Below it the Maclaurin sum cancels about 0.4343 |z|^2
    digits, and removing the k0 leading terms, the largest about
    (2k0-3)!!/|2 z^2|^(k0-1) where they rise, cancels that size too.  digits
    defaults to _relative_digits, the relative accuracy of dawson and the
    deficits, whose crossover is then (dps+12) ln 10.  |z|^2 = r2 and
    2 |arg z| = phase, in floats."""
    if r2 > (mp.dps + 12) * _LN10:
        return None
    r2 = max(r2, 1e-300)
    if digits is None:
        digits = _relative_digits(r2, k0)
    j = max(k0, math.ceil(r2 - 0.5)) + 1
    if _log10_term(j, r2) + math.log10(2 * _remainder_factor(j, phase)) <= -digits:
        return None
    lead = max(0.0, _log10_term(k0 - 1, r2)) + math.log10(k0) if k0 > 1 else 0.0
    return math.ceil(digits + 0.4343 * r2 + lead) + _MACLAURIN_GUARD - mp.dps


def _fixed_large_z(w, k0: int, r2: float, shift: int, wp: int):
    # S = sum_{k>=k0} t_k, t_k0 = 1 and t <- (2k+1) w t, on (re, im)
    # integers scaled by 2^wp, w = 1/(2 z^2) at that scale and r2 = |z|^2.
    # Up to the smallest term, where (2k+1)|w| reaches 1, |t| <= 1, so each
    # step rounds once, to 2^-wp absolute, after the product by 2k+1; that
    # factor, below 2|z|^2, also multiplies the rounding of w, which is why
    # wp adds to prec the bits of |z|^2 and 10 more.  Before the smallest
    # term the loop stops at |t| <= 2^-shift |S|, shift = prec + 15, decided
    # on integer norms as in _fixed_dawson_maclaurin: no earlier than the
    # cut |t| <= eps |S| on the values, with no float, which eps underflows
    # past 300 digits.  The tail that cut drops can reach an ulp of S; the
    # 16 bits leave it far below one
    wr, wi = w
    tr, ti = ar, ai = 1 << wp, 0
    for k in range(k0, math.ceil(min(r2, 1e18) - 0.5)):  # while (2k+1) |w| < 1
        d = 2 * k + 1
        tr, ti = (d * (tr * wr - ti * wi)) >> wp, (d * (tr * wi + ti * wr)) >> wp
        if (abs(tr) + abs(ti)) << shift <= max(abs(ar), abs(ai)):
            break
        ar += tr
        ai += ti
    return ar, ai


# digits the large-z sum adds to its target over its first term, for the
# roundings of z, of w^k0 (k0 of them) and of about |z|^2 integer steps
_LARGE_Z_GUARD = 4


def _large_z_digits(r2: float, k0: int, digits=None) -> int:
    """Working digits of the large-z branch for A_k0(z) to 10^-digits
    absolute at |z|^2 = r2: the sum is its first term (2k0-1)!!/(2 z^2)^k0
    times a sum S of size about 1, so S needs digits + log10 of that term
    and a guard, and never more than mp.dps.  For the relative default,
    _relative_digits, that is never below mp.dps."""
    if digits is None:
        return mp.dps
    r2 = min(r2, 1e18)  # past 1e18 the cut fires within a few terms
    return min(math.ceil(digits + _log10_term(k0, r2)) + _LARGE_Z_GUARD, mp.dps)


class _Term(NamedTuple):
    """The plan of one term A_k0(n z_1) at |n z_1|^2 = r2: its branch, the
    precision prec of the branch in bits, the scale 2^wp of its loop, the
    scale of its value, and the scale of the powers w^k0 (wp below the
    crossover, where Horner's rule runs at wp)."""

    n: int
    r2: float
    maclaurin: bool
    prec: int
    wp: int
    scale: int
    power_scale: int


def _double_factorial(k0: int) -> int:
    """(2k0-1)!!, 1 at k0 = 0."""
    return math.prod(range(1, 2 * k0, 2))


def _large_z_plan(n: int, r2: float, log2_r2: float, k0: int, prec: int) -> _Term:
    """The large-z branch with S at prec bits (wp as in _fixed_large_z),
    and first * S at the scale that holds the first term (2k0-1)!! w^k0 to
    wp bits, as S, log2 |2 z^2| = 1 + log2_r2.  Its powers of w run at that
    scale plus the bits of k0 (2k0-1)!!, by which their roundings grow, and
    of |w|^k0 where |w| > 1."""
    wp = prec + 10 + math.ceil(min(r2, 1e18)).bit_length()
    dfact = _double_factorial(k0)
    scale = max(0, wp - math.floor(math.log2(dfact) - k0 * (1 + log2_r2)))
    grow = (k0 * dfact).bit_length() + 2 + k0 * max(0, math.ceil(-1 - log2_r2))
    return _Term(n, r2, False, prec, wp, scale, scale + grow)


def _maclaurin_plan(n: int, r2: float, k0: int, prec: int, mag: int) -> _Term:
    """The Maclaurin branch at prec bits: wp adds the bits of 1/|z| below
    |z| = 1 and 8 more, as _dawson_maclaurin, and the bits of 2 |z|^2 k0,
    by which the rounding of w grows along Horner's rule and that of -z^2
    moves e^{-z^2}.  The value's scale adds the bits of 1/|z| once more,
    for 2 z D(z), about 2 z^2 there.  mag is mp.mag of z_1, |z| < 2^mag."""
    extra = max(0, 1 - mag - n.bit_length())
    wp = prec + extra + 8 + math.ceil(2 * r2 * max(k0, 1) + 1).bit_length()
    return _Term(n, r2, True, prec, wp, wp + extra, wp)


def _geometry(zz):
    """(|z|^2, log2 |z|^2, 2 |arg z| as _phase, mp.mag z) of z in floats,
    log2 |z|^2 from mp.mag past the float range."""
    if not zz:
        return 0.0, 2.0, 0.0, 1
    r2, mag = _abs2(zz), int(mp.mag(zz))
    return r2, math.log2(r2) if 0 < r2 < math.inf else 2.0 * mag, _phase(zz), mag


def _plan(n: int, geometry, k0: int, digits) -> _Term:
    """The branch and precision of A_k0(n z_1) to 10^-digits absolute (the
    relative default when digits is None) by _maclaurin_boost, from the
    _geometry of z_1."""
    r2_one, log2_r2, phase, mag = geometry
    r2 = n * n * r2_one
    boost = _maclaurin_boost_at(r2, phase, k0, digits)
    if boost is None:
        prec = dps_to_prec(_large_z_digits(r2, k0, digits))
        return _large_z_plan(n, r2, log2_r2 + 2 * math.log2(n), k0, prec)
    return _maclaurin_plan(n, r2, k0, dps_to_prec(mp.dps + boost), mag)


def _maclaurin_term(term: _Term, k0: int, z_one, w_one, root_pi: int, sign: int, top: int):
    """(A_k0, Stokes term) at n z_1 on integers scaled by 2^term.scale:
    2 z D(z) less the leading terms (2k-1)!! w^k, w = w_1/n^2, by Horner's
    rule 1 + w (1 + 3 w (1 + 5 w (...))), and less i sgn(Im z) sqrt(pi) z
    e^{-z^2}, e^{-z^2} by exp_fixed and cos_sin_fixed, these two at
    2^term.wp; the seeds z_1, w_1 and sqrt(pi) at scale 2^top."""
    n, wp = term.n, term.wp
    drop = top - wp
    z = (n * z_one[0]) >> drop, (n * z_one[1]) >> drop
    step = _minus_two_square(z, wp)
    d_re, d_im = _fixed_dawson_maclaurin(z, step, term.r2, term.prec - 1, wp)
    lift = term.scale - wp
    shift = wp - lift - 1  # 2 z D at the value's scale
    acc_re, acc_im = (z[0] * d_re - z[1] * d_im) >> shift, (z[0] * d_im + z[1] * d_re) >> shift
    one = 1 << wp
    lead = min(k0, 1) << wp, 0  # no w at k0 <= 1, so R_1(0) = -1
    if k0 > 1:
        nn = n * n
        w = (w_one[0] // nn) >> drop, (w_one[1] // nn) >> drop
        for k in range(k0 - 1, 0, -1):
            re, im = _fixed_mul(w, lead, wp)
            lead = one + (2 * k - 1) * re, (2 * k - 1) * im
    stokes = 0, 0
    if sign:
        size = exp_fixed(step[0] >> 1, wp)
        cos, sin = cos_sin_fixed(step[1] >> 1, wp)
        re, im = _fixed_mul(z, ((size * cos) >> wp, (size * sin) >> wp), wp)
        root = sign * (root_pi >> drop)
        stokes = -(root * im) >> wp, (root * re) >> wp
    stokes = stokes[0] << lift, stokes[1] << lift
    return (acc_re - (lead[0] << lift) - stokes[0], acc_im - (lead[1] << lift) - stokes[1],
            stokes)


def _large_z_term(term: _Term, k0: int, w_one, top: int):
    """A_k0 at n z_1 by the large-z series, (2k0-1)!! w^k0 times
    _fixed_large_z, w = w_1/n^2 from w_1 at scale 2^top, on integers scaled
    by 2^term.scale."""
    nn = term.n * term.n
    wp, scale, power_scale = term.wp, term.scale, term.power_scale
    drop = top - wp
    sum_re, sum_im = _fixed_large_z(((w_one[0] // nn) >> drop, (w_one[1] // nn) >> drop), k0,
                                    term.r2, term.prec + 15, wp)
    drop = top - power_scale
    w = (w_one[0] // nn) >> drop, (w_one[1] // nn) >> drop
    first = 1 << power_scale, 0
    for _ in range(k0):
        first = _fixed_mul(first, w, power_scale)
    dfact, grow = _double_factorial(k0), power_scale - scale
    first_re, first_im = (dfact * first[0]) >> grow, (dfact * first[1]) >> grow
    return ((first_re * sum_re - first_im * sum_im) >> wp,
            (first_re * sum_im + first_im * sum_re) >> wp)


def _fixed_terms(zz, k0: int, terms) -> list:
    """A_k0(n z) for each planned term, as (re, im, Stokes term, scale): the
    Stokes term that the Maclaurin branch subtracted, (re, im) at the same
    scale, or None above the crossover.  z, w = 1/(2 z^2) and sqrt(pi) are
    converted once, at the scale of the most demanding term and the bits
    of its n; every term is Python integers from there."""
    top = max(max(t.wp + t.n.bit_length(), t.power_scale) for t in terms) + 2
    z_one = _to_fixed(zz, top)
    w_one = root_pi = None
    if k0 > 1 or not all(t.maclaurin for t in terms):
        mag = int(mp.mag(zz)) if zz else 0  # 1/(2 z^2) raises at z = 0
        with mp.workprec(top + max(0, -2 * mag) + 8):  # |w| < 2^(8 - 2 mag)
            w_one = _to_fixed(1 / (2 * zz * zz), top)
    sign = int(mp.sign(zz.imag))
    if sign and any(t.maclaurin for t in terms):
        root_pi = math.isqrt(pi_fixed(top) << top)
    out = []
    for t in terms:
        if t.maclaurin:
            out.append((*_maclaurin_term(t, k0, z_one, w_one, root_pi, sign, top), t.scale))
        else:
            out.append((*_large_z_term(t, k0, w_one, top), None, t.scale))
    return out


def _algebraic_sum(z_one, k0: int, terms, power: int):
    """sum of weight n^power A_k0(n z_1) over terms (n, weight, digits), each
    A_k0 held to 10^-digits absolute as _algebraic holds it, the weights
    mpf: one integer pass (_fixed_terms), the products by the weights exact
    on the mantissas, and one mpc at the end, rounded to the working
    precision."""
    if not terms:
        return mp.mpc(0)
    zz = mp.mpc(z_one)
    geometry = _geometry(zz)
    plans = [_plan(n, geometry, k0, digits) for n, _, digits in terms]
    weights = [weight._mpf_ for _, weight, _ in terms]
    scale = max(t.scale for t in plans) + max(-exp for _, _, exp, _ in weights)
    acc_re = acc_im = 0
    for (n, _, _), (sign, man, exp, _), (re, im, _, term_scale) in zip(
            terms, weights, _fixed_terms(zz, k0, plans)):
        lift = scale - term_scale + exp
        re, im = (man * re) << lift, (man * im) << lift
        if sign:
            re, im = -re, -im
        if power >= 0:
            acc_re += re * n**power
            acc_im += im * n**power
        else:
            acc_re += re // n**-power
            acc_im += im // n**-power
    return _from_fixed(acc_re, acc_im, scale)


def _algebraic_parts(zz, k0: int, digits=None):
    """_fixed_terms of the one term z, digits as _algebraic."""
    return _fixed_terms(zz, k0, [_plan(1, _geometry(zz), k0, digits)])[0]


def _algebraic(z, k0: int, digits=None):
    """A_k0(z) = R_k0(z) - _stokes(z): the remainder of the algebraic series
    alone, bounded on |arg z| < pi/4 by _remainder_factor times its first
    neglected term (2k0-1)!!/|2 z^2|^k0.  Within 10^-digits absolute, plus
    the rounding to the working precision; digits defaults to 10^-(dps+12)
    relative (_relative_digits)."""
    re, im, _, scale = _algebraic_parts(mp.mpc(z), k0, digits)
    return _from_fixed(re, im, scale)


def _large_z_sum(z, k0: int):
    """sum_{k>=k0} (2k-1)!!/(2 z^2)^k summed to its smallest term at the
    working precision: _algebraic's large-z branch at prec = mp.prec."""
    zz = mp.mpc(z)
    r2, log2_r2, _, _ = _geometry(zz)
    re, im, _, scale = _fixed_terms(zz, k0, [_large_z_plan(1, r2, log2_r2, k0, mp.prec)])[0]
    return _from_fixed(re, im, scale)


def _remainder(z, k0: int):
    """R_k0(z) = 2 z D(z) - sum_{k<k0} (2k-1)!!/(2 z^2)^k = _algebraic(z, k0)
    + _stokes(z), even in z and O(z^{-2 k0}) at infinity away from the
    diagonals arg z = +-pi/4.  Below the crossover the Stokes term added
    back is the one the Maclaurin branch subtracted, on its integers."""
    zz = mp.mpc(z)
    re, im, stokes, scale = _algebraic_parts(zz, k0)
    if stokes is None:
        return _from_fixed(re, im, scale) + _stokes(zz)
    return _from_fixed(re + stokes[0], im + stokes[1], scale)


def _remainder_factor(k0: int, phase) -> float:
    """C with |A_k0(z)| <= C (2k0-1)!!/|2 z^2|^k0, hence |R_k0(z)| <= that
    plus sqrt(pi) |z| e^{-Re z^2}, when 2|arg z| = phase < pi/2; a float,
    rounded up."""
    p = k0 - 0.5
    stokes = 1 + math.sqrt(math.pi) * math.exp(math.lgamma(p / 2 + 1) - math.lgamma(p / 2 + 0.5))
    if phase:
        stokes = min(stokes, 1 / math.sin(float(phase)))
    # 2^-40 relative is far above the rounding of lgamma, exp and sin
    return stokes * (1 + 2.0**-40)


def dawson(z):
    """D(z) = e^{-z^2} int_0^z e^{t^2} dt, entire and odd."""
    zz = mp.mpc(z)
    if zz == 0:
        return mp.mpf(0)
    out = _remainder(zz, 0) / (2 * zz)
    return mp.re(out) if mp.im(zz) == 0 else out


def erfi(z):
    """(2/sqrt(pi)) int_0^z e^{t^2} dt.  Exponents this large never overflow
    in mp arithmetic, so the growth along the real axis is harmless."""
    zz = mp.mpc(z)
    out = 2 / mp.sqrt(mp.pi) * mp.exp(zz * zz) * dawson(zz)
    return mp.re(out) if mp.im(mp.mpc(z)) == 0 else out


def e_mod_deficit(z):
    """(z^2 (2 z D(z) - 1) - 1/2) / sqrt(pi) = z^2 R_2(z) / sqrt(pi); even,
    O(z^{-2}) for large |z| away from the diagonals arg z = +-pi/4, where the
    oscillatory term i*sgn(Im z) z^3 e^{-z^2} stops decaying."""
    zz = mp.mpc(z)
    if zz == 0:
        return mp.mpc(-1) / (2 * mp.sqrt(mp.pi))
    return zz * zz * _remainder(zz, 2) / mp.sqrt(mp.pi)


def e_mod(z):
    """2/sqrt(pi) z^3 D(z) - z^2/sqrt(pi); tends to 1/(2 sqrt(pi)), and
    e_mod(z) - 1/(2 sqrt(pi)) = e_mod_deficit(z)."""
    return e_mod_deficit(z) + 1 / (2 * mp.sqrt(mp.pi))


def dawson_deficit(z):
    """2 z D(z) - 1 = R_1(z); O(z^{-2}) at infinity away from the diagonals."""
    return _remainder(z, 1)


def _emodd_tail2(z):
    # sqrt(pi) e_mod_deficit(z) - 3/(4 z^2) - 15/(8 z^4) = z^2 R_4(z)
    zz = mp.mpc(z)
    return zz * zz * _remainder(zz, 4)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels

_GL_CACHE: dict[tuple[int, int], tuple[list, list]] = {}
_GL_FIXED: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}


class FixedKernel(NamedTuple):
    """An integrand on a real interval, on Python integers scaled by 2^wp:
    f maps t to the (re, im) pair of f(t), t and both parts at that scale."""

    f: Callable[[int], tuple[int, int]]
    wp: int


def _legendre(n: int, x):
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p0, p1


def _gl_nodes(n: int):
    """Nodes and weights of the n-point rule on [-1, 1]: Newton on P_n for
    the roots x_i > 0, i <= n/2, each weight 2/((1 - x^2) P_n'(x)^2) from
    the last Newton step's own derivative, mirrored by index; an odd n adds
    the centre at exactly 0, with weight 2/(n P_{n-1}(0))^2."""
    key = (n, mp.prec)
    cached = _GL_CACHE.get(key)
    if cached is not None:
        return cached
    nodes, weights, centre, centre_weight = [], [], [], []
    with mp.extradps(12):
        for i in range(1, n // 2 + 1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(60):
                p0, p1 = _legendre(n, x)
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mp.eps * 10:
                    break
            nodes.append(+x)
            weights.append(+(2 / ((1 - x * x) * dp * dp)))
        if n % 2:  # P_n'(0) = n P_{n-1}(0)
            centre, centre_weight = [mp.mpf(0)], [+(2 / (n * _legendre(n, mp.mpf(0))[0]) ** 2)]
    full_nodes = [-t for t in reversed(nodes)] + centre + nodes
    full_weights = weights[::-1] + centre_weight + weights
    _GL_CACHE[key] = (full_nodes, full_weights)
    return full_nodes, full_weights


def _gl_fixed(n: int, wp: int):
    """The n-point rule as integers scaled by 2^wp, each within 2^-wp: the
    mpf rule of the 64-bit bucket above wp, truncated, so that callers whose
    wp varies per call share one Newton solve per bucket."""
    key = (n, wp)
    rule = _GL_FIXED.get(key)
    if rule is None:
        with mp.workprec(-(-wp // 64) * 64):
            nodes, weights = _gl_nodes(n)
        rule = _GL_FIXED[key] = (tuple(to_fixed(x._mpf_, wp) for x in nodes),
                                 tuple(to_fixed(w._mpf_, wp) for w in weights))
    return rule


def integrate_segment(kernel: FixedKernel, a: int, b: int, order: int = 24):
    """Gauss-Legendre of the kernel over the interval from a to b, integers
    scaled by 2^wp, wp = kernel.wp; the (re, im) pair of the integral at the
    same scale."""
    f, wp = kernel
    nodes, weights = _gl_fixed(order, wp)
    centre, width, shift = (a + b) << wp, b - a, wp + 1
    acc_re = acc_im = 0
    for x, w in zip(nodes, weights):
        re, im = f((centre + width * x) >> shift)
        acc_re += w * re
        acc_im += w * im
    shift = 2 * wp + 1
    return (acc_re * width) >> shift, (acc_im * width) >> shift


# each order about 1.4 times the one before it, so that a panel the 8-point
# rule already resolves stops at 8 + 12 evaluations
_ORDERS = (8, 12, 17, 24, 34)


def _adaptive_segment(kernel: FixedKernel, a: int, b: int, tol, depth: int):
    """The kernel integrated over [a, b] to tol (an mpf), on integers as in
    integrate_segment: the first order of the ladder whose value is within
    tol of the one below it, |hi - lo|^2 <= tol^2 on integers scaled by
    2^(2 wp); a panel that no pair settles is bisected, at most depth
    levels deep."""
    wp = kernel.wp
    tol2 = to_fixed((tol * tol)._mpf_, 2 * wp)
    lo = integrate_segment(kernel, a, b, _ORDERS[0])
    for order in _ORDERS[1:]:
        hi = integrate_segment(kernel, a, b, order)
        dr, di = hi[0] - lo[0], hi[1] - lo[1]
        err2 = dr * dr + di * di
        if err2 <= tol2:
            return hi
        lo = hi
    if depth <= 0:
        raise QuadratureError(
            f"segment [{mp.nstr(mp.mpf((a, -wp)))}, {mp.nstr(mp.mpf((b, -wp)))}] did not "
            f"converge (residual {mp.nstr(mp.sqrt(mp.mpf((err2, -2 * wp))))}, "
            f"tol {mp.nstr(tol)})"
        )
    m = (a + b) >> 1
    half_tol = tol / 2
    left = _adaptive_segment(kernel, a, m, half_tol, depth - 1)
    right = _adaptive_segment(kernel, m, b, half_tol, depth - 1)
    return left[0] + right[0], left[1] + right[1]


def ray_integrate(kernel: FixedKernel, t_min, t_max, tol):
    """Integrate the kernel over the real interval t_min <= t <= t_max,
    0 < t_min < t_max at the kernel's scale 2^-wp, on panels [t_min,
    2 t_min], [2 t_min, 4 t_min], ... up to t_max, each bisected at most 24
    levels deep; a ray is the caller's parametrisation of its points by t.
    The panel sums stay on integers, and the result is one mpc.

    Each panel meets tol / (number of panel edges) by the bisection
    criterion, so the whole interval meets tol whenever that criterion is
    conservative."""
    wp = kernel.wp
    low, top = (to_fixed(mp.mpf(t)._mpf_, wp) for t in (t_min, t_max))
    if not 0 < low < top:
        raise ValueError("need 0 < t_min < t_max")
    edges = [low]
    while edges[-1] < top:
        edges.append(min(2 * edges[-1], top))
    per_panel = mp.mpf(tol) / len(edges)
    acc_re = acc_im = 0
    for lo, hi in zip(edges, edges[1:]):
        re, im = _adaptive_segment(kernel, lo, hi, per_panel, 24)
        acc_re += re
        acc_im += im
    return _from_fixed(acc_re, acc_im, wp)


# ---------------------------------------------------------------------------
# tail bounds and extrapolation

def gaussian_tail(n_cut: int, beta, s: int = 0):
    """Upper bound for sum_{n > n_cut} n^s e^{-beta n^2}, for s in {0, 1}.

    Uses (n_cut+m)^2 >= n_cut^2 + 2 n_cut m, giving a geometric majorant with
    ratio q = e^{-2 beta n_cut}.
    """
    beta = mp.mpf(beta)
    if beta <= 0 or n_cut < 1:
        raise ValueError("need beta > 0 and n_cut >= 1")
    q = mp.exp(-2 * beta * n_cut)
    head = mp.exp(-beta * n_cut**2)
    g1 = q / (1 - q)
    g2 = q / (1 - q) ** 2
    if s == 0:
        return head * g1
    if s == 1:
        return head * (n_cut * g1 + g2)
    raise ValueError("s must be 0 or 1")


def _log_gaussian_tail(n_cut: int, b: float, s: int = 0) -> float:
    """ln gaussian_tail(n_cut, b, s) in floats, for the cutoff loops:
    -b n^2 - 2 b n - ln(1 - q), plus ln(n + 1/(1 - q)) when s = 1, with
    1 - q = -expm1(-2 b n), which neither underflows to 0 as q does nor
    rounds to 0 as 1 - q does for small b n.  inf when b is not positive,
    as when beta underflows a float."""
    x = 2 * b * n_cut
    if not x > 0:
        return math.inf
    one_minus_q = -math.expm1(-x)
    out = -b * n_cut * n_cut - x - math.log(one_minus_q)
    return out + math.log(n_cut + 1 / one_minus_q) if s else out


def _gauss_cutoff(b: float, s: int, log_target: float, budget=math.inf) -> int:
    """The smallest N >= 1 whose tail sum_{n > N} n^s e^{-b n^2}, bounded in
    logs by _log_gaussian_tail, is at most e^log_target: the one cutoff of
    every theta and Gaussian sum; ConvergenceError past the caller's term
    budget, or past the float range.  The bound is e^{-b ((n + 1)^2 - 1)}
    times a factor above 1, so the search starts from the largest n with
    (n + 1)^2 <= 1 - log_target/b, a miss, doubling its step, and bisects."""
    # the float tail is good to about 1e-15 relative; 1e-9 keeps the cut
    # on the side of the mpf bound gaussian_tail
    log_target -= 1e-9
    reach = 1 - log_target / b if b > 0 else math.inf
    if not reach < math.inf:
        raise ConvergenceError("Gaussian sum: its decay is below the float range")
    lo, step = math.isqrt(int(max(reach, 1))) - 1, 1
    while _log_gaussian_tail(lo + step, b, s) > log_target:
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_gaussian_tail(mid, b, s) > log_target:
            lo = mid
        else:
            hi = mid
    if hi > budget:
        raise ConvergenceError(f"Gaussian sum: {hi} terms exceed the term budget {budget}")
    return hi


def richardson_limit(hs, vals):
    """Neville extrapolation of samples (hs[j], vals[j]) to h = 0.

    Returns (limit, error_estimate) where the estimate is the size of the
    last diagonal correction.  hs must be positive and strictly decreasing.
    """
    if len(hs) != len(vals) or len(hs) < 2:
        raise ValueError("need matching sequences of length >= 2")
    hs = [mp.mpf(h) for h in hs]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])) or hs[-1] <= 0:
        raise ValueError("hs must be positive and strictly decreasing")
    tab = [mp.mpmathify(v) for v in vals]
    diag_prev = tab[0]
    n = len(tab)
    for m in range(1, n):
        for j in range(n - m):
            tab[j] = (hs[j] * tab[j + 1] - hs[j + m] * tab[j]) / (hs[j] - hs[j + m])
        if m < n - 1:
            diag_prev = tab[0]
    return tab[0], abs(tab[0] - diag_prev)


# eta_tilde_radial's rungs h_j = j h_1, and the absolute sum of their weights
_LADDER_RUNGS = 16
_LADDER_GAIN = 2**_LADDER_RUNGS - 1


def _ladder_weights(rungs: int) -> tuple[list[int], list[int]]:
    """The Lagrange weights at 0, prod_{k != j} k/(k - j), of the nodes
    1..rungs, (-1)^(j-1) C(rungs, j), and of 2..rungs, 0 at j = 1."""
    weights = [(-1)**(j - 1) * math.comb(rungs, j) for j in range(1, rungs + 1)]
    return weights, [(1 - j) * w for j, w in enumerate(weights, 1)]


def _ladder_limit(samples, scale: int):
    """The limit at 0 of samples at h_j = j h_1, j = 1, 2, ..., (re, im)
    integers scaled by 2^scale, and its gap to the limit without the finest
    rung: richardson_limit's value and last correction, integer sums by
    _ladder_weights.  Sample errors e move the limit by e (2^rungs - 1) at most."""
    re, im = zip(*samples)
    limit, coarser = (_from_fixed(sum(map(mul, weights, re)), sum(map(mul, weights, im)), scale)
                      for weights in _ladder_weights(len(samples)))
    return limit, abs(limit - coarser)


def fit_poly_coeffs(xs, ys):
    """Coefficients c_0..c_{n-1} of the degree n-1 polynomial through (xs, ys)."""
    n = len(xs)
    if n != len(ys) or n == 0:
        raise ValueError("need matching nonempty sequences")
    rows = []
    for x in xs:
        xz = mp.mpc(x)
        row = [mp.mpc(1)]
        for _ in range(n - 1):
            row.append(row[-1] * xz)
        rows.append(row)
    sol = mp.lu_solve(mp.matrix(rows), mp.matrix([[mp.mpc(y)] for y in ys]))
    return [sol[i] for i in range(n)]
