"""Theta series built on the period-12 sign table, and the boundary function g.

eta(tau) is the weight-1/2 theta sum chi(n) e^{pi i n^2 tau/12} over n >= 1,
equal to the familiar infinite product e^{pi i tau/12} prod (1 - e^{2 pi i n
tau}); both routes are exposed so they can be checked against each other.
For |tau| < 1 the theta route applies eta(-1/tau) = sqrt(tau/i) eta(tau)
once, which keeps term counts small uniformly along rays approaching 0.
Near a cusp one inversion still leaves Im(-1/tau) below 1, where the theta
sum cancels to noise far above a tiny value; only there eta goes on to the
fundamental domain: it translates -1/tau by n = round(Re(-1/tau)), with
eta(tau) = e^{pi i n/12} eta(tau - n), and inverts again.

The ray integrals of sum_eta_integral and zagier_g(route="direct") do not
invert at all.  Both are one _eta_ray: the integral of eta(t u) (t - w)^{-3/2}
over the real parameter 1/rho <= t <= rho, u a unit direction into the
upper half plane, each caller adding only its ray geometry (u, w) and one
constant prefactor.  The interval is symmetric about t = 1, the fixed point
of tau -> -1/tau, and for |tau| >= 1 the mirror node tau' = tau/|tau|^2 has
-1/tau' = -conj(tau), so that

    eta(tau') = conj(eta(tau))/sqrt(tau'/i) = sqrt|tau| conj(v eta(tau)),

v = sqrt(tau/i)/|sqrt(tau/i)| = sqrt(u/i), one phase per ray.  _eta_ray
folds [1/rho, 1] onto [1, rho]: f(t) + f(1/t)/t^2 on the outer half alone,
with |tau| = t known at every node, and one theta sum per node.  Its
integrand is one specfun.FixedKernel on Python integers scaled by 2^wp,
taking the node as an integer and returning its value as integers:
q = e^{pi i t u/12} from mpmath's exp_fixed and cos_sin_fixed, Q = q^24 by
five products, the theta sum, the mirror value, and both kernels
(t - w)^{-3/2} and (1/t - w)^{-3/2}/t^2 from specfun's integer complex
square root.  The quadrature stays on the same integers and forms one mpc
per ray.  _eta_ray_plan sizes the ray from its tol, not from the working
precision: rho from a bound on the tail past it, one theta cutoff per
doubling panel of ray_integrate, and wp the bits of tol plus the theta
guard of the longest sum on the ray (at t = 1), 10 bits, and the bits of
|Im w|^{-5/2}, the most a kernel's derivative can multiply the roundings of
its argument by, as |t - w| >= |Im w| for real t; never more than
_eta_ray_wp, those bits at the full working precision.

Every theta sum at a point tau of the upper half plane is the same
integer kernel _theta_sum, on q = e^{pi i tau/12} and Q = q^24: every n
with chi(n) != 0 is prime to 6, so n^2 = 1 + 24 e_n with e_n whole, and
the sum is q times the sum of chi(n) Q^{e_n} over the chains n = 6 k + 1
and n = 6 k + 5, along each of which chi alternates and the terms step by
two products per term, from Q^2, Q^3 and Q^4 formed once.  The same
holds for any sign table C mod 2P that flips sign every P steps and lives
on n^2 = 1 + 4P e_n (_theta_chains): chi60(2), whose chains run mod 30,
is summed the same way by summation's theta route.  specfun._fixed_phase_sum steps each chain on
Python integers scaled by 2^wp, wp = prec + 10 bits at the guarded
precision.  One planner serves every theta and Gaussian sum: the cutoff
specfun._gauss_cutoff, held to each caller's budget, and the guard
_theta_guard.  _theta_value, the one front end from tau to an mpc, seeds
q = e^{pi i tau/(2P)} and Q = e^{2 pi i tau} by two expjpi calls, or two
real exponentials when tau is imaginary; eta and eta_tilde take its
default plan, _theta_plan, summation's theta route its own count and
guard.

eta_tilde is the companion weighted by an extra factor n.  Its radial limits
at rational points are finite even though the unweighted series has none,
which is what the boundary identities in the tests probe.
eta_tilde_radial takes them on a Richardson ladder of nine samples at
alpha + i eps, alpha = a/d, that do not go through _theta_sum: there the
coefficient chi(n) e^{pi i a n^2/(12 d)} has period 12 d, so each sample
is a sum of real Gaussian sums, one per residue class mod 12 d, each times
its root-of-unity phase once.  One sweep over the classes forms all nine
(_boundary_ladder): it steps the finest rung's terms at two integer
products a term and squares them into each coarser rung's.  The phases
come from one expjpi per ladder and alpha enters as a Fraction; each rung
sums the n of eta_tilde's own plan, so that eta_tilde at the same point
is the independent check of every sample.

zagier_g(x) is the lateral Laplace value at i/(2 pi x): the sum side is
"mul" for x > 0 and "mur" for x < 0, so that g picks up the boundary
values of the unit-disk function continuously from either half plane.
g(-x) is the conjugate of g(x) for real x.  A direct route integrates
(z - x)^{-3/2} eta(z) along a ray rotated into the upper half plane; its
ratio to the lateral value is a fixed constant, measured by the verify
suite rather than folded in here.  A closed route sums the same lateral
value as the closed erfi series' lateral base at i/(2 pi x)
(summation._lateral), with no ray; verify's g-closed-route check compares
it with the Laplace route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import ceil, e, exp, isqrt, log, log1p, log2, log10, pi, sqrt
from numbers import Rational
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

from .characters import DirichletCharacter, chi12
from .errors import ConvergenceError, DomainError, require_finite, require_tol
from .invariants import _angle
from .specfun import (
    _LN10,
    _LADDER_GAIN,
    _LADDER_RUNGS,
    _PHASE_GUARD_BITS,
    FixedKernel,
    _fixed_gauss_ladder,
    _fixed_inverse_three_halves,
    _fixed_mul,
    _fixed_phase_sum,
    _from_fixed,
    _gauss_cutoff,
    _ladder_limit,
    _to_fixed,
    fit_poly_coeffs,
    ray_integrate,
)

__all__ = [
    "eta",
    "eta_tilde",
    "eta_tilde_radial",
    "zagier_g",
    "zagier_g_taylor",
]

_SERIES_BUDGET = 2_000_000


def _theta_guard(n_terms: int, stride: int, b: float, weight: int, slack: float = 0) -> int:
    """Guard digits of a sum of n_terms terms up to n^weight e^{-b n^2} along
    chains of the given stride: 2 log10(n_terms/stride) + 3 for the drift
    of the products, plus the digits by which a bound on sum |term|, the
    integral of n^weight e^{-b n^2} over n > 0 plus its largest value (0
    for b = inf), exceeds 10^slack, the rounding the caller takes in units
    of 10^-dps (slack = 0 for eta)."""
    size = 1 / (2 * b) + 1 / sqrt(2 * e * b) if weight else sqrt(pi / b) / 2
    excess = ceil(log10(size) - slack) if size else 0
    return int(2 * log10(max(1, n_terms / stride))) + 3 + max(0, excess)


class _Chains(NamedTuple):
    """The chains of a sign table C mod M = 2P that is nonzero only where
    n^2 = 1 + 4P e_n, e_n whole, and flips sign every P steps, C(n + P) =
    -C(n): along n = c + P k, 0 < c < P, C alternates and the exponent steps
    e_{n+P} - e_n grow by P/2 per term.  The powers of Q that seed them are
    formed by squaring, Q^2m = Q^m Q^m and Q^(2m+1) = Q^2m Q, each product
    (i, j) of products appending Q^i Q^j, by position, to the list
    [Q^0, Q^1, ...]; chains holds (c, C(c) < 0, position of Q^{e_c},
    position of Q^{e_{c+P} - e_c}) per chain, and step the position of
    Q^{P/2}."""

    half: int
    step: int
    products: tuple
    chains: tuple


@cache
def _theta_chains(chi: DirichletCharacter) -> _Chains:
    """The _Chains of chi; ValueError for a sign table without them.
    chi12 has the chains 1 and 5 mod 6, chi60(2) 1, 11, 19 and 29 mod 30."""
    half = chi.modulus // 2
    if (chi.modulus % 4 or any(chi(n + half) != -chi(n) for n in range(half))
            or any(chi(n) and n * n % (4 * half) != 1 for n in range(chi.modulus))):
        raise ValueError("the sign table has no theta chains")
    position, products = {0: 0, 1: 1}, []

    def form(k: int) -> int:
        if k not in position:
            root = form(k // 2)
            even = k - k % 2
            if even not in position:
                products.append((root, root))
                position[even] = len(position)
            if k % 2:
                products.append((position[even], 1))
                position[k] = len(position)
        return position[k]

    chains = tuple((c, chi(c) < 0, form((c * c - 1) // (4 * half)), form((2 * c + half) // 4))
                   for c in range(1, half) if chi(c))
    return _Chains(half, form(half // 2), tuple(products), chains)


_CHI12_CHAINS = _theta_chains(chi12())


def _theta_sum(q, big_q, n_terms: int, weight: int, wp: int, chains=_CHI12_CHAINS):
    """q sum C(n) n^weight Q^{e_n} over n <= n_terms, n^2 = 1 + 4P e_n, for
    the _Chains of a sign table C (default chi12, P = 6), given q and
    Q = q^{4P} (for eta, q = e^{pi i tau/12}), on (re, im) pairs of integers
    scaled by 2^wp; the product keeps the scale of q, if q is given at
    another."""
    # along n = c + P k the terms step as T <- T R, R <- R Q^{P/2} from
    # (T, R) = (C(c) Q^{e_c}, -Q^{e_{c+P} - e_c}); for chi12, from (1, -Q^2)
    # and (-Q, -Q^4) with Q^3
    half, step, products, table = chains
    powers = [(1 << wp, 0), big_q]
    for i, j in products:
        powers.append(_fixed_mul(powers[i], powers[j], wp))
    step = powers[step]
    acc_re = acc_im = 0
    for c, negative, first, ratio in table:
        t_re, t_im = powers[first]
        r_re, r_im = powers[ratio]
        s_re, s_im = _fixed_phase_sum((-t_re, -t_im) if negative else (t_re, t_im),
                                      (-r_re, -r_im), step, c, n_terms, half, weight, wp)
        acc_re += s_re
        acc_im += s_im
    return _fixed_mul(q, (acc_re, acc_im), wp)


def _theta_plan(b: float, weight: int, stride: int = _CHI12_CHAINS.half) -> tuple[int, int]:
    """eta's default plan for a theta sum whose terms are at most
    n^weight e^{-b n^2}, along chains of the given stride: (N, guard), N the
    cutoff at 10^-(dps+5) of the first term, held to _SERIES_BUDGET, and
    the guard _theta_guard at slack 0."""
    n_terms = _gauss_cutoff(b, weight, -b - (mp.dps + 5) * _LN10, _SERIES_BUDGET)
    return n_terms, _theta_guard(n_terms, stride, b, weight)


def _theta_value(tau, weight: int, n_terms=None, guard=None, chains=_CHI12_CHAINS):
    """sum C(n) n^weight q^{n^2} over n <= n_terms as an mpc, q = e^{pi i
    tau/(2P)}, along the chains of C (default chi12, P = 6), seeded by q and
    Q = e^{2 pi i tau} (real exponentials for imaginary tau) under guard
    digits; by default eta's plan, the tail at 10^-(dps+5) of the first
    term and _theta_guard at slack 0."""
    half = chains.half
    if n_terms is None:
        n_terms, guard = _theta_plan(pi * float(tau.imag) / (2 * half), weight, half)
    with mp.extradps(guard):
        wp = mp.prec + _PHASE_GUARD_BITS
        if tau.real:
            q, big_q = mp.expjpi(tau / (2 * half)), mp.expjpi(2 * tau)
        else:
            decay = mp.pi * tau.imag
            q, big_q = mp.exp(-decay / (2 * half)), mp.exp(-2 * decay)
        # q is carried at 2^(wp + k), k the bits of 1/|q|, so that the
        # product q S keeps prec bits relative to a tiny q: eta reduced
        # near a cusp can be 1e-103
        k = max(0, -mp.mag(q))
        acc = _theta_sum(_to_fixed(q, wp + k), _to_fixed(big_q, wp), n_terms, weight, wp, chains)
        acc = _from_fixed(*acc, wp + k)
    return +acc


def _rational_angle(alpha) -> Fraction:
    """alpha as a Fraction by the rule of invariants.RationalAngle: an int,
    a Fraction or an "a/b" string.  A float or mpf raises DomainError naming
    alpha before any work, since its binary fraction would size the boundary
    sums for a denominator near 2^54, and one that is not finite says so."""
    try:
        return _angle(alpha).alpha
    except DomainError:
        if not isinstance(alpha, str):
            require_finite(alpha, "alpha")
        raise


def rational_parts(alpha):
    """(value, denominator) of a rational angle alpha (_rational_angle)."""
    frac = _rational_angle(alpha)
    return mp.mpf(frac.numerator) / frac.denominator, frac.denominator


def _eta_nodes(direction, wp: int):
    """The node kernel of _eta_ray on the unit direction u, Im u > 0: a
    function of t >= 1, an integer scaled by 2^wp, and the theta cutoff at
    t u, that returns (eta(t u), eta(u/t)) as (re, im) pairs of integers
    scaled by 2^wp, from one theta sum and no inversion.  q = e^{-A t}
    cis(C t), -A + i C = pi i u/12, comes from exp_fixed and cos_sin_fixed,
    Q = q^24 from five products, and eta(u/t) = sqrt(t) conj(v eta(t u)),
    v = sqrt(u/i)."""
    with mp.workprec(wp):
        turn, decay = _to_fixed(mp.pi * direction / 12, wp)  # C + i A
        unit = _to_fixed(mp.sqrt(direction / mp.j), wp)
    ln2, half_pi = ln2_fixed(wp), pi_fixed(wp - 1)

    def node(tf: int, n_terms: int):
        at, ct = (decay * tf) >> wp, (turn * tf) >> wp
        size, (cos, sin) = exp_fixed(-at, wp, ln2), cos_sin_fixed(ct, wp, half_pi)
        q = (size * cos) >> wp, (size * sin) >> wp
        q2 = _fixed_mul(q, q, wp)
        q4 = _fixed_mul(q2, q2, wp)
        q8 = _fixed_mul(q4, q4, wp)
        near = _theta_sum(q, _fixed_mul(_fixed_mul(q8, q8, wp), q8, wp), n_terms, 0, wp)
        root = isqrt(tf << wp)
        vr, vi = _fixed_mul(unit, near, wp)
        return near, ((root * vr) >> wp, -(root * vi) >> wp)

    return node


def _eta_ray_wp(w, direction) -> int:
    """The most working bits an _eta_ray on w and u = direction takes, its
    bits at the full working precision: prec, the theta guard of the
    longest sum on the ray (at t = 1), 10 bits for the products, and the
    bits of |Im w|^{-5/2}, the most a kernel's derivative can multiply the
    roundings of its argument by, as |t - w| >= |Im w| for real t."""
    b_unit = pi * float(mp.im(direction)) / 12
    n_longest = _gauss_cutoff(b_unit, 0, -b_unit - (mp.dps + 5) * _LN10, _SERIES_BUDGET)
    return (mp.prec + ceil(_theta_guard(n_longest, 6, b_unit, 0) * log2(10)) + _PHASE_GUARD_BITS
            + max(0, ceil(-2.5 * log2(abs(float(mp.im(w)))))))


# an eta ray's tol is spent as 1/16 on the tail past rho, 1/16 on the
# truncated theta sums, 1/16 on the roundings and the rest on the quadrature
_RAY_SHARE = 16


class _RayPlan(NamedTuple):
    """The work of one _eta_ray: the length rho, the working bits wp, the
    theta cutoff of each doubling panel [2^k, 2^(k+1)] by k, and the log of
    the Gaussian tail that every cutoff meets at every node of its panel."""

    rho: float
    wp: int
    counts: tuple
    log_tail: float


def _eta_ray_plan(w, direction, tol) -> _RayPlan:
    """The _RayPlan of _eta_ray on w and u = direction to tol, the tail,
    the truncations and the roundings each to the share s of tol.  With
    b = pi Im u/12, |eta(t u)| <= e^{-b t}/(1 - e^{-3 b t}), |eta(u/t)| =
    sqrt(t) |eta(t u)| and |r - w| >= |Im w| for real r, so the folded
    integrand is at most |eta(t u)| |Im w|^{-3/2} (1 + t^{-3/2}), and the
    same bound with the Gaussian tail of a theta sum in place of |eta(t u)|
    bounds the truncation of each node.

    - rho is the smallest t >= 2 whose tail bound 2 |Im w|^{-3/2}
      e^{-b t}/(b (1 - e^{-3 b t})) is at most s, and never past
      (dps + 8) ln 10/b, where the theta sum is 10^-(dps+8) of its leading
      term;
    - each count is _gauss_cutoff at its panel's left end, where b t is
      least and the count largest, for the tail s |Im w|^{3/2}/(2 (rho - 1))
      of each node, so that the truncations over [1, rho] sum to s;
    - wp is the bits of s plus the guard terms of _eta_ray_wp (the theta
      guard of the sum at t = 1, 10 bits, the bits of |Im w|^{-5/2}), and
      never more than _eta_ray_wp.

    s is tol/16, but no finer than 2^-prec, below which the working
    precision resolves nothing."""
    b = pi * float(mp.im(direction)) / 12
    im_w = abs(float(mp.im(w)))
    log_share = max(float(mp.log(tol)) - log(_RAY_SHARE), -mp.prec * log(2))
    log_kernel = 1.5 * log(im_w) - log(2)
    # the least t with e^{-b t} <= c/(1 - e^{-3 b t}), c = s b |Im w|^{3/2}/2:
    # one step from t0 = max(2, -ln(c)/b) lands at or past it
    log_c = log_share + log(b) + log_kernel
    start = max(2.0, -log_c / b)
    rho = min(max(2.0, (-log_c - log1p(-exp(-3 * b * start))) / b),
              max(2.0, (mp.dps + 8) * _LN10 / b))
    log_trunc = log_share + log_kernel - log(rho - 1)
    counts = tuple(_gauss_cutoff(b * 2**k, 0, log_trunc) for k in range(int(rho).bit_length()))
    bits = (ceil(-log_share / log(2)) + ceil(_theta_guard(counts[0], 6, b, 0) * log2(10))
            + _PHASE_GUARD_BITS + max(0, ceil(-2.5 * log2(im_w))))
    return _RayPlan(rho, min(bits, _eta_ray_wp(w, direction)), counts, log_trunc)


def _eta_ray(w, direction, tol):
    """int eta(t u) (t - w)^{-3/2} dt over 1/rho <= t <= rho, u = direction
    a unit complex number with Im u > 0, Im w != 0, principal power, to tol.
    The interval is folded at t = 1, the fixed point of tau -> -1/tau:
    t -> 1/t maps [1/rho, 1] onto [1, rho] with dt -> dt/t^2, and the node
    t u and its mirror u/t share one theta sum, so the integrand on
    [1, rho] is f(t) + f(1/t)/t^2.

    rho, the theta cutoffs and wp come from tol (_eta_ray_plan): the tail
    past rho, the truncated theta sums and the roundings each take 1/16 of
    tol, the quadrature the rest.  From t = 1 the panels of ray_integrate
    are [2^k, 2^(k+1)] and their bisections, so a node tf scaled by 2^wp
    lies in panel k = tf.bit_length() - wp - 1 and takes that panel's
    count, found once per ray.

    The integrand is a FixedKernel at the plan's wp: the node t arrives as
    an integer scaled by 2^wp, the pair (eta(t u), eta(u/t)) comes from
    _eta_nodes, each kernel from _fixed_inverse_three_halves, and the value
    leaves on integers; the quadrature forms one mpc per ray."""
    rho, wp, counts, _ = _eta_ray_plan(w, direction, tol)
    node = _eta_nodes(direction, wp)
    w_re, w_im = _to_fixed(w, wp)
    one_squared, top = 1 << 2 * wp, wp + 1

    def integrand(tf: int):
        near, far = node(tf, counts[tf.bit_length() - top])
        inv_t = one_squared // tf
        inv_t2 = (inv_t * inv_t) >> wp
        kr, ki = _fixed_inverse_three_halves((inv_t - w_re, -w_im), wp)
        nr, ni = _fixed_mul(near, _fixed_inverse_three_halves((tf - w_re, -w_im), wp), wp)
        fr, fi = _fixed_mul(far, ((kr * inv_t2) >> wp, (ki * inv_t2) >> wp), wp)
        return nr + fr, ni + fi

    return ray_integrate(FixedKernel(integrand, wp), 1, rho, tol * (_RAY_SHARE - 3) / _RAY_SHARE)


def eta(tau, route: str = "theta"):
    """Value on the upper half plane by the requested route."""
    tz = mp.mpc(require_finite(tau, "tau"))
    if mp.im(tz) <= 0:
        raise DomainError("tau must have positive imaginary part")
    if route == "theta":
        if abs(tz) >= 1:
            return _theta_value(tz, 0)
        inv = -1 / tz
        root = mp.sqrt(tz / mp.j)
        if float(inv.imag) < 1 and (shift := int(mp.nint(inv.real))):
            return mp.expjpi(mp.mpf(shift) / 12) * eta(inv - shift) / root
        return _theta_value(inv, 0) / root
    if route != "product":
        raise ValueError("route must be 'theta' or 'product'")
    decay = 2 * mp.pi * mp.im(tz)
    n_terms = int(ceil(float((mp.dps + 5) * mp.log(10) / decay))) + 1
    if n_terms > _SERIES_BUDGET:
        raise ConvergenceError("product route needs Im tau not too small")
    q = mp.expjpi(2 * tz)
    acc = mp.expjpi(tz / 12)
    power = mp.mpc(1)
    for _ in range(n_terms):
        power *= q
        acc *= 1 - power
    return acc


def eta_tilde(tau):
    """Theta sum with an extra weight n; direct series, no inversion step."""
    tz = mp.mpc(require_finite(tau, "tau"))
    if mp.im(tz) <= 0:
        raise DomainError("tau must have positive imaginary part")
    return _theta_value(tz, 1)


def _boundary_ladder(alpha: Fraction, start) -> tuple[list, int]:
    """The samples eta_tilde(alpha + i start/2^j), j < _LADDER_RUNGS, alpha
    = a/d in lowest terms, as (re, im) integers scaled by 2^scale, and scale.

    With b = pi eps/12 and omega = e^{pi i/(12 d)}, the coefficient
    chi12(n) omega^{a n^2} of n e^{-b n^2} has period M = 12 d, as
    a M (2 n + M) = 24 d a (n + 6 d) is a multiple of 24 d, so a sample is
    the sum over r < M with chi12(r) != 0 of chi12(r) omega^{a r^2 mod 24 d}
    G_r, G_r = sum of n e^{-b n^2} over n = r, r + M, ...
    specfun._fixed_gauss_ladder steps the finest rung's terms from
    T = e^{-b r^2}, R = e^{-b (2 r M + M^2)} and e^{-2 b M^2} and squares
    them into the coarser rungs', each summed to eta_tilde's own cutoff at
    its eps (_theta_plan).  One wp serves all: the largest rung guard,
    _PHASE_GUARD_BITS and a bit per squaring, which at most doubles a
    term's error.  One expjpi forms the powers of omega, and each rung
    takes each G_r times its phase once."""
    a, period = alpha.numerator, 12 * alpha.denominator
    chi = chi12()
    cutoffs, guards = zip(*(_theta_plan(pi * float(start / 2**j) / 12, 1)
                            for j in range(_LADDER_RUNGS)))
    with mp.extradps(max(guards)):
        wp = mp.prec + _PHASE_GUARD_BITS + _LADDER_RUNGS - 1
        unit = _to_fixed(mp.expjpi(mp.mpf(1) / period), wp)
        decay = mp.pi * start / (12 * 2**(_LADDER_RUNGS - 1))
        # e^{-b r^2} steps by e^{-b (2 r + 1)}, e^{-b (2 r M + M^2)} by e^{-2 b M}
        rise, head, shift = (to_fixed(mp.exp(-decay * k)._mpf_, wp)
                             for k in (1, period**2, 2 * period))
    powers = [(1 << wp, 0)]
    for _ in range(2 * period - 1):
        powers.append(_fixed_mul(powers[-1], unit, wp))
    term, square, step = 1 << wp, (rise * rise) >> wp, (head * head) >> wp
    samples = [[0, 0] for _ in cutoffs]
    for r in range(min(period, cutoffs[-1] + 1)):
        if sign := chi(r):
            phase_re, phase_im = (sign * part for part in powers[a * r * r % (2 * period)])
            spans = [range(r, n_terms + 1, period) for n_terms in cutoffs]
            for acc, g in zip(samples, _fixed_gauss_ladder(term, head, step, spans, wp)):
                acc[0] += phase_re * g
                acc[1] += phase_im * g
        term, rise, head = (term * rise) >> wp, (rise * square) >> wp, (head * shift) >> wp
    return samples, 2 * wp


def eta_tilde_radial(alpha):
    """Radial limit of eta_tilde at the rational point alpha: an int, a
    Fraction or an "a/b" string (rational_parts).

    specfun._ladder_limit extrapolates the values at alpha + i eps_0/2^j,
    j < 9, to 0 from eps_0 = 0.002 / den^2: the error series blows up with
    the denominator of alpha.  One residue-class sweep (_boundary_ladder)
    forms all nine, with alpha exactly, as a Fraction, under 5 guard digits
    that resolve the samples and the limit past the working precision.
    Returns (limit, err_estimate): the last Richardson correction plus the
    ladder's gain times eps max |sample| at the working eps, which covers
    the rounding and recurrence drift of each sample and of the limit."""
    with mp.extradps(5):
        frac = _rational_angle(alpha)
        samples, scale = _boundary_ladder(frac, mp.mpf("0.002") / frac.denominator**2)
        limit, correction = _ladder_limit(samples, scale)
        largest = max(abs(_from_fixed(*s, scale)) for s in samples)
    sample_err = mp.eps * largest
    return +limit, correction + sample_err * _LADDER_GAIN.numerator / _LADDER_GAIN.denominator


def _g_direct(xr, tol):
    # branch point z = x sits on the closed original contour for x > 0; the
    # ray z = t u, u = e^{3 pi i/8}, keeps Im(z - x) > 0 throughout, so with
    # w = x/u, z - x = u (t - w) and the principal powers agree:
    # (z - x)^{-3/2} dz = u^{-1/2} (t - w)^{-3/2} dt
    direction = mp.expj(3 * mp.pi / 8)
    ray = _eta_ray(xr / direction, direction, tol)
    return mp.expj(-3 * mp.pi / 16) * ray


def zagier_g(x, tol="1e-16", route: str = "laplace"):
    """Boundary function at real x != 0.  A complex x with a nonzero
    imaginary part raises DomainError, a tol below 10^(3-dps) ToleranceError.

    The default route delegates to the lateral Laplace value at i/(2 pi x),
    side mul for x > 0 and mur for x < 0.  route="direct" integrates the
    kernel (z - x)^{-3/2} against eta(z) along a rotated ray instead; the
    two routes differ by a fixed x-independent constant.  route="closed"
    sums the closed route's lateral base L at the same point to tol
    (summation._lateral): L is analytic across the imaginary axis, and on
    it equals the Laplace route's lateral value, with no ray and no theta
    sum."""
    from .borel import trefoil_borel
    from .summation import AverageKind, _lateral, _require_reachable, sum_eta_integral

    tol = require_tol(tol)
    _require_reachable(tol)
    if isinstance(x, Rational):
        a = mp.mpf(x.numerator) / x.denominator
    else:
        a = require_finite(x, "x")
        if mp.im(a):
            raise DomainError(f"x must be real, not {a}")
        a = mp.re(a)
    if a == 0:
        raise DomainError("x must be nonzero")
    if route == "direct":
        return _g_direct(a, tol)
    if route not in ("laplace", "closed"):
        raise ValueError("route must be 'laplace', 'direct' or 'closed'")
    point = mp.j / (2 * mp.pi * a)
    if route == "closed":
        return _lateral(trefoil_borel(), point, tol)
    side = AverageKind.MUL if a > 0 else AverageKind.MUR
    return sum_eta_integral(point, side=side, tol=tol).value


def zagier_g_taylor(count: int = 4):
    """First `count` Taylor coefficients of g at 0.

    Degree-7 polynomial fit through g(+-j s), j = 1..4, each g to 1e-20,
    with the negative half supplied by conjugation, at the three scales
    s = h, h/2, h/4, h = 1e-3.
    The fit error for c_n starts at order 8-n (even n) or 9-n (odd n), in
    even steps, so each coefficient gets two Richardson eliminations at
    its true orders.  Noise amplification grows like s^{-n}; the high end
    of the window is only good to a few digits."""
    if not 1 <= count <= 8:
        raise ValueError("count must be in 1..8")
    with mp.workdps(max(mp.dps, 25) + 10):
        step = mp.mpf("1e-3")
        cache: dict = {}

        def g_at(u):
            if u not in cache:
                cache[u] = zagier_g(u, tol="1e-20")
            return cache[u]

        def coeffs_at(scale):
            gs = [g_at(j * scale) for j in (1, 2, 3, 4)]
            xs = [-4, -3, -2, -1, 1, 2, 3, 4]
            ys = [mp.conj(g) for g in gs[::-1]] + gs
            in_units = fit_poly_coeffs(xs, ys)
            return [in_units[n] / scale**n for n in range(8)]

        fits = [coeffs_at(step), coeffs_at(step / 2), coeffs_at(step / 4)]
        out = []
        for n in range(count):
            m1 = 8 - n if (8 - n) % 2 == 0 else 9 - n
            once = [
                fits[i + 1][n] + (fits[i + 1][n] - fits[i][n]) / (2**m1 - 1)
                for i in (0, 1)
            ]
            out.append(once[1] + (once[1] - once[0]) / (2 ** (m1 + 2) - 1))
    return [+c for c in out]
