"""Borel-plane models: sparse sums of half-integer-power branch terms.

Both models have the form

    G(p) = sum_{n >= 1} c_n (eta_n - p)^{-k/2},   eta_n = nu n^2,

with k odd, coefficients c_n drawn from a sign table with period 12 or 60,
and branch points accumulating along [eta_1, oo).  Principal powers are used
throughout, so the first sheet is the cut plane C \\ [eta_1, oo).  The second
determination negates every (eta_n - p)^{1/2} at once; with k odd that is a
global sign flip of the whole sum.

Truncation of the tail sum_{n > N} uses |eta_n - p| >= eta_n/2 once
eta_{N+1} >= 2|p|, which gives the explicit bound

    tail <= A (2/nu)^{k/2} N^{s-k+1} / (k - s - 1),   |c_n| <= A n^s.

The tail decays only like a power of N, so the reachable tolerance is limited
by the term budget; eval raises ConvergenceError rather than exceeding it.

trefoil:  k = 5, nu = pi^2/6,  c_n = (3 pi / (2 sqrt 2)) chi(n) n with the
          period-12 sign table.
poincare: k = 3, nu = pi^2/30, c_n = -sqrt(30) (c1 chi1(n) + c2 chi2(n)),
          c1 = sqrt(6 (5 + sqrt 5))/120, c2 = sqrt(6 (5 - sqrt 5))/120, with
          the two period-60 sign tables.  Equivalently, for odd n,
          c_n = (2 sqrt(30)/30) (-1)^{(n-1)/2} cos(n pi/6) cos(3 n pi/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, sqrt

from mpmath import mp

from .characters import bernoulli_delta, chi12, chi60
from .errors import ConvergenceError, OnCutError, require_finite, require_tol

__all__ = [
    "TERM_BUDGET",
    "TailLaw",
    "SqrtBranched",
    "trefoil_borel",
    "poincare_borel",
    "poincare_coefficient_trig",
    "trefoil_bn_exact",
    "trefoil_taylor_exact",
    "poincare_appendix_direct",
]

TERM_BUDGET = 100_000


@dataclass(frozen=True)
class TailLaw:
    """Loose envelope |c_n| <= coeff_bound * n^power and
    eta_lower * n^2 <= eta_n <= eta_upper * n^2.  For a model with a period,
    power is also exact: c_n / n^power has that period (periodic_power_sum
    checks it)."""

    coeff_bound: float
    power: int
    eta_lower: float
    eta_upper: float


class SqrtBranched:
    """One of the branch-term sums above, evaluated lazily at the current
    working precision (eta/coeff recompute their constants on every call).

    period, when given, is that of c_n / n^{tail.power}."""

    def __init__(self, label: str, k: int, a0, eta_fn, coeff_fn, tail: TailLaw,
                 period: int | None = None):
        if k % 2 == 0 or k < 3:
            raise ValueError("k must be odd and >= 3")
        self.label = label
        self.k = k
        self.a0 = a0
        self.tail = tail
        self.period = period
        self._eta_fn = eta_fn
        self._coeff_fn = coeff_fn

    def eta(self, n: int):
        if n < 1:
            raise ValueError("singularities are indexed from 1")
        return self._eta_fn(n)

    def coeff(self, n: int):
        if n < 1:
            raise ValueError("singularities are indexed from 1")
        return self._coeff_fn(n)

    def _terms_for(self, decay: int, scale, tol, p_abs: float = 0.0) -> int:
        """The one term count of a Borel-plane sum: the smallest N >= 8 with
        scale N^{-decay}/decay <= tol and eta_{N+1} >= 2 p_abs, where the
        tail bound starts to hold; past TERM_BUDGET, ConvergenceError."""
        n = int(ceil((scale / (decay * tol)) ** (mp.mpf(1) / decay)))
        reach = sqrt(2 * p_abs / self.tail.eta_lower)  # inf past the float range
        n = max(n, 8, ceil(min(reach, TERM_BUDGET)) + 1)
        if n > TERM_BUDGET:
            raise ConvergenceError(
                f"{self.label}: tolerance {mp.nstr(tol, 3)} at |p| = {p_abs:.3g} "
                f"needs {n} terms (budget {TERM_BUDGET}); power-law tails cap the "
                f"reachable accuracy"
            )
        return n

    def _transform_terms(self, p_abs: float, tol) -> int:
        """_terms_for the sum of c_n (eta_n - p)^{-k/2} at |p| = p_abs: with
        |eta_n - p| >= eta_n/2, the tail law of the module docstring."""
        law = self.tail
        scale = mp.mpf(law.coeff_bound) * (2 / mp.mpf(law.eta_lower)) ** (mp.mpf(self.k) / 2)
        return self._terms_for(self.k - law.power - 1, scale, tol, p_abs)

    def eval(self, point, tol="1e-8", sheet: int = 0):
        """Value at p on the requested sheet, within absolute tolerance tol,
        summed over the _transform_terms count at |p|."""
        tol = require_tol(tol)
        if sheet not in (0, 1):
            raise ValueError("sheet must be 0 or 1")
        p = mp.mpc(require_finite(point, "point"))
        if mp.im(p) == 0 and mp.re(p) >= self.eta(1):
            raise OnCutError("real p >= eta_1 lies on the branch cut")
        acc = self._branch_sum(p, self.k, self._transform_terms(float(abs(p)), tol))
        return -acc if sheet == 1 else acc

    def _branch_sum(self, p, m: int, n_terms: int):
        """sum_{n <= n_terms} c_n (eta_n - p)^{-m/2}, principal powers."""
        expo = -mp.mpf(m) / 2
        return mp.fsum(c * mp.power(self._eta_fn(n) - p, expo)
                       for n in range(1, n_terms + 1) if (c := self._coeff_fn(n)))

    def taylor_coeffs(self, count: int, tol="1e-8") -> list:
        """b_0..b_{count-1} with G(p) = sum b_j p^j near p = 0.

        b_j = (k/2)_j / j! * sum_n c_n eta_n^{-k/2-j}; for periodic
        coefficients the inner sum is exact (Hurwitz zeta), otherwise it is
        truncated under the same envelope law as eval.
        """
        tol = require_tol(tol)
        law = self.tail
        nu_l = mp.mpf(law.eta_lower)
        out = []
        k_half = mp.mpf(self.k) / 2
        weights = periodic_weights(self) if self.period else None
        for j in range(count):
            m = self.k + 2 * j
            if self.period:
                acc = periodic_power_sum(self, mp.mpf(m) / 2, weights)
            else:
                scale = mp.mpf(law.coeff_bound) * nu_l ** (-mp.mpf(m) / 2)
                acc = self._branch_sum(0, m, self._terms_for(m - law.power - 1, scale, tol))
            out.append(mp.rf(k_half, j) / mp.factorial(j) * acc)
        return out


_PERIODIC_SUM_CACHE: dict = {}


def periodic_weights(g: SqrtBranched) -> tuple:
    """w_a = c_a / a^p, a = 1..g.period, p = g.tail.power, at the working
    precision: the coefficient data periodic_power_sum depends on.  A caller
    that sums several orders of one model builds them once and passes them
    to each call."""
    if not g.period:
        raise ValueError("model has no periodic coefficient structure")
    p = g.tail.power
    return tuple(g.coeff(a) / mp.mpf(a) ** p for a in range(1, g.period + 1))


def periodic_power_sum(g: SqrtBranched, s, weights: tuple | None = None):
    """sum_n c_n eta_n^{-s} when c_n = n^p w_n, p = g.tail.power, with w_n of
    period g.period, and eta_n = nu n^2.

    Reduces to Hurwitz zeta values zeta(2s - p, a/period) at the residues a,
    exact at working precision.  Cached per w_1..w_period, eta_1, p, s and
    precision, the data the sum depends on (w and eta_1 by their raw mpf
    tuples, which hash and compare faster than mpf objects); weights, when
    given, must be periodic_weights(g) at the working precision.  A new
    entry first checks w over a second period and raises ValueError where
    c_n / n^p is not periodic."""
    w = periodic_weights(g) if weights is None else weights
    p, period = g.tail.power, g.period
    key = (tuple(w_a._mpf_ for w_a in w), mp.mpf(g.eta(1))._mpf_, p, str(s), mp.prec)
    if key in _PERIODIC_SUM_CACHE:
        return _PERIODIC_SUM_CACHE[key]
    for a, w_a in enumerate(w, 1):
        if abs(g.coeff(a + period) / mp.mpf(a + period) ** p - w_a) > 16 * mp.eps * abs(w_a):
            raise ValueError(f"{g.label}: c_n / n^{p} does not have period {period}")
    expo = 2 * mp.mpf(s) - p
    total = mp.fsum(w_a * mp.zeta(expo, mp.mpf(a) / period)
                    for a, w_a in enumerate(w, 1) if w_a)
    value = g.eta(1) ** (-mp.mpf(s)) * mp.power(period, -expo) * total
    _PERIODIC_SUM_CACHE[key] = value
    return value


@cache
def trefoil_bn_exact(n: int) -> Fraction:
    """Exact Taylor coefficient b_n of the trefoil transform at p = 0.

    Closed form in Bernoulli-polynomial differences at 1/12 and 5/12;
    purely rational despite the transcendental branch-point data.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(6 * (-6) ** (n + 1),
                    math.factorial(n + 2) * math.factorial(n)) * bernoulli_delta(2 * n + 4)


def trefoil_taylor_exact(order: int) -> list[Fraction]:
    """b_0..b_order of the trefoil transform, exact."""
    return [trefoil_bn_exact(n) for n in range(order + 1)]


def trefoil_borel() -> SqrtBranched:
    chi = chi12()

    def eta(n: int):
        return mp.pi**2 * n**2 / 6

    def coeff(n: int):
        s = chi(n)
        if s == 0:
            return mp.mpf(0)
        return s * n * 3 * mp.pi / (2 * mp.sqrt(2))

    # |c_n| <= 3.34 n; 1.64 n^2 <= eta_n <= 1.645 n^2
    return SqrtBranched("trefoil", 5, 1, eta, coeff, TailLaw(3.34, 1, 1.64, 1.645),
                        period=12)


def poincare_coefficient_trig(n: int):
    """Trigonometric form of the poincare coefficient; zero at even n."""
    if n % 2 == 0:
        return mp.mpf(0)
    sign = -1 if ((n - 1) // 2) % 2 else 1
    return (
        sign
        * (2 * mp.sqrt(30) / 30)
        * mp.cos(n * mp.pi / 6)
        * mp.cos(3 * n * mp.pi / 10)
    )


@cache
def _poincare_constants(prec: int):
    """sqrt(30), c1 and c2 at one working precision."""
    root5 = mp.sqrt(5)
    return mp.sqrt(30), mp.sqrt(6 * (5 + root5)) / 120, mp.sqrt(6 * (5 - root5)) / 120


def poincare_borel() -> SqrtBranched:
    chi1 = chi60(1)
    chi2 = chi60(2)

    def eta(n: int):
        return mp.pi**2 * n**2 / 30

    def coeff(n: int):
        s1, s2 = chi1(n), chi2(n)
        if s1 == 0 and s2 == 0:
            return mp.mpf(0)
        root30, c1, c2 = _poincare_constants(mp.prec)
        return -root30 * (c1 * s1 + c2 * s2)

    # |c_n| <= sqrt(30)(c1 + c2) < 0.44; 0.32 n^2 <= eta_n <= 0.33 n^2
    return SqrtBranched("poincare", 3, 1, eta, coeff,
                        TailLaw(0.44, 0, 0.32, 0.33), period=60)


def poincare_appendix_direct(p, terms: int = 3000):
    """Literal two-character form of the poincare transform.

    Evaluates c1 * sum chi1(n) (-30p + n^2 pi^2)^{-3/2} plus the chi2
    twin, exactly as printed, with no normalization conversion.  The
    ratio eval/appendix_direct is the measured conversion factor; it is
    recorded in the verification report, not silently absorbed.
    """
    chi1 = chi60(1)
    chi2 = chi60(2)
    _, c1, c2 = _poincare_constants(mp.prec)
    pp = mp.mpc(p)
    acc1 = mp.mpc(0)
    acc2 = mp.mpc(0)
    for n in range(1, terms + 1):
        s1, s2 = chi1(n), chi2(n)
        if s1 == 0 and s2 == 0:
            continue
        base = mp.power(-30 * pp + n**2 * mp.pi**2, mp.mpf(-3) / 2)
        acc1 += s1 * base
        acc2 += s2 * base
    return c1 * acc1 + c2 * acc2
