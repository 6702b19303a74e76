"""Borel-plane models: sparse sums of half-integer-power branch terms.

Both models have the form

    G(p) = sum_{n >= 1} c_n (eta_n - p)^{-k/2},   eta_n = nu n^2,   c_n = n^s w_n,

with k odd, weights w_n of period P, and branch points accumulating along
[eta_1, oo).  SqrtBranched holds that shape as data: nu, the power s and the
weight table w_1..w_P, computed once per working precision and kept on the
model, and its Hurwitz-zeta sums (periodic_power_sum), kept once per 64-bit
bucket of the working precision.  Principal powers are used throughout, so
the first sheet is the cut plane C \\ [eta_1, oo).  The second determination
negates every (eta_n - p)^{1/2} at once; with k odd that is a global sign
flip of the whole sum.

Truncation of the tail sum_{n > N} uses |eta_n - p| >= eta_n/2 once
eta_{N+1} >= 2|p|, which gives the explicit bound

    tail <= A (2/nu)^{k/2} N^{s-k+1} / (k - s - 1),   A = max_a |w_a|.

The tail decays only like a power of N, so the reachable tolerance is limited
by the term budget; eval raises ConvergenceError rather than exceeding it.

trefoil:  k = 5, nu = pi^2/6,  s = 1, w_a = (3 pi / (2 sqrt 2)) chi(a) with
          the period-12 sign table.
poincare: k = 3, nu = pi^2/30, s = 0, w_a = -sqrt(30) (c1 chi1(a) + c2 chi2(a)),
          c1 = sqrt(6 (5 + sqrt 5))/120, c2 = sqrt(6 (5 - sqrt 5))/120, with
          the two period-60 sign tables.  Equivalently, for odd n,
          c_n = (2 sqrt(30)/30) (-1)^{(n-1)/2} cos(n pi/6) cos(3 n pi/10).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, sqrt

from mpmath import mp

from .characters import chi12, chi60, l_value_negative
from .errors import ConvergenceError, OnCutError, require_finite, require_tol

__all__ = [
    "TERM_BUDGET",
    "SqrtBranched",
    "trefoil_borel",
    "poincare_borel",
    "poincare_coefficient_trig",
    "trefoil_bn_exact",
    "trefoil_taylor_exact",
    "poincare_appendix_direct",
]

TERM_BUDGET = 100_000


class SqrtBranched:
    """One of the branch-term sums above, as data: nu() and weights() give
    nu and w_1..w_period at the working precision, and table() computes them
    once per precision."""

    def __init__(self, label: str, k: int, a0, nu, power: int, weights, period: int):
        if k % 2 == 0 or k < 3:
            raise ValueError("k must be odd and >= 3")
        if period < 1:
            raise ValueError("period must be positive")
        self.label = label
        self.k = k
        self.a0 = a0
        self.nu = nu
        self.power = power
        self.weights = weights
        self.period = period
        self._tables: dict = {}

    def table(self) -> tuple:
        """(nu, (w_1, ..., w_period), Hurwitz sums by s) at the working
        precision, built on the first call at that precision."""
        table = self._tables.get(mp.prec)
        if table is None:
            weights = tuple(mp.mpf(w) for w in self.weights())
            if len(weights) != self.period:
                raise ValueError(f"{self.label}: {len(weights)} weights for period {self.period}")
            table = self._tables[mp.prec] = (+self.nu(), weights, {})
        return table

    @cached_property
    def nu_lower(self) -> float:
        """nu rounded down to a float: eta_n >= nu_lower n^2."""
        with mp.workprec(64):
            return math.nextafter(float(self.table()[0]), 0)

    @cached_property
    def coeff_bound(self) -> float:
        """max |w_a| rounded up to a float: |c_n| <= coeff_bound n^power."""
        with mp.workprec(64):
            return math.nextafter(float(max(abs(w) for w in self.table()[1])), math.inf)

    def eta(self, n: int):
        if n < 1:
            raise ValueError("singularities are indexed from 1")
        return self.table()[0] * n * n

    def coeff(self, n: int):
        if n < 1:
            raise ValueError("singularities are indexed from 1")
        return self.table()[1][(n - 1) % self.period] * n**self.power

    def _transform_terms(self, p_abs: float, tol) -> int:
        """The one term count of the sum of c_n (eta_n - p)^{-k/2} at
        |p| = p_abs: the smallest N >= 8 with scale N^{-decay}/decay <= tol
        and eta_{N+1} >= 2 p_abs, where |eta_n - p| >= eta_n/2 and the tail
        bound of the module docstring holds (decay = k - power - 1,
        scale = A (2/nu)^{k/2}); past TERM_BUDGET, ConvergenceError."""
        decay = self.k - self.power - 1
        scale = mp.mpf(self.coeff_bound) * (2 / mp.mpf(self.nu_lower)) ** (mp.mpf(self.k) / 2)
        n = int(ceil((scale / (decay * tol)) ** (mp.mpf(1) / decay)))
        reach = sqrt(2 * p_abs / self.nu_lower)  # inf past the float range
        n = max(n, 8, ceil(min(reach, TERM_BUDGET)) + 1)
        if n > TERM_BUDGET:
            raise ConvergenceError(
                f"{self.label}: tolerance {mp.nstr(tol, 3)} at |p| = {p_abs:.3g} "
                f"needs {n} terms (budget {TERM_BUDGET}); power-law tails cap the "
                f"reachable accuracy"
            )
        return n

    def eval(self, point, tol="1e-8", sheet: int = 0):
        """Value at p on the requested sheet, within absolute tolerance tol,
        summed over the _transform_terms count at |p|, principal powers."""
        tol = require_tol(tol)
        if sheet not in (0, 1):
            raise ValueError("sheet must be 0 or 1")
        p = mp.mpc(require_finite(point, "point"))
        nu, weights, _ = self.table()
        if mp.im(p) == 0 and mp.re(p) >= nu:
            raise OnCutError("real p >= eta_1 lies on the branch cut")
        expo = -mp.mpf(self.k) / 2
        period, power = self.period, self.power
        acc = mp.fsum(w * n**power * mp.power(nu * n * n - p, expo)
                      for n in range(1, self._transform_terms(float(abs(p)), tol) + 1)
                      if (w := weights[(n - 1) % period]))
        return -acc if sheet == 1 else acc

    def taylor_coeffs(self, count: int) -> list:
        """b_0..b_{count-1} with G(p) = sum b_j p^j near p = 0:
        b_j = (k/2)_j / j! * sum_n c_n eta_n^{-k/2-j}, each inner sum exact
        at the working precision (periodic_power_sum)."""
        k_half = mp.mpf(self.k) / 2
        return [mp.rf(k_half, j) / mp.factorial(j) * periodic_power_sum(self, k_half + j)
                for j in range(count)]


def periodic_power_sum(g: SqrtBranched, s):
    """sum_n c_n eta_n^{-s} = nu^{-s} sum_n w_n n^{p-2s}, p = g.power.

    With w of period P this is nu^{-s} P^{p-2s} sum_a w_a zeta(2s - p, a/P),
    Hurwitz zeta values.  Each is summed at the 64-bit bucket above the
    working precision and kept in g.table() at that bucket by s, so each
    order is summed once per model and bucket, whatever precisions the
    callers' guard digits pass through, and returned rounded to the working
    precision."""
    s = mp.mpf(s)
    with mp.workprec(-(-mp.prec // 64) * 64):
        nu, weights, sums = g.table()
        value = sums.get(s)
        if value is None:
            expo = 2 * s - g.power
            total = mp.fsum(w_a * mp.zeta(expo, mp.mpf(a) / g.period)
                            for a, w_a in enumerate(weights, 1) if w_a)
            value = sums[s] = nu ** (-s) * mp.power(g.period, -expo) * total
    return +value


@cache
def trefoil_bn_exact(n: int) -> Fraction:
    """Exact Taylor coefficient b_n of the trefoil transform at p = 0.

    b_n = a_{n+1} / (n! 24^{n+1}) = (-1)^n L(-2n-3, chi12) / (2 (n+1)! n! 24^{n+1}):
    purely rational despite the transcendental branch-point data.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return l_value_negative(chi12(), 2 * n + 3) / (
        (-1) ** n * 2 * math.factorial(n + 1) * math.factorial(n) * 24 ** (n + 1))


def trefoil_taylor_exact(order: int) -> list[Fraction]:
    """b_0..b_order of the trefoil transform, exact."""
    return [trefoil_bn_exact(n) for n in range(order + 1)]


@cache
def trefoil_borel() -> SqrtBranched:
    chi = chi12()

    def weights():
        kappa = 3 * mp.pi / (2 * mp.sqrt(2))
        return [chi(a) * kappa for a in range(1, 13)]

    return SqrtBranched("trefoil", 5, 1, lambda: mp.pi**2 / 6, 1, weights, 12)


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


@cache
def poincare_borel() -> SqrtBranched:
    chi1 = chi60(1)
    chi2 = chi60(2)

    def weights():
        root30, c1, c2 = _poincare_constants(mp.prec)
        return [-root30 * (c1 * chi1(a) + c2 * chi2(a)) for a in range(1, 61)]

    return SqrtBranched("poincare", 3, 1, lambda: mp.pi**2 / 30, 0, weights, 60)


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
