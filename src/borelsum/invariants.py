"""Finite q-factorial sums at roots of unity and the two coefficient tables.

Roots of unity are always addressed by a rational angle alpha (q = e^{2 pi i
alpha}), never by a floating-point q.  The finite sums are summed by one
complex loop at the working precision, whatever the denominator.

The two coefficient tables:

- trefoil: sum a_n n!/(2n+1)! p^{2n+1} = sin(2p) / (2 cos(3p)), with the
  closed form a_n = 24^n 6 (-6)^n / (n+1)! * (B_{2n+2}(1/12) - B_{2n+2}(5/12))
  as an independent second route.  The a_n are rational, not integral
  (a_2 = 1681/2).
- poincare: sum a_n/(2n)! p^{2n} = cos(5p) cos(9p) / cos(15p); a_0 = 1,
  a_1 = 119.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp

from .characters import bernoulli_delta
from .series import (
    FormalSeries,
    cos_series,
    series_product,
    series_quotient_even,
    sin_series,
)

__all__ = [
    "RationalAngle",
    "CoefficientTable",
    "f_at_root_of_unity",
    "phi",
    "trefoil_coeffs",
    "poincare_coeffs",
]

_ROUTES = ("generating-function", "bernoulli-closed-form")


@dataclass(frozen=True)
class RationalAngle:
    """Rational multiple of a full turn; q = e^{2 pi i alpha}."""

    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))

    def reduced(self) -> tuple[int, int]:
        """(a, d) with alpha = a/d mod 1, 0 <= a < d, gcd(a, d) = 1."""
        r = self.alpha - Fraction(int(self.alpha))  # into [0, 1) for alpha >= 0
        if r < 0:
            r += 1
        return r.numerator, r.denominator


def _angle(alpha) -> RationalAngle:
    if isinstance(alpha, RationalAngle):
        return alpha
    return RationalAngle(Fraction(alpha))


# ---------------------------------------------------------------------------
# the boundary sums

def f_at_root_of_unity(alpha):
    """sum_{n>=0} (q)_n at q = e^{2 pi i alpha}; terminates after den(alpha) terms.

    No (q)_n with n < d vanishes at a reduced a/d.  |(q)_n| rises to about
    e^{0.16 d} before the sum settles, so cancellation costs about 0.07 d
    digits at denominator d; the loop runs with d/14 + 3 guard digits."""
    a, d = _angle(alpha).reduced()
    with mp.extradps(d // 14 + 3):
        q = mp.expjpi(mp.mpf(2 * a) / d)
        total = mp.mpc(1)
        poch = mp.mpc(1)
        for n in range(1, d):
            poch *= 1 - q**n
            total += poch
    return +total


def phi(alpha):
    """e^{pi i alpha/12} times the boundary sum; period 24 in alpha."""
    ang = _angle(alpha)
    a = ang.alpha
    prefactor = mp.expjpi(mp.mpf(a.numerator) / (12 * a.denominator))
    return prefactor * f_at_root_of_unity(ang)


# ---------------------------------------------------------------------------
# coefficient tables

@dataclass(frozen=True)
class CoefficientTable:
    """Exact a_0..a_N for one of the two models, tagged with its route."""

    which: str
    a: tuple[Fraction, ...]
    route: str

    def __post_init__(self) -> None:
        if self.which not in ("trefoil", "poincare"):
            raise ValueError("which must be 'trefoil' or 'poincare'")
        if self.route not in _ROUTES:
            raise ValueError(f"route must be one of {_ROUTES}")
        if not self.a or self.a[0] != 1:
            raise ValueError("tables start at a_0 = 1")

    def scaled(self, n: int) -> Fraction:
        """Coefficient of x^{-n} in the factorially divergent series.

        trefoil: a_n / 24^n; poincare: a_n / (n! 120^n).
        """
        if self.which == "trefoil":
            return self.a[n] / Fraction(24) ** n
        return self.a[n] / (Fraction(factorial(n)) * Fraction(120) ** n)

    def f_series(self) -> FormalSeries:
        return FormalSeries(tuple(self.scaled(n) for n in range(len(self.a))), "inverse-x")


def trefoil_coeffs(order: int, route: str = "generating-function") -> CoefficientTable:
    """a_0..a_order for the trefoil model via the requested route."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if route == "bernoulli-closed-form":
        a = tuple(
            Fraction(24) ** n * 6 * Fraction((-6) ** n, factorial(n + 1)) * bernoulli_delta(2 * n + 2)
            for n in range(order + 1)
        )
        return CoefficientTable("trefoil", a, route)
    if route != "generating-function":
        raise ValueError(f"route must be one of {_ROUTES}")
    n_coeffs = 2 * order + 2
    num = sin_series(2, n_coeffs)
    cos3 = cos_series(3, n_coeffs)
    den = FormalSeries(tuple(2 * c for c in cos3.coeffs), "p")
    q = series_quotient_even(num, den)
    a = tuple(
        q[2 * n + 1] * Fraction(factorial(2 * n + 1), factorial(n)) for n in range(order + 1)
    )
    return CoefficientTable("trefoil", a, route)


def poincare_coeffs(order: int) -> CoefficientTable:
    """a_0..a_order for the Poincare model from the even trigonometric quotient."""
    if order < 1:
        raise ValueError("order must be >= 1")
    n_coeffs = 2 * order + 1
    num = series_product(cos_series(5, n_coeffs), cos_series(9, n_coeffs))
    den = cos_series(15, n_coeffs)
    q = series_quotient_even(num, den)
    a = tuple(q[2 * n] * factorial(2 * n) for n in range(order + 1))
    return CoefficientTable("poincare", a, "generating-function")
