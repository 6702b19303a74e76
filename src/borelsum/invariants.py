"""Finite q-factorial sums at roots of unity and the two coefficient tables.

Roots of unity are always addressed by a rational angle alpha (q = e^{2 pi i
alpha}), never by a floating-point q.  For denominators up to 12 the finite
sums are evaluated exactly in Q[x]/Phi_d(x); beyond that, high-precision
complex arithmetic with a small zero-detection threshold is used.

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
    "q_factorial",
    "f_at_root_of_unity",
    "f_exact_cyclotomic",
    "phi",
    "trefoil_coeffs",
    "poincare_coeffs",
]

_ROUTES = ("generating-function", "bernoulli-closed-form")
_EXACT_DEN_LIMIT = 12


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
# exact cyclotomic arithmetic (denominator <= 12)

def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


_CYC_CACHE: dict[int, list[Fraction]] = {}


def _cyclotomic_poly(d: int) -> list[Fraction]:
    """Coefficients (ascending) of Phi_d, by exact division of x^d - 1."""
    if d in _CYC_CACHE:
        return _CYC_CACHE[d]
    poly = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic_poly(e))
            assert all(r == 0 for r in rem)
    _CYC_CACHE[d] = poly
    return poly


class _Cyc:
    """Element of Q[x]/Phi_d(x); x stands for the primitive root e^{2 pi i/d}."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: list[Fraction]):
        phi_d = _cyclotomic_poly(d)
        deg = len(phi_d) - 1
        if len(coeffs) > deg:
            _, coeffs = _poly_divmod(coeffs, phi_d)
        coeffs = list(coeffs) + [Fraction(0)] * (deg - len(coeffs))
        self.d = d
        self.coeffs = coeffs[:deg] if deg else [Fraction(0)]

    @classmethod
    def one(cls, d: int) -> "_Cyc":
        return cls(d, [Fraction(1)])

    @classmethod
    def root_power(cls, d: int, k: int) -> "_Cyc":
        k %= d
        return cls(d, [Fraction(0)] * k + [Fraction(1)])

    def __mul__(self, other: "_Cyc") -> "_Cyc":
        return _Cyc(self.d, _poly_mul(self.coeffs, other.coeffs))

    def __add__(self, other: "_Cyc") -> "_Cyc":
        return _Cyc(self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, scalar: int) -> "_Cyc":
        out = [-c for c in self.coeffs]
        out[0] += scalar
        return _Cyc(self.d, out)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_mpc(self):
        root = mp.expjpi(mp.mpf(2) / self.d)
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * root + mp.mpf(c.numerator) / c.denominator
        return acc


def f_exact_cyclotomic(alpha) -> tuple[int, list[Fraction]]:
    """Exact value of the finite sum at denominator <= 12.

    Returns (d, coeffs) where coeffs are the coordinates of
    sum_{n=0}^{d-1} (q)_n in the power basis of Q[x]/Phi_d(x), q = x^a.
    """
    a, d = _angle(alpha).reduced()
    if d > _EXACT_DEN_LIMIT:
        raise ValueError(f"exact path is limited to denominator {_EXACT_DEN_LIMIT}")
    poch = _Cyc.one(d)
    total = _Cyc.one(d)
    for n in range(1, d):
        poch = poch * (1 - _Cyc.root_power(d, a * n))
        if poch.is_zero():
            break
        total = total + poch
    return d, total.coeffs


# ---------------------------------------------------------------------------
# numeric q-factorials and the boundary sums

def q_factorial(q, n: int):
    """(q)_n = prod_{j=1..n} (1 - q^j), with (q)_0 = 1.

    A factor smaller than 10 units in the last place is treated as an exact
    zero, so the product terminates cleanly at roots of unity.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    qz = mp.mpc(q)
    out = mp.mpc(1)
    power = mp.mpc(1)
    thresh = 10 * mp.eps
    for _ in range(n):
        power *= qz
        factor = 1 - power
        if abs(factor) < thresh:
            return mp.mpc(0)
        out *= factor
    return out


def f_at_root_of_unity(alpha):
    """sum_{n>=0} (q)_n at q = e^{2 pi i alpha}; terminates after den(alpha) terms."""
    ang = _angle(alpha)
    a, d = ang.reduced()
    if d <= _EXACT_DEN_LIMIT:
        _, coeffs = f_exact_cyclotomic(ang)
        return _Cyc(d, coeffs).to_mpc()
    q = mp.expjpi(mp.mpf(2 * a) / d)
    total = mp.mpc(1)
    poch = mp.mpc(1)
    thresh = 10 * mp.eps
    for n in range(1, d):
        poch *= 1 - q**n
        if abs(poch) < thresh:
            break
        total += poch
    return total


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
