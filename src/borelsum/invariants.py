"""Finite q-factorial sums at roots of unity and the two coefficient tables.

Roots of unity are always addressed by a rational angle alpha (q = e^{2 pi i
alpha}), never by a floating-point q or alpha.  The finite sums are summed by
one complex loop at the working precision, whatever the denominator.

The two coefficient tables, exact:

- trefoil: sum a_n n!/(2n+1)! p^{2n+1} = sin(2p) / (2 cos(3p)).  The a_n are
  rational, not integral (a_2 = 1681/2).
- poincare: sum a_n/(2n)! p^{2n} = cos(5p) cos(9p) / cos(15p); a_0 = 1,
  a_1 = 119.

Each table has two routes that share no code.  The generating-function
route takes the quotient N/D of even-or-odd trigonometric series by one
exponential-generating-function recurrence: with N = sum n_i p^i/i!,
D = sum d_i p^i/i! (d_0 = 1, D even) and N/D = sum q_i p^i/i!,

    q_i = n_i - sum_{j >= 2 even} C(i, j) d_j q_{i-j},

all integers.  For poincare n_i = (-1)^{i/2} (4^i + 14^i)/2 at even i (since
cos 5p cos 9p = (cos 4p + cos 14p)/2), d_i = (-1)^{i/2} 15^i and a_n = q_{2n}.
For the trefoil n_i = (-1)^{(i-1)/2} 2^{i-1} at odd i, d_i = (-1)^{i/2} 3^i
and a_n = q_{2n+1}/n!.

The bernoulli-closed-form route reads them off the false theta series
-1/2 sum n^r C(n) e^{-n^2 t} that the two series expand (Lawrence-Zagier),
r = 1 and C = chi12 for the trefoil, r = 0 and C = chi60(2) for poincare:
a_n = (-1)^{n+1} L(-2n-r, C) / (2 n!^r), by characters.l_value_negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from numbers import Rational

from mpmath import mp

from .characters import chi12, chi60, l_value_negative
from .errors import DomainError
from .series import FormalSeries

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
    """Rational multiple of a full turn; q = e^{2 pi i alpha}.

    alpha is an int, a Fraction or an "a/b" string.  A float or mpf raises
    DomainError: its binary fraction has a denominator near 2^54, which
    would size the boundary sums at about 10^16 terms.  So does a string
    that is no rational number, such as "1/0" or "abc"."""

    alpha: Fraction

    def __post_init__(self) -> None:
        try:
            if not isinstance(self.alpha, (Rational, str)):
                raise TypeError
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError(f"alpha must be an int, a Fraction or an 'a/b' string, "
                              f"not {type(self.alpha).__name__} {self.alpha!r}") from None

    def reduced(self) -> tuple[int, int]:
        """(a, d) with alpha = a/d mod 1, 0 <= a < d, gcd(a, d) = 1."""
        r = self.alpha - Fraction(int(self.alpha))  # into [0, 1) for alpha >= 0
        if r < 0:
            r += 1
        return r.numerator, r.denominator


def _angle(alpha) -> RationalAngle:
    return alpha if isinstance(alpha, RationalAngle) else RationalAngle(alpha)


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
        if self.which not in _MODELS:
            raise ValueError("which must be 'trefoil' or 'poincare'")
        if self.route not in _ROUTES:
            raise ValueError(f"route must be one of {_ROUTES}")
        if not self.a or self.a[0] != 1:
            raise ValueError("tables start at a_0 = 1")

    def scaled(self, n: int) -> Fraction:
        """Coefficient of x^{-n} in the factorially divergent series,
        a_n n!^{r-1} / (2M)^n: trefoil a_n / 24^n, poincare a_n / (n! 120^n)."""
        r, chi = _MODELS[self.which][:2]
        return self.a[n] * Fraction(factorial(n)) ** (r - 1) / (2 * chi.modulus) ** n

    def f_series(self) -> FormalSeries:
        return FormalSeries(tuple(self.scaled(n) for n in range(len(self.a))), "inverse-x")


def _egf_quotient(num: list[int], den: list[int], r: int) -> list[int]:
    """q_{2n+r} for n < len(num): the EGF coefficients of N/D, given
    num[n] = n_{2n+r} (r = 0 or 1 for an even or odd N) and den[k] = d_{2k}
    of an even D with d_0 = 1, by
    q_i = n_i - sum_{k>=1} C(i, 2k) d_{2k} q_{i-2k}."""
    q: list[int] = []
    for n, n_i in enumerate(num):
        i = 2 * n + r
        q.append(n_i - sum(comb(i, 2 * k) * den[k] * q[n - k] for k in range(1, n + 1)))
    return q


# per model: r, the sign table C, and n_{2n+r} and d_{2k} of its N/D (module docstring)
_MODELS = {
    "trefoil": (1, chi12(), lambda n: (-4) ** n, lambda k: (-9) ** k),
    "poincare": (0, chi60(2), lambda n: (-1) ** n * ((16**n + 196**n) // 2), lambda k: (-225) ** k),
}


def _coeff_table(which: str, order: int, route: str) -> CoefficientTable:
    """a_n = q_{2n+r}/n!^r = (-1)^{n+1} L(-2n-r, C) / (2 n!^r) for n <= order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    r, chi, num, den = _MODELS[which]
    if route == "generating-function":
        q = _egf_quotient([num(n) for n in range(order + 1)], [den(k) for k in range(order + 1)], r)
        a = (Fraction(q_n, factorial(n) ** r) for n, q_n in enumerate(q))
    elif route == "bernoulli-closed-form":
        a = (l_value_negative(chi, 2 * n + r) / ((-1) ** (n + 1) * 2 * factorial(n) ** r)
             for n in range(order + 1))
    else:
        raise ValueError(f"route must be one of {_ROUTES}")
    return CoefficientTable(which, tuple(a), route)


def trefoil_coeffs(order: int, route: str = "generating-function") -> CoefficientTable:
    """a_0..a_order for the trefoil model via the requested route."""
    return _coeff_table("trefoil", order, route)


def poincare_coeffs(order: int, route: str = "generating-function") -> CoefficientTable:
    """a_0..a_order for the Poincare model via the requested route."""
    return _coeff_table("poincare", order, route)
