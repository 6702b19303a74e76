"""Exact truncated power series and Bernoulli machinery.

Conventions:

- Every coefficient is a fractions.Fraction (lowest terms, positive
  denominator are guaranteed by Fraction itself).
- A FormalSeries is a fixed-length truncation.  coeffs[n] multiplies
  x^{-n} when variable_kind == "inverse-x" and p^n when variable_kind == "p".
  Trailing zero coefficients are allowed; `order` is the number of stored
  coefficients.  Operations never extend a truncation silently: a result's
  order is the minimum of its inputs' orders unless documented otherwise.
- Bernoulli numbers use the B(1) = -1/2 convention and are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

__all__ = [
    "FormalSeries",
    "bernoulli_number",
    "bernoulli_poly",
    "borel_transform",
    "series_quotient_even",
]

_KINDS = ("inverse-x", "p")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


@dataclass(frozen=True)
class FormalSeries:
    """Truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]
    variable_kind: str

    def __post_init__(self) -> None:
        if self.variable_kind not in _KINDS:
            raise ValueError(f"variable_kind must be one of {_KINDS}")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


# B_0, B_1, ...; bernoulli_number extends the list on demand
_BERNOULLI = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # B_m = -1/(m+1) * sum_{k<m} C(m+1,k) B_k
        acc = sum(Fraction(comb(m + 1, k)) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def bernoulli_poly(n: int, x: Fraction | int | str) -> Fraction:
    """Exact Bernoulli polynomial B_n(x) at a rational point."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xq = _as_fraction(x)
    return sum(
        Fraction(comb(n, k)) * bernoulli_number(k) * xq ** (n - k) for k in range(n + 1)
    )


def borel_transform(series: FormalSeries) -> FormalSeries:
    """Map sum a_n x^{-n} (order N) to sum a_{n+1} p^n / n! (order N-1).

    The constant term a_0 is dropped; callers are responsible for carrying it
    through whatever resummation they perform afterwards.
    """
    if series.variable_kind != "inverse-x":
        raise ValueError("borel_transform expects an inverse-x series")
    if series.order < 2:
        raise ValueError("need at least order 2 to transform")
    out = []
    fact = Fraction(1)
    for n in range(series.order - 1):
        if n > 0:
            fact *= n
        out.append(series.coeffs[n + 1] / fact)
    return FormalSeries(tuple(out), "p")


def series_quotient_even(num: FormalSeries, den: FormalSeries) -> FormalSeries:
    """Long division num/den of truncated series in p, of any parity.

    Rejects denominators with zero constant term, for which no power-series
    quotient exists.  (The coefficient tables in invariants divide on
    integers instead; see its module docstring.)
    """
    if num.variable_kind != "p" or den.variable_kind != "p":
        raise ValueError("series_quotient_even operates on p-series")
    if den.coeffs[0] == 0:
        raise ValueError("denominator has zero constant term")
    n = min(num.order, den.order)
    q = [Fraction(0)] * n
    d0 = den.coeffs[0]
    for i in range(n):
        acc = num.coeffs[i]
        for j in range(1, i + 1):
            acc -= den.coeffs[j] * q[i - j]
        q[i] = acc / d0
    return FormalSeries(tuple(q), "p")
