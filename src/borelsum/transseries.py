"""Transseries structure of the trefoil Borel Taylor coefficients.

The exact coefficients b_n split into blocks indexed by the support of
the mod-12 character: a dominant k=1 block growing like
(6/pi^2)^n n^{3/2} (gamma_0 + gamma_1/n + ...) and exponentially
suppressed blocks at k = 5, 7, 11, ...  This module extracts the block
coefficients c[k, l] and reconstructs b_n from a finite (k, l) window;
``borelsum.checks`` measures how well the window and the residuals behave.

The gamma ladder comes from ``stirling_gammas``, which manipulates the
Stirling series in exact rational arithmetic and returns g_l with
gamma_l = g_l / sqrt(pi); the reconstruction against the exact b_n checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from mpmath import mp

from .borel import trefoil_bn_exact
from .characters import chi12, l_value_exact
from .series import bernoulli_number

__all__ = [
    "exact_bn",
    "closed_bn",
    "block_term",
    "normalized_residual",
    "stirling_gammas",
    "TransseriesTable",
    "extract_ckl",
]


def _central_ratio(n: int) -> Fraction:
    """(2n+3)! / ((n+1)! n!), the factorial ratio common to every block."""
    return Fraction(math.factorial(2 * n + 3),
                    math.factorial(n + 1) * math.factorial(n))


def exact_bn(n: int) -> Fraction:
    """Exact b_n, delegated to the Bernoulli-difference closed form."""
    return trefoil_bn_exact(n)


def closed_bn(n: int) -> Fraction:
    """Exact b_n assembled from the L-value route.

    Equals ``exact_bn`` identically.  Not an independent derivation: both
    multiply the same characters.l_value_negative(chi12, 2n + 3), this one
    through l_value_exact(n + 1), so comparing the two checks only their
    rational prefactors.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    r, _ = l_value_exact(n + 1)
    return 9 * Fraction(3, 2) ** n * _central_ratio(n) * r


def _prefactor() -> object:
    """9*sqrt(3)/pi^4, the overall scale of every character block."""
    return 9 * mp.sqrt(3) / mp.pi ** 4


def block_term(k: int, n: int) -> object:
    """Full contribution of the k-th character block to b_n.

    The blocks sum to b_n exactly: each carries the entire factorial
    ratio, so subtracting the k=1 block leaves only the exponentially
    smaller k >= 5 blocks.
    """
    chi = chi12()(k)
    if chi == 0:
        return mp.mpf(0)
    scale = Fraction(3 ** n, 2 ** n) * _central_ratio(n) / k ** (2 * n + 4)
    value = mp.mpf(scale.numerator) / mp.mpf(scale.denominator)
    return _prefactor() * chi * value / mp.pi ** (2 * n)


def normalized_residual(n: int) -> object:
    """(b_n - k=1 block) with the leading growth divided out.

    Successive ratios approach 1/25, the suppression set by the next
    populated block at k=5.  The two terms agree to roughly 1.4 (2n + 4)
    digits, so the difference is formed at raised precision.
    """
    b = exact_bn(n)
    with mp.workdps(int(mp.mpf("0.7") * (2 * n + 4)) + mp.dps + 10):
        bn = mp.mpf(b.numerator) / mp.mpf(b.denominator)
        resid = bn - block_term(1, n)
        out = resid * (mp.pi ** 2 / 6) ** n / mp.power(n, mp.mpf(3) / 2)
    return +out


def _frac_pow_series(coeffs: Sequence[Fraction], alpha: Fraction,
                     order: int) -> list[Fraction]:
    """Coefficients of P(t)**alpha through t**order; requires P(0) = 1."""
    if coeffs[0] != 1:
        raise ValueError("series must have constant term 1")
    out = [Fraction(1)]
    for m in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            p_j = coeffs[j] if j < len(coeffs) else Fraction(0)
            acc += ((alpha + 1) * j - m) * p_j * out[m - j]
        out.append(acc / m)
    return out


def stirling_gammas(count: int) -> list[Fraction]:
    """Exact g_l for l < count, where gamma_l = g_l / sqrt(pi).

    The factorial ratio (2n+3)!/((n+1)! n!) equals
    (8/sqrt(pi)) 4^n Gamma(n+5/2)/Gamma(n+1), and the gamma-ratio
    asymptotic in 1/n has coefficients binom(3/2, l) times values of
    the order-5/2 generalized Bernoulli polynomial at 5/2.  Everything
    stays rational; g_0 = 8 and g_1 = 15.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    order = count - 1
    base = [bernoulli_number(j) / math.factorial(j) for j in range(order + 1)]
    powered = _frac_pow_series(base, Fraction(5, 2), order)
    shift = [Fraction(5, 2) ** j / math.factorial(j) for j in range(order + 1)]
    out = []
    binom = Fraction(1)
    for el in range(count):
        poly_val = sum(powered[j] * shift[el - j] for j in range(el + 1))
        poly_val *= math.factorial(el)
        if el > 0:
            binom *= (Fraction(3, 2) - (el - 1)) / el
        out.append(8 * binom * poly_val)
    return out


# reconstruct scales block k by k^{-2n}; the residual decay check measures this
NORMALIZATION = "k^-2n"


@dataclass(frozen=True)
class TransseriesTable:
    """Finite (k, l) window of transseries block coefficients."""

    c: Mapping[tuple[int, int], object]
    base: object
    power: object
    k_max: int
    l_max: int

    def value(self, k: int, l: int) -> object:
        return self.c.get((k, l), mp.mpf(0))

    def reconstruct(self, n: int, l_cap: int | None = None,
                    k_cap: int | None = None) -> object:
        """Windowed transseries value at index n, block k scaled by k^{-2n}."""
        l_top = self.l_max if l_cap is None else min(l_cap, self.l_max)
        k_top = self.k_max if k_cap is None else min(k_cap, self.k_max)
        nn = mp.mpf(n)
        total = mp.mpf(0)
        for k in range(1, k_top + 1):
            inner = mp.mpf(0)
            for l in range(l_top + 1):
                coeff = self.c.get((k, l))
                if coeff:
                    inner += coeff / nn ** l
            if inner:
                total += inner / mp.mpf(k) ** (2 * n)
        return mp.power(self.base, n) * mp.power(nn, self.power) * total


def extract_ckl(k_max: int, l_max: int) -> TransseriesTable:
    """Assemble the c[k, l] window for k <= k_max, l <= l_max.

    The k dependence is exact (character value over k^4, with the
    squared-index exponential); the 1/n ladder is the exact Stirling one.
    """
    if k_max < 1 or l_max < 0:
        raise ValueError("window must satisfy k_max >= 1, l_max >= 0")
    sqrt_pi = mp.sqrt(mp.pi)
    gammas = [(mp.mpf(g.numerator) / mp.mpf(g.denominator)) / sqrt_pi
              for g in stirling_gammas(l_max + 1)]
    chi = chi12()
    pref = _prefactor()
    table: dict[tuple[int, int], object] = {}
    for k in range(1, k_max + 1):
        weight = pref * chi(k) / mp.mpf(k) ** 4
        for l in range(l_max + 1):
            table[(k, l)] = weight * gammas[l] if chi(k) else mp.mpf(0)
    return TransseriesTable(c=table, base=6 / mp.pi ** 2,
                            power=mp.mpf(3) / 2, k_max=k_max, l_max=l_max)
