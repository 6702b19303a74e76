"""Reference values for the benchmark checks, computed apart from borelsum.

Nothing here imports borelsum.  Every value comes from mpmath or from exact
integer arithmetic written out below, so a check that compares a borelsum
result with one of these functions compares two independent computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt

from mpmath import mp

# a_0..a_3 of the trefoil series and a_1 of the Poincare series as printed
# in the source paper.
PRINTED_TREFOIL = (Fraction(1), Fraction(23), Fraction(1681, 2), Fraction(257543, 6))
PRINTED_POINCARE_A1 = 119

_CHI12 = {1: 1, 5: -1, 7: -1, 11: 1}


def _egf_quotient(num, den, count: int) -> list[Fraction]:
    """g_0..g_{count-1} with sum_j C(k, j) den(j) g_{k-j} = num(k) for all k.

    These are the exponential-generating coefficients (k! times the power
    series coefficients) of the quotient of two series given by theirs."""
    d0 = den(0)
    dens = [den(j) for j in range(count)]
    g: list[Fraction] = []
    for k in range(count):
        acc = Fraction(num(k))
        for j in range(1, k + 1):
            if dens[j] and g[k - j]:
                acc -= comb(k, j) * dens[j] * g[k - j]
        g.append(acc / d0)
    return g


def _alternating_power(base: int, k: int, parity: int) -> int:
    # k-th derivative at 0 of cos(base p) (parity 0) or sin(base p) (parity 1)
    if k % 2 != parity:
        return 0
    return (-1) ** ((k - parity) // 2) * base**k


def trefoil_table(order: int) -> list[Fraction]:
    """a_0..a_order from sin(2p) / (2 cos 3p) = sum a_n n!/(2n+1)! p^(2n+1)."""
    g = _egf_quotient(
        lambda k: _alternating_power(2, k, 1),
        lambda k: 2 * _alternating_power(3, k, 0),
        2 * order + 2,
    )
    return [g[2 * n + 1] / factorial(n) for n in range(order + 1)]


def poincare_table(order: int) -> list[Fraction]:
    """a_0..a_order from cos(5p) cos(9p) / cos(15p) = sum a_n p^(2n) / (2n)!.

    The numerator is expanded as (cos 14p + cos 4p) / 2, not as a product."""
    g = _egf_quotient(
        lambda k: Fraction(_alternating_power(14, k, 0) + _alternating_power(4, k, 0), 2),
        lambda k: _alternating_power(15, k, 0),
        2 * order + 1,
    )
    return [g[2 * n] for n in range(order + 1)]


def trefoil_bn(a: list[Fraction], n: int) -> Fraction:
    """Borel-plane Taylor coefficient b_n = a_(n+1) / (24^(n+1) n!)."""
    return a[n + 1] / (Fraction(24) ** (n + 1) * factorial(n))


def scaled_coefficients(model: str, a: list[Fraction]) -> list[Fraction]:
    """Coefficients of x^-n in the divergent series of each model."""
    if model == "trefoil":
        return [an / Fraction(24) ** n for n, an in enumerate(a)]
    return [an / (factorial(n) * Fraction(120) ** n) for n, an in enumerate(a)]


def superasymptotic(scaled: list[Fraction], x):
    """Optimal truncation at real x > 0: (sum of the terms before the
    smallest one, size of the smallest term)."""
    with mp.workdps(mp.dps + 20):
        xm = mp.mpf(x)
        terms = [mp.mpf(s.numerator) / s.denominator / xm**n for n, s in enumerate(scaled)]
        sizes = [abs(t) for t in terms]
        smallest = min(range(1, len(terms)), key=sizes.__getitem__)
        if smallest > len(terms) - 5:
            raise ValueError("coefficient table too short for optimal truncation at this x")
        total = mp.fsum(terms[:smallest])
        return +total, +sizes[smallest]


def phi_direct(alpha: Fraction):
    """e^(pi i alpha/12) sum_(n<d) (q)_n at q = e^(2 pi i alpha), summed directly.

    (q)_n vanishes for n >= d because it then contains the factor 1 - q^d."""
    alpha = Fraction(alpha)
    d = alpha.denominator
    with mp.workdps(mp.dps + 15):
        q = mp.expjpi(2 * mp.mpf(alpha.numerator) / d)
        total = mp.mpc(1)
        poch = mp.mpc(1)
        for n in range(1, d):
            poch *= 1 - q**n
            total += poch
        value = mp.expjpi(mp.mpf(alpha.numerator) / (12 * d)) * total
    return +value


def l_value_chi12(s: int):
    """L(s, chi_12) = 12^-s sum_a chi(a) zeta(s, a/12) by Hurwitz zeta."""
    with mp.workdps(mp.dps + 10):
        total = mp.fsum(sign * mp.zeta(s, mp.mpf(a) / 12) for a, sign in _CHI12.items())
        value = total / mp.mpf(12) ** s
    return +value


def _gaussian_cutoff(nu, re_x) -> int:
    # e^(-nu re_x n^2) below 10^-(dps+20) beyond this index
    digits = (mp.dps + 20) * 2.303
    return isqrt(int(digits / float(nu * re_x)) + 1) + 3


def lateral_difference(model: str, x):
    """median - mul as a weighted theta sum.

    trefoil:  i sqrt(2) (pi x)^(3/2) sum chi_12(n) n e^(-pi^2 n^2 x / 6)
    poincare: 2 sqrt(pi) i x^(1/2) sum c_n e^(-pi^2 n^2 x / 30), n odd,
              c_n = (2 sqrt(30)/30) (-1)^((n-1)/2) cos(n pi/6) cos(3 n pi/10)
    """
    with mp.workdps(mp.dps + 10):
        xz = mp.mpc(x)
        if model == "trefoil":
            nu = mp.pi**2 / 6
            acc = mp.fsum(
                _CHI12.get(n % 12, 0) * n * mp.exp(-nu * n * n * xz)
                for n in range(1, _gaussian_cutoff(nu, mp.re(xz)))
            )
            value = mp.j * mp.sqrt(2) * (mp.pi * xz) ** mp.mpf(1.5) * acc
        else:
            nu = mp.pi**2 / 30
            scale = 2 * mp.sqrt(30) / 30
            acc = mp.fsum(
                scale * (-1) ** ((n - 1) // 2) * mp.cospi(mp.mpf(n) / 6)
                * mp.cospi(mp.mpf(3 * n) / 10) * mp.exp(-nu * n * n * xz)
                for n in range(1, _gaussian_cutoff(nu, mp.re(xz)), 2)
            )
            value = 2 * mp.sqrt(mp.pi) * mp.j * mp.sqrt(xz) * acc
    return +value
