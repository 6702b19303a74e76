"""Dirichlet-type residue tables and their L-values.

The mod-12 character chi is the real primitive character (+1 at 1,11; -1 at
5,7).  The two mod-60 tables are sign patterns read off residue classes; they
are not multiplicative and are kept as plain tables on purpose.

l_value_negative gives L(-k, C) exactly for any of these tables.  By
Lawrence-Zagier the asymptotic coefficients of sum n^r C(n) e^{-n^2 t} are
L(-2j-r, C)(-t)^j/j!, so it is the one exact kernel of both coefficient
tables, of the trefoil b_n and, by the functional equation, of l_value_exact.
l_value_cyclotomic gives L(-p, C) for C(n) = W(n) e^{i pi s n^2/h}, a
periodic table times a root of unity of order 2h, on the same kernel: by the
Lawrence-Zagier lemma it is the limit of sum n^p C(n) e^{-n^2 t} as t -> 0
when C has mean zero, the boundary value of a theta series at a root of
unity.  l_series_partial sums L(s, C) for s > 1 with a certified tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from mpmath import mp

from .errors import DomainError
from .series import _BERNOULLI, bernoulli_number

__all__ = [
    "DirichletCharacter",
    "chi12",
    "chi60",
    "l_value_cyclotomic",
    "l_value_exact",
    "l_value_negative",
    "l_series_partial",
]


@dataclass(frozen=True)
class DirichletCharacter:
    """Periodic sign table: value at n is table[n % modulus]."""

    modulus: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1 or len(self.table) != self.modulus:
            raise ValueError("table length must equal the modulus")
        if any(v not in (-1, 0, 1) for v in self.table):
            raise ValueError("table entries must be in {-1, 0, 1}")

    def __call__(self, n: int) -> int:
        return self.table[n % self.modulus]


def _table(modulus: int, plus: tuple[int, ...], minus: tuple[int, ...]) -> DirichletCharacter:
    tab = [0] * modulus
    for r in plus:
        tab[r] = 1
    for r in minus:
        tab[r] = -1
    return DirichletCharacter(modulus, tuple(tab))


_CHI12 = _table(12, plus=(1, 11), minus=(5, 7))
_CHI60_1 = _table(60, plus=(37, 43, 47, 53), minus=(7, 13, 17, 23))
_CHI60_2 = _table(60, plus=(31, 41, 49, 59), minus=(1, 11, 19, 29))


def chi12() -> DirichletCharacter:
    return _CHI12


def chi60(which: int) -> DirichletCharacter:
    """Sign tables mod 60 used by the weight-3 model; which is 1 or 2."""
    if which == 1:
        return _CHI60_1
    if which == 2:
        return _CHI60_2
    raise ValueError("which must be 1 or 2")


# S_0, S_1, ... per sign table, S_i = sum_{a=1}^{M} C(a) a^i; grown on demand
_POWER_SUMS: dict[DirichletCharacter, list[int]] = {}


def _bernoulli_dot(m: int, modulus: int, sums):
    """(numerator, denominator) of L(1 - m, C) from the power sums
    S_i = sum_{a=1}^{M} C(a) a^i, i <= m, of a table C of period M: with D
    the common denominator of B_0..B_m,

        -m M D L(1 - m, C) = sum_j C(m, j) (D B_j) M^j S_{m-j},

    the sum -(M^(m-1)/m) sum_a C(a) B_m(a/M) expanded in powers of a.  The
    S_i may be integers or mp numbers; the rest is integer."""
    bernoulli_number(m)  # fills the cached B_0..B_m
    bs = _BERNOULLI[:m + 1]
    den = lcm(*(b.denominator for b in bs))
    total, power = 0, 1  # power = M^j
    for j, b in enumerate(bs):
        if b:
            total += comb(m, j) * b.numerator * (den // b.denominator) * power * sums[m - j]
        power *= modulus
    return -total, m * modulus * den


def l_value_negative(chi: DirichletCharacter, k: int) -> Fraction:
    """L(-k, C) = -(M^k/(k+1)) sum_{a=1}^{M} C(a) B_{k+1}(a/M), exact, for
    any sign table C mod M: one integer dot product (_bernoulli_dot) over
    the power sums of C, which are kept per table."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m, modulus = k + 1, chi.modulus
    sums = _POWER_SUMS.setdefault(chi, [])
    sums.extend(sum(chi(a) * a**i for a in range(1, modulus + 1)) for i in range(len(sums), m + 1))
    return Fraction(*_bernoulli_dot(m, modulus, sums))


def l_value_cyclotomic(table, p: int, s: int, h: int):
    """L(-p, C) for C(n) = W(n) e^{i pi s n^2/h}, W(n) = table[n % P],
    as an mpc with an absolute error of a few eps at the working precision.

    s h must be even: then (n + h)^2 - n^2 = 2 n h + h^2 moves the phase by
    whole turns, and C has the period M = lcm(P, h).  The n <= M with
    W(n) != 0 fall into classes by their residue mod P and their exponent
    e = s n^2 mod 2h; each class keeps the integer power sums of its n, so
    the power sums S_i of C take one root e^{i pi e/h} per exponent and one
    product per class and order, and _bernoulli_dot gives L(-p, C) with no
    Bernoulli polynomial per n.  The lemma wants mean zero: DomainError
    unless S_0 vanishes to within its own rounding, and S_0 then enters as
    an exact 0.  The dot product cancels down from terms up to about
    max|W| (2M)^(p+1), so it runs with the digits of that size as guard."""
    if (s * h) % 2:
        raise ValueError("s h must be even")
    period = len(table)
    modulus = lcm(period, h)
    m = p + 1
    classes: dict[tuple[int, int], list[int]] = {}
    for n in range(1, modulus + 1):
        if table[n % period]:
            ints = classes.setdefault((n % period, s * n * n % (2 * h)), [0] * (m + 1))
            power = 1
            for i in range(m + 1):
                ints[i] += power
                power *= n
    size = max(abs(w) for w in table) * (2 * modulus) ** m
    with mp.extradps(max(0, int(mp.log10(size))) + 2):
        roots: dict[int, object] = {}
        sums = [mp.mpc(0)] * (m + 1)
        mean_size = 0
        for (r, e), ints in classes.items():
            if e not in roots:
                roots[e] = mp.expjpi(mp.mpf(e) / h)
            c = table[r] * roots[e]
            sums = [acc + c * k for acc, k in zip(sums, ints)]
            mean_size += abs(table[r]) * ints[0]
        if abs(sums[0]) > 8 * len(classes) * mp.eps * mean_size:
            raise DomainError(f"C has mean {mp.nstr(sums[0] / modulus, 3)}, not 0, "
                              f"over its period {modulus}")
        num, den = _bernoulli_dot(m, modulus, [0, *sums[1:]])
        value = num / mp.mpf(den)
    return +value


def l_value_exact(n: int) -> tuple[Fraction, int]:
    """Exact even L-value of the mod-12 character.

    Returns (r, s) with s = 2n + 2 and L(s, chi) = r * pi^s / sqrt(3).  By
    the functional equation the rational r is the value at 1 - s = -2n - 1:

        r = -(-4)^n L(-2n-1, chi) / ((2n+1)! 12^{2n+1})

    so e.g. n=0 gives r = 1/6, i.e. L(2, chi) = pi^2 / (6 sqrt 3).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 2 * n + 2
    r = l_value_negative(_CHI12, s - 1) * Fraction(-(-4) ** n, factorial(s - 1) * 12 ** (s - 1))
    return r, s


def l_series_partial(chi: DirichletCharacter, s: float, terms: int):
    """Partial sum of sum_{n>=1} chi(n) n^{-s} with a certified tail bound.

    Returns (value, tail_bound); the tail bound is the crude integral
    comparison modulus * terms^{1-s} / (s-1), valid for s > 1.  Rejects
    s <= 1 where the bound (and for these tables the series) degenerates.
    """
    if not s > 1:
        raise ValueError("need s > 1")
    if terms < 1:
        raise ValueError("need at least one term")
    sm = mp.mpf(s)
    total = mp.mpf(0)
    for n in range(1, terms + 1):
        v = chi(n)
        if v:
            total += v * mp.power(n, -sm)
    tail = chi.modulus * mp.power(terms, 1 - sm) / (sm - 1)
    return total, tail
