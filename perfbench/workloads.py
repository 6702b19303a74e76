"""The four benchmark workloads: seeded inputs, warm-up calls and checks.

A workload is a sequence of rounds.  A round is a list of groups; a group is
one or more public borelsum calls and a check over their outputs.  The run
loop times each call, then runs the group's check outside the timed region.

Calls look their functions up on the borelsum modules at call time, so that
the wrappers a Tracer installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, sin
from typing import Callable

from mpmath import mp

import borelsum as bs
from borelsum import cli, transseries
from borelsum.errors import ConvergenceError, DomainError, QuadratureError, ToleranceError

import reference

# errors a public call may raise on a legitimate input; they count as failed
# operations, anything else aborts the benchmark
LIBRARY_ERRORS = (ConvergenceError, DomainError, QuadratureError, ToleranceError)

MODELS = ("trefoil", "poincare")
# x ranges where the coefficient table reaches past the smallest term
SUPERASYMPTOTIC = {"trefoil": (40.0, 60.0), "poincare": (200.0, 300.0)}
TABLE_ORDER = 130


class CliFailure(RuntimeError):
    """The command line returned a nonzero exit code."""


@dataclass(frozen=True)
class Check:
    name: str
    residual: object
    bound: object

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


@dataclass(frozen=True)
class Group:
    label: str
    calls: tuple[tuple[str, Callable[[], object]], ...]
    check: Callable[[list], list[Check]]


@dataclass(frozen=True)
class Workload:
    dps: int
    # the calls of set-up, one of each operation kind, on fixed inputs
    warmup: tuple[Callable[[], object], ...]
    round: Callable[["Inputs", int, "References"], list[Group]]


# ---------------------------------------------------------------------------
# seeded inputs

# additive steps of the R_3 low-discrepancy sequence; each slot's draw in
# round r is frac(offset + r * step), with a seeded offset per slot, so every
# run covers each input range evenly whatever its seed
_STEPS = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)


class Inputs:
    """Seeded draws in [0, 1): one low-discrepancy stream per input slot."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def u(self, slot: str, r: int, dim: int = 0) -> float:
        offset = random.Random(f"{self.seed}/{slot}/{dim}").random()
        return (offset + r * _STEPS[dim]) % 1.0

    def log_range(self, slot: str, r: int, lo: float, hi: float, dim: int = 0) -> float:
        return lo * (hi / lo) ** self.u(slot, r, dim)

    def lin_range(self, slot: str, r: int, lo: float, hi: float, dim: int = 0) -> float:
        return lo + (hi - lo) * self.u(slot, r, dim)

    def int_range(self, slot: str, r: int, lo: int, hi: int, dim: int = 0) -> int:
        return min(hi, lo + int((hi - lo + 1) * self.u(slot, r, dim)))

    def jitter(self, slot: str, r: int, center: float, width: float, dim: int = 0) -> float:
        """center (1 + width (2u - 1)): a narrow band around a fixed point."""
        return center * (1 + width * (2 * self.u(slot, r, dim) - 1))

    def strata(self, slot: str, r: int, lo: float, hi: float, k: int) -> list[float]:
        """k values, one in each of k equal log-width strata of [lo, hi]."""
        return [lo * (hi / lo) ** ((i + self.u(f"{slot}/{i}", r)) / k) for i in range(k)]

    def permutation(self, slot: str, r: int, items: list) -> list:
        out = list(items)
        random.Random(f"{self.seed}/{slot}/{r}").shuffle(out)
        return out


def polar(modulus: float, angle: float):
    return mp.mpc(modulus * cos(angle), modulus * sin(angle))


def fmt(value) -> str:
    """Short decimal form of a real or complex input, for group labels."""
    if isinstance(value, mp.mpc) and mp.im(value):
        return f"{float(mp.re(value)):.6g}{float(mp.im(value)):+.6g}i"
    return f"{float(mp.re(mp.mpmathify(value))):.6g}"


class References:
    """Exact coefficient tables from reference.py, built once per run."""

    def __init__(self) -> None:
        self.trefoil = reference.trefoil_table(TABLE_ORDER)
        self.poincare = reference.poincare_table(TABLE_ORDER)
        self.scaled = {
            "trefoil": reference.scaled_coefficients("trefoil", self.trefoil),
            "poincare": reference.scaled_coefficients("poincare", self.poincare),
        }


# ---------------------------------------------------------------------------
# checks

def exact(name: str, ok: bool) -> Check:
    return Check(name, 0 if ok else 1, 0)


def reality(value, tol) -> Check:
    return Check("reality", abs(mp.im(value)), tol)


def conjugate_pair(value, partner, tol) -> Check:
    """value at x against partner at conj(x): conj(med(x)) = med(conj x) and
    conj(mul(x)) = mur(conj x)."""
    return Check("conjugate-symmetry", abs(mp.conj(value) - partner), 2 * tol)


def superasymptotic(value, model: str, x, tol, refs: References) -> Check:
    total, smallest = reference.superasymptotic(refs.scaled[model], x)
    return Check("optimal-truncation", abs(value - total), tol + 2 * smallest)


def close(name: str, value, target, bound) -> Check:
    return Check(name, abs(value - target), bound)


def roundoff_bound(target):
    """Relative bound at the working precision, less five digits."""
    return mp.mpf(10) ** (5 - mp.dps) * max(1, abs(target))


# ---------------------------------------------------------------------------
# groups: calls and their checks

def median_real(model, x, tol, refs: References) -> Group:
    def check(out):
        value = out[0].value
        checks = [reality(value, tol)]
        lo, hi = SUPERASYMPTOTIC[model]
        if lo <= x <= hi:
            checks.append(superasymptotic(value, model, x, tol, refs))
        return checks

    point = mp.mpf(x)
    return Group(f"sum_median {model} x={fmt(x)} tol={fmt(tol)}",
                 (("sum_median", lambda: bs.sum_median(model, point, tol=tol)),), check)


def median_pair(model, x, tol) -> Group:
    return Group(
        f"sum_median {model} x={fmt(x)} and its conjugate tol={fmt(tol)}",
        (("sum_median", lambda: bs.sum_median(model, x, tol=tol)),
         ("sum_median", lambda: bs.sum_median(model, mp.conj(x), tol=tol))),
        lambda out: [conjugate_pair(out[0].value, out[1].value, tol)],
    )


def erfi_real(model, x, tol) -> Group:
    point = mp.mpf(x)
    return Group(f"sum_erfi median {model} x={fmt(x)} tol={fmt(tol)}",
                 (("sum_erfi", lambda: bs.sum_erfi(model, point, "median", tol=tol)),),
                 lambda out: [reality(out[0].value, tol)])


def erfi_lateral_pair(model, x, tol) -> Group:
    return Group(
        f"sum_erfi mul {model} x={fmt(x)}, mur at its conjugate tol={fmt(tol)}",
        (("sum_erfi", lambda: bs.sum_erfi(model, x, "mul", tol=tol)),
         ("sum_erfi", lambda: bs.sum_erfi(model, mp.conj(x), "mur", tol=tol))),
        lambda out: [conjugate_pair(out[0].value, out[1].value, tol)],
    )


def delta_group(model, x, tol) -> Group:
    def check(out):
        target = reference.lateral_difference(model, x)
        return [close("weighted-theta", out[0], target, tol + roundoff_bound(target))]

    return Group(f"dirichlet_delta {model} x={fmt(x)} tol={fmt(tol)}",
                 (("dirichlet_delta", lambda: bs.dirichlet_delta(model, x, tol=tol)),), check)


def table_group(which: str, order: int, route: str, refs: References) -> Group:
    if which == "poincare":
        call = lambda: bs.poincare_coeffs(order)  # noqa: E731
        expected = refs.poincare[:order + 1]
    else:
        call = lambda: bs.trefoil_coeffs(order, route=route)  # noqa: E731
        expected = refs.trefoil[:order + 1]

    def check(out):
        a = out[0].a
        checks = [exact("reference-table", list(a) == expected)]
        if which == "poincare":
            checks.append(exact("printed-a1", a[1] == reference.PRINTED_POINCARE_A1))
        else:
            printed = reference.PRINTED_TREFOIL[:order + 1]
            checks.append(exact("printed-a0-a3", tuple(a[:len(printed)]) == printed))
        return checks

    return Group(f"{which}_coeffs {order} {route}".rstrip(), ((f"{which}_coeffs", call),), check)


def bn_group(kind: str, n: int, refs: References) -> Group:
    call = (lambda: bs.exact_bn(n)) if kind == "exact_bn" else (lambda: transseries.closed_bn(n))
    printed = {0: Fraction(23, 24), 1: Fraction(1681, 1152)}

    def check(out):
        checks = [exact("reference-bn", out[0] == reference.trefoil_bn(refs.trefoil, n))]
        if n in printed:
            checks.append(exact("printed-bn", out[0] == printed[n]))
        return checks

    return Group(f"{kind} {n}", ((kind, call),), check)


def l_value_group(n: int) -> Group:
    def check(out):
        r, s = out[0]
        value = mp.mpf(r.numerator) / r.denominator * mp.pi**s / mp.sqrt(3)
        target = reference.l_value_chi12(2 * n + 2)
        return [exact("weight", s == 2 * n + 2),
                close("hurwitz-zeta", value, target, roundoff_bound(target))]

    return Group(f"l_value_exact {n}", (("l_value_exact", lambda: bs.l_value_exact(n)),), check)


def phi_group(alpha: Fraction) -> Group:
    def check(out):
        target = reference.phi_direct(alpha)
        return [close("direct-sum", out[0], target, roundoff_bound(target))]

    return Group(f"phi {alpha}", (("phi", lambda: bs.phi(alpha)),), check)


def random_fraction(inputs: Inputs, slot: str, r: int, d_lo: int, d_hi: int) -> Fraction:
    """a/d in lowest terms with d in [d_lo, d_hi], 0 < |a| < 2d."""
    d = inputs.int_range(slot, r, d_lo, d_hi)
    a = inputs.int_range(slot, r, 1, 2 * d - 1, dim=1)
    while gcd(a, d) != 1:
        a += 1
    sign = -1 if inputs.u(slot, r, dim=2) < 0.5 else 1
    return Fraction(sign * a, d)


# ---------------------------------------------------------------------------
# interactive: millisecond calls at 25 digits

INTERACTIVE_TOL = mp.mpf("1e-12")


INTERACTIVE_WARMUP = (
    lambda: bs.sum_median("trefoil", 2, tol=INTERACTIVE_TOL),
    lambda: bs.sum_median("poincare", 2, tol=INTERACTIVE_TOL),
    lambda: bs.sum_erfi("trefoil", mp.mpc(2, 1), "mul", tol=INTERACTIVE_TOL),
    lambda: bs.dirichlet_delta("trefoil", mp.mpc(2, 1), tol=INTERACTIVE_TOL),
    lambda: bs.trefoil_coeffs(60),
    lambda: bs.trefoil_coeffs(60, route="bernoulli-closed-form"),
    lambda: bs.poincare_coeffs(60),
    lambda: bs.exact_bn(60),
    lambda: transseries.closed_bn(60),
    lambda: bs.l_value_exact(40),
    lambda: bs.phi(Fraction(5, 12)),
)


def interactive_round(inputs: Inputs, r: int, refs: References) -> list[Group]:
    # call costs span two orders of magnitude over the |x| range, so each
    # round visits every stratum of each range once; only the position
    # inside a stratum depends on the seed, so the cost of a round barely does
    tol = INTERACTIVE_TOL
    groups = []
    for model in MODELS:
        def points(slot, k):
            moduli = inputs.strata(f"{model}/{slot}", r, 0.3, 300, k)
            return [polar(m, inputs.lin_range(f"{model}/{slot}/{i}", r, 0.1, 1.3, dim=1))
                    for i, m in enumerate(moduli)]

        lo, hi = SUPERASYMPTOTIC[model]
        groups += [median_real(model, x, tol, refs)
                   for x in inputs.strata(f"{model}/median-real", r, 0.3, 300, 6)]
        groups.append(median_real(model, inputs.lin_range(f"{model}/median-large", r, lo, hi),
                                  tol, refs))
        groups += [median_pair(model, x, tol) for x in points("median-pair", 3)]
        groups += [erfi_real(model, x, tol)
                   for x in inputs.strata(f"{model}/erfi-real", r, 0.3, 300, 3)]
        groups += [erfi_lateral_pair(model, x, tol) for x in points("erfi-pair", 3)]
        groups += [delta_group(model, x if i % 2 else mp.conj(x), mp.mpf("1e-16"))
                   for i, x in enumerate(points("delta", 3))]
    for low, high in ((1, 30), (31, 60)):
        groups += [
            table_group("trefoil", inputs.int_range(f"trefoil-gf/{low}", r, low, high),
                        "generating-function", refs),
            table_group("trefoil", inputs.int_range(f"trefoil-bern/{low}", r, low, high),
                        "bernoulli-closed-form", refs),
            table_group("poincare", inputs.int_range(f"poincare-table/{low}", r, low, high),
                        "", refs),
            bn_group("exact_bn", inputs.int_range(f"exact-bn/{low}", r, low - 1, high), refs),
            bn_group("closed_bn", inputs.int_range(f"closed-bn/{low}", r, low - 1, high), refs),
        ]
    groups += [l_value_group(n) for n in (inputs.int_range("l-value/0", r, 0, 20),
                                          inputs.int_range("l-value/21", r, 21, 40))]
    groups += [phi_group(random_fraction(inputs, "phi-exact", r, 1, 12)),
               phi_group(random_fraction(inputs, "phi-numeric", r, 13, 24))]
    return groups


# ---------------------------------------------------------------------------
# tight-tolerance: closed-route medians at 50 digits

TIGHT_TOL = mp.mpf("1e-25")
# tol 1e-28 at 50 digits on the Poincare closed route exhausts TERM_BUDGET
# at these points, in about 2 ms, with ConvergenceError
FAILING_POINTS = (mp.mpf(2), mp.mpf("0.6"))
FAILING_TOL = mp.mpf("1e-28")


def failing_group(x) -> Group:
    return Group(f"sum_median poincare x={fmt(x)} tol=1e-28",
                 (("sum_median_tol_1e-28", lambda: bs.sum_median("poincare", x, tol=FAILING_TOL)),),
                 lambda out: [reality(out[0].value, FAILING_TOL)])


TIGHT_WARMUP = (
    lambda: bs.sum_median("trefoil", 300, tol=TIGHT_TOL),
    lambda: bs.sum_median("poincare", 300, tol=TIGHT_TOL),
)


def tight_round(inputs: Inputs, r: int, refs: References) -> list[Group]:
    # each band sits inside one plateau of the closed route's term count
    # (it grows in 40% steps with 1/|x|), so that the seed moves the cost
    # of a call by a few percent, not by a step
    tol = TIGHT_TOL
    groups = [
        median_real("trefoil", inputs.jitter("t-small", r, 0.76, 0.03), tol, refs),
        median_real("trefoil", inputs.jitter("t-mid", r, 3.2, 0.03), tol, refs),
        median_real("trefoil", inputs.lin_range("t-large", r, 40, 48), tol, refs),
        median_pair("trefoil", polar(inputs.jitter("t-pair", r, 3.2, 0.03),
                                     inputs.jitter("t-pair", r, 0.6, 0.05, dim=1)), tol),
        median_real("poincare", inputs.jitter("p-small", r, 2.14, 0.03), tol, refs),
        median_real("poincare", inputs.lin_range("p-large", r, 200, 300), tol, refs),
        median_pair("poincare", polar(inputs.jitter("p-pair", r, 31.6, 0.03),
                                      inputs.jitter("p-pair", r, 0.6, 0.05, dim=1)), tol),
    ]
    return groups + [failing_group(x) for x in FAILING_POINTS]


# ---------------------------------------------------------------------------
# eta-integral: cross-checked sums through the command line, and zagier_g

CROSS_TOL = mp.mpf("1e-8")
G_TOL = mp.mpf("1e-10")


def _format_point(x) -> str:
    return f"{float(mp.re(x)):.12g}{float(mp.im(x)):+.12g}i"


def cli_sum(model: str, x: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["sum", "--x", x, "--cross-check", "--output", "json",
                         "--object", model, "--cross-tol", mp.nstr(CROSS_TOL, 3)])
    if code != 0:
        raise CliFailure(f"borelsum sum --x {x} --object {model} exited with {code}")
    return json.loads(buffer.getvalue())


def _pair(entry):
    return mp.mpc(mp.mpf(entry["re"]), mp.mpf(entry["im"]))


def cli_group(model: str, x: str) -> Group:
    def check(out):
        report = out[0]
        routes = [_pair(v) for v in report["routes"].values()]
        gap = max(abs(a - b) for a in routes for b in routes)
        value = _pair(report["value"])
        closed = _pair(report["routes"]["erfi-series"])
        return [Check("route-gap", gap, CROSS_TOL),
                Check("value-vs-closed-route", abs(value - closed), CROSS_TOL)]

    return Group(f"sum --cross-check {model} x={x}",
                 (("cli_sum_cross_check", lambda: cli_sum(model, x)),), check)


def zagier_group(a) -> Group:
    a = mp.mpf(a)
    inverse = 1 / a
    bound = 10 * G_TOL

    def check(out):
        g_a, g_neg_a, g_inv, g_neg_inv = out
        return [
            conjugate_pair(g_a, g_neg_a, G_TOL),
            conjugate_pair(g_inv, g_neg_inv, G_TOL),
            close("modular-a", g_a, mp.power(mp.j * a, mp.mpf("-1.5")) * g_neg_inv, bound),
            close("modular-1/a", g_inv, mp.power(mp.j * inverse, mp.mpf("-1.5")) * g_neg_a, bound),
        ]

    return Group(f"zagier_g at +-{fmt(a)} and +-1/{fmt(a)} tol={fmt(G_TOL)}",
                 tuple(("zagier_g", lambda u=u: bs.zagier_g(u, tol=G_TOL))
                       for u in (a, -a, inverse, -inverse)), check)


def zagier_one_group() -> Group:
    def check(out):
        target = reference.phi_direct(Fraction(1)) + mp.power(mp.j, mp.mpf("-1.5")) * \
            reference.phi_direct(Fraction(-1))
        return [close("two-phi", out[0], target, 10 * G_TOL)]

    return Group(f"zagier_g at 1 tol={fmt(G_TOL)}",
                 (("zagier_g", lambda: bs.zagier_g(1, tol=G_TOL)),), check)


ETA_WARMUP = (
    lambda: cli_sum("trefoil", "2+1.5i"),
    lambda: cli_sum("poincare", "2+1.5i"),
    lambda: bs.zagier_g(2, tol=G_TOL),
)


def eta_round(inputs: Inputs, r: int, refs: References) -> list[Group]:
    groups = []
    for model in MODELS:
        x = polar(inputs.log_range(f"{model}/cli", r, 1.5, 8),
                  inputs.lin_range(f"{model}/cli", r, -0.9, 0.9, dim=1))
        groups.append(cli_group(model, _format_point(x)))
    groups.append(zagier_group(inputs.log_range("zagier", r, 1.2, 3)))
    groups.append(zagier_one_group())
    return groups


# ---------------------------------------------------------------------------
# boundary: radial ladders at rationals with denominator up to 4

# the rationals in (0, 1] with denominator up to 4; every round runs all of
# them, so that the mix of call costs is the same however many rounds fit
BOUNDARY_ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                   Fraction(1, 4), Fraction(3, 4))
RADIAL_BOUND = mp.mpf("1e-10")   # radial_limit's default tol
ETA_TILDE_BOUND = mp.mpf("1e-13")


def radial_group(alpha: Fraction) -> Group:
    return Group(f"radial_limit {alpha}", (("radial_limit", lambda: bs.radial_limit(alpha)),),
                 lambda out: [close("phi", out[0].value, reference.phi_direct(alpha),
                                    RADIAL_BOUND)])


def eta_tilde_group(alpha: Fraction) -> Group:
    return Group(f"eta_tilde_radial {alpha}",
                 (("eta_tilde_radial", lambda: bs.eta_tilde_radial(alpha)),),
                 lambda out: [close("minus-two-phi", out[0][0],
                                    -2 * reference.phi_direct(alpha), ETA_TILDE_BOUND)])


BOUNDARY_WARMUP = (
    lambda: bs.radial_limit(Fraction(1)),
    lambda: bs.eta_tilde_radial(Fraction(1)),
)


def boundary_round(inputs: Inputs, r: int, refs: References) -> list[Group]:
    groups = []
    for alpha in inputs.permutation("alphas", r, list(BOUNDARY_ALPHAS)):
        groups += [radial_group(alpha), eta_tilde_group(alpha)]
    return groups


WORKLOADS = {
    "interactive": Workload(25, INTERACTIVE_WARMUP, interactive_round),
    "tight-tolerance": Workload(50, TIGHT_WARMUP, tight_round),
    "eta-integral": Workload(25, ETA_WARMUP, eta_round),
    "boundary": Workload(25, BOUNDARY_WARMUP, boundary_round),
}
