"""Command line surface: coefficients, summation, radial limits, verification.

Exit codes: 0 success, 2 usage, 3 domain rejection, 4 numerical tolerance
not met (including failed verify checks).  All numeric output is emitted as
decimal strings at the working precision, complex values as re/im pairs and
rationals as exact num/den strings, so that reports round-trip losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp

from .borel import poincare_appendix_direct, poincare_borel, taylor_coeffs
from .characters import chi12, l_series_partial, l_value_exact
from .errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    ToleranceError,
)
from .invariants import phi, poincare_coeffs, trefoil_coeffs
from .modular import eta_tilde_radial, zagier_g
from .series import borel_transform
from .summation import (
    AverageKind,
    cross_routes,
    dirichlet_delta,
    radial_limit,
    sum_erfi,
    sum_median,
)
from .transseries import exact_bn, closed_bn, extract_ckl, verify_transseries

__all__ = ["RunConfig", "main"]

_DEFAULT_EPS_RAY = 0.19634954084936207  # pi/16


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand; flags override config-file values."""

    precision_digits: int = 25
    tol: str = "1e-10"
    eps_ray: float = _DEFAULT_EPS_RAY
    object: str = "trefoil"
    output: str = "plain"

    def __post_init__(self) -> None:
        if self.precision_digits < 15:
            raise ValueError("precision_digits must be at least 15")
        if mp.mpf(self.tol) <= 0:
            raise ValueError("tol must be positive")
        if self.object not in ("trefoil", "poincare"):
            raise ValueError("object must be 'trefoil' or 'poincare'")
        if self.output not in ("json", "csv", "plain"):
            raise ValueError("output must be json, csv, or plain")


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers

def _parse_complex(text: str):
    t = text.strip().replace(" ", "").replace("j", "i")
    if not t:
        raise _UsageError("empty number")
    try:
        if t.endswith("i"):
            body = t[:-1]
            split = None
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "eE":
                    split = pos
                    break
            re_part = body[:split] if split else ""
            im_part = body[split:] if split else body
            if im_part in ("", "+"):
                imag = mp.mpf(1)
            elif im_part == "-":
                imag = mp.mpf(-1)
            else:
                imag = mp.mpf(im_part)
            real = mp.mpf(re_part) if re_part else mp.mpf(0)
            return mp.mpc(real, imag)
        return mp.mpc(mp.mpf(t))
    except ValueError as exc:
        raise _UsageError(f"cannot parse '{text}' as a number (use a+bi)") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse '{text}' as a rational") from exc


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"config line without '=': {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    return values


def _build_config(args) -> RunConfig:
    file_values = _read_config(args.config) if args.config else {}
    def pick(flag, key, cast, fallback):
        if flag is not None:
            return flag
        if key in file_values:
            try:
                return cast(file_values[key])
            except ValueError as exc:
                raise _UsageError(f"bad config value for {key}") from exc
        return fallback
    try:
        return RunConfig(
            precision_digits=pick(args.precision, "precision_digits", int, 25),
            tol=pick(args.tol, "tol", str, "1e-10"),
            eps_ray=pick(args.eps_ray, "eps_ray", float, _DEFAULT_EPS_RAY),
            object=pick(args.object, "object", str, "trefoil"),
            output=pick(args.output, "output", str, "plain"),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# formatting helpers (call inside the working-precision context)

def _real_str(value) -> str:
    return mp.nstr(mp.mpf(value), mp.dps)


def _complex_pair(value) -> dict:
    z = mp.mpc(value)
    return {"re": _real_str(mp.re(z)), "im": _real_str(mp.im(z))}


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _check(name: str, residual, bound, note: str = "") -> dict:
    r = mp.mpf(residual)
    return {
        "name": name,
        "passed": bool(r <= mp.mpf(bound)),
        "residual": _real_str(r),
        "bound": _real_str(mp.mpf(bound)),
        "note": note,
    }


def _exact_check(name: str, ok: bool, note: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(ok),
        "residual": "0" if ok else "1",
        "bound": "0",
        "note": note,
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(cfg: RunConfig, args) -> tuple[dict, bool]:
    if args.n < 0:
        raise _UsageError("--n must be nonnegative")
    route = args.route
    if cfg.object == "poincare":
        if route not in (None, "generating-function"):
            raise _UsageError("poincare coefficients have only the generating-function route")
        table = poincare_coeffs(max(args.n, 1))
    else:
        table = trefoil_coeffs(max(args.n, 1), route or "generating-function")
    rows = [
        {"n": n, "a_n": _frac_str(table.a[n]), "scaled": _frac_str(table.scaled(n))}
        for n in range(args.n + 1)
    ]
    payload = {
        "command": "coeffs",
        "object": cfg.object,
        "route": table.route,
        "rows": rows,
    }
    return payload, True


def _cmd_sum(cfg: RunConfig, args) -> tuple[dict, bool]:
    x = _parse_complex(args.x)
    method = {"med": "median"}.get(args.method, args.method)
    if args.cross_check and method != "median":
        raise _UsageError("--cross-check applies to the median method")
    if args.cross_check:
        cross_tol = mp.mpf(args.cross_tol)
        routes = cross_routes(cfg.object, x, tol=cross_tol / 4)
        value = routes["erfi-series"]
        gap = max(abs(value - v) for v in routes.values())
        if gap > cross_tol:
            raise ToleranceError(
                f"routes disagree by {mp.nstr(gap)} (allowed {mp.nstr(cross_tol)})"
            )
        result = sum_median(cfg.object, x, tol=cfg.tol)
        extra = {
            "routes": {name: _complex_pair(v) for name, v in routes.items()},
            "max_discrepancy": _real_str(gap),
        }
    else:
        result = sum_erfi(cfg.object, x, kind=AverageKind(method), tol=cfg.tol)
        extra = {}
    payload = {
        "command": "sum",
        "model": result.model,
        "kind": result.kind.value,
        "route": result.route,
        "x": _complex_pair(result.x),
        "value": _complex_pair(result.value),
        "err_estimate": _real_str(result.err_estimate),
    }
    payload.update(extra)
    return payload, True


def _cmd_radial(cfg: RunConfig, args) -> tuple[dict, bool]:
    alpha = _parse_fraction(args.alpha)
    if alpha == 0:
        raise _UsageError("--alpha must be nonzero")
    result = radial_limit(
        alpha,
        rungs=args.rungs,
        ratio=args.ratio,
        eps0=args.eps0,
        tol=cfg.tol,
    )
    target = phi(alpha)
    payload = {
        "command": "radial",
        "alpha": _frac_str(alpha),
        "rungs": args.rungs,
        "limit": _complex_pair(result.value),
        "err_estimate": _real_str(result.err_estimate),
        "target": _complex_pair(target),
        "abs_diff": _real_str(abs(result.value - target)),
    }
    return payload, True


# ---------------------------------------------------------------------------
# verify suite

def _verify_exact() -> list:
    checks = []
    printed = [
        Fraction(1),
        Fraction(23, 24),
        Fraction(1681, 1152),
        Fraction(257543, 82944),
        Fraction(67637281, 7962624),
    ]
    table = trefoil_coeffs(4)
    checks.append(
        _exact_check(
            "trefoil-scaled-coefficients",
            all(table.scaled(n) == printed[n] for n in range(5)),
        )
    )
    checks.append(
        _exact_check(
            "borel-taylor-first-values",
            exact_bn(0) == Fraction(23, 24) and exact_bn(1) == Fraction(1681, 1152),
        )
    )
    gen = trefoil_coeffs(40)
    closed = trefoil_coeffs(40, "bernoulli-closed-form")
    checks.append(_exact_check("coefficient-route-agreement", gen.a == closed.a))
    checks.append(
        _exact_check(
            "borel-route-agreement",
            all(exact_bn(n) == closed_bn(n) for n in range(31)),
        )
    )
    formal = borel_transform(trefoil_coeffs(12).f_series())
    checks.append(_exact_check("formal-borel-cross", formal.coeffs[10] == exact_bn(10)))

    chi = chi12()
    # the certified tail at s = 52 is ~1e-90, so the partials must be summed
    # well below that roundoff level for the ratio to test the bound itself
    worst = mp.mpf(0)
    with mp.workdps(120):
        for j in range(26):
            r, s = l_value_exact(j)
            exact_val = mp.mpf(r.numerator) / r.denominator * mp.pi**s / mp.sqrt(3)
            partial, bound = l_series_partial(chi, s, 60)
            worst = max(worst, abs(partial - exact_val) / bound)
    checks.append(_check("l-value-certified-partials", worst, 1))

    trigamma = (
        mp.polygamma(1, mp.mpf(1) / 12)
        - mp.polygamma(1, mp.mpf(5) / 12)
        - mp.polygamma(1, mp.mpf(7) / 12)
        + mp.polygamma(1, mp.mpf(11) / 12)
    ) / 144
    checks.append(
        _check("l2-closed-form", abs(trigamma - mp.pi**2 / (6 * mp.sqrt(3))), "1e-12")
    )
    return checks


def _verify_identities(cfg: RunConfig) -> list:
    from .modular import eta_tilde

    checks = []
    x = mp.mpf(1)
    delta = dirichlet_delta("trefoil", x, tol="1e-20")
    theta_form = mp.j * mp.sqrt(2) * (mp.pi * x) ** mp.mpf("1.5") * eta_tilde(2 * mp.pi * mp.j * x)
    checks.append(_check("delta-theta-identity", abs(delta - theta_form), "1e-12"))

    for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        limit, _ = eta_tilde_radial(alpha)
        checks.append(
            _check(
                f"strange-radial-{alpha.numerator}-{alpha.denominator}",
                abs(limit + 2 * phi(alpha)),
                "1e-4",
            )
        )

    for alpha in (Fraction(1), Fraction(2), Fraction(1, 2)):
        a_mp = mp.mpf(alpha.numerator) / alpha.denominator
        left = zagier_g(alpha, tol="1e-16", eps_ray=cfg.eps_ray)
        right = mp.power(mp.j * a_mp, mp.mpf("-1.5")) * zagier_g(
            Fraction(-1) / alpha, tol="1e-16", eps_ray=cfg.eps_ray
        )
        checks.append(
            _check(
                f"g-modularity-{alpha.numerator}-{alpha.denominator}",
                abs(left - right),
                "1e-6",
            )
        )

    g_one = zagier_g(1, tol="1e-16", eps_ray=cfg.eps_ray)
    two_phi = phi(1) + mp.power(mp.j, mp.mpf("-1.5")) * phi(-1)
    checks.append(_check("two-phi-identity", abs(two_phi - g_one), "1e-4"))

    # matched truncation: the n^-3 coefficient decay caps plain partial sums
    # near 1e-7, but the same cutoff on both sides cancels exactly in the ratio
    p = mp.mpf("0.1")
    terms = 4000
    mdl = poincare_borel()
    partial = mp.fsum(
        mdl.coeff(n) * mp.power(mdl.eta(n) - p, mp.mpf("-1.5"))
        for n in range(1, terms + 1)
    )
    ratio = partial / poincare_appendix_direct(p, terms=terms)
    checks.append(
        _check(
            "poincare-appendix-factor",
            abs(ratio + 900) / 900,
            "1e-9",
            note=f"measured conversion factor {mp.nstr(ratio, 12)}",
        )
    )

    r_one = zagier_g(1, tol="1e-14", route="direct") / g_one
    g_half = zagier_g(Fraction(1, 2), tol="1e-16", eps_ray=cfg.eps_ray)
    r_half = zagier_g(Fraction(1, 2), tol="1e-14", route="direct") / g_half
    reference = 2 * mp.pi / mp.sqrt(3) * mp.expjpi(mp.mpf("-0.25"))
    checks.append(
        _check(
            "g-direct-route-constant",
            abs(r_one - r_half) / abs(r_one),
            "1e-6",
            note=(
                f"measured ratio {mp.nstr(r_one, 12)}; "
                f"2*pi/sqrt(3)*exp(-i*pi/4) = {mp.nstr(reference, 12)}; "
                f"difference {mp.nstr(abs(r_one - reference), 3)}"
            ),
        )
    )
    return checks


def _verify_summation() -> list:
    checks = []
    for model, x_text in (("trefoil", "2"), ("trefoil", "5+3i"),
                          ("poincare", "3"), ("poincare", "8+2i")):
        routes = cross_routes(model, _parse_complex(x_text), tol="1e-10")
        base = routes["erfi-series"]
        gap = max(abs(base - v) for v in routes.values())
        checks.append(_check(f"cross-route-{model}-{x_text}", gap, "1e-8"))

    med = sum_median("trefoil", mp.mpf("3.7"), tol="1e-14").value
    checks.append(_check("median-reality", abs(mp.im(med)), "1e-10"))

    point = mp.mpc(2, mp.mpf("1.5"))
    left = mp.conj(sum_erfi("trefoil", point, "mul", tol="1e-12").value)
    right = sum_erfi("trefoil", mp.conj(point), "mur", tol="1e-12").value
    checks.append(_check("conjugation-symmetry", abs(left - right), "1e-8"))

    x = mp.mpf(20)
    table = trefoil_coeffs(5)
    partial = sum(
        mp.mpf(table.scaled(n).numerator) / table.scaled(n).denominator / x**n
        for n in range(4)
    )
    omitted = abs(mp.mpf(table.scaled(4).numerator) / table.scaled(4).denominator) / x**4
    med20 = sum_median("trefoil", x, tol="1e-14").value
    checks.append(_check("asymptotic-truncation", abs(med20 - partial), 2 * omitted))

    result = radial_limit(Fraction(1), tol="1e-12")
    checks.append(_check("radial-limit-alpha-1", abs(result.value - phi(1)), "1e-4"))
    return checks


def _verify_poincare_transseries() -> list:
    checks = []
    table = poincare_coeffs(7)
    checks.append(
        _exact_check(
            "poincare-first-coefficients",
            table.a[0] == 1 and table.a[1] == 119,
        )
    )
    numeric = taylor_coeffs(poincare_borel(), 7, tol="1e-12")
    worst = mp.mpf(0)
    for n in range(7):
        exact_val = table.scaled(n + 1) / factorial(n)
        target = mp.mpf(exact_val.numerator) / exact_val.denominator
        worst = max(worst, abs(numeric[n] - target))
    checks.append(_check("poincare-borel-taylor", worst, "1e-8"))

    window = extract_ckl(7, 6)
    report = verify_transseries(window)
    checks.append(
        _check(
            "transseries-reconstruction",
            max(mp.mpf(e) for e in report.rel_errors),
            "1e-6",
            note=f"normalization measured: {report.normalization_measured}",
        )
    )
    ratios = [mp.mpf(r) for r in report.residual_ratios]
    mean_ratio = sum(ratios) / len(ratios)
    checks.append(
        _check(
            "transseries-residual-decay",
            abs(mean_ratio - mp.mpf(1) / 25),
            mp.mpf("0.2") / 25,
            note=f"mean k=1 residual ratio {mp.nstr(mean_ratio, 8)}",
        )
    )
    return checks


def _cmd_verify(cfg: RunConfig, args) -> tuple[dict, bool]:
    checks = []
    if args.suite in ("exact", "all"):
        checks.extend(_verify_exact())
    if args.suite in ("identities", "all"):
        checks.extend(_verify_identities(cfg))
    if args.suite == "all":
        checks.extend(_verify_summation())
        checks.extend(_verify_poincare_transseries())
    passed = all(c["passed"] for c in checks)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "passed": passed,
        "checks": checks,
    }
    return payload, passed


# ---------------------------------------------------------------------------
# rendering

def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_rows(payload: dict) -> tuple[list, list]:
    kind = payload["command"]
    if kind == "coeffs":
        header = ["n", "a_n", "scaled"]
        rows = [[r["n"], r["a_n"], r["scaled"]] for r in payload["rows"]]
    elif kind == "sum":
        header = [
            "model", "kind", "route",
            "x_re", "x_im", "value_re", "value_im", "err_estimate",
        ]
        row = [
            payload["model"], payload["kind"], payload["route"],
            payload["x"]["re"], payload["x"]["im"],
            payload["value"]["re"], payload["value"]["im"],
            payload["err_estimate"],
        ]
        if "max_discrepancy" in payload:
            header.append("max_discrepancy")
            row.append(payload["max_discrepancy"])
        rows = [row]
    elif kind == "radial":
        header = [
            "alpha", "limit_re", "limit_im", "err_estimate",
            "target_re", "target_im", "abs_diff",
        ]
        rows = [[
            payload["alpha"],
            payload["limit"]["re"], payload["limit"]["im"],
            payload["err_estimate"],
            payload["target"]["re"], payload["target"]["im"],
            payload["abs_diff"],
        ]]
    else:
        header = ["name", "passed", "residual", "bound", "note"]
        rows = [
            [c["name"], str(c["passed"]).lower(), c["residual"], c["bound"], c["note"]]
            for c in payload["checks"]
        ]
    return header, rows


def _render_csv(payload: dict) -> str:
    header, rows = _csv_rows(payload)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _render_plain(payload: dict) -> str:
    kind = payload["command"]
    lines = []
    if kind == "coeffs":
        lines.append(f"object = {payload['object']}  route = {payload['route']}")
        for r in payload["rows"]:
            lines.append(f"n = {r['n']}  a_n = {r['a_n']}  scaled = {r['scaled']}")
    elif kind == "sum":
        lines.append(f"model = {payload['model']}  kind = {payload['kind']}  route = {payload['route']}")
        lines.append(f"x = {payload['x']['re']} + {payload['x']['im']} i")
        lines.append(f"value = {payload['value']['re']} + {payload['value']['im']} i")
        lines.append(f"err_estimate = {payload['err_estimate']}")
        for name, v in payload.get("routes", {}).items():
            lines.append(f"route {name}: {v['re']} + {v['im']} i")
        if "max_discrepancy" in payload:
            lines.append(f"max_discrepancy = {payload['max_discrepancy']}")
    elif kind == "radial":
        lines.append(f"alpha = {payload['alpha']}  rungs = {payload['rungs']}")
        lines.append(f"limit = {payload['limit']['re']} + {payload['limit']['im']} i")
        lines.append(f"target = {payload['target']['re']} + {payload['target']['im']} i")
        lines.append(f"abs_diff = {payload['abs_diff']}  err_estimate = {payload['err_estimate']}")
    else:
        for c in payload["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            note = f"  ({c['note']})" if c["note"] else ""
            lines.append(
                f"[{mark}] {c['name']}: residual {c['residual']} vs bound {c['bound']}{note}"
            )
        lines.append(f"suite {payload['suite']}: {'pass' if payload['passed'] else 'FAIL'}")
    return "\n".join(lines)


def _render(payload: dict, output: str) -> str:
    if output == "json":
        return _render_json(payload)
    if output == "csv":
        return _render_csv(payload)
    return _render_plain(payload)


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value settings file; flags win")
    common.add_argument("--precision", type=int, default=None, dest="precision",
                        help="working precision in digits (default 25)")
    common.add_argument("--tol", default=None, help="target tolerance (default 1e-10)")
    common.add_argument("--eps-ray", type=float, default=None, dest="eps_ray",
                        help="ray offset angle in radians (default pi/16)")
    common.add_argument("--object", choices=("trefoil", "poincare"), default=None,
                        help="which model (default trefoil)")
    common.add_argument("--output", choices=("json", "csv", "plain"), default=None,
                        help="output format (default plain)")
    common.add_argument("--out", default=None, help="write the report to this file")

    parser = argparse.ArgumentParser(
        prog="borelsum",
        description="Exact coefficients and generalized summation for the two torus-knot models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", parents=[common], help="exact series coefficients")
    p_coeffs.add_argument("--n", type=int, required=True, help="highest index to print")
    p_coeffs.add_argument("--route", choices=("generating-function", "bernoulli-closed-form"),
                          default=None, help="trefoil coefficient route")

    p_sum = sub.add_parser("sum", parents=[common], help="summed value at a point")
    p_sum.add_argument("--x", required=True, help="evaluation point, a+bi form")
    p_sum.add_argument("--method", choices=("med", "median", "mul", "mur"), default="med")
    p_sum.add_argument("--cross-check", action="store_true", dest="cross_check",
                       help="evaluate all routes and report the discrepancy")
    p_sum.add_argument("--cross-tol", default="1e-8", dest="cross_tol",
                       help="allowed cross-route discrepancy")

    p_radial = sub.add_parser("radial", parents=[common], help="radial boundary limit")
    p_radial.add_argument("--alpha", required=True, help="rational angle, num/den form")
    p_radial.add_argument("--rungs", type=int, default=9)
    p_radial.add_argument("--ratio", type=int, default=2)
    p_radial.add_argument("--eps0", default=None, help="starting ladder offset")

    p_verify = sub.add_parser("verify", parents=[common], help="identity and acceptance checks")
    p_verify.add_argument("--suite", choices=("exact", "identities", "all"), default="all")

    return parser


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "sum": _cmd_sum,
    "radial": _cmd_radial,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        with mp.workdps(cfg.precision_digits):
            payload, ok = _HANDLERS[args.command](cfg, args)
            text = _render(payload, cfg.output)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ToleranceError, ConvergenceError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
