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
from functools import cache

from mpmath import mp

from .checks import SUITES, run_suite
from .errors import ConvergenceError, DomainError, QuadratureError, ToleranceError, require_tol
from .invariants import RationalAngle, phi, poincare_coeffs, trefoil_coeffs
from .summation import (
    AverageKind,
    median_boundary_sum,
    radial_limit,
    route_gap,
    sum_erfi,
    sum_median,
)

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand; flags override config-file values."""

    precision_digits: int = 25
    tol: str = "1e-10"
    object: str = "trefoil"
    output: str = "plain"

    def __post_init__(self) -> None:
        if self.precision_digits < 15:
            raise ValueError("precision_digits must be at least 15")
        require_tol(self.tol)
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
            # the last sign that is not an exponent's starts the imaginary part
            split = next((pos for pos in range(len(body) - 1, 0, -1)
                          if body[pos] in "+-" and body[pos - 1] not in "eE"), 0)
            imag = mp.mpf({"": 1, "+": 1, "-": -1}.get(body[split:], body[split:]))
            real = mp.mpf(body[:split] or 0)
            value = mp.mpc(real, imag)
        else:
            value = mp.mpc(mp.mpf(t))
    except ValueError as exc:
        raise _UsageError(f"cannot parse '{text}' as a number (use a+bi)") from exc
    if not mp.isfinite(value):
        raise _UsageError(f"'{text}' is not a finite number")
    return value


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


def _number_str(value) -> str:
    # exact checks report the integers 0 and 1
    return str(value) if isinstance(value, int) else _real_str(value)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(cfg: RunConfig, args) -> tuple[dict, bool]:
    if args.n < 0:
        raise _UsageError("--n must be nonnegative")
    coeffs = poincare_coeffs if cfg.object == "poincare" else trefoil_coeffs
    table = coeffs(max(args.n, 1), args.route)
    rows = [
        {"n": n, "a_n": str(table.a[n]), "scaled": str(table.scaled(n))}
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
    # a given --cross-tol runs and enforces the cross-check, as in sum_median
    cross_check = args.cross_check or args.cross_tol is not None
    if cross_check and method != "median":
        raise _UsageError("--cross-check and --cross-tol apply to the median method")
    cross_tol = None
    if cross_check:
        try:
            cross_tol = require_tol("1e-8" if args.cross_tol is None else args.cross_tol)
        except ValueError as exc:
            raise _UsageError(f"--cross-tol: {exc}") from exc
    if method == "median":
        result = sum_median(cfg.object, x, tol=cfg.tol, cross_tol=cross_tol)
    else:
        result = sum_erfi(cfg.object, x, kind=AverageKind(method), tol=cfg.tol)
    extra = {} if result.routes is None else {
        "routes": {name: _complex_pair(v) for name, v in result.routes.items()},
        "max_discrepancy": _real_str(route_gap(result.routes)),
    }
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
    # one parse, by the library's rule; its rejection is a usage error here
    try:
        angle = RationalAngle(args.alpha)
    except DomainError as exc:
        raise _UsageError(f"--alpha: {exc}") from exc
    if angle.alpha == 0:
        raise _UsageError("--alpha must be nonzero")
    result = radial_limit(angle, tol=cfg.tol, model=cfg.object)
    # the target: the paper's q-factorial sum phi for the trefoil, the finite
    # sum of the median's theta series at the root of unity for Poincare
    target = phi(angle) if cfg.object == "trefoil" else median_boundary_sum(angle, cfg.object)
    payload = {
        "command": "radial",
        "model": result.model,
        "alpha": str(angle.alpha),
        "limit": _complex_pair(result.value),
        "err_estimate": _real_str(result.err_estimate),
        "target": _complex_pair(target),
        "abs_diff": _real_str(abs(result.value - target)),
    }
    return payload, True


def _cmd_verify(cfg: RunConfig, args) -> tuple[dict, bool]:
    checks = [
        {
            "name": c.name,
            "passed": c.passed,
            "residual": _number_str(c.residual),
            "bound": _number_str(c.bound),
            "note": c.note,
        }
        for c in run_suite(args.suite)
    ]
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
        lines.append(f"alpha = {payload['alpha']}")
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

@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value settings file; flags win")
    common.add_argument("--precision", type=int, default=None, dest="precision",
                        help="working precision in digits (default 25)")
    common.add_argument("--tol", default=None, help="target tolerance (default 1e-10)")
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
                          default="generating-function", help="coefficient route of either object")

    p_sum = sub.add_parser("sum", parents=[common], help="summed value at a point")
    p_sum.add_argument("--x", required=True, help="evaluation point, a+bi form")
    p_sum.add_argument("--method", choices=("med", "median", "mul", "mur"), default="med")
    p_sum.add_argument("--cross-check", action="store_true", dest="cross_check",
                       help="evaluate all routes and report the discrepancy")
    p_sum.add_argument("--cross-tol", default=None, dest="cross_tol",
                       help="allowed cross-route discrepancy; implies --cross-check "
                            "(default 1e-8)")

    p_radial = sub.add_parser("radial", parents=[common], help="radial boundary limit")
    p_radial.add_argument("--alpha", required=True, help="rational angle, num/den form")

    p_verify = sub.add_parser("verify", parents=[common], help="identity and acceptance checks")
    p_verify.add_argument("--suite", choices=tuple(SUITES), default="all")

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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"usage error: cannot write report file: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
