#!/usr/bin/env python3
"""Scan rational angles and compare radial limits with the boundary sums.

For each a/d in the requested denominator range the radial limit is printed
next to its gap to the exact finite-sum target (phi for the trefoil, the
finite sum of the median's theta series at the root of unity for the
Poincare sphere), together with the limit's error estimate and the wall
seconds it took.  The target is summed 30 digits past the working
precision.  --route eta-tilde takes the trefoil's limit from the theta
route instead, eta_tilde_radial's Richardson ladder, against -2 phi, on
+-a/d with 0 < a < 2 d, the grid its ladder is measured on, in place of
0 < a <= d.

    python scripts/radial_scan.py --max-den 3
    python scripts/radial_scan.py --max-den 3 --object poincare
    python scripts/radial_scan.py --max-den 6 --route eta-tilde
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter

from mpmath import mp

from borelsum.invariants import phi
from borelsum.modular import eta_tilde_radial
from borelsum.summation import median_boundary_sum, radial_limit


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-den", type=int, default=3,
                        help="largest denominator to scan")
    parser.add_argument("--object", choices=("trefoil", "poincare"), default="trefoil")
    parser.add_argument("--route", choices=("closed", "eta-tilde"), default="closed",
                        help="radial_limit's closed sum, or eta_tilde_radial on +-a/d, "
                             "0 < a < 2d (trefoil)")
    parser.add_argument("--precision", type=int, default=25)
    return parser.parse_args()


def angles(max_den: int, signed: bool):
    """a/d in lowest terms, d <= max_den: 0 < a <= d, or +-a/d, 0 < a < 2 d."""
    for den in range(1, max_den + 1):
        for num in range(1, 2 * den if signed else den + 1):
            if gcd(num, den) == 1:
                yield from ((Fraction(num, den), Fraction(-num, den)) if signed
                            else (Fraction(num, den),))


def radial_value(alpha: Fraction, args: argparse.Namespace):
    """(limit, err_estimate) by the requested route."""
    if args.route == "eta-tilde":
        return eta_tilde_radial(alpha)
    res = radial_limit(alpha, model=args.object)
    return res.value, res.err_estimate


def target(alpha: Fraction, args: argparse.Namespace):
    """The route's exact finite sum, 30 digits past the working precision."""
    with mp.workdps(args.precision + 30):
        if args.route == "eta-tilde":
            return -2 * phi(alpha)
        return phi(alpha) if args.object == "trefoil" else median_boundary_sum(alpha, args.object)


def main() -> int:
    args = parse_args()
    if args.max_den < 1:
        print("error: --max-den must be positive", file=sys.stderr)
        return 2
    if args.route == "eta-tilde" and args.object != "trefoil":
        print("error: --route eta-tilde is the trefoil's theta route", file=sys.stderr)
        return 2
    mp.dps = args.precision

    print(f"{'alpha':>8}  {'|limit - target|':>18}  {'err estimate':>13}  {'wall s':>7}")
    worst = mp.mpf(0)
    for alpha in angles(args.max_den, signed=args.route == "eta-tilde"):
        start = perf_counter()
        value, err = radial_value(alpha, args)
        wall = perf_counter() - start
        gap = abs(value - target(alpha, args))
        worst = max(worst, gap)
        print(f"{str(alpha):>8}  {mp.nstr(gap, 4):>18}  {mp.nstr(err, 4):>13}  {wall:>7.3f}")
    print(f"# worst gap {mp.nstr(worst, 4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
