#!/usr/bin/env python3
"""Scan rational angles and compare radial limits with the boundary sums.

For each a/d in the requested denominator range the radial limit is printed
next to its gap to the exact finite-sum target (phi for the trefoil, the
finite sum of the median's theta series at the root of unity for the
Poincare sphere), together with the limit's error estimate and the wall
seconds it took.

    python scripts/radial_scan.py --max-den 3
    python scripts/radial_scan.py --max-den 3 --object poincare
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter

from mpmath import mp

from borelsum.invariants import phi
from borelsum.summation import median_boundary_sum, radial_limit


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-den", type=int, default=3,
                        help="largest denominator to scan")
    parser.add_argument("--object", choices=("trefoil", "poincare"), default="trefoil")
    parser.add_argument("--precision", type=int, default=25)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.max_den < 1:
        print("error: --max-den must be positive", file=sys.stderr)
        return 2
    mp.dps = args.precision

    print(f"{'alpha':>8}  {'|limit - target|':>18}  {'err estimate':>13}  {'wall s':>7}")
    worst = mp.mpf(0)
    for den in range(1, args.max_den + 1):
        for num in range(1, den + 1):
            if gcd(num, den) != 1:
                continue
            alpha = Fraction(num, den)
            start = perf_counter()
            res = radial_limit(alpha, model=args.object)
            wall = perf_counter() - start
            target = (phi(alpha) if args.object == "trefoil"
                      else median_boundary_sum(alpha, args.object))
            gap = abs(res.value - target)
            worst = max(worst, gap)
            print(f"{str(alpha):>8}  {mp.nstr(gap, 4):>18}  "
                  f"{mp.nstr(res.err_estimate, 4):>13}  {wall:>7.3f}")
    print(f"# worst gap {mp.nstr(worst, 4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
