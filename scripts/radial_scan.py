#!/usr/bin/env python3
"""Scan rational angles and compare radial limits with the boundary sums.

For each a/d in the requested denominator range the extrapolated interior
value is printed next to the exact finite-sum target, together with the
ladder's internal error estimate and the wall seconds the ladder took.
The ladder is fixed by the library; the error series steepens quickly
with d.

    python scripts/radial_scan.py --max-den 3
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter

from mpmath import mp

from borelsum.checks import phi_gap
from borelsum.summation import radial_limit


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-den", type=int, default=3,
                        help="largest denominator to scan")
    parser.add_argument("--precision", type=int, default=25)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.max_den < 1:
        print("error: --max-den must be positive", file=sys.stderr)
        return 2
    mp.dps = args.precision

    print(f"{'alpha':>8}  {'|limit - target|':>18}  {'ladder estimate':>16}  {'wall s':>7}")
    worst = mp.mpf(0)
    for den in range(1, args.max_den + 1):
        for num in range(1, den + 1):
            if gcd(num, den) != 1:
                continue
            alpha = Fraction(num, den)
            start = perf_counter()
            res = radial_limit(alpha)
            wall = perf_counter() - start
            gap = phi_gap(alpha, res.value)
            worst = max(worst, gap)
            print(f"{str(alpha):>8}  {mp.nstr(gap, 4):>18}  "
                  f"{mp.nstr(res.err_estimate, 4):>16}  {wall:>7.3f}")
    print(f"# worst gap {mp.nstr(worst, 4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
