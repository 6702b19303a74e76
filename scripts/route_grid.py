#!/usr/bin/env python3
"""Sweep a grid of evaluation points and tabulate route disagreements.

Every point is summed by each independent route for the chosen model and
the worst pairwise gap is reported, which makes regressions in any single
route visible at a glance.

    python scripts/route_grid.py --model trefoil --re 0.6 8 --im 0 2 --steps 4
"""

from __future__ import annotations

import argparse
import sys

from mpmath import mp

from borelsum.summation import cross_routes, route_gap


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", choices=("trefoil", "poincare"),
                        default="trefoil")
    parser.add_argument("--re", nargs=2, type=float, default=(0.6, 8.0),
                        metavar=("LO", "HI"), help="real-part range")
    parser.add_argument("--im", nargs=2, type=float, default=(0.0, 2.0),
                        metavar=("LO", "HI"), help="imaginary-part range")
    parser.add_argument("--steps", type=int, default=4,
                        help="grid points per axis")
    parser.add_argument("--tol", default="1e-9", help="per-route tolerance")
    parser.add_argument("--precision", type=int, default=25,
                        help="working digits")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.steps < 1:
        print("error: --steps must be positive", file=sys.stderr)
        return 2
    if args.re[0] <= 0:
        print("error: the grid must stay in Re x > 0", file=sys.stderr)
        return 2
    mp.dps = args.precision

    def axis(lo: float, hi: float):
        if args.steps == 1:
            return [mp.mpf(lo)]
        span = mp.mpf(hi) - mp.mpf(lo)
        return [mp.mpf(lo) + span * j / (args.steps - 1)
                for j in range(args.steps)]

    worst = mp.mpf(0)
    worst_at = None
    print(f"# model={args.model} tol={args.tol}")
    print(f"{'x':>24}  {'median':>28}  {'route gap':>12}")
    for re_part in axis(*args.re):
        for im_part in axis(*args.im):
            x = mp.mpc(re_part, im_part)
            routes = cross_routes(args.model, x, tol=args.tol)
            gap = route_gap(routes)
            if gap > worst:
                worst, worst_at = gap, x
            print(f"{mp.nstr(x, 6):>24}  "
                  f"{mp.nstr(routes['erfi-series'], 16):>28}  "
                  f"{mp.nstr(gap, 3):>12}")
    print(f"# worst gap {mp.nstr(worst, 4)} at x = {mp.nstr(worst_at, 8)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
