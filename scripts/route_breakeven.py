#!/usr/bin/env python3
"""Time the theta and closed routes of the median along the real axis.

For each x on a geometric grid of the positive real axis the script prints
the closed route's term count N_alg, the theta route's nonzero terms, their
ratio, and the best-of-repeat wall time of each route at the same tol.  The
last line is the ratio at which the two times cross, interpolated in the
last grid interval where the theta route turns from the faster to the
slower one (noise can make them cross more than once): the constant
summation._THETA_TERMS_PER_CLOSED_TERM by which sum_median weighs the two
counts should sit near it.

    python scripts/route_breakeven.py --model trefoil
    python scripts/route_breakeven.py --model poincare --precision 50 --tol 1e-25
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from mpmath import mp

from borelsum import summation


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", choices=("trefoil", "poincare"), default="trefoil")
    parser.add_argument("--x", nargs=2, type=float, default=(100.0, 20000.0),
                        metavar=("LO", "HI"), help="range of x on the real axis")
    parser.add_argument("--steps", type=int, default=12, help="grid points")
    parser.add_argument("--tol", default="1e-12", help="tolerance of both routes")
    parser.add_argument("--precision", type=int, default=25, help="working digits")
    parser.add_argument("--repeat", type=int, default=7, help="timed calls per route")
    return parser.parse_args()


def best_time(call, repeat: int) -> float:
    """The shortest of repeat wall times of call(), in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best


def main() -> int:
    args = parse_args()
    lo, hi = args.x
    if not 0 < lo <= hi or args.steps < 1 or args.repeat < 1:
        print("error: need 0 < LO <= HI and positive --steps and --repeat", file=sys.stderr)
        return 2
    mp.dps = args.precision
    mdl = summation._resolve_model(args.model)
    tol = mp.mpf(args.tol)
    print(f"# model={args.model} tol={args.tol} dps={args.precision} "
          f"constant={summation._THETA_TERMS_PER_CLOSED_TERM}")
    print(f"{'x':>10}  {'N_alg':>5}  {'theta':>7}  {'ratio':>7}  {'theta ms':>9}  {'closed ms':>9}")
    rows = []
    for j in range(args.steps):
        x = mp.mpf(lo) * (mp.mpf(hi) / lo) ** (mp.mpf(j) / max(1, args.steps - 1))
        xz = mp.mpc(x)
        nonzero, n_terms, beta = summation._theta_cost(mdl, xz, tol)
        n_alg = summation._closed_terms(mdl, xz, tol)
        theta = best_time(lambda: summation._theta_median(mdl, xz, tol, n_terms, beta),
                          args.repeat)
        closed = best_time(
            lambda: summation._closed_value(mdl, xz, summation.AverageKind.MEDIAN, tol),
            args.repeat)
        rows.append((nonzero / n_alg, theta - closed))
        print(f"{mp.nstr(x, 6):>10}  {n_alg:>5}  {nonzero:>7.0f}  {nonzero / n_alg:>7.1f}  "
              f"{theta * 1e3:>9.3f}  {closed * 1e3:>9.3f}")
    for (r0, d0), (r1, d1) in reversed(list(zip(rows, rows[1:]))):
        if d0 <= 0 < d1:
            print(f"# break-even ratio {r0 + (r1 - r0) * -d0 / (d1 - d0):.1f}")
            return 0
    faster = "theta" if rows[-1][1] <= 0 else "closed"
    print(f"# break-even ratio not in range: the {faster} route is faster at its end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
