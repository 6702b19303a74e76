#!/usr/bin/env python3
"""Print the transseries block table and its reconstruction quality.

Builds the c[k, l] window from the exact Stirling ladder, then prints it,
the relative reconstruction error against the exact b_n per index, the
power law of the residual at each truncation level, and the two
transseries window checks of ``borelsum verify``, which give the verdict.

    python scripts/gamma_ladder.py --k-max 7 --l-max 6
"""

from __future__ import annotations

import argparse
import sys

from mpmath import mp

from borelsum import checks
from borelsum.transseries import extract_ckl


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k-max", type=int, default=7)
    parser.add_argument("--l-max", type=int, default=6)
    parser.add_argument("--n-start", type=int, default=30)
    parser.add_argument("--n-stop", type=int, default=60)
    parser.add_argument("--n-step", type=int, default=5)
    parser.add_argument("--precision", type=int, default=25)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.k_max < 1 or args.l_max < 0:
        print("error: need --k-max >= 1 and --l-max >= 0", file=sys.stderr)
        return 2
    mp.dps = args.precision

    table = extract_ckl(args.k_max, args.l_max)
    print(f"# window k<={args.k_max} l<={args.l_max}")
    print(f"{'k':>3} {'l':>3}  {'c[k,l]':>24}")
    for (k, l), value in sorted(table.c.items()):
        if value:
            print(f"{k:>3} {l:>3}  {mp.nstr(value, 15):>24}")

    ns = range(args.n_start, args.n_stop + 1, args.n_step)
    print(f"\n{'n':>4}  {'rel error':>12}  {'omitted ratio':>14}")
    for n, ratio in zip(ns, checks.omitted_term_ratios(table, ns)):
        err = checks.reconstruction_error(table, [n])
        print(f"{n:>4}  {mp.nstr(err, 3):>12}  {mp.nstr(ratio, 3):>14}")
    print(f"\n{'L':>4}  {'fitted power':>14}  {'expected':>10}")
    for level, fitted, expected in checks.level_decay(table, ns[0], ns[-1]):
        print(f"{level:>4}  {mp.nstr(fitted, 5):>14}  {mp.nstr(expected, 5):>10}")
    window = list(checks.transseries_window(table, ns))
    print()
    for check in window:
        print(f"# {check.name} {mp.nstr(check.residual, 3)} "
              f"(bound {check.bound}): {check.note}")
    passed = all(check.passed for check in window)
    print(f"# window verdict: {'ok' if passed else 'failed'}")
    return 0 if passed else 1

if __name__ == "__main__":
    sys.exit(main())
