#!/usr/bin/env python3
"""Partial-fraction closed-sum study.

The ratio J_{alpha+1}(1, lambda) / (2 J_alpha(1, lambda)) equals the sum
over zeros j_k of j_k J_{alpha+1}(1, j_k) / ((lambda^2 - j_k^2) dJ/dl).
This script prints the gap between the ratio and the N-term partial sum
as N grows; the decay is superexponential until it hits the working
accuracy set by --digits.
"""

import argparse

import mpmath as mp

from bigqbessel import QContext, closed_sum_check, find_zeros


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--lam", type=float, default=0.4)
    ap.add_argument("--count", type=int, default=14)
    ap.add_argument("--digits", type=int, default=50)
    args = ap.parse_args()

    ctx = QContext(args.q)
    table = find_zeros(
        ctx, args.alpha, args.count, tol=10.0 ** (-args.digits - 10)
    )
    print(f"# q={args.q} alpha={args.alpha} lambda={args.lam}")
    print(f"{'N':>4}  {'gap':>12}")
    for n in range(1, args.count + 1):
        res = closed_sum_check(
            ctx, args.alpha, table.head(n), args.lam,
            tol=10.0 ** (-args.digits),
        )
        print(f"{n:>4}  {mp.nstr(res.gap, 4):>12}")


if __name__ == "__main__":
    main()
