#!/usr/bin/env python3
"""Convergence study: sampling-reconstruction error versus the number of
interpolation nodes (zeros).

For a lattice-supported signal, reconstruct its transform from samples at
the first N zeros and report the max relative error over a lambda grid.
The error decays superexponentially, so the zero table and the evaluation
tolerance must be tightened together with N; --digits controls both.
"""

import argparse

import mpmath as mp

from bigqbessel import QContext, QLatticeSignal, find_zeros, reconstruct


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument(
        "--counts", type=int, nargs="+", default=[5, 10, 20, 40]
    )
    ap.add_argument(
        "--digits", type=int, default=120,
        help="working accuracy in decimal digits for tables and sums",
    )
    ap.add_argument(
        "--values", type=float, nargs="+", default=[1.0, -0.5, 0.25],
        help="signal values on the lattice head 1, q, q^2, ...",
    )
    ap.add_argument(
        "--lambdas", type=float, nargs="+", default=[0.3, 0.7, 1.1, 1.5]
    )
    args = ap.parse_args()

    ctx = QContext(args.q)
    table_tol = 10.0 ** (-args.digits - 10)
    sum_tol = 10.0 ** (-args.digits)
    table = find_zeros(ctx, args.alpha, max(args.counts), tol=table_tol)
    f = QLatticeSignal(values=args.values)

    print(f"# q={args.q} alpha={args.alpha} digits={args.digits}")
    print(f"{'N':>4}  {'max rel error':>14}")
    for n in args.counts:
        rep = reconstruct(
            ctx, args.alpha, f, table.head(n), args.lambdas, tol=sum_tol
        )
        print(f"{n:>4}  {mp.nstr(rep.max_rel_err, 6):>14}")


if __name__ == "__main__":
    main()
