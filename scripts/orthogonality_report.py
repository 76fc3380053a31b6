#!/usr/bin/env python3
"""Gram-matrix report for the zero family.

Prints the weighted-lattice Gram matrix of {J_{alpha+1}(., j_k)}, the
closed-form norms, and the largest off-diagonal entry relative to its
neighboring diagonals.  The diagonal matches the closed-form norms to
working accuracy; the off-diagonal entries are O(1) because the claimed
orthogonality relation does not hold numerically (the lower boundary
term of the product integral survives at zero pairs) — this report makes
the discrepancy easy to inspect.
"""

import argparse

import mpmath as mp

from bigqbessel import QContext, find_zeros, gram_matrix


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--tol", type=float, default=1e-13)
    args = ap.parse_args()

    ctx = QContext(args.q)
    table = find_zeros(ctx, args.alpha, args.count, tol=1e-12)
    rep = gram_matrix(ctx, args.alpha, table, tol=args.tol)

    print(f"# q={args.q} alpha={args.alpha} n={args.count}")
    print("# Gram matrix <J_{a+1}(., j_m), J_{a+1}(., j_n)>:")
    for row in rep.matrix:
        print("  " + "  ".join(f"{mp.nstr(v, 6):>13}" for v in row))
    print("# closed-form norms (diagonal reference):")
    print("  " + "  ".join(f"{mp.nstr(v, 6):>13}" for v in rep.norm_closed))
    diag_rel = max(
        abs(rep.matrix[k][k] - rep.norm_closed[k]) / abs(rep.norm_closed[k])
        for k in range(len(table))
    )
    print(f"# max |diag - closed|/closed: {mp.nstr(diag_rel, 3)}")
    print(f"# max off-diagonal (relative): {mp.nstr(rep.max_offdiag_rel, 3)}")


if __name__ == "__main__":
    main()
