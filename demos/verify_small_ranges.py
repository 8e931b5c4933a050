#!/usr/bin/env python3
"""Certify the small-x side of the bounds exactly, from a sieve.

The envelopes only bite asymptotically; below the analytic anchors the
claims are finite statements about step functions and are checked at
every jump point (plus left limits), which carries the extrema because
psi, theta and pi are constant between jumps.  The script also prints
the stitching record that connects the sieve range to the first
pipeline anchor at log x = 2488.
"""

from pntbounds import (
    build_sieve,
    compute_default_rows,
    derived,
    integral_I1,
    li,
    load_table,
    piecewise_coverage,
)
from pntbounds.engine import SIEVE_CHECKED_HI


def main() -> None:
    table = load_table()
    rows = compute_default_rows(table)
    first = rows[0]

    print("== sieve ==")
    limit = int(max(SIEVE_CHECKED_HI.values()))
    pt = build_sieve(limit)
    print(f"  primes up to {limit}: {len(pt.primes)}")
    print(f"  theta(10) = {pt.theta(10):.6f}   psi(100) = {pt.psi(100):.6f}")
    print(f"  li(2) = {li(2.0):.8f}   li(10^6) = {li(1e6):.4f}")

    print("\n== pointwise envelope checks ==")
    for rep in derived.small_range_checks(first, pt):
        span = f"{rep.quantity} on [{rep.lo:g}, {rep.hi:g}]:"
        print(f"  {span:<18} {'pass' if rep.passed else 'FAIL'} "
              f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    print("\n== the tail integral over [2, 599], in closed form ==")
    i1 = integral_I1(pt)
    print(f"  integral of |theta(t) - t| / (t log^2 t) = {i1:.12f}  (ceiling used: {derived.I1_CEIL})")

    print("\n== stitching the all-x claim down from the first anchor ==")
    for seg in piecewise_coverage(first, pt).segments:
        print(f"  {seg.span:>24}  {seg.status.upper():>7}  {seg.detail}")


if __name__ == "__main__":
    main()
