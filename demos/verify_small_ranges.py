#!/usr/bin/env python3
"""Certify the small-x side of the bounds exactly, from a sieve.

The envelopes only bite asymptotically; below the analytic anchors the
claims are finite statements about step functions and are checked at
every jump point (plus left limits), which carries the extrema because
psi, theta and pi are constant between jumps.  The script also prints
the stitching record that connects the sieve range to the first
pipeline anchor at log x = 2488.
"""

import math

from pntbounds import (
    build_sieve,
    compute_default_rows,
    derived,
    integral_I1,
    li,
    load_table,
    piecewise_coverage,
    verify_pointwise,
)
from pntbounds.cli import VERIFY_SMALL_LIMIT


def main() -> None:
    table = load_table()
    rows = compute_default_rows(table)
    first = rows[0]

    print("== sieve ==")
    pt = build_sieve(VERIFY_SMALL_LIMIT)
    print(f"  primes up to {VERIFY_SMALL_LIMIT}: {len(pt.primes)}")
    print(f"  theta(10) = {pt.theta(10):.6f}   psi(100) = {pt.psi(100):.6f}")
    print(f"  li(2) = {li(2.0):.8f}   li(10^6) = {li(1e6):.4f}")

    print("\n== pointwise envelope checks ==")

    def psi_bound(x: float) -> float:
        return math.exp(first.log_rel_envelope(math.log(x))) * x

    rep = verify_pointwise(pt, psi_bound, "psi", 2.0, 59.0)
    print(f"  psi on [2, 59]:    {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    theta_a1 = derived.theta_constants(first).A1

    def theta_bound(x: float) -> float:
        lx = math.log(x)
        return theta_a1 * x * lx**first.B * math.exp(-first.C * math.sqrt(lx))

    rep = verify_pointwise(pt, theta_bound, "theta", 2.0, 599.0)
    print(f"  theta on [2, 599]: {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    pi_c = derived.pi_constants_classical()

    def pi_bound(x: float) -> float:
        lx = math.log(x)
        return pi_c.A2 * x * lx ** (pi_c.B - 1.0) * math.exp(-pi_c.C * math.sqrt(lx))

    rep = verify_pointwise(pt, pi_bound, "pi", 2.0, 2657.0)
    print(f"  pi on [2, 2657]:   {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    print("\n== the tail integral over [2, 599] ==")
    i1 = integral_I1(pt)
    print(f"  integral of |theta(t) - t| / (t log^2 t) = {i1:.6f}  (ceiling used: {derived.I1_CEIL})")

    print("\n== stitching the all-x claim down from the first anchor ==")
    for seg in piecewise_coverage(first, pt).segments:
        print(f"  {seg.span:>24}  {seg.status.upper():>7}  {seg.detail}")


if __name__ == "__main__":
    main()
