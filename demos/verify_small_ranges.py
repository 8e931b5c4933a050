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
    verify_pointwise,
)
from pntbounds.cli import SIEVE_CHECKED_HI
from pntbounds.regimes import abs_envelope


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

    psi_bound = abs_envelope(first.u_kind, first.A, first.B, first.C)
    rep = verify_pointwise(pt, psi_bound, "psi", 2.0, 59.0)
    print(f"  psi on [2, 59]:    {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    theta_bound = abs_envelope(first.u_kind, derived.theta_constants(first).A1, first.B, first.C)
    rep = verify_pointwise(pt, theta_bound, "theta", 2.0, 599.0)
    print(f"  theta on [2, 599]: {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    pi_c = derived.pi_constants_classical()
    pi_bound = abs_envelope(pi_c.u_kind, pi_c.A2, pi_c.B - 1.0, pi_c.C)
    rep = verify_pointwise(pt, pi_bound, "pi", 2.0, 2657.0)
    print(f"  pi on [2, 2657]:   {'pass' if rep.passed else 'FAIL'} "
          f"({rep.n_points} points, worst margin {rep.worst_margin:.3f})")

    print("\n== the tail integral over [2, 599], in closed form ==")
    i1 = integral_I1(pt)
    print(f"  integral of |theta(t) - t| / (t log^2 t) = {i1:.12f}  (ceiling used: {derived.I1_CEIL})")

    print("\n== stitching the all-x claim down from the first anchor ==")
    for seg in piecewise_coverage(first, pt).segments:
        print(f"  {seg.span:>24}  {seg.status.upper():>7}  {seg.detail}")


if __name__ == "__main__":
    main()
