"""Exact prime-counting functions, the logarithmic integral, and the
sieve-based verification of envelope claims on small ranges.

Everything here is finite and exact (up to double rounding in sums of
logs): psi, theta and pi are evaluated as step functions from a sieve,
and envelope claims on [lo, hi] are certified by checking every jump
point together with its left-sided limit, which suffices because the
distance to the main term is piecewise monotone between jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

import numpy as np

__all__ = [
    "PrimeTable",
    "build_sieve",
    "li",
    "integral_I1",
    "verify_pointwise",
    "VerifyReport",
    "DEFAULT_SIEVE_LIMIT",
]

DEFAULT_SIEVE_LIMIT = 10_000_000
_MAX_SIEVE_LIMIT = 2_000_000_000  # ~2 GB of flags; refuse beyond
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes up to ``limit`` plus cumulative log-sums."""

    limit: int
    primes: np.ndarray          # int64, ascending
    _cum_log: np.ndarray        # _cum_log[k] = sum of log p over first k primes

    def _check_range(self, x: float) -> None:
        if not (2.0 <= x <= self.limit):
            raise ValueError(f"x={x} outside sieve range [2, {self.limit}]")

    def pi_count(self, x: float) -> int:
        """Number of primes <= x."""
        self._check_range(x)
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))

    def theta(self, x: float) -> float:
        """Sum of log p over primes p <= x."""
        self._check_range(x)
        return float(self._cum_log[self.pi_count(x)])

    def psi(self, x: float) -> float:
        """Sum of log p over prime powers p^m <= x (direct enumeration)."""
        self._check_range(x)
        total = self.theta(x)
        root = math.isqrt(math.floor(x))
        for p in self.primes[self.primes <= root]:
            p = int(p)
            pk = p * p
            while pk <= x:
                total += math.log(p)
                pk *= p
        return total

    def iter_jumps(self, quantity: str, lo: float, hi: float) -> Iterator[tuple[float, float]]:
        """Yield (x, jump size) for each jump of the quantity in [lo, hi]."""
        if quantity in ("theta", "pi"):
            sel = self.primes[(self.primes >= lo) & (self.primes <= hi)]
            for p in sel:
                yield float(p), (math.log(p) if quantity == "theta" else 1.0)
        elif quantity == "psi":
            jumps: list[tuple[float, float]] = []
            for p in self.primes[self.primes <= hi]:
                p = int(p)
                pk = p
                while pk <= hi:
                    if pk >= lo:
                        jumps.append((float(pk), math.log(p)))
                    pk *= p
            yield from sorted(jumps)
        else:
            raise ValueError(f"unknown quantity {quantity!r}")


def build_sieve(limit: int = DEFAULT_SIEVE_LIMIT) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > _MAX_SIEVE_LIMIT:
        raise MemoryError(f"sieve limit {limit} exceeds the {_MAX_SIEVE_LIMIT} budget")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    primes = np.nonzero(mask)[0].astype(np.int64)
    cum = np.concatenate([[0.0], np.cumsum(np.log(primes.astype(np.float64)))])
    return PrimeTable(limit=int(limit), primes=primes, _cum_log=cum)


def li(x: float) -> float:
    """Principal-value logarithmic integral by Ramanujan's series.

    li(x) = gamma + ln ln x + sqrt(x) * sum_{n>=1} (-1)^(n-1) (ln x)^n
    / (n! 2^(n-1)) * sum_{k<=(n-1)/2} 1/(2k+1).  The series is well
    conditioned (its largest term is about sqrt(ln x / pi) times the sum)
    and is summed until the terms fall below double precision; it agrees
    with an arbitrary-precision li to within 1e-14 relative on [2, 2e9].
    """
    if x < 2.0:
        raise ValueError(f"li requires x >= 2, got {x}")
    lx = math.log(x)
    total, inner, n = 0.0, 0.0, 0
    term = -2.0  # (-1)^(n-1) (ln x)^n / (n! 2^(n-1)) = -2 (-ln x / 2)^n / n!
    while True:
        n += 1
        term *= -lx / (2.0 * n)
        if n % 2:
            inner += 1.0 / n
        total += term * inner
        if n > lx and abs(term * inner) < 1e-17 * abs(total):
            return _EULER_GAMMA + math.log(lx) + math.sqrt(x) * total


def integral_I1(table: PrimeTable, intervals_per_segment: int | None = None) -> float:
    """Integral of |theta(t) - t| / (t log^2 t) over [2, 599].

    theta is constant between consecutive primes, so the integral is a
    finite sum of smooth one-segment integrals, each done by composite
    Simpson with an even ``intervals_per_segment``.  With it unset, the
    resolution is doubled until two successive totals agree to 1e-3.
    """
    if table.limit < 599:
        raise ValueError("sieve must cover [2, 599]")
    if intervals_per_segment is not None and intervals_per_segment % 2:
        raise ValueError("Simpson's rule needs an even number of intervals")

    def run(nseg: int) -> float:
        ps = [int(p) for p in table.primes[table.primes <= 599]]
        pts = [2.0] + [float(p) for p in ps if p > 2] + [599.0]
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            c = table.theta(a)  # theta is c on [a, b)
            xs = np.linspace(a, b, nseg + 1)
            ys = np.abs(c - xs) / (xs * np.log(xs) ** 2)
            total += (b - a) / (3.0 * nseg) * (ys[0] + 4.0 * ys[1::2].sum()
                                               + 2.0 * ys[2:-1:2].sum() + ys[-1])
        return float(total)

    if intervals_per_segment is not None:
        return run(intervals_per_segment)
    n, prev = 32, run(32)
    for _ in range(8):
        n *= 2
        cur = run(n)
        if abs(cur - prev) < 1e-3:
            return cur
        prev = cur
    raise RuntimeError("I1 quadrature failed to converge")


@dataclass(frozen=True)
class VerifyReport:
    quantity: str
    lo: float
    hi: float
    passed: bool
    worst_margin: float
    worst_x: float
    n_points: int


def verify_pointwise(
    table: PrimeTable,
    bound: Callable[[float], float],
    quantity: Literal["psi", "theta", "pi"],
    lo: float,
    hi: float,
) -> VerifyReport:
    """Check |f(x) - main(x)| <= bound(x) over [lo, hi] at every jump.

    ``bound`` is the absolute envelope.  The main term is x for psi and
    theta, li(x) for pi.  Each jump is tested at the jump point and at
    its left-sided limit; the interval endpoints are tested as well.
    Between jumps f is constant and the main term monotone, so these
    finitely many points carry the extrema.
    """
    if hi > table.limit:
        raise ValueError(f"hi={hi} beyond sieve limit {table.limit}")
    if lo < 2.0 or lo >= hi:
        raise ValueError(f"bad range [{lo}, {hi}]")

    main = (lambda x: x) if quantity in ("psi", "theta") else li
    step = {"psi": table.psi, "theta": table.theta, "pi": lambda x: float(table.pi_count(x))}[quantity]

    worst = math.inf
    worst_x = lo
    n = 0
    passed = True

    def check(x: float, fval: float) -> None:
        nonlocal worst, worst_x, n, passed
        m = bound(x) - abs(fval - main(x))
        n += 1
        if m < worst:
            worst, worst_x = m, x
        if m < 0.0:
            passed = False

    for x, jump in table.iter_jumps(quantity, lo, hi):
        after = step(x)
        check(x, after)           # value at the jump
        check(x, after - jump)    # left-sided limit
    for e in (lo, hi):
        check(e, step(e))
    return VerifyReport(quantity=quantity, lo=lo, hi=hi, passed=passed,
                        worst_margin=worst, worst_x=worst_x, n_points=n)
