"""Exact prime-counting functions, the logarithmic integral, and the
sieve-based verification of envelope claims on small ranges.

Everything here is finite and exact (up to double rounding in sums of
logs): psi, theta and pi are step functions read from a sieve and a
short table of the prime powers p^m (m >= 2), by binary search.  Envelope
claims on [lo, hi] are checked at every jump point together with its
left-sided limit.  Between jumps the distance to the main term is
piecewise monotone, so these points carry the worst margin if the
envelope's slope also beats the main term's on each gap (bound' >= 1 for
psi and theta, bound' >= li' for pi).  That condition is not proved yet
(ROADMAP item 4), so a pass is a check at these points, not
a proof over the whole range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

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
    """Primes and the prime powers p^m (m >= 2) up to ``limit``, each with log-sums."""

    limit: int
    primes: np.ndarray          # int64, ascending
    _cum_log: np.ndarray        # _cum_log[k] = sum of log p over first k primes
    _powers: np.ndarray         # float64 (exact), ascending p^m <= limit with m >= 2
    _power_log: np.ndarray      # log p for each entry of _powers
    _power_cum: np.ndarray      # _power_cum[k] = sum of the first k _power_log

    def _check_range(self, x: float) -> None:
        if not (2.0 <= x <= self.limit):
            raise ValueError(f"x={x} outside sieve range [2, {self.limit}]")

    def _values(self, quantity: str, x):
        """pi, theta or psi at x, a number or an array already in range."""
        n = np.floor(x).astype(np.int64)  # a float key would cast the whole prime array
        k = np.searchsorted(self.primes, n, side="right")
        if quantity == "pi":
            return k.astype(np.float64)
        theta = self._cum_log[k]
        if quantity == "theta":
            return theta
        return theta + self._power_cum[np.searchsorted(self._powers, n, side="right")]

    def pi_count(self, x: float) -> int:
        """Number of primes <= x."""
        self._check_range(x)
        return int(self._values("pi", x))

    def theta(self, x: float) -> float:
        """Sum of log p over primes p <= x."""
        self._check_range(x)
        return float(self._values("theta", x))

    def psi(self, x: float) -> float:
        """Sum of log p over prime powers p^m <= x."""
        self._check_range(x)
        return float(self._values("psi", x))

    def jumps(self, quantity: str, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """(x, jump size) arrays, ascending in x, for the jumps in [lo, hi]."""
        if quantity not in ("psi", "theta", "pi"):
            raise ValueError(f"unknown quantity {quantity!r}")
        if not (2.0 <= lo < hi <= self.limit):  # NaN fails too
            raise ValueError(f"bad range [{lo}, {hi}] for a sieve up to {self.limit}")
        first, last = math.ceil(lo), math.floor(hi)
        xs = self.primes[np.searchsorted(self.primes, first):
                         np.searchsorted(self.primes, last, side="right")].astype(np.float64)
        if quantity == "pi":
            return xs, np.ones(xs.size)
        if quantity == "theta":
            return xs, np.log(xs)
        sl = slice(np.searchsorted(self._powers, first),
                   np.searchsorted(self._powers, last, side="right"))
        at = np.searchsorted(xs, self._powers[sl])  # merge: no power is a prime
        return (np.insert(xs, at, self._powers[sl]),
                np.insert(np.log(xs), at, self._power_log[sl]))


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
    powers = []
    for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
        pk = p * p
        while pk <= limit:
            powers.append((pk, math.log(p)))
            pk *= p
    pw, pw_log = np.array(sorted(powers), dtype=np.float64).reshape(-1, 2).T.copy()
    return PrimeTable(limit=int(limit), primes=primes, _cum_log=cum, _powers=pw,
                      _power_log=pw_log, _power_cum=np.concatenate([[0.0], np.cumsum(pw_log)]))


def li(x: float) -> float:
    """Principal-value logarithmic integral by Ramanujan's series.

    li(x) = gamma + ln ln x + sqrt(x) * sum_{n>=1} (-1)^(n-1) (ln x)^n
    / (n! 2^(n-1)) * sum_{k<=(n-1)/2} 1/(2k+1).  The series is well
    conditioned (its largest term is about sqrt(ln x / pi) times the sum)
    and is summed until the terms fall below double precision; it agrees
    with an arbitrary-precision li to within 1e-14 relative on [2, 2e9].
    """
    if not 2.0 <= x < math.inf:  # NaN and inf fail too; the series would never end
        raise ValueError(f"li requires finite x >= 2, got {x}")
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


def integral_I1(table: PrimeTable) -> float:
    """Integral of |theta(t) - t| / (t log^2 t) over [2, 599], in closed form.

    theta is a constant c on each prime gap [a, b), where (t - c)/(t log^2 t)
    has the antiderivative F(t) = li(t) - t/log t + c/log t.  The integrand
    changes sign only at t = c, so a gap adds |F(b) - F(a)|, split at c when
    a < c < b.
    """
    if table.limit < 599:
        raise ValueError("sieve must cover [2, 599]")
    pts = [2.0, *table.jumps("theta", 3.0, 599.0)[0].tolist(), 599.0]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        c = table.theta(a)  # theta is c on [a, b)
        F = [li(t) - (t - c) / math.log(t) for t in ((a, c, b) if a < c < b else (a, b))]
        total += sum(abs(hi - lo) for lo, hi in zip(F[:-1], F[1:]))
    return total


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
    Between jumps f is constant and the main term monotone, so
    |f - main| has no interior maximum on a gap.  The margin
    bound - |f - main| has no interior minimum there if, in addition,
    bound' >= 1 (psi, theta) or bound' >= li' (pi) on the gap; that is not
    proved yet (ROADMAP item 4).  ``bound`` (and li) is called
    once per jump and endpoint, the rest is one numpy pass over the
    points.  A NaN margin fails the check and counts as the worst.
    """
    xs, sizes = table.jumps(quantity, lo, hi)
    at = np.concatenate([xs, [lo, hi]])  # every distinct x: the jumps, then lo and hi
    main = at if quantity != "pi" else np.array([li(x) for x in at.tolist()])
    env = np.array([bound(x) for x in at.tolist()], dtype=np.float64)

    def per_point(v: np.ndarray) -> np.ndarray:
        # per jump: the value at it, then the left-sided limit; then lo and hi
        return np.concatenate([np.repeat(v[:-2], 2), v[-2:]])

    vals = per_point(table._values(quantity, at))
    vals[1:-2:2] -= sizes
    margins = per_point(env) - np.abs(vals - per_point(main))
    i = int(np.argmin(margins))  # the first minimum, or the first NaN
    return VerifyReport(quantity=quantity, lo=lo, hi=hi, passed=bool(np.all(margins >= 0.0)),
                        worst_margin=float(margins[i]), worst_x=float(per_point(at)[i]),
                        n_points=int(margins.size))
