"""Exact prime-counting functions, the logarithmic integral, and the
sieve-based verification of envelope claims on small ranges.

Everything here is finite and exact (up to double rounding in sums of logs):
psi, theta and pi are step functions read from a sieve and a short table of
the prime powers p^m (m >= 2), at a point by binary search and over a range
by position.  Envelope claims on [lo, hi] are checked at every jump point
together with its left-sided limit.  Between jumps the distance to the main
term is piecewise monotone, so these points carry the worst margin if the
envelope's slope also beats the main term's on each gap (bound' >= 1 for psi
and theta, bound' >= li' for pi).  That condition is not proved yet (ROADMAP,
"Prove the sieve ranges by monotone blocks"), so a pass is a check at these
points, not a proof over the whole range.
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
_MAX_SIEVE_LIMIT = 2_000_000_000  # ~1 GB of odd-number flags; refuse beyond
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class PrimeTable:
    """Primes and the prime powers p^m (m >= 2) up to ``limit``, each with log-sums."""

    limit: int
    primes: np.ndarray          # int64, ascending
    _cum_log: np.ndarray        # _cum_log[k] = sum of log p over first k primes
    _powers: np.ndarray         # float64 (exact), ascending p^m <= limit with m >= 2
    _power_cum: np.ndarray      # _power_cum[k] = sum of log p over the first k _powers

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

    def steps(self, quantity: str, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The jumps xs of ``quantity`` in [lo, hi], ascending; f at each; f just below each.

        Read by position: psi counts primes and powers from where each power
        falls among the primes; just below a jump its own kind counts one less.
        """
        if quantity not in ("psi", "theta", "pi"):
            raise ValueError(f"unknown quantity {quantity!r}")
        if not (2.0 <= lo < hi <= self.limit):  # NaN fails too
            raise ValueError(f"bad range [{lo}, {hi}] for a sieve up to {self.limit}")
        first, last = math.ceil(lo), math.floor(hi) + 1  # the integers in [first, last)
        a, b = np.searchsorted(self.primes, [first, last]).tolist()
        xs = self.primes[a:b].astype(np.float64)
        if quantity == "pi":
            return xs, np.arange(a + 1, b + 1, dtype=np.float64), np.arange(a, b, dtype=np.float64)
        if quantity == "theta":
            return xs, self._cum_log[a + 1:b + 1], self._cum_log[a:b]
        c, d = np.searchsorted(self._powers, [first, last]).tolist()
        both = np.concatenate([xs, self._powers[c:d]])
        order = both.argsort(kind="stable")  # merges the powers among the primes; no power is a prime
        is_pw = (order >= b - a).astype(np.int64)
        n_p, n_pw = a + np.cumsum(1 - is_pw), c + np.cumsum(is_pw)  # primes and powers <= each jump
        return (both[order], self._cum_log[n_p] + self._power_cum[n_pw],
                self._cum_log[n_p - 1 + is_pw] + self._power_cum[n_pw - is_pw])


def build_sieve(limit: int = DEFAULT_SIEVE_LIMIT) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``, over the odd numbers."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > _MAX_SIEVE_LIMIT:
        raise MemoryError(f"sieve limit {limit} exceeds the {_MAX_SIEVE_LIMIT} budget")
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] flags 2i + 1; odd[0] (1) is unread
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    primes = np.concatenate([[2], 2 * np.flatnonzero(odd[1:]) + 3]).astype(np.int64, copy=False)
    cum = np.concatenate([[0.0], np.cumsum(np.log(primes.astype(np.float64)))])
    powers = []
    for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
        pk = p * p
        while pk <= limit:
            powers.append((pk, math.log(p)))
            pk *= p
    pw, pw_log = np.array(sorted(powers), dtype=np.float64).reshape(-1, 2).T.copy()
    return PrimeTable(limit=int(limit), primes=primes, _cum_log=cum, _powers=pw,
                      _power_cum=np.concatenate([[0.0], np.cumsum(pw_log)]))


def li(x):
    """Principal-value logarithmic integral by Ramanujan's series, of a float or a 1-D array.

    li(x) = gamma + ln ln x + sqrt(x) * sum_{n>=1} (-1)^(n-1) (ln x)^n
    / (n! 2^(n-1)) * sum_{k<=(n-1)/2} 1/(2k+1).  The series is well
    conditioned (its largest term is about sqrt(ln x / pi) times the sum)
    and is summed until the terms fall below double precision; it agrees
    with an arbitrary-precision li to within 1e-14 relative on [2, 2e9].

    An array runs the same loop elementwise, with ln x and ln ln x from
    ``math.log``, so each element equals its float call bit for bit.  The
    stop test (n > ln x and |step| < 1e-17 |sum|) runs on every 4th term and
    ends the loop once every point passes.  A point that passed earlier, or
    would have passed on a term not tested, keeps its sum: past n > ln x
    each step scales |term| by ln x / (2n + 2) < 1/2 and the inner sum by
    at most 3/2, so every later step is below 1e-17 |sum|, under half the
    spacing of doubles there (>= 2^-54 |sum|), and rounds away.
    """
    is_array = isinstance(x, np.ndarray)
    for v in x.tolist() if is_array else (x,):
        if not 2.0 <= v < math.inf:  # NaN and inf fail too; the series would never end
            raise ValueError(f"li requires finite x >= 2, got {v}")
    if is_array:
        lx = np.array([math.log(v) for v in x.tolist()])
        lnlx, root = np.array([math.log(v) for v in lx.tolist()]), np.sqrt(x)
        lx_max, settled = max(lx.tolist(), default=0.0), np.ndarray.all
    else:
        lx = lx_max = math.log(x)
        lnlx, root, settled = math.log(lx), math.sqrt(x), bool
    half = -0.5 * lx  # exact, so half / n rounds as -ln x / (2n) does
    total, inner, n = 0.0, 0.0, 0
    term = -2.0  # (-1)^(n-1) (ln x)^n / (n! 2^(n-1)) = -2 (-ln x / 2)^n / n!
    while True:
        n += 1
        term *= half / n
        if n % 2:
            inner += 1.0 / n
        step = term * inner
        total += step
        if n % 4 == 0 and n > lx_max and settled(abs(step) < 1e-17 * abs(total)):
            return _EULER_GAMMA + lnlx + root * total


def integral_I1(table: PrimeTable) -> float:
    """Integral of |theta(t) - t| / (t log^2 t) over [2, 599], in closed form.

    theta is a constant c on each prime gap [a, b), where (t - c)/(t log^2 t)
    has the antiderivative F(t) = li(t) - t/log t + c/log t.  The integrand
    changes sign only at t = c, so a gap adds |F(b) - F(a)|, split at c when
    a < c < b.
    """
    if table.limit < 599:
        raise ValueError("sieve must cover [2, 599]")
    xs, theta, _ = table.steps("theta", 2.0, 599.0)
    pts, cs = [*xs.tolist(), 599.0], theta.tolist()  # theta is c on [a, b), its value at the jump a
    ts = [(a, c, b) if a < c < b else (a, b) for a, b, c in zip(pts[:-1], pts[1:], cs)]
    li_t = iter(li(np.array([t for gap in ts for t in gap])).tolist())
    total = 0.0
    for c, gap in zip(cs, ts):
        F = [next(li_t) - (t - c) / math.log(t) for t in gap]
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
    its left-sided limit; the interval endpoints are tested as well (one that
    is a jump by the jump's entry, whose margin is no larger and comes first).
    Between jumps f is constant and the main term monotone, so
    |f - main| has no interior maximum on a gap.  The margin
    bound - |f - main| has no interior minimum there if, in addition,
    bound' >= 1 (psi, theta) or bound' >= li' (pi) on the gap; that is not
    proved yet (ROADMAP, "Prove the sieve ranges by monotone blocks").
    ``bound`` is called once per distinct point, li once on all of them, f
    at each jump and below it is read by position (``PrimeTable.steps``),
    and the rest is one numpy pass.  A NaN margin fails and is the worst.
    """
    xs, f_at, f_below = table.steps(quantity, lo, hi)
    ends = [x for x in (lo, hi) if not (xs.size and x in (xs[0], xs[-1]))]
    at = np.concatenate([xs, ends])  # every distinct x: the jumps, then lo and hi unless they are jumps
    main = at if quantity != "pi" else li(at)
    env = np.fromiter(map(bound, at.tolist()), np.float64, at.size)
    dist = np.abs(np.concatenate([f_at, table._values(quantity, np.array(ends))]) - main)
    dist[:xs.size] = np.maximum(dist[:xs.size], np.abs(f_below - main[:xs.size]))
    margins = env - dist
    i = int(np.argmin(margins))  # the first minimum, or the first NaN
    return VerifyReport(quantity=quantity, lo=lo, hi=hi, passed=bool(np.all(margins >= 0.0)),
                        worst_margin=float(margins[i]), worst_x=float(at[i]), n_points=2 * xs.size + 2)
