"""Explicit zero-free regions for the Riemann zeta function.

Three regions are evaluated, each giving a width nu(t) such that zeta has
no zeros with real part >= 1 - nu(t):

* classical:        nu1(t) = 1 / (R0 log t),            R0 = 5.5666305
* smoothed Ford:    nu2(t) = (1/(R1 log t)) (1 - D loglog t / log t)
* Vinogradov-Korobov: nu3(t) = 1 / (c log^(2/3) t (loglog t)^(1/3))

All functions take log t as the working variable: the third region only
becomes dominant near t = exp(54563), far outside double range.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = [
    "R0",
    "R1_FORD",
    "D_FORD",
    "C_VK",
    "nu1",
    "nu2",
    "nu3",
    "envelope_crossovers",
    "limiting_constants",
    "Crossover",
    "PntBoundsError",
    "ConsistencyError",
]

R0 = 5.5666305          # classical region constant (Riemann height updated)
R1_FORD = 3.359         # leading constant of the smoothed Ford region
D_FORD = 8.02           # loglog correction coefficient of the same
C_VK = 57.54            # Vinogradov-Korobov constant

_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)


class PntBoundsError(RuntimeError):
    """Base of the package's refusals (defined here, the module every pipeline imports)."""


class ConsistencyError(PntBoundsError):
    """An expected sign change or containment failed."""


def nu1(log_t: float) -> float:
    """Classical zero-free width at height exp(log_t); needs t >= 2."""
    if not _LOG2 <= log_t < math.inf:
        raise ValueError(f"nu1 requires t >= 2 (log t >= {_LOG2:.4f}), got log t = {log_t}")
    return 1.0 / (R0 * log_t)


def nu2(log_t: float) -> float:
    """Smoothed Ford width; valid for t >= 3, may be <= 0 for small t."""
    if not _LOG3 <= log_t < math.inf:
        raise ValueError(f"nu2 requires t >= 3, got log t = {log_t}")
    return (1.0 / (R1_FORD * log_t)) * (1.0 - D_FORD * math.log(log_t) / log_t)


def nu3(log_t: float) -> float:
    """Vinogradov-Korobov width; valid for t >= 3."""
    if not _LOG3 <= log_t < math.inf:
        raise ValueError(f"nu3 requires t >= 3, got log t = {log_t}")
    return 1.0 / (C_VK * log_t ** (2.0 / 3.0) * math.log(log_t) ** (1.0 / 3.0))


class Crossover(NamedTuple):
    pair: str
    bracket: tuple[float, float]
    root_log_t: float


def _bisect(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    if not 0.0 < tol < math.inf:  # a NaN or inf tol would skip the refinement
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ConsistencyError(f"no sign change on [{a}, {b}]: f(a)={fa:g}, f(b)={fb:g}")
    while b - a > tol and a < (m := 0.5 * (a + b)) < b:  # a tol below float spacing ends here
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def envelope_crossovers(tol: float = 1e-3) -> list[Crossover]:
    """Roots of nu1 = nu2 and nu2 = nu3, bisected in log t.

    The search brackets are fixed; a missing sign change raises
    ConsistencyError since it would mean the regions are mis-ordered.
    """
    b12 = (50.0, 200.0)
    b23 = (1e4, 1e5)
    r12 = _bisect(lambda y: nu1(y) - nu2(y), *b12, tol=tol)
    r23 = _bisect(lambda y: nu2(y) - nu3(y), *b23, tol=tol)
    return [Crossover("nu1/nu2", b12, r12), Crossover("nu2/nu3", b23, r23)]


def limiting_constants(R: float = R0, c: float = C_VK) -> dict[str, float]:
    """Asymptotic ceilings on the decay-rate constants.

    A classical-shape region with constant R supports any rate below
    2/sqrt(R); a Vinogradov-Korobov region with constant c supports any
    rate below (5/(3c^3))^(1/5) ((3/2)^(2/5) + (2/3)^(3/5)).
    """
    c1_limit = 2.0 / math.sqrt(R)
    c2_limit = (5.0 / (3.0 * c**3)) ** 0.2 * ((1.5) ** 0.4 + (2.0 / 3.0) ** 0.6)
    return {"C1_limit": c1_limit, "C2_limit": c2_limit}
