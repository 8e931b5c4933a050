"""Bracket constants for the turning point and minimum of t * x^nu(t).

For the smoothed Ford region and the Vinogradov-Korobov region, the
integrand x^(-nu(t))/t rises to a single maximum at t0 and falls after
it.  The constants (B0, B1) sandwich log t0 and (B2, B3) sandwich
log min t*x^nu(t), in units of sqrt(log x) for the Ford region and
log^(3/5) x (loglog x)^(-1/5) for the Vinogradov-Korobov one.

The same two scales are the decay arguments u of the envelope
A (log x)^B e^{-C u}, which this module alone defines.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, NamedTuple, NoReturn

from . import zfr
from .zdensity import LOG_RIEMANN_HEIGHT

__all__ = [
    "Bracket",
    "bracket_nu2",
    "bracket_nu3",
    "verify_unimodal",
    "UnimodalReport",
    "DecayKind",
    "abs_envelope",
    "decay_arg",
    "decay_arg_prime",
    "log_envelope",
    "vk_decay_arg",
    "vk_decay_arg_prime",
    "vk_decay_arg_prime_fall_margin",
    "ConvergenceError",
]

MIN_LOG_X0_NU2 = 1e5
MIN_LOG_X0_NU3 = 2.8e10
_R_PRIME_FALLS = 0.9202  # the loglog x above which r' falls, with float allowance


class ConvergenceError(zfr.PntBoundsError):
    """An iteration did not converge."""


class Bracket(NamedTuple):
    """B0 <= scale of log t0 <= B1 and B2 <= scale of log T <= B3."""

    region_kind: str  # "nu2" | "nu3"
    log_x0: float
    B0: float
    B1: float
    B2: float
    B3: float


DecayKind = Literal["sqrt_log", "vk_r"]


def _vk_loglog(log_x: float) -> float:
    """loglog x, for 1 < log x < inf only: below 1, r(x) is complex, and at 1 its derivative divides by 0."""
    if not 1.0 < log_x < math.inf:  # NaN too
        raise ValueError(f"the VK decay argument requires 1 < log x < inf, got {log_x}")
    return math.log(log_x)


def vk_decay_arg(log_x: float) -> float:
    """r(x) = log^(3/5) x * (loglog x)^(-1/5), the VK decay argument."""
    return log_x ** 0.6 / _vk_loglog(log_x) ** 0.2


def vk_decay_arg_prime(log_x: float) -> float:
    """r'(log x) = (3 loglog x - 1) / (5 log^(2/5) x (loglog x)^(6/5))."""
    ll = _vk_loglog(log_x)
    return (3.0 * ll - 1.0) / (5.0 * log_x**0.4 * ll**1.2)


def vk_decay_arg_prime_fall_margin(log_x: float) -> float:
    """Positive exactly when r' decreases on [log x, inf), that is when y = loglog x > (sqrt(145) - 1)/12
    = 0.920133..., the root of 6y^2 + y - 6; ``_R_PRIME_FALLS`` clears y's float error."""
    return math.log(log_x) - _R_PRIME_FALLS


def _unknown(kind: str) -> NoReturn:
    raise ValueError(f"unknown decay kind {kind!r}, expected 'sqrt_log' or 'vk_r'")


def decay_arg(kind: DecayKind, log_x: float) -> float:
    """u(log x): sqrt(log x) for "sqrt_log" (classical and Ford), r(x) for "vk_r"."""
    if kind == "sqrt_log":
        return math.sqrt(log_x)
    return vk_decay_arg(log_x) if kind == "vk_r" else _unknown(kind)


def decay_arg_prime(kind: DecayKind, log_x: float) -> float:
    """du/d(log x).  For both kinds log x * u' increases in log x > 1."""
    if kind == "sqrt_log":
        return 1.0 / (2.0 * math.sqrt(log_x))
    return vk_decay_arg_prime(log_x) if kind == "vk_r" else _unknown(kind)


def log_envelope(kind: DecayKind, log_a: float, B: float, C: float, log_x: float) -> float:
    """ln(A (log x)^B e^{-C u(log x)}) with ln A = log_a."""
    return log_a + B * math.log(log_x) - C * decay_arg(kind, log_x)


def abs_envelope(kind: DecayKind, A: float, B: float, C: float) -> Callable[[float], float]:
    """x -> A x (log x)^B e^{-C u(log x)}, the envelope of an absolute error."""
    if kind not in ("sqrt_log", "vk_r"):  # refused when built, not at the first call
        _unknown(kind)
    if not (0.0 < A < math.inf and math.isfinite(B) and math.isfinite(C)):
        raise ValueError(f"abs_envelope needs a finite A > 0 and finite B and C, got A={A}, B={B}, C={C}")
    log_a = math.log(A)
    return lambda x: math.exp(log_envelope(kind, log_a, B, C, math.log(x))) * x


def bracket_nu2(log_x0: float) -> Bracket:
    """Brackets for the smoothed Ford region, valid for x >= exp(log_x0).

    B1 = R1^(-1/2) exactly.  B0 is the fixed point of
    B0 -> sqrt((1 - C(B0)) / R1) with
    C(B0) = D (2 log(B0 sqrt(log x0)) - 1) / (B0 sqrt(log x0)),
    iterated from B1 (empirically a contraction for log_x0 >= 1e5).
    Then B2 = 2 sqrt(alpha) and B3 = B1 + 1/(R1 B0).
    """
    if not MIN_LOG_X0_NU2 <= log_x0 < math.inf:  # NaN and +inf too
        raise ValueError(f"bracket_nu2 requires log x0 >= {MIN_LOG_X0_NU2:g}, got {log_x0:g}")
    r1, d = zfr.R1_FORD, zfr.D_FORD
    u = math.sqrt(log_x0)
    b1 = r1 ** -0.5
    b0 = b1
    for _ in range(200):
        c = d * (2.0 * math.log(b0 * u) - 1.0) / (b0 * u)
        if c >= 1.0:
            raise ValueError(f"log x0 = {log_x0:g} too small: correction term C = {c:g} >= 1")
        nxt = math.sqrt((1.0 - c) / r1)
        if abs(nxt - b0) < 1e-10:
            b0 = nxt
            break
        b0 = nxt
    else:
        raise ConvergenceError("B0 fixed point did not converge in 200 iterations")
    alpha = (1.0 - d * math.log(b0 * u) / (b0 * u)) / r1
    if alpha <= 0.0:
        raise ValueError(f"alpha = {alpha:g} <= 0: log x0 too small for this region")
    return Bracket("nu2", log_x0, B0=b0, B1=b1, B2=2.0 * math.sqrt(alpha), B3=b1 + 1.0 / (r1 * b0))


def bracket_nu3(log_x0: float = MIN_LOG_X0_NU3) -> Bracket:
    """Brackets for the Vinogradov-Korobov region, x >= exp(log_x0).

    B0 = (2/(3c))^(3/5) (5/3)^(1/5) in closed form; B1 comes from the
    beta = 0.4125 construction, rounded up at 5 decimals.  B3 uses the
    exact chain constant kappa = (log B0 + (3/5) L - (1/5) log L)/L at
    L = loglog x0 instead of a hard-coded value, so other anchors work.
    """
    if not MIN_LOG_X0_NU3 <= log_x0 < math.inf:  # NaN and +inf too
        raise ValueError(f"bracket_nu3 requires log x0 >= {MIN_LOG_X0_NU3:g}, got {log_x0:g}")
    c = zfr.C_VK
    b0 = (2.0 / (3.0 * c)) ** 0.6 * (5.0 / 3.0) ** 0.2
    beta = 0.4125
    b1 = math.ceil((2.0 / (3.0 * c)) ** 0.6 * beta ** -0.2 * 1e5) / 1e5
    b2 = 1.0 / (c * b1 ** (2.0 / 3.0) * (3.0 / 5.0) ** (1.0 / 3.0)) + b0
    big_l = math.log(log_x0)
    kappa = (math.log(b0) + 0.6 * big_l - 0.2 * math.log(big_l)) / big_l
    if kappa <= 0.0:
        raise ValueError("kappa <= 0: hypothesis violated")
    b3 = 1.0 / (c * b0 ** (2.0 / 3.0) * kappa ** (1.0 / 3.0)) + b1
    return Bracket("nu3", log_x0, B0=b0, B1=b1, B2=b2, B3=b3)


class UnimodalReport(NamedTuple):
    region_kind: str
    log_x: float
    passed: bool
    pattern: str               # collapsed sign runs of the discrete slope, e.g. "-+-"
    turning_log_t: float       # interior peak of x^(-nu(t))/t
    rise_start_log_t: float    # where the integrand begins rising (log H if no dip)
    bracket_lo: float
    bracket_hi: float


def verify_unimodal(bracket: Bracket, log_x: float) -> UnimodalReport:
    """Numerically confirm the single-interior-peak shape of x^(-nu(t))/t.

    Samples g(log t) = -nu(t) log x - log t (the log of the integrand) on
    a 1000-point grid from log H to twice the upper turning-point bracket.  For the
    smoothed Ford region the width nu2 is still widening just above the
    verified height, so the integrand dips there before rising; no zero
    mass lives below the rise, and the load-bearing property is a slope
    pattern of "+-" or "-+-" with the single interior peak inside
    [B0 * scale, B1 * scale].
    """
    if not bracket.log_x0 <= log_x < math.inf:
        raise ValueError("log_x below the bracket hypothesis")
    kind, nu = {"nu2": ("sqrt_log", zfr.nu2), "nu3": ("vk_r", zfr.nu3)}[bracket.region_kind]
    scale = decay_arg(kind, log_x)

    import numpy as np
    lo, hi = LOG_RIEMANN_HEIGHT, 2.0 * bracket.B1 * scale
    grid = np.linspace(lo, hi, 1000)
    g = np.array([-nu(y) * log_x - y for y in grid])
    signs = np.sign(np.diff(g))
    nz = signs[signs != 0]
    runs: list[float] = []
    for s in nz:
        if not runs or runs[-1] != s:
            runs.append(float(s))
    pattern = "".join("+" if s > 0 else "-" for s in runs)

    ascending = np.nonzero(signs > 0)[0]
    rise_idx = int(ascending[0]) if ascending.size else 0
    rising = g[rise_idx:]
    turning = float(grid[rise_idx + int(np.argmax(rising))])
    in_bracket = bracket.B0 * scale <= turning <= bracket.B1 * scale
    return UnimodalReport(
        region_kind=bracket.region_kind,
        log_x=log_x,
        passed=(pattern in ("+-", "-+-") and in_bracket),
        pattern=pattern,
        turning_log_t=turning,
        rise_start_log_t=float(grid[rise_idx]),
        bracket_lo=bracket.B0 * scale,
        bracket_hi=bracket.B1 * scale,
    )
