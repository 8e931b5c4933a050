"""Theta- and pi-bound constants derived from a certified psi bound.

A psi envelope transfers to theta by absorbing the prime-power gap
psi(x) - theta(x) < a1 sqrt(x) + a2 x^(1/3) into a small additive bump
of the leading constant, and to pi by partial summation, which costs a
factor 1/log x plus three explicit integrals over |theta(t) - t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BoundConstants, CertificationError, _round_up
from .regimes import DecayKind, decay_arg_prime, log_envelope, vk_decay_arg

__all__ = [
    "GAP_A1",
    "GAP_A2",
    "GAP_MIN_LOG_X",
    "I1_CEIL",
    "I2_CEIL",
    "theta_constants",
    "ThetaConstants",
    "pi_constants_classical",
    "pi_constants_vk",
    "PiConstants",
]

GAP_A1 = 1.0 + 1.93378e-8    # psi - theta < GAP_A1 sqrt(x) + GAP_A2 x^(1/3)
GAP_A2 = 1.01718
GAP_MIN_LOG_X = 58.0         # gap bound valid for x > exp(58)

I1_CEIL = 5.43               # integral of |theta - t|/(t log^2 t) over [2, 599]
I2_CEIL = 7.87e12            # same over [599, exp(58)]; a loose but safe ceiling
_CONST_PIECES = 2.0 / math.log(2.0) + I1_CEIL + I2_CEIL


@dataclass(frozen=True)
class ThetaConstants:
    A1: float
    source_label: str


def theta_constants(psi: BoundConstants, extra: float = 0.01) -> ThetaConstants:
    """A1 = A + extra, certified to absorb the prime-power gap.

    Requires extra * (log x)^B e^{-C u(x)} >= a1 x^(-1/2) + a2 x^(-2/3)
    for all x >= max(x0, exp(58)).  The right side is below
    (a1 + a2) e^{-log x / 2}, and the ratio of the left side to that
    majorant is increasing in x, so the left endpoint decides.
    """
    if not psi.monotone_certified:
        raise CertificationError("psi constants are not certified")
    log_x = max(psi.X, GAP_MIN_LOG_X)
    lhs = log_envelope(psi.u_kind, math.log(extra), psi.B, psi.C, log_x)
    rhs = math.log(GAP_A1 + GAP_A2) - log_x / 2.0
    if lhs < rhs:
        raise CertificationError(f"gap absorption fails at log x = {log_x:g}")
    # ratio increasing needs C u'(x) <= 1/2; u' is decreasing, check left end
    if psi.C * decay_arg_prime(psi.u_kind, log_x) >= 0.5:
        raise CertificationError("gap ratio not increasing")
    return ThetaConstants(A1=psi.A + extra, source_label=psi.label)


@dataclass(frozen=True)
class PiConstants:
    A2_unrounded: float
    A2: float
    A1: float
    B: float
    C: float
    alpha: float
    u_kind: DecayKind
    i2_used: float
    i2_recomputed: float


def _check_h_condition(B: float, C: float, alpha: float, u_kind: DecayKind) -> None:
    """Certify log t - alpha - C t log t u'(t) >= log^(B+alpha-1) t, t >= exp(58).

    Checked on a 4000-point log grid up to log t = 1e6; beyond that the
    left side grows linearly in log t while the right is a strictly
    smaller power, and the slope gap is already positive and widening at
    the grid end.
    """
    expo = B + alpha - 1.0
    big = 1e6
    for log_t in np.geomspace(GAP_MIN_LOG_X, big, 4000):
        lhs = log_t - alpha - C * log_t * decay_arg_prime(u_kind, float(log_t))
        if lhs < log_t**expo:
            raise CertificationError(f"h' condition fails at log t = {log_t:g}")
    # tail: d/dL [L - alpha - C L u'(L) - L^expo] > 0 at L = big and beyond
    slope = 1.0 - C * 1.5 * decay_arg_prime(u_kind, big) - expo * big ** (expo - 1.0)
    if slope <= 0.0:
        raise CertificationError("h' tail dominance not established")


def _recompute_i2() -> float:
    """Integral of 1/(8 pi sqrt t) over [599, exp(58)] in closed form."""
    return (math.exp(29.0) - math.sqrt(599.0)) / (4.0 * math.pi)


def pi_constants_classical() -> PiConstants:
    """Constants for the all-x pi bound built on the first theta row.

    Uses the fixed inputs A1 = 9.40, B = 1.515, C = 0.8274 with
    alpha = 0.45.  The loose I2 ceiling enters the assembled constant;
    the recomputed integral is reported alongside it.
    """
    a1, b, c, alpha = 9.40, 1.515, 0.8274, 0.45
    _check_h_condition(b, c, alpha, "sqrt_log")
    x0_log = GAP_MIN_LOG_X
    third = _CONST_PIECES * x0_log ** (1.0 - b) * math.exp(c * math.sqrt(x0_log) - x0_log) / a1
    a2 = a1 * (1.0 + x0_log ** (1.0 - b - alpha) + third)
    return PiConstants(
        A2_unrounded=a2, A2=_round_up(a2, 2),
        A1=a1, B=b, C=c, alpha=alpha, u_kind="sqrt_log",
        i2_used=I2_CEIL, i2_recomputed=_recompute_i2(),
    )


def pi_constants_vk() -> PiConstants:
    """Constants for the VK-shape pi bound (inputs A1=0.027, B=1.801, C=0.1853).

    The derivative of the decay argument has a log^(2/5) t denominator;
    with it, t u'(t) at exp(58) is about 0.082 and the full condition on
    h' still holds with margin about 1.  (Swapping the exponent to 5/2
    reproduces the much smaller 1.63e-5 ceiling sometimes quoted for
    this step; both the condition and the assembled constant are
    insensitive to which one is used.)
    """
    a1, b, c, alpha = 0.027, 1.801, 0.1853, 0.19
    _check_h_condition(b, c, alpha, "vk_r")
    x0_log = GAP_MIN_LOG_X
    u0 = vk_decay_arg(x0_log)
    x0 = math.exp(x0_log)
    base = _CONST_PIECES * x0_log ** (1.0 - b) / (a1 * x0)
    third_pow = base * u0**c          # (u(x0))^C reading
    third_exp = base * math.exp(c * u0)
    a2_pow = a1 * (1.0 + x0_log ** (1.0 - b - alpha) + third_pow)
    a2_exp = a1 * (1.0 + x0_log ** (1.0 - b - alpha) + third_exp)
    if round(a2_pow, 3) != round(a2_exp, 3):
        raise CertificationError("third-term readings disagree at the printed precision")
    a2 = max(a2_pow, a2_exp)
    return PiConstants(
        A2_unrounded=a2, A2=_round_up(a2, 3),
        A1=a1, B=b, C=c, alpha=alpha, u_kind="vk_r",
        i2_used=I2_CEIL, i2_recomputed=_recompute_i2(),
    )
