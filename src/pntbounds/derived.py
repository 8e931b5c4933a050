"""Theta- and pi-bound constants derived from a certified psi bound.

A psi envelope transfers to theta by absorbing the prime-power gap
psi(x) - theta(x) < a1 sqrt(x) + a2 x^(1/3) into a small additive bump
of the leading constant, and to pi by partial summation, which costs a
factor 1/log x plus three explicit integrals over |theta(t) - t|.  Its
h' condition on log t >= 58 is proved in closed form at 58 alone.  Both
certificates list ``engine.Premise`` records and refuse by ``engine.refusal``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .engine import _COVERAGE_TOL, REGIMES, BoundConstants, CertificationError, Premise, _round_up, refusal
from .regimes import DecayKind, decay_arg_prime, log_envelope, vk_decay_arg, vk_decay_arg_prime_fall_margin

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
    "served_envelopes",
]

GAP_A1 = 1.0 + 1.93378e-8    # psi - theta < GAP_A1 sqrt(x) + GAP_A2 x^(1/3)
GAP_A2 = 1.01718
GAP_MIN_LOG_X = 58.0         # gap bound valid for x > exp(58)

I1_CEIL = 5.43               # integral of |theta - t|/(t log^2 t) over [2, 599]
I2_CEIL = 7.87e12            # same over [599, exp(58)]; a loose but safe ceiling


class ThetaConstants(NamedTuple):
    A1: float
    source_label: str


def theta_constants(psi: BoundConstants, extra: float | None = None) -> ThetaConstants:
    """A1 = A + extra, certified to absorb the prime-power gap; ``extra`` defaults to one unit
    in the last decimal of the row's A (``Regime.a_decimals``).

    Requires extra * (log x)^B e^{-C u(x)} >= a1 x^(-1/2) + a2 x^(-2/3)
    for all x >= max(x0, exp(58)).  The right side is below
    (a1 + a2) e^{-log x / 2}, and the ratio of the left side to that
    majorant increases in x if C u' < 1/2 at the left end (u' falls), so the left end decides.
    """
    extra = 10.0 ** -REGIMES[psi.regime].a_decimals if extra is None else extra
    if not 0.0 < extra < math.inf:
        raise ValueError(f"extra must be finite and > 0, got {extra}")
    log_x = max(psi.X, GAP_MIN_LOG_X)
    lhs = log_envelope(psi.u_kind, math.log(extra), psi.B, psi.C, log_x)
    rhs = math.log(GAP_A1 + GAP_A2) - log_x / 2.0
    slope = psi.C * decay_arg_prime(psi.u_kind, log_x)
    if refused := refusal([Premise("extra L^B e^(-C u) >= (a1 + a2) x^(-1/2)", lhs - rhs, log_x),
                           Premise("C u' < 1/2", 0.5 - slope, log_x, strict=True)]):
        raise CertificationError(f"gap absorption {refused} at log x = {log_x:g}")
    return ThetaConstants(A1=psi.A + extra, source_label=psi.label)


class PiConstants(NamedTuple):
    A2_unrounded: float
    A2: float
    A1: float
    B: float
    C: float
    alpha: float
    u_kind: DecayKind
    i2_used: float
    i2_recomputed: float


def _check_h_condition(B: float, C: float, alpha: float, u_kind: DecayKind) -> list[Premise]:
    """Certify h(L) = L - alpha - C L u'(L) - L^(B+alpha-1) >= 0 for all L >= 58.

    L = log t and u' = du/dL.  h(L)/L = 1 - alpha/L - C u'(L) - L^(B+alpha-2),
    and each subtracted term is nonincreasing on [58, inf) when
    alpha >= 0, C >= 0, B + alpha <= 2 and u' is nonincreasing there.  u' is
    1/(2 sqrt L) for "sqrt_log"; for "vk_r" it falls exactly when log L > (sqrt(145) - 1)/12
    = 0.920133... (``vk_decay_arg_prime_fall_margin``).  Then h/L is nondecreasing, so h(58) >= 0
    proves h >= 0 on [58, inf).  The computed h(58) must clear ``_COVERAGE_TOL``
    (1e-12), far above its float error, so it also refuses a B + alpha just
    above 2 whose float sum rounds to 2.  A NaN margin fails its premise.
    """
    lo = GAP_MIN_LOG_X
    u_margin = {"sqrt_log": math.inf, "vk_r": vk_decay_arg_prime_fall_margin(lo)}.get(u_kind, math.nan)
    u_falls = Premise("u' nonincreasing", u_margin, lo, strict=True)
    h0 = (lo - alpha - C * lo * decay_arg_prime(u_kind, lo) - lo ** (B + alpha - 1.0)
          if u_falls.holds else math.nan)
    premises = [Premise("alpha >= 0", alpha, lo), Premise("C >= 0", C, lo),
                Premise("B + alpha <= 2", 2.0 - (B + alpha), lo), u_falls,
                Premise("h(58) >= 0", h0 - _COVERAGE_TOL, lo)]
    if refused := refusal(premises):
        raise CertificationError(f"h' condition {refused}, h(58) = {h0:.4g}")
    return premises


def _pi_constants(a1: float, b: float, c: float, alpha: float, regime: str,
                  readings: tuple[float, ...]) -> PiConstants:
    """A2 = A1 (1 + 58^(1-B-alpha) + third) with the ``regime``'s u, rounded up at its ``a_decimals``.

    third = (2/log 2 + I1 + I2) 58^(1-B) e^(-58) r / A1 for each reading r of
    e^(C u) at log x = 58.  A2 takes the largest; the readings must agree
    at the printed precision.  The loose I2 ceiling enters A2.
    """
    u_kind, digits = REGIMES[regime].kind, REGIMES[regime].a_decimals
    _check_h_condition(b, c, alpha, u_kind)
    lo = GAP_MIN_LOG_X
    second = lo ** (1.0 - b - alpha)
    base = (2.0 / math.log(2.0) + I1_CEIL + I2_CEIL) * lo ** (1.0 - b) / (a1 * math.exp(lo))
    a2s = [a1 * (1.0 + second + base * r) for r in readings]
    if len({round(a2, digits) for a2 in a2s}) > 1:
        raise CertificationError("third-term readings disagree at the printed precision")
    a2 = max(a2s)
    return PiConstants(
        A2_unrounded=a2, A2=_round_up(a2, digits),
        A1=a1, B=b, C=c, alpha=alpha, u_kind=u_kind,
        # the closed-form integral of 1/(8 pi sqrt t) over [599, exp(58)]
        i2_used=I2_CEIL, i2_recomputed=(math.exp(29.0) - math.sqrt(599.0)) / (4.0 * math.pi),
    )


def pi_constants_classical() -> PiConstants:
    """The all-x pi bound on the first theta row: A1 = 9.40, B = 1.515, C = 0.8274.

    alpha = 0.45; the one reading is e^(C sqrt 58).  h(58) = 4.08 and
    B + alpha = 1.965.
    """
    a1, b, c, alpha = 9.40, 1.515, 0.8274, 0.45
    return _pi_constants(a1, b, c, alpha, "medium", (math.exp(c * math.sqrt(GAP_MIN_LOG_X)),))


def pi_constants_vk() -> PiConstants:
    """The VK-shape pi bound: A1 = 0.027, B = 1.801, C = 0.1853, alpha = 0.19.

    The third term is read as u(x0)^C and as e^(C u(x0)).  With u' from r(x)
    (a log^(2/5) denominator), h(58) = 1.01 and B + alpha = 1.991.  An
    exponent of 5/2 there gives the 1.63e-5 ceiling sometimes quoted.
    """
    a1, b, c, alpha = 0.027, 1.801, 0.1853, 0.19
    u0 = vk_decay_arg(GAP_MIN_LOG_X)
    return _pi_constants(a1, b, c, alpha, "vk", (u0**c, math.exp(c * u0)))


def served_envelopes(quantity: str, rows: Sequence[BoundConstants]) -> list[tuple[str, DecayKind, float, float, float]]:
    """(source, u kind, A, B, C) for each envelope A (log x)^B e^(-C u) that bounds ``quantity`` relative
    to x, in order: each psi row; each row's theta transfer, A1 for A; or the classical then the VK pi set,
    A2 for A and B - 1 for B.  The pi sets are the typed-in ones and do not read ``rows``."""
    if quantity == "psi":
        return [(r.label, r.u_kind, r.A, r.B, r.C) for r in rows]
    if quantity == "theta":
        return [(r.label, r.u_kind, theta_constants(r).A1, r.B, r.C) for r in rows]
    if quantity == "pi":
        return [(name, p.u_kind, p.A2, p.B - 1.0, p.C)
                for name, p in (("classical", pi_constants_classical()), ("vk", pi_constants_vk()))]
    raise ValueError(f"unknown quantity {quantity!r}, expected 'psi', 'theta' or 'pi'")
