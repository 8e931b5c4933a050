"""The three relative-error bounding pipelines and their certification.

Each pipeline bounds |psi(x) - x| / x for x >= x0 by a sum of explicit
terms s1 + s2 + s3 (zeros below the verified height, zeros above the
chosen sigma via the density estimate, and the truncation error of the
zero-sum formula), then factors the sum through a decaying envelope

    A (log x)^B exp(-C u(x)),   u = sqrt(log x)  or  log^(3/5) x (loglog x)^(-1/5).

A is pinned at x0; this is only valid if the normalized sum is
nonincreasing beyond x0, so every emitted constant set carries a
monotonicity certificate.  Constants are rounded toward validity
(A and B up, C down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .extnum import ExtReal
from .regimes import Bracket, bracket_nu2, bracket_nu3, vk_decay_arg, vk_decay_arg_prime
from .zfr import R0
from .zdensity import DensityTable, LOG_RIEMANN_HEIGHT, recip_sum_bounds

__all__ = [
    "RVM_COEF",
    "EnvelopeTerm",
    "BoundConstants",
    "CertificationError",
    "ck",
    "cprime",
    "check_rvm_precondition",
    "medium_terms",
    "medium_bound",
    "large_bound",
    "vk_bound",
    "certify_monotone",
    "optimize",
    "regime_compare",
    "RegimeCrossings",
    "piecewise_coverage",
    "CoverageSegment",
    "CoverageReport",
    "RowParams",
    "DEFAULT_ROW_PARAMS",
    "VK_DEFAULT_PARAMS",
    "compute_row",
    "compute_default_rows",
]

RVM_COEF = 4.3128        # truncation coefficient of the zero-sum formula
RVM_LOG_POW = 0.6
MIN_MEDIUM_LOG_X = 2488.0
_LOG_2PI = math.log(2.0 * math.pi)
# zeros below the verified height H sit on the critical line; their reciprocal
# sum enters s1 as twice the upper bound at H, and the below-sigma tail as
# twice (upper(T) - lower(H))
_CH = 2.0 * recip_sum_bounds(LOG_RIEMANN_HEIGHT)[1]
_RECIP2 = 2.0 * (recip_sum_bounds(LOG_RIEMANN_HEIGHT)[1] - recip_sum_bounds(LOG_RIEMANN_HEIGHT)[0])


class CertificationError(RuntimeError):
    """A bound could not be certified and is refused."""


# ---------------------------------------------------------------------------
# canonical envelope terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeTerm:
    """One summand g(u) = coeff * u^power * exp(-decay*u - quad*u^2) * q(u).

    ``coeff_log`` is ln of a positive coefficient.  ``poly``, when set,
    is a signed quadratic (q2, q1, q0) that must stay positive on the
    domain of use.  ``decay`` may be negative only when quad > 0 (an
    x-power term whose Gaussian factor dominates).  kind records the
    argument variable: sqrt_log and vk_r terms are canonical u^a e^{-bu},
    plain_power terms carry the quadratic decay of a power of x.
    """

    coeff_log: float
    power: float
    decay: float
    quad: float = 0.0
    poly: tuple[float, float, float] | None = None
    kind: Literal["sqrt_log", "vk_r", "plain_power"] = "sqrt_log"

    def log_eval(self, u):
        """ln g(u); u may be a scalar or ndarray."""
        val = self.coeff_log + self.power * np.log(u) - self.decay * u - self.quad * u * u
        if self.poly is not None:
            q2, q1, q0 = self.poly
            q = q2 * u * u + q1 * u + q0
            if np.any(q <= 0.0):
                raise ValueError("quadratic factor nonpositive on evaluation domain")
            val = val + np.log(q)
        return val

    def shifted(self, dpower: float, ddecay: float) -> "EnvelopeTerm":
        return EnvelopeTerm(self.coeff_log, self.power + dpower, self.decay + ddecay,
                            self.quad, self.poly, self.kind)


def _log_sum(terms: Sequence[EnvelopeTerm], u) -> float:
    vals = [t.log_eval(u) for t in terms]
    return float(np.logaddexp.reduce(vals, axis=0)) if np.ndim(u) == 0 else np.logaddexp.reduce(vals, axis=0)


# ---------------------------------------------------------------------------
# monotonicity certification
# ---------------------------------------------------------------------------


def _tail_phi_max(term: EnvelopeTerm, u1: float) -> float:
    """Upper bound on d(ln g)/du over [u1, inf); <= 0 proves the tail decays."""
    a, b, g = term.power, term.decay, term.quad
    q_ratio = 0.0
    if term.poly is not None:
        q2, q1, q0 = term.poly
        if q2 <= 0.0 or q2 * u1 * u1 + q1 * u1 + q0 <= 0.0:
            return math.inf
        if q1 * u1 + q0 < -0.5 * q2 * u1 * u1:  # need q >= q2 u^2 / 2 beyond u1
            return math.inf
        q_ratio = 4.0 / u1 + 2.0 * abs(q1) / (q2 * u1 * u1)
    if g == 0.0:
        return (a / u1 if a > 0.0 else 0.0) - b + q_ratio
    if a >= 0.0:
        return a / u1 - b - 2.0 * g * u1 + q_ratio
    u_star = math.sqrt(-a / (2.0 * g))
    if u_star <= u1:
        return a / u1 - b - 2.0 * g * u1 + q_ratio
    return -2.0 * math.sqrt(-2.0 * a * g) - b + q_ratio


def certify_monotone(terms: Sequence[EnvelopeTerm], u0: float, n_scan: int = 4097) -> bool:
    """True iff every term is nonincreasing on [u0, inf).

    Canonical u^a e^{-bu} terms use the closed-form peak test (peak at
    a/b must not exceed u0).  Anything else falls back to a sign-checked
    finite-difference scan on [u0, 4 u0] plus a closed-form derivative
    bound beyond 4 u0.
    """
    for t in terms:
        if t.quad == 0.0 and t.poly is None:
            if t.power <= 0.0 and t.decay >= 0.0:
                continue
            if t.decay > 0.0 and t.power / t.decay <= u0:
                continue
        u1 = 4.0 * u0
        try:
            vals = t.log_eval(np.linspace(u0, u1, n_scan))
        except ValueError:
            return False
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        if np.any(np.diff(vals) > tol):
            return False
        if _tail_phi_max(t, u1) > 0.0:
            return False
    return True


# ---------------------------------------------------------------------------
# emitted constants
# ---------------------------------------------------------------------------


def _round_up(v: float, decimals: int) -> float:
    return math.ceil(v * 10**decimals - 1e-9) / 10**decimals


def _round_down(v: float, decimals: int) -> float:
    return math.floor(v * 10**decimals + 1e-9) / 10**decimals


@dataclass(frozen=True)
class BoundConstants:
    """A certified constant set: |psi(x) - x| <= A x (log x)^B e^{-C u(x)}
    and |psi(x) - x| <= eps0 * x, for all log x >= X."""

    label: str
    regime: Literal["medium", "large", "vk"]
    X: float                    # validity threshold, in log x
    anchor: float               # log x0 where the pipeline was evaluated
    sigma: float
    K: int
    A_unrounded: float
    A: float
    B_unrounded: float
    B: float
    C_unrounded: float
    C: float
    eps0: ExtReal
    eps0_max_at: float          # log x of the envelope supremum
    monotone_certified: bool
    log_A_unrounded: float
    aprime: float | None = None           # medium only: A' = A * R0^B
    bracket: Bracket | None = None        # large/vk only
    norm_terms: tuple[EnvelopeTerm, ...] = field(default=(), repr=False, compare=False)
    raw_terms: tuple[EnvelopeTerm, ...] = field(default=(), repr=False, compare=False)

    def decay_arg(self, log_x: float) -> float:
        return vk_decay_arg(log_x) if self.regime == "vk" else math.sqrt(log_x)

    def log_rel_envelope(self, log_x: float, rounded: bool = True) -> float:
        """ln of the relative envelope A (log x)^B e^{-C u(x)}."""
        if rounded:
            la, b, c = math.log(self.A), self.B, self.C
        else:
            la, b, c = self.log_A_unrounded, self.B_unrounded, self.C_unrounded
        return la + b * math.log(log_x) - c * self.decay_arg(log_x)

    def as_dict(self) -> dict:
        m, e = self.eps0.log10_parts()
        return {
            "label": self.label,
            "regime": self.regime,
            "X": self.X,
            "sigma": self.sigma,
            "K": self.K,
            "A": self.A,
            "A_unrounded": self.A_unrounded,
            "B": self.B,
            "B_unrounded": self.B_unrounded,
            "C": self.C,
            "C_unrounded": self.C_unrounded,
            "eps0": {"mantissa": m, "decimal_exponent": e},
            "eps0_max_at_log_x": self.eps0_max_at,
            "monotone_certified": self.monotone_certified,
        }


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def ck(sigma: float, K: int, k: int) -> float:
    """Decay rate of the k-th density term (in sqrt(log x / R0) units)."""
    if not 0 <= k <= K - 1:
        raise ValueError(f"k={k} outside 0..{K - 1}")
    return (K + k) / K + K / (K + k) - (8.0 / 3.0) * (1.0 - sigma) * (1.0 + (k + 1) / K)


def cprime(sigma: float, K: int) -> float:
    return min(ck(sigma, K, k) for k in range(K))


def check_rvm_precondition(log_x: float, log_T: float) -> bool:
    """Validity window of the truncated zero-sum formula.

    Requires x >= exp(1000) and max(50, log x) < T/1.8 < (x^(1/35) - 2)/4,
    all evaluated in log form.
    """
    if log_x < 1000.0:
        return False
    mid = log_T - math.log(1.8)
    if math.log(max(50.0, log_x)) >= mid:
        return False
    a = log_x / 35.0
    if a <= math.log(2.0):
        return False
    upper = a + math.log1p(-2.0 * math.exp(-a)) - math.log(4.0)
    return mid < upper


def epsilon0_at(log_A: float, B: float, C: float, X: float,
                decay: Literal["sqrt_log", "vk_r"] = "sqrt_log") -> tuple[ExtReal, float]:
    """Supremum of A (log x)^B e^{-C u} over log x >= X (from unrounded A).

    For the sqrt envelope the unconstrained maximizer is log x = (2B/C)^2;
    the supremum sits there if interior, else at X.  The vk envelope's
    maximizer is found by bisecting the derivative.
    """
    if decay == "sqrt_log":
        peak = (2.0 * B / C) ** 2
        at = max(X, peak)
        return ExtReal.exp_of(log_A + B * math.log(at) - C * math.sqrt(at)), at

    def deriv(l: float) -> float:
        return B / l - C * vk_decay_arg_prime(l)

    lo, hi = 3.1, X
    if deriv(hi) >= 0.0:
        at = X
    elif deriv(lo) <= 0.0:
        at = X
    else:
        for _ in range(200):
            m = math.sqrt(lo * hi)
            if deriv(m) > 0.0:
                lo = m
            else:
                hi = m
            if hi / lo < 1.0 + 1e-12:
                break
        at = max(X, 0.5 * (lo + hi))
    return ExtReal.exp_of(log_A + B * math.log(at) - C * vk_decay_arg(at)), at


class _Fit(NamedTuple):
    """A pipeline's unrounded envelope at its anchor, not yet certified."""

    log_a: float
    B: float
    C: float
    certify: Callable[[], bool]
    extras: dict                # regime-specific BoundConstants fields


def _emit(regime: Literal["medium", "large", "vk"], log_x0: float, sigma: float, K: int,
          fit: Callable[[], _Fit], claim_X: float | None = None, label: str | None = None,
          a_decimals: int = 2) -> BoundConstants:
    """The one emission path of the three pipelines.

    Validates sigma, builds the regime's envelope with ``fit``, refuses it
    unless its certificate holds, takes eps0 over log x >= the claimed
    threshold, and rounds toward validity (A and B up, C down).
    """
    if not (0.98 <= sigma < 1.0):
        raise ValueError(f"sigma={sigma} outside [0.98, 1)")
    f = fit()
    if not f.certify():
        k_note = f", K={K}" if regime == "medium" else ""
        raise CertificationError(f"monotonicity fails at log x0 = {log_x0:g}, sigma={sigma}{k_note}")
    x_claim = log_x0 if claim_X is None else claim_X
    eps0, max_at = epsilon0_at(f.log_a, f.B, f.C, max(x_claim, math.log(2.0)),
                               decay="vk_r" if regime == "vk" else "sqrt_log")
    a_unrounded = math.exp(f.log_a)
    return BoundConstants(
        label=label or f"{log_x0:g}", regime=regime, X=x_claim, anchor=log_x0,
        sigma=sigma, K=K,
        A_unrounded=a_unrounded, A=_round_up(a_unrounded, a_decimals),
        B_unrounded=f.B, B=_round_up(f.B, 3),
        C_unrounded=f.C, C=_round_down(f.C, 4),
        eps0=eps0, eps0_max_at=max_at, monotone_certified=True,
        log_A_unrounded=f.log_a, **f.extras,
    )


# ---------------------------------------------------------------------------
# medium pipeline (classical region, zeros split at t_k)
# ---------------------------------------------------------------------------


def _medium_raw_terms(sigma: float, K: int, table: DensityTable) -> dict[str, list[EnvelopeTerm]]:
    """Raw s1/s2/s3 summands as functions of u = sqrt(log x / R0)."""
    c1, c2 = table.coeffs(sigma)
    p = 5.0 - 2.0 * sigma
    s2: list[EnvelopeTerm] = []
    for k in range(K):
        ratio = 1.0 + (k + 1) / K
        dk = (K + k) / K + K / (K + k)
        s2.append(EnvelopeTerm(math.log(2.0 * c1) + p * math.log(ratio), p, ck(sigma, K, k)))
        s2.append(EnvelopeTerm(math.log(2.0 * c2) + 2.0 * math.log(ratio), 2.0, dk))
    s1 = [
        EnvelopeTerm(math.log(_CH), 0.0, 0.0, quad=R0 / 2.0, kind="plain_power"),
        EnvelopeTerm(0.0, 0.0, 0.0, quad=(1.0 - sigma) * R0,
                     poly=(4.0 / (2.0 * math.pi), -4.0 * _LOG_2PI / (2.0 * math.pi),
                           _LOG_2PI**2 / (2.0 * math.pi) - _CH + _RECIP2),
                     kind="plain_power"),
    ]
    s3 = [EnvelopeTerm(math.log(RVM_COEF) + RVM_LOG_POW * math.log(R0), 1.2, 2.0)]
    return {"s1": s1, "s2": s2, "s3": s3}


def medium_terms(log_x: float, sigma: float, K: int, table: DensityTable) -> dict[str, ExtReal]:
    """The three error groups at x, with T = exp(2 sqrt(log x / R0)).

    s1: zeros with real part <= sigma (reciprocal-sum bounds at H and T);
    s2: zeros above sigma via the density estimate on the t_k partition;
    s3: truncation error of the zero-sum formula.
    """
    if not check_rvm_precondition(log_x, 2.0 * math.sqrt(log_x / R0)):
        raise ValueError(f"zero-sum formula precondition fails at log x = {log_x:g}")
    u = math.sqrt(log_x / R0)
    groups = _medium_raw_terms(sigma, K, table)
    return {name: ExtReal.exp_of(_log_sum(terms, u)) for name, terms in groups.items()}


def medium_bound(log_x0: float, sigma: float, K: int, table: DensityTable,
                 claim_X: float | None = None, label: str | None = None) -> BoundConstants:
    """Constants for the classical-region pipeline, anchored at exp(log_x0).

    The envelope is A (log x)^B e^{-C sqrt(log x)} with B = (5-2 sigma)/2,
    C = C'/sqrt(R0) and A = A'(x0)/R0^B, emitted only if the normalized
    sum certifies as nonincreasing.
    """
    if log_x0 < MIN_MEDIUM_LOG_X:
        raise ValueError(f"medium pipeline requires log x0 >= {MIN_MEDIUM_LOG_X:g}")

    def fit() -> _Fit:
        if not check_rvm_precondition(log_x0, 2.0 * math.sqrt(log_x0 / R0)):
            raise ValueError("zero-sum formula precondition fails at the anchor")
        if K < 1:
            raise ValueError("K >= 1 required")
        p = 5.0 - 2.0 * sigma
        cp = cprime(sigma, K)
        raw = [t for group in _medium_raw_terms(sigma, K, table).values() for t in group]
        norm = [t.shifted(-p, -cp) for t in raw]
        u0 = math.sqrt(log_x0 / R0)
        aprime_log = _log_sum(norm, u0)
        b_exact = p / 2.0
        return _Fit(aprime_log - b_exact * math.log(R0), b_exact, cp / math.sqrt(R0),
                    lambda: certify_monotone(norm, u0),
                    dict(aprime=math.exp(aprime_log), norm_terms=tuple(norm), raw_terms=tuple(raw)))

    return _emit("medium", log_x0, sigma, K, fit, claim_X=claim_X, label=label)


# ---------------------------------------------------------------------------
# large pipeline (smoothed Ford region, single split)
# ---------------------------------------------------------------------------


def _large_norm_terms(sigma: float, br: Bracket, table: DensityTable) -> list[EnvelopeTerm]:
    """Normalized summands in v = sqrt(log x), divided by v^p e^{-C v}."""
    c1, c2 = table.coeffs(sigma)
    p = 5.0 - 2.0 * sigma
    c = br.B2 * (8.0 * sigma - 5.0) / 3.0
    return [
        EnvelopeTerm(math.log(2.0 * c1) + p * math.log(br.B2), 0.0, 0.0),
        EnvelopeTerm(math.log(2.0 * c2) + 2.0 * math.log(br.B2), 2.0 - p, br.B2 - c),
        EnvelopeTerm(math.log(RVM_COEF), 1.2 - p, br.B2 - c),
        EnvelopeTerm(math.log(_CH), -p, -c, quad=0.5, kind="plain_power"),
        EnvelopeTerm(0.0, -p, -c, quad=1.0 - sigma,
                     poly=(br.B3**2 / (2.0 * math.pi), 0.0, -_CH + _RECIP2),
                     kind="plain_power"),
    ]


def large_bound(log_x0: float, sigma: float, table: DensityTable,
                label: str | None = None) -> BoundConstants:
    """Constants from the smoothed Ford region, anchored at exp(log_x0).

    Here C = B2 (8 sigma - 5)/3 with B2 the lower bracket of the zero-sum
    minimum, and A is the normalized sum at the anchor.
    """

    def fit() -> _Fit:
        br = bracket_nu2(log_x0)
        p = 5.0 - 2.0 * sigma
        c_exact = br.B2 * (8.0 * sigma - 5.0) / 3.0
        norm = _large_norm_terms(sigma, br, table)
        v0 = math.sqrt(log_x0)
        return _Fit(_log_sum(norm, v0), p / 2.0, c_exact, lambda: certify_monotone(norm, v0),
                    dict(bracket=br, norm_terms=tuple(norm),
                         raw_terms=tuple(t.shifted(p, c_exact) for t in norm)))

    return _emit("large", log_x0, sigma, 1, fit, label=label)


# ---------------------------------------------------------------------------
# vk pipeline (Vinogradov-Korobov region)
# ---------------------------------------------------------------------------


def vk_terms(log_x: float, sigma: float, br: Bracket, table: DensityTable) -> dict[str, ExtReal]:
    """The three error groups with the VK decay argument w = r(x)."""
    c1, c2 = table.coeffs(sigma)
    w = vk_decay_arg(log_x)
    p = 5.0 - 2.0 * sigma
    s2a = math.log(2.0 * c1) + (br.B2 * (5.0 - 8.0 * sigma) / 3.0) * w + p * math.log(br.B2 * w)
    s2b = math.log(2.0 * c2) - br.B2 * w + 2.0 * math.log(br.B2 * w)
    s3 = math.log(RVM_COEF) + RVM_LOG_POW * math.log(log_x) - br.B2 * w
    s1a = math.log(_CH) - log_x / 2.0
    q = br.B3**2 * w * w / (2.0 * math.pi) - _CH + _RECIP2
    s1b = math.log(q) - (1.0 - sigma) * log_x
    return {
        "s1": ExtReal.exp_of(s1a) + ExtReal.exp_of(s1b),
        "s2": ExtReal.exp_of(s2a) + ExtReal.exp_of(s2b),
        "s3": ExtReal.exp_of(s3),
    }


def _certify_vk_monotone(log_x0: float, sigma: float, br: Bracket) -> bool:
    """Closed-form decrease checks for the VK normalized sum.

    Uses that w'(log x) is decreasing for log x >= 3 (its log derivative
    is negative once loglog x > 0.92), so each derivative condition only
    needs checking at the anchor.
    """
    c = br.B2 * (8.0 * sigma - 5.0) / 3.0
    w0 = vk_decay_arg(log_x0)
    wp0 = vk_decay_arg_prime(log_x0)
    ll0 = math.log(log_x0)
    if math.log(ll0) <= 0.92:
        return False
    if c >= br.B2:                                   # density C2 term
        return False
    if c * wp0 >= 0.5:                               # x^(-1/2) term
        return False
    q2 = br.B3**2 / (2.0 * math.pi)
    q0 = -_CH + _RECIP2
    if q2 * w0 * w0 < 2.0 * abs(q0):                 # x^(sigma-1) term, quadratic positive
        return False
    slack = 1.0 / (1.0 - abs(q0) / (q2 * w0 * w0))
    if c * wp0 + 2.0 * wp0 / w0 * slack >= (1.0 - sigma):
        return False
    if (br.B2 - c) * w0 * (3.0 * ll0 - 1.0) / (5.0 * ll0) < RVM_LOG_POW:  # truncation term
        return False
    return True


def vk_bound(log_x0: float, sigma: float, table: DensityTable,
             label: str = "vk") -> BoundConstants:
    """Constants from the Vinogradov-Korobov region, anchored at exp(log_x0).

    The emitted envelope is A (log x)^B e^{-C r(x)} with B = 3(5-2 sigma)/5:
    the (loglog x)^-(5-2 sigma)/5 factor of r^(5-2 sigma) is frozen at its
    value at the anchor and folded into A, as is B2^(5-2 sigma).
    """

    def fit() -> _Fit:
        br = bracket_nu3(log_x0)
        p = 5.0 - 2.0 * sigma
        c_exact = br.B2 * (8.0 * sigma - 5.0) / 3.0
        w0 = vk_decay_arg(log_x0)
        groups = vk_terms(log_x0, sigma, br, table)
        total = groups["s1"] + groups["s2"] + groups["s3"]
        # normalize by (B2 w0)^p e^{-C w0}, then fold B2^p (loglog x0)^(-p/5) back in
        log_a_anchor = total.log_value - p * math.log(br.B2 * w0) + c_exact * w0
        log_a = log_a_anchor + p * math.log(br.B2) - (p / 5.0) * math.log(math.log(log_x0))
        return _Fit(log_a, 3.0 * p / 5.0, c_exact,
                    lambda: _certify_vk_monotone(log_x0, sigma, br), dict(bracket=br))

    return _emit("vk", log_x0, sigma, 1, fit, label=label, a_decimals=3)


# ---------------------------------------------------------------------------
# default parameter table and row computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowParams:
    label: str
    X: float          # claimed validity threshold (log x)
    anchor: float     # pipeline anchor (log x0)
    regime: Literal["medium", "large", "vk"]
    sigma: float
    K: int


DEFAULT_ROW_PARAMS: tuple[RowParams, ...] = (
    RowParams("log2", math.log(2.0), 2488.0, "medium", 0.985692, 4),
    RowParams("3000", 3000.0, 3000.0, "medium", 0.986688, 4),
    RowParams("4000", 4000.0, 4000.0, "medium", 0.988164, 4),
    RowParams("5000", 5000.0, 5000.0, "medium", 0.989238, 4),
    RowParams("6000", 6000.0, 6000.0, "medium", 0.990000, 4),
    RowParams("7000", 7000.0, 7000.0, "medium", 0.990718, 4),
    RowParams("8000", 8000.0, 8000.0, "medium", 0.991258, 4),
    RowParams("9000", 9000.0, 9000.0, "medium", 0.991714, 4),
    RowParams("10000", 10000.0, 10000.0, "medium", 0.992100, 5),
    RowParams("1e5", 1e5, 1e5, "large", 0.997312, 1),
    RowParams("1e6", 1e6, 1e6, "large", 0.998974, 1),
    RowParams("1e7", 1e7, 1e7, "large", 0.999662, 1),
    RowParams("1e8", 1e8, 1e8, "large", 0.999890, 1),
    RowParams("1e9", 1e9, 1e9, "large", 0.999964, 1),
    RowParams("1e10", 1e10, 1e10, "large", 0.999988, 1),
)

VK_DEFAULT_PARAMS = RowParams("vk", 2.8e10, 2.8e10, "vk", 0.9999932, 1)


def compute_row(params: RowParams, table: DensityTable) -> BoundConstants:
    if params.regime == "medium":
        return medium_bound(params.anchor, params.sigma, params.K, table,
                            claim_X=params.X, label=params.label)
    if params.regime == "large":
        return large_bound(params.anchor, params.sigma, table, label=params.label)
    return vk_bound(params.anchor, params.sigma, table, label=params.label)


def compute_default_rows(table: DensityTable) -> list[BoundConstants]:
    return [compute_row(p, table) for p in DEFAULT_ROW_PARAMS]


# ---------------------------------------------------------------------------
# parameter optimization
# ---------------------------------------------------------------------------


def optimize(log_x0: float, regime: Literal["medium", "large", "vk"],
             table: DensityTable, claim_X: float | None = None,
             label: str | None = None) -> BoundConstants:
    """Search sigma (and K for the medium regime) minimizing the bound at x0.

    The objective is the envelope value at the anchor.  sigma runs over
    the density grid, refined by ternary search inside the best cells
    (the off-grid interpolation rule applies there); K runs over 1..10.
    Ties break deterministically toward smaller sigma, then smaller K.
    Only parameter sets whose monotonicity certifies are emitted.
    """

    def objective(sigma: float, K: int) -> float:
        if regime == "medium":
            u0 = math.sqrt(log_x0 / R0)
            raw = [t for g in _medium_raw_terms(sigma, K, table).values() for t in g]
            return _log_sum(raw, u0)
        if regime == "large":
            br = bracket_nu2(log_x0)
            p = 5.0 - 2.0 * sigma
            c = br.B2 * (8.0 * sigma - 5.0) / 3.0
            norm = _large_norm_terms(sigma, br, table)
            v0 = math.sqrt(log_x0)
            return _log_sum(norm, v0) + p * math.log(v0) - c * v0
        br = bracket_nu3(log_x0)
        g = vk_terms(log_x0, sigma, br, table)
        return (g["s1"] + g["s2"] + g["s3"]).log_value

    grid = [s for s in table.sigma_grid if s < 1.0]
    k_range = range(1, 11) if regime == "medium" else [1]
    candidates: list[tuple[float, float, int]] = []
    for K in k_range:
        for s in grid:
            candidates.append((objective(s, K), s, K))
        for lo, hi in zip(table.sigma_grid[:-1], table.sigma_grid[1:]):
            a, b = lo + 1e-9, min(hi - 1e-9, 1.0 - 1e-9)
            while b - a > 1e-6:
                m1 = a + (b - a) / 3.0
                m2 = b - (b - a) / 3.0
                if objective(m1, K) <= objective(m2, K):
                    b = m2
                else:
                    a = m1
            s = 0.5 * (a + b)
            candidates.append((objective(s, K), s, K))

    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    for _obj, s, K in candidates:
        try:
            if regime == "medium":
                return medium_bound(log_x0, s, K, table, claim_X=claim_X, label=label)
            if regime == "large":
                return large_bound(log_x0, s, table, label=label)
            return vk_bound(log_x0, s, table, label=label or "vk")
        except CertificationError:
            continue
    raise CertificationError(f"no certifiable parameter set at log x0 = {log_x0:g}")


# ---------------------------------------------------------------------------
# regime comparison and small-x coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeCrossings:
    lower_log_x: float
    upper_log_x: float
    lower_bracket: tuple[float, float]
    upper_bracket: tuple[float, float]


def regime_compare(rows: Sequence[BoundConstants], vk_row: BoundConstants,
                   lower_bracket: tuple[float, float] = (40.0, 80.0),
                   upper_bracket: tuple[float, float] = (2e10, 3.4e10)) -> RegimeCrossings:
    """Crossing points of the best sqrt-decay envelope against the VK one.

    At each log x the sqrt side uses the best applicable row (largest
    threshold not exceeding log x).  Both crossings are bisected inside
    fixed brackets; a missing sign change raises.
    """

    def best_sqrt(log_x: float) -> float:
        vals = [r.log_rel_envelope(log_x, rounded=False) for r in rows if r.X <= log_x]
        if not vals:
            raise ValueError(f"no row applicable at log x = {log_x:g}")
        return min(vals)

    def gap(log_x: float) -> float:
        return best_sqrt(log_x) - vk_row.log_rel_envelope(log_x, rounded=False)

    def bisect(a: float, b: float) -> float:
        fa, fb = gap(a), gap(b)
        if fa * fb > 0.0:
            raise CertificationError(f"no envelope crossing in [{a:g}, {b:g}]")
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = gap(m)
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
            if (b - a) <= 1e-9 * max(1.0, abs(b)):
                break
        return 0.5 * (a + b)

    return RegimeCrossings(
        lower_log_x=bisect(*lower_bracket),
        upper_log_x=bisect(*upper_bracket),
        lower_bracket=lower_bracket,
        upper_bracket=upper_bracket,
    )


@dataclass(frozen=True)
class CoverageSegment:
    span: str
    status: Literal["pass", "margin", "assumed", "fail"]
    detail: str
    margin: float  # worst margin; absolute for sieve checks, log-domain otherwise


@dataclass(frozen=True)
class CoverageReport:
    segments: tuple[CoverageSegment, ...]

    @property
    def hard_pass(self) -> bool:
        return all(s.status != "fail" for s in self.segments)


def piecewise_coverage(row: BoundConstants, prime_table) -> CoverageReport:
    """Stitching record for the all-x claim of the first constant row.

    The claim below the pipeline anchor exp(2488) rests on four segments:
    a sieve check on [2, 59], the sqrt(x) log^2 x / (8 pi) bound up to
    exp(58.3), an external computational table up to exp(2000) (assumed,
    not checkable here), and the uniform 1.570e-12 relative bound up to
    exp(2488).  The last segment's margin is negative by a fraction of a
    percent; it is reported rather than silently absorbed.
    """
    from .primes import verify_pointwise  # local import to avoid a cycle

    segs: list[CoverageSegment] = []

    def bound_abs(x: float) -> float:
        return math.exp(row.log_rel_envelope(math.log(x))) * x

    rep = verify_pointwise(prime_table, bound_abs, "psi", 2.0, 59.0)
    segs.append(CoverageSegment(
        "[2, 59]", "pass" if rep.passed else "fail",
        f"sieve check at {rep.n_points} jump points, worst margin {rep.worst_margin:.4g}",
        rep.worst_margin))

    lo, hi = math.log(59.0), 58.336
    grid = np.linspace(lo, hi, 10_000)
    worst = math.inf
    for log_x in grid:
        have = row.log_rel_envelope(float(log_x))
        need = 2.0 * math.log(log_x) - math.log(8.0 * math.pi) - log_x / 2.0
        worst = min(worst, have - need)
    segs.append(CoverageSegment(
        "(59, exp(58.336)]", "pass" if worst >= 0.0 else "fail",
        f"envelope vs sqrt(x) log^2 x/(8 pi) on a 10^4 log grid, worst log-margin {worst:.4g}",
        worst))

    segs.append(CoverageSegment(
        "(exp(58.336), exp(2000)]", "assumed",
        "rests on an external computational verification, out of scope here",
        math.nan))

    # envelope decreasing past its maximizer, so the segment minimum is at 2488
    uniform = math.log(1.570e-12)
    m_rounded = row.log_rel_envelope(2488.0, rounded=True) - uniform
    m_unrounded = row.log_rel_envelope(2488.0, rounded=False) - uniform
    status = "pass" if m_rounded >= 0.0 else "margin"
    segs.append(CoverageSegment(
        "(exp(2000), exp(2488)]", status,
        f"uniform 1.570e-12 vs envelope at 2488: log-margin {m_rounded:.4g} rounded, "
        f"{m_unrounded:.4g} unrounded (deficit {-(math.expm1(m_unrounded)):.2%})",
        m_rounded))

    return CoverageReport(segments=tuple(segs))
