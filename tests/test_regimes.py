import math

import numpy as np
import pytest

from pntbounds.regimes import (
    abs_envelope,
    bracket_nu2,
    bracket_nu3,
    decay_arg,
    decay_arg_prime,
    log_envelope,
    verify_unimodal,
    vk_decay_arg,
    vk_decay_arg_prime,
    vk_decay_arg_prime_fall_margin,
)
from pntbounds.zdensity import LOG_RIEMANN_HEIGHT
from pntbounds.zfr import D_FORD, R1_FORD, nu2, nu3

# printed 7-decimal reference rows: log_x0 -> (B0, B2, B3)
REFERENCE_BRACKETS = {
    1e5: (0.3253505, 0.8721857, 1.4606625),
    1e6: (0.4923764, 1.0346912, 1.1502603),
    1e7: (0.5271511, 1.0716004, 1.1103741),
    1e8: (0.5390163, 1.0842539, 1.0979426),
    1e9: (0.5432643, 1.0887652, 1.0936237),
    1e10: (0.5447895, 1.0903755, 1.0920896),
}


def test_bracket_nu2_reproduces_reference_rows():
    for log_x0, (b0, b2, b3) in REFERENCE_BRACKETS.items():
        br = bracket_nu2(log_x0)
        assert br.B0 == pytest.approx(b0, abs=1e-6)
        assert br.B2 == pytest.approx(b2, abs=1e-6)
        assert br.B3 == pytest.approx(b3, abs=1e-6)
        assert br.B1 == pytest.approx(R1_FORD**-0.5, rel=1e-15)


def test_bracket_nu2_fixed_point_equation():
    for log_x0 in (1e5, 1e6, 1e10):
        br = bracket_nu2(log_x0)
        u = math.sqrt(log_x0)
        c = D_FORD * (2.0 * math.log(br.B0 * u) - 1.0) / (br.B0 * u)
        assert br.B0**2 == pytest.approx((1.0 - c) / R1_FORD, abs=1e-9)
        assert br.B0 <= br.B1 and br.B2 <= br.B3


def test_bracket_nu2_hypothesis_guard():
    with pytest.raises(ValueError):
        bracket_nu2(5e4)


def test_bracket_nu3_constants():
    br = bracket_nu3()
    assert br.B0 == pytest.approx(0.0763366, abs=1e-6)
    assert br.B1 == 0.08228  # beta construction, rounded up at 5 decimals
    assert br.B2 == pytest.approx(0.18525, abs=5e-5)
    assert br.B3 == pytest.approx(0.20680, abs=5e-5)
    assert br.B0 <= br.B1 and br.B2 <= br.B3


def test_bracket_nu3_chain_constant():
    # kappa = (log B0 + (3/5) L - (1/5) log L) / L at L = loglog x0
    br = bracket_nu3()
    big_l = math.log(2.8e10)
    kappa = (math.log(br.B0) + 0.6 * big_l - 0.2 * math.log(big_l)) / big_l
    assert kappa == pytest.approx(0.4666, abs=1e-4)


def test_bracket_nu3_hypothesis_guard():
    with pytest.raises(ValueError):
        bracket_nu3(1e9)


@pytest.mark.parametrize("bracket", [bracket_nu2, bracket_nu3])
@pytest.mark.parametrize("log_x0", [math.nan, math.inf, -math.inf])
def test_brackets_refuse_a_non_finite_anchor(bracket, log_x0):
    # nu3 once returned B3 = NaN for these; nu2 ran 200 iterations into a ConvergenceError
    with pytest.raises(ValueError, match="requires log x0 >="):
        bracket(log_x0)


def test_unimodal_nu2_at_1e6():
    br = bracket_nu2(1e6)
    rep = verify_unimodal(br, 1e6)
    assert rep.passed
    # the integrand dips just above the verified height before its one peak
    assert rep.pattern == "-+-"
    assert 492.4 <= rep.turning_log_t <= 545.7


def test_unimodal_nu3_at_default_anchor():
    br = bracket_nu3()
    rep = verify_unimodal(br, 2.8e10)
    assert rep.passed
    assert rep.pattern == "+-"  # no dip: nu3 is already shrinking at the height
    assert rep.bracket_lo <= rep.turning_log_t <= rep.bracket_hi


def test_unimodal_rejects_log_x_below_hypothesis():
    br = bracket_nu2(1e6)
    with pytest.raises(ValueError):
        verify_unimodal(br, 1e5)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("log_x", NON_FINITE)
def test_unimodal_refuses_non_finite_log_x(log_x):
    # NaN and inf once returned a report full of NaNs
    with pytest.raises(ValueError, match="below the bracket hypothesis"):
        verify_unimodal(bracket_nu2(1e6), log_x)


@pytest.mark.parametrize("log_x0,log_x", [(1e5, 1e5), (1e6, 3e6), (1e10, 1e10)])
def test_minimum_bracketing_nu2(log_x0, log_x):
    # from where the integrand starts rising, log(t x^nu2(t)) stays above
    # B2 u and its interior minimum sits below B3 u
    br = bracket_nu2(log_x0)
    rep = verify_unimodal(br, log_x)
    u = math.sqrt(log_x)
    grid = np.linspace(rep.rise_start_log_t, 2.0 * br.B1 * u, 4000)
    h = np.array([y + nu2(float(y)) * log_x for y in grid])
    tol = float(np.max(np.diff(grid))) * 2.0
    assert np.all(h >= br.B2 * u - 1e-9)
    assert float(np.min(h)) <= br.B3 * u + tol


def test_minimum_bracketing_nu3():
    br = bracket_nu3()
    log_x = 2.8e10
    w = vk_decay_arg(log_x)
    grid = np.linspace(LOG_RIEMANN_HEIGHT, 2.0 * br.B1 * w, 4000)
    h = np.array([y + nu3(float(y)) * log_x for y in grid])
    tol = float(np.max(np.diff(grid))) * 2.0
    assert np.all(h >= br.B2 * w - 1e-9)
    assert float(np.min(h)) <= br.B3 * w + tol


# -- the envelope shape A (log x)^B e^{-C u(log x)} ---------------------------


def test_decay_args_are_sqrt_log_and_vk_r():
    for log_x in (2.0, 58.0, 2488.0, 2.8e10):
        assert decay_arg("sqrt_log", log_x) == math.sqrt(log_x)
        assert decay_arg("vk_r", log_x) == log_x**0.6 / math.log(log_x) ** 0.2


@pytest.mark.parametrize("kind", ["sqrt_log", "vk_r"])
def test_decay_arg_prime_is_the_derivative(kind):
    for log_x in (5.0, 58.0, 2488.0, 1e5, 2.8e10):
        h = log_x * 1e-6
        fd = (decay_arg(kind, log_x + h) - decay_arg(kind, log_x - h)) / (2.0 * h)
        assert decay_arg_prime(kind, log_x) == pytest.approx(fd, rel=1e-6)
    # L u'(L) increases, so an envelope falling at X falls beyond it
    grid = np.geomspace(3.1, 1e300, 4000)
    assert np.all(np.diff([L * decay_arg_prime(kind, float(L)) for L in grid]) > 0.0)


@pytest.mark.parametrize("kind", ["sqrt_log", "vk_r"])
def test_log_and_abs_envelope(kind):
    a, b, c = 9.4, 1.515, 0.8274
    for x in (3.0, 59.0, 2657.0):
        lx = math.log(x)
        want = a * x * lx**b * math.exp(-c * decay_arg(kind, lx))
        assert log_envelope(kind, math.log(a), b, c, lx) == pytest.approx(math.log(want / x), rel=1e-14)
        assert abs_envelope(kind, a, b, c)(x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("slot", range(3))
def test_abs_envelope_refuses_non_finite_constants(slot, value):
    # a NaN A once built an envelope that returned NaN at every x
    abc = [9.4, 1.515, 0.8274]
    abc[slot] = value
    with pytest.raises(ValueError, match="abs_envelope needs a finite A > 0"):
        abs_envelope("sqrt_log", *abc)


@pytest.mark.parametrize("log_x", [*NON_FINITE, 1.0, 0.5, 0.0, -1.0])
@pytest.mark.parametrize("fn", [vk_decay_arg, vk_decay_arg_prime])
def test_vk_decay_args_refuse_log_x_outside_their_domain(fn, log_x):
    # log x = 0.5 once gave the complex 0.574-0.417j and log x = 1 a ZeroDivisionError
    with pytest.raises(ValueError, match="requires 1 < log x < inf"):
        fn(log_x)


def test_vk_abs_envelope_refuses_x_below_e():
    # at x = 2 the envelope once raised TypeError on r's complex value
    with pytest.raises(ValueError, match="requires 1 < log x < inf"):
        abs_envelope("vk_r", 1.0, 1.0, 1.0)(2.0)


@pytest.mark.parametrize("call", [
    lambda kind: decay_arg(kind, 100.0),
    lambda kind: decay_arg_prime(kind, 100.0),
    lambda kind: log_envelope(kind, 0.0, 1.0, 1.0, 100.0),
    lambda kind: abs_envelope(kind, 1.0, 1.0, 1.0),  # refused when built, before any call
])
@pytest.mark.parametrize("kind", ["sqrt", "typo", "", "SQRT_LOG"])
def test_unknown_decay_kinds_are_refused(call, kind):
    # an unknown kind once fell through to the VK branch: decay_arg("sqrt", 100) gave 11.68
    with pytest.raises(ValueError, match=f"unknown decay kind {kind!r}"):
        call(kind)


def test_vk_prime_premise_sits_above_the_exact_root():
    # w' = r'(L), L = log x: its log derivative is negative exactly when
    # y = log L > (sqrt(145) - 1)/12, the root of 6y^2 + y - 6
    mpmath = pytest.importorskip("mpmath")

    def log_r_prime(L):
        ll = mpmath.log(L)
        return mpmath.log((3 * ll - 1) / (5 * L ** mpmath.mpf("0.4") * ll ** mpmath.mpf("1.2")))

    def log_derivative(y):  # d/dL ln r'(L) at L = e^y
        return mpmath.diff(log_r_prime, mpmath.exp(y))

    with mpmath.workdps(40):
        root = (mpmath.sqrt(145) - 1) / 12
        assert abs(6 * root**2 + root - 6) < mpmath.mpf(10) ** -35
        assert float(root) == pytest.approx(0.920133, abs=1e-6)
        assert log_derivative(root - mpmath.mpf("1e-4")) > 0
        assert log_derivative(root + mpmath.mpf("1e-4")) < 0
        assert log_derivative(mpmath.mpf("0.92")) > 0  # a bar at 0.92 would be unsound
    assert vk_decay_arg_prime_fall_margin(math.exp(0.92)) < 0.0
    assert vk_decay_arg_prime_fall_margin(math.exp(0.9201)) < 0.0
    assert vk_decay_arg_prime_fall_margin(math.exp(0.9203)) > 0.0
    assert math.isnan(vk_decay_arg_prime_fall_margin(math.nan))  # and a NaN margin fails every premise
    # every caller sits far above the bar: the h' check at log x = 58, VK anchors from 2.8e10
    assert vk_decay_arg_prime_fall_margin(58.0) > 0.0 and vk_decay_arg_prime_fall_margin(2.8e10) > 0.0
