import math

import numpy as np
import pytest

from pntbounds.extnum import EXT_ONE, EXT_ZERO, ExtReal


def test_add_zero_identity():
    x = ExtReal.exp_of(-12345.6)
    assert EXT_ZERO + x == x
    assert x + EXT_ZERO == x


def test_add_small_integers():
    s = ExtReal.from_real(2.0) + ExtReal.from_real(3.0)
    assert s.to_real() == pytest.approx(5.0, abs=1e-14)


def test_add_log_sum_exp_far_below_underflow():
    s = ExtReal.exp_of(-100000.0) + ExtReal.exp_of(-100001.0)
    assert s.log_value == pytest.approx(-100000.0 + math.log1p(math.exp(-1.0)), abs=1e-12)


def test_mul_adds_log_values_exactly():
    assert (ExtReal.exp_of(-20000.0) * ExtReal.exp_of(-30000.0)).log_value == -50000.0


def test_pow_scales_log_exactly():
    assert ExtReal.from_real(math.e).pow(2488.0).log_value == pytest.approx(2488.0, rel=1e-15)
    assert ExtReal.exp_of(-7.5) ** 4.0 == ExtReal.exp_of(-30.0)


def test_zero_is_minimum_and_ordering_total():
    vals = [EXT_ZERO, ExtReal.exp_of(-1e6), ExtReal.exp_of(-47335.0 * math.log(10.0)),
            EXT_ONE, ExtReal.exp_of(500.0)]
    assert sorted(vals[::-1]) == vals
    assert sorted(vals, reverse=True)[-1] == EXT_ZERO
    for a in vals:
        for b in vals:
            assert (a < b) + (a == b) + (a > b) == 1


def test_round_trip_identity_on_positives():
    rng = np.random.default_rng(7)
    for _ in range(500):
        v = float(np.exp(rng.uniform(-700, 700)))
        rt = ExtReal.from_real(v).to_real()
        assert abs(rt - v) <= math.ulp(v)


def test_add_associative_within_4_ulp():
    rng = np.random.default_rng(11)
    for _ in range(500):
        logs = rng.uniform(-1e6, 1e3, size=3)
        a, b, c = (ExtReal.exp_of(float(l)) for l in logs)
        left = (a + b) + c
        right = a + (b + c)
        tol = 4 * math.ulp(max(abs(left.log_value), 1.0))
        assert abs(left.log_value - right.log_value) <= tol


def test_mul_commutes_and_is_exact():
    rng = np.random.default_rng(13)
    for _ in range(200):
        la, lb = rng.uniform(-1e6, 1e3, size=2)
        a, b = ExtReal.exp_of(float(la)), ExtReal.exp_of(float(lb))
        assert (a * b).log_value == (b * a).log_value == float(la) + float(lb)


def test_from_real_rejects_negative():
    with pytest.raises(ValueError):
        ExtReal.from_real(-1.0)


def test_pow_of_zero():
    assert EXT_ZERO.pow(3.0) == EXT_ZERO
    assert EXT_ZERO.pow(0.0) == EXT_ONE
    with pytest.raises(ValueError):
        EXT_ZERO.pow(-1.0)


def test_overflow_saturates_to_sentinel():
    inf = ExtReal.exp_of(math.inf)
    assert inf.is_infinite
    assert (inf * ExtReal.from_real(2.0)).is_infinite
    assert not EXT_ONE.is_infinite and not EXT_ZERO.is_infinite


def test_division():
    q = ExtReal.exp_of(-100.0) / ExtReal.exp_of(-300.0)
    assert q.log_value == 200.0
    with pytest.raises(ZeroDivisionError):
        EXT_ONE / EXT_ZERO


def test_log10_parts():
    m, e = ExtReal.from_real(345.0).log10_parts()
    assert e == 2
    assert m == pytest.approx(3.45, rel=1e-12)
    m, e = ExtReal.exp_of(-47335.0 * math.log(10.0) + math.log(3.45)).log10_parts()
    assert e == -47335
    assert m == pytest.approx(3.45, rel=1e-9)
