import math

import numpy as np
import pytest

from pntbounds.extnum import EXT_ZERO, ExtReal


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


@pytest.mark.parametrize("v", [math.inf, -math.inf, 0.0, -7.25, 1e308])
def test_add_equal_operands_is_numpys_logaddexp(v):
    # two equal infinite logs sum to that infinity, not to NaN; finite pairs keep their bits
    got = (ExtReal.exp_of(v) + ExtReal.exp_of(v)).log_value
    assert got.hex() == float(np.logaddexp(v, v)).hex()


def test_mul_adds_log_values_exactly():
    assert (ExtReal.exp_of(-20000.0) * ExtReal.exp_of(-30000.0)).log_value == -50000.0


def test_extreal_is_one_log_compared_for_equality_only():
    assert ExtReal.__slots__ == ("log_value",)
    assert not {"__lt__", "__le__", "__gt__", "__ge__"} & set(vars(ExtReal))
    with pytest.raises(TypeError):
        EXT_ZERO < ExtReal(1.0)
    assert EXT_ZERO.log_value == -math.inf and ExtReal.from_real(0.0) == EXT_ZERO
    assert EXT_ZERO.to_real() == 0.0 and EXT_ZERO.log10_parts() == (0.0, 0)
    vals = [EXT_ZERO, ExtReal(-math.inf), ExtReal.exp_of(-1e6),
            ExtReal.exp_of(-47335.0 * math.log(10.0)), ExtReal.exp_of(0.0), ExtReal.exp_of(500.0)]
    for a in vals:
        for b in vals:
            assert (a == b) is (a.log_value == b.log_value)
            assert (a != b) is (not a == b)
            assert a != b or hash(a) == hash(b)


@pytest.mark.parametrize("v", [ExtReal(1.0), EXT_ZERO, ExtReal(-3.0)])
def test_never_equals_a_tuple(v):
    as_tuple = (v.log_value,)
    assert v != as_tuple and as_tuple != v
    assert not v == as_tuple and not as_tuple == v
    with pytest.raises(TypeError):
        3 * v


@pytest.mark.parametrize("other", [2.0, 0, None, (1.0, False)])
def test_ordering_against_a_non_extreal_is_a_type_error(other):
    # ExtReal defines no ordering, so Python raises TypeError
    for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
        for a, b in ((ExtReal(1.0), other), (other, ExtReal(1.0)), (EXT_ZERO, other)):
            with pytest.raises(TypeError):
                compare(a, b)


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
    # NaN is refused too: ``nan < 0.0`` is false, so it once came back as ExtReal(nan)
    for v in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ExtReal.from_real(v)


def test_overflow_saturates_to_sentinel():
    inf = ExtReal.exp_of(math.inf)
    assert math.isinf(inf.log_value) and inf.log_value > 0
    assert math.isinf((inf * ExtReal.from_real(2.0)).log_value)
    assert (inf * EXT_ZERO).log_value == (EXT_ZERO * inf).log_value == -math.inf  # not -inf + inf = NaN


def test_log10_parts():
    m, e = ExtReal.from_real(345.0).log10_parts()
    assert e == 2
    assert m == pytest.approx(3.45, rel=1e-12)
    m, e = ExtReal.exp_of(-47335.0 * math.log(10.0) + math.log(3.45)).log10_parts()
    assert e == -47335
    assert m == pytest.approx(3.45, rel=1e-9)


def test_log10_parts_refuses_a_mantissa_that_means_nothing():
    # past |log_value| = 2^43 neighbouring doubles lie 2^-9 > 10^-3 apart
    edge = 2.0**43
    for ok in (-math.nextafter(edge, 0.0), math.nextafter(edge, 0.0), -181860.0):
        ExtReal.exp_of(ok).log10_parts()
    for bad in (-edge, edge, -1e300, math.inf, math.nan):
        v = ExtReal.exp_of(bad)
        with pytest.raises(ValueError, match="significant digits"):
            v.log10_parts()
        assert repr(v) == f"ExtReal(exp({bad!r}))"
