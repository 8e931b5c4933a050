import math

import numpy as np
import pytest

from pntbounds.zfr import (
    C_VK,
    ConsistencyError,
    D_FORD,
    R0,
    R1_FORD,
    envelope_crossovers,
    limiting_constants,
    nu1,
    nu2,
    nu3,
    _bisect,
)


def ford_R(log_t):
    """Ford's unsimplified denominator R(t), valid for t >= 5.45e8."""
    j = log_t / 6.0 + math.log(log_t) + math.log(0.77)
    return (j + 0.685 + 0.155 * math.log(log_t)) / (log_t * (0.04962 - 0.0196 / (j + 1.15)))


def test_nu1_at_log_t_one():
    assert nu1(1.0) == pytest.approx(1.0 / R0, rel=1e-15)
    assert 1.0 / R0 == pytest.approx(0.179642, abs=1e-6)


def test_nu1_direct_eval():
    assert nu1(91.2) == pytest.approx(1.0 / (R0 * 91.2), rel=1e-15)
    assert nu1(91.2) == pytest.approx(1.9697575e-3, rel=1e-6)


def test_nu1_strictly_decreasing():
    ys = np.geomspace(1.0, 1e5, 200)
    vals = [nu1(float(y)) for y in ys]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_nu2_direct_eval():
    got = nu2(100.0)
    assert got == pytest.approx((1 - 8.02 * math.log(100) / 100) / 335.9, rel=1e-12)
    assert got == pytest.approx(1.87754e-3, rel=1e-5)


def test_nu2_below_unsimplified_region():
    # input check on R1 = 3.359: the simplified width never exceeds the
    # unsimplified Ford one where both hold (R(t) needs t >= 5.45e8)
    assert 91.2853 > math.log(5.45e8)
    for y in np.geomspace(91.2853, 1e5, 1000):
        y = float(y)
        assert nu2(y) <= 1.0 / (ford_R(y) * y) * (1 + 1e-12)


def test_nu3_at_log_log_one():
    assert nu3(math.e) == pytest.approx(1.0 / (C_VK * math.e ** (2.0 / 3.0)), rel=1e-14)


def test_nu3_direct_eval():
    y = 54563.1
    want = 1.0 / (C_VK * y ** (2 / 3) * math.log(y) ** (1 / 3))
    assert nu3(y) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(5.45e-6, rel=1e-2)


def test_nu3_strictly_decreasing():
    ys = np.geomspace(math.e, 1e6, 300)
    vals = [nu3(float(y)) for y in ys]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ValueError):
        nu1(0.5)
    with pytest.raises(ValueError):
        nu2(1.0)
    with pytest.raises(ValueError):
        nu3(1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("nu", [nu1, nu2, nu3])
def test_widths_refuse_non_finite_log_t(nu, value):
    # a NaN once passed the `log_t < lo` check and came back NaN, and nu3(inf) gave 0.0
    with pytest.raises(ValueError, match=f"{nu.__name__} requires t >= "):
        nu(value)


def test_crossover_roots_land_in_expected_windows():
    c12, c23 = envelope_crossovers()
    assert c12.pair == "nu1/nu2"
    assert 91.2 < c12.root_log_t < 91.3
    assert c23.pair == "nu2/nu3"
    assert 54563.0 < c23.root_log_t < 54563.1


def test_dominance_ordering_on_log_grid():
    c12, c23 = envelope_crossovers(tol=1e-6)
    for y in np.geomspace(math.log(3.0) + 0.1, 1e5, 1000):
        y = float(y)
        m = max(nu1(y), nu2(y), nu3(y))
        if y < c12.root_log_t - 1e-3:
            assert m == nu1(y)
        elif c12.root_log_t + 1e-3 < y < c23.root_log_t - 1e-3:
            assert m == nu2(y)
        elif y > c23.root_log_t + 1e-3:
            assert m == nu3(y)


def test_max_at_log_t_fifty_is_classical():
    assert max(nu1(50.0), nu2(50.0), nu3(50.0)) == nu1(50.0)


def test_positive_above_riemann_height():
    for y in np.geomspace(28.73, 1e5, 500):
        assert nu1(float(y)) > 0 and nu2(float(y)) > 0 and nu3(float(y)) > 0


def test_bisect_requires_sign_change():
    with pytest.raises(ConsistencyError):
        _bisect(lambda y: 1.0, 1.0, 2.0, tol=1e-6)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
def test_bisect_refuses_bad_tol(tol):
    # a NaN or inf tol would return the bracket midpoints 125 and 55000 unrefined
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        envelope_crossovers(tol=tol)


def test_bisect_stops_at_float_resolution():
    # a tol below the spacing of floats near the root ends at adjacent floats
    root = _bisect(lambda y: y * y - 2.0, 1.0, 2.0, tol=1e-30)
    assert root == pytest.approx(math.sqrt(2.0), abs=4e-16)


def test_limiting_constants():
    lims = limiting_constants()
    assert lims["C1_limit"] == pytest.approx(2.0 / math.sqrt(R0), rel=1e-15)
    assert lims["C1_limit"] == pytest.approx(0.84768, abs=1e-5)
    want = (5.0 / (3.0 * C_VK**3)) ** 0.2 * (1.5**0.4 + (2.0 / 3.0) ** 0.6)
    assert lims["C2_limit"] == pytest.approx(want, rel=1e-15)
    assert lims["C2_limit"] == pytest.approx(0.190842, abs=1e-6)


def test_emitted_rates_stay_below_ceilings(default_rows, vk_row):
    c1_classical = limiting_constants()["C1_limit"]
    c1_ford = limiting_constants(R=R1_FORD)["C1_limit"]
    c2_vk = limiting_constants()["C2_limit"]
    for row in default_rows:
        ceiling = c1_classical if row.regime == "medium" else c1_ford
        assert row.C_unrounded < ceiling
    assert vk_row.C_unrounded < c2_vk


def test_constants_are_as_configured():
    assert (R0, R1_FORD, D_FORD, C_VK) == (5.5666305, 3.359, 8.02, 57.54)
