"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; a failing assertion carries
the measured values.  Frozen expected values are the published table
entries; recomputed quantities must land inside the stated windows.
"""

import math
import time

import numpy as np
import pytest

from pntbounds import derived, engine
from pntbounds.engine import DEFAULT_ROW_PARAMS, compute_row
from pntbounds.extnum import ExtReal
from pntbounds.primes import build_sieve, integral_I1, verify_pointwise
from pntbounds.regimes import bracket_nu2, bracket_nu3, verify_unimodal
from pntbounds.zfr import R0, envelope_crossovers

LN10 = math.log(10.0)

# published psi-table rows: label -> (sigma, K, A, B, C, eps0 mantissa, eps0 exp10)
PUBLISHED = {
    "log2": (0.985692, 4, 9.39, 1.515, 0.8274, 23.17, 0),
    "3000": (0.986688, 4, 8.86, 1.514, 0.8288, 3.14, -14),
    "4000": (0.988164, 4, 8.15, 1.512, 0.8309, 3.43, -17),
    "5000": (0.989238, 4, 7.65, 1.511, 0.8324, 8.14, -20),
    "6000": (0.990000, 4, 7.22, 1.510, 0.8335, 3.35, -22),
    "7000": (0.990718, 4, 6.99, 1.510, 0.8345, 2.14, -24),
    "8000": (0.991258, 4, 6.78, 1.509, 0.8353, 1.89, -26),
    "9000": (0.991714, 4, 6.58, 1.509, 0.8359, 2.22, -28),
    "10000": (0.992100, 5, 6.72, 1.508, 0.8369, 3.27, -30),
    "1e5": (0.997312, 1, 23.13, 1.503, 0.8659, 9.12, -111),
    "1e6": (0.998974, 1, 38.57, 1.502, 1.0318, 3.12, -438),
    "1e7": (0.999662, 1, 42.90, 1.501, 1.0706, 6.62, -1459),
    "1e8": (0.999890, 1, 44.41, 1.501, 1.0839, 2.18, -4694),
    "1e9": (0.999964, 1, 44.97, 1.501, 1.0886, 5.86, -14936),
    "1e10": (0.999988, 1, 45.17, 1.501, 1.0903, 3.45, -47335),
}

PUBLISHED_BRACKETS = {
    1e5: (0.3253505, 0.8721857, 1.4606625),
    1e6: (0.4923764, 1.0346912, 1.1502603),
    1e7: (0.5271511, 1.0716004, 1.1103741),
    1e8: (0.5390163, 1.0842539, 1.0979426),
    1e9: (0.5432643, 1.0887652, 1.0936237),
    1e10: (0.5447895, 1.0903755, 1.0920896),
}


def _ln_eps(mantissa: float, exp10: int) -> float:
    return math.log(mantissa) + exp10 * LN10


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_medium_rows(density_table):
    for p in DEFAULT_ROW_PARAMS:
        if p.regime != "medium" or p.label == "log2":
            continue
        sigma, k, a_pub, _b, c_pub, m, e = PUBLISHED[p.label]
        t0 = time.perf_counter()
        row = compute_row(p, density_table)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"row {p.label} took {elapsed:.3f}s"
        assert row.B_unrounded == (5.0 - 2.0 * sigma) / 2.0, "B is a closed form"
        assert abs(row.C_unrounded - c_pub) < 1e-4, \
            f"row {p.label}: C {row.C_unrounded:.6f} vs {c_pub}"
        assert a_pub - 0.05 <= row.A_unrounded <= a_pub, \
            f"row {p.label}: A' {row.A_unrounded:.5f} outside [{a_pub - 0.05}, {a_pub}]"
        ln_pub = _ln_eps(m, e)
        assert abs(row.eps0.log_value - ln_pub) <= 0.02 * abs(ln_pub), \
            f"row {p.label}: eps0 off in log domain"
        assert k == row.K
    _report(1, "all 8 medium rows reproduce (B exact, C to 1e-4, A in window, eps0 to 2% log)")


def test_criterion_2_large_rows(density_table):
    for p in DEFAULT_ROW_PARAMS:
        if p.regime != "large":
            continue
        sigma, _k, a_pub, _b, c_pub, m, e = PUBLISHED[p.label]
        t0 = time.perf_counter()
        row = compute_row(p, density_table)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"row {p.label} took {elapsed:.3f}s"
        want_c = row.bracket.B2 * (8.0 * sigma - 5.0) / 3.0
        assert row.C_unrounded == pytest.approx(want_c, rel=1e-14)
        assert abs(row.C_unrounded - c_pub) < 1e-4, \
            f"row {p.label}: C {row.C_unrounded:.6f} vs {c_pub}"
        assert a_pub * 0.995 <= row.A_unrounded <= a_pub, \
            f"row {p.label}: A {row.A_unrounded:.5f} outside [{a_pub * 0.995:.4f}, {a_pub}]"
        ln_pub = _ln_eps(m, e)
        assert abs(row.eps0.log_value - ln_pub) <= 0.02 * abs(ln_pub), \
            f"row {p.label}: eps0 off in log domain"
    _report(2, "all 6 large rows reproduce (C to 1e-4, A within 0.5%, eps0 to 2% log)")


def test_criterion_3_bracket_table():
    t0 = time.perf_counter()
    for log_x0, (b0, b2, b3) in PUBLISHED_BRACKETS.items():
        br = bracket_nu2(log_x0)
        assert abs(br.B0 - b0) < 1e-6, f"B0 at {log_x0:g}"
        assert abs(br.B2 - b2) < 1e-6, f"B2 at {log_x0:g}"
        assert abs(br.B3 - b3) < 1e-6, f"B3 at {log_x0:g}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"bracket table took {elapsed:.3f}s"
    _report(3, f"XX")


def test_criterion_4_vk_constants(vk_row):
    br = vk_row.bracket
    assert abs(br.B2 - 0.18525) < 5e-5, f"B2 = {br.B2:.7f}"
    assert abs(vk_row.C_unrounded - 0.1853) <= 1e-4, f"C = {vk_row.C_unrounded:.7f}"
    assert vk_row.B_unrounded <= 1.801
    print(f"vk row: B2 = {br.B2:.7f}, C = {vk_row.C_unrounded:.7f}, "
          f"exponent = {vk_row.B_unrounded:.7f}, A = {vk_row.A_unrounded:.6f}")
    assert vk_row.A_unrounded <= 0.026, (
        f"recomputed leading constant {vk_row.A_unrounded:.6f} exceeds the published 0.026: "
        "the pipeline floor is 2*C1(sigma->1) = 34.836 at the anchor, which folds to "
        "34.836 * B2^(5-2s) * (loglog x0)^(-(5-2s)/5) = 0.0329; reaching 0.026 would need "
        "C1 = 13.78, below every value in the bundled zero-density table")
    _report(4, "vk constants reproduce (C, B2, exponent, A)")


def test_criterion_5_first_row_epsilon(default_rows):
    first = default_rows[0]
    peak = (2.0 * first.B_unrounded / first.C_unrounded) ** 2
    assert first.eps0_max_at == pytest.approx(peak, rel=1e-12)
    assert peak == pytest.approx(13.41, abs=0.05)
    value = first.eps0.to_real()
    assert 23.0 <= value <= 23.3, f"eps0 = {value}"
    _report(5, f"first-row envelope peaks at log x = {peak:.3f} with value {value:.4f}")


def test_criterion_6_small_range_suite(density_table):
    t0 = time.perf_counter()
    table = build_sieve(10_000_000)

    def psi_bound(x):
        lx = math.log(x)
        return 9.39 * x * lx**1.515 * math.exp(-0.8274 * math.sqrt(lx))

    def theta_bound(x):
        lx = math.log(x)
        return 9.40 * x * lx**1.515 * math.exp(-0.8274 * math.sqrt(lx))

    def pi_bound(x):
        lx = math.log(x)
        return 9.59 * x * lx**0.515 * math.exp(-0.8274 * math.sqrt(lx))

    reports = [
        verify_pointwise(table, psi_bound, "psi", 2.0, 59.0),
        verify_pointwise(table, theta_bound, "theta", 2.0, 599.0),
        verify_pointwise(table, pi_bound, "pi", 2.0, 2657.0),
    ]
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.passed, f"{rep.quantity} fails at x = {rep.worst_x}"
        assert rep.n_points > 0
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    _report(6, f"psi/theta/pi envelopes hold at every jump point ({elapsed:.2f}s with a 1e7 sieve)")


def test_criterion_7_crossovers(default_rows, vk_row):
    c12, c23 = envelope_crossovers()
    assert 91.2 < c12.root_log_t < 91.3, f"nu1/nu2 root {c12.root_log_t}"
    assert 54563.0 < c23.root_log_t < 54563.1, f"nu2/nu3 root {c23.root_log_t}"
    rc = engine.regime_compare(default_rows, vk_row)
    assert 40.0 < rc.lower_log_x < 80.0
    assert 2e10 < rc.upper_log_x < 3.4e10
    _report(7, f"region roots at {c12.root_log_t:.4f} and {c23.root_log_t:.4f}; "
               f"envelope crossings at {rc.lower_log_x:.2f} and {rc.upper_log_x:.3e}")


def test_criterion_8_derived_constants(default_rows, sieve10m):
    for row in default_rows:
        tc = derived.theta_constants(row)
        assert tc.A1 == pytest.approx(row.A + 0.01, rel=1e-15)
    pc = derived.pi_constants_classical()
    assert 9.55 <= pc.A2_unrounded <= 9.59, f"classical A2 = {pc.A2_unrounded}"
    pv = derived.pi_constants_vk()
    assert 0.0270 <= pv.A2_unrounded <= 0.0280, f"vk A2 = {pv.A2_unrounded}"
    i1 = integral_I1(sieve10m)
    assert 0.0 < i1 <= 5.43, f"I1 = {i1}"
    assert pc.i2_recomputed <= 7.87e12
    _report(8, f"theta bumps certify on all rows; pi constants {pc.A2_unrounded:.4f} / "
               f"{pv.A2_unrounded:.5f}; I1 = {i1:.4f}; I2 = {pc.i2_recomputed:.3e}")


def test_criterion_9_property_suites(default_rows, vk_row, density_table):
    # envelope dominance at 1e3 random points per row
    rng = np.random.default_rng(2026)
    for row in default_rows:
        u0 = math.sqrt(row.anchor / R0) if row.regime == "medium" else math.sqrt(row.anchor)
        us = u0 * (1.0 + 3.0 * rng.random(1000))
        total = np.logaddexp.reduce([t.log_eval(us) for t in row.raw_terms], axis=0)
        log_x = (R0 if row.regime == "medium" else 1.0) * us * us
        env = np.array([row.log_rel_envelope(float(l)) for l in log_x])
        assert np.all(total <= env + 1e-12), f"dominance fails for row {row.label}"
    for log_x in vk_row.anchor * (1.0 + 3.0 * rng.random(1000)):
        g = engine.vk_terms(float(log_x), vk_row.sigma, vk_row.bracket, density_table)
        total = g["s1"] + g["s2"] + g["s3"]
        assert total.log_value <= vk_row.log_rel_envelope(float(log_x)) + 1e-9

    # monotonicity certificates on every emitted row
    assert all(r.monotone_certified for r in default_rows) and vk_row.monotone_certified

    # single interior peak with the turning point inside the bracket, both regions
    rep2 = verify_unimodal(bracket_nu2(1e6), 1e6)
    rep3 = verify_unimodal(bracket_nu3(), 2.8e10)
    assert rep2.passed and rep2.pattern in ("+-", "-+-")
    assert rep3.passed and rep3.pattern in ("+-", "-+-")

    # extended-range arithmetic laws
    lows = rng.uniform(-1e6, 1e3, size=(300, 3))
    for la, lb, lc in lows:
        a, b, c = ExtReal.exp_of(la), ExtReal.exp_of(lb), ExtReal.exp_of(lc)
        left, right = (a + b) + c, a + (b + c)
        assert abs(left.log_value - right.log_value) <= 4 * math.ulp(max(abs(left.log_value), 1.0))
        assert (a * b).log_value == la + lb
    for v in np.exp(rng.uniform(-700, 700, size=200)):
        v = float(v)
        assert abs(ExtReal.from_real(v).to_real() - v) <= math.ulp(v)
    _report(9, "dominance, certificates, unimodality and arithmetic laws all hold")
