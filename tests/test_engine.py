import bisect
import hashlib
import math
import pickle
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pntbounds import engine
from pntbounds.engine import (
    CertificationError,
    EnvelopeTerm,
    Premise,
    RowParams,
    certify_monotone,
    check_rvm_precondition,
    ck,
    compute_row,
    cprime,
    epsilon0_at,
    large_bound,
    medium_bound,
    medium_terms,
    optimize,
    piecewise_coverage,
    refusal,
    regime_compare,
    vk_terms,
)
from pntbounds.extnum import ExtReal
from pntbounds.regimes import MIN_LOG_X0_NU2, bracket_nu3, vk_decay_arg_prime
from pntbounds.zdensity import LOG_RIEMANN_HEIGHT, DensityTable
from pntbounds.zfr import R0

LOG_2PI = math.log(2.0 * math.pi)
CH = (LOG_RIEMANN_HEIGHT - LOG_2PI) ** 2 / (2.0 * math.pi)


# -- decay-rate formula -----------------------------------------------------


def test_ck_direct_eval():
    assert ck(0.99, 4, 0) == pytest.approx(5.92 / 3.0 - (8.0 / 12.0) * 0.01, rel=1e-12)
    assert ck(0.99, 4, 0) == pytest.approx(1.966667, abs=1e-6)


def test_ck_single_split_identity():
    for sigma in (0.98, 0.985, 0.9973):
        assert cprime(sigma, 1) == pytest.approx((16.0 * sigma - 10.0) / 3.0, rel=1e-12)


def test_cprime_attained_at_first_index(density_table):
    from pntbounds.engine import DEFAULT_ROW_PARAMS

    for p in DEFAULT_ROW_PARAMS:
        if p.regime != "medium":
            continue
        vals = [ck(p.sigma, p.K, k) for k in range(p.K)]
        assert vals.index(min(vals)) == 0


def test_ck_index_guard():
    with pytest.raises(ValueError):
        ck(0.99, 4, 4)


# -- rounding toward validity -------------------------------------------------


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-1e6, max_value=1e6), st.integers(0, 6))
@example(0.82739999999995, 4)
@example(0.8274, 4)
@example(0.1 + 0.2, 1)
@example(-0.82739999999995, 4)
@example(0.99, 2)
@example(5e-324, 6)
def test_round_down_is_exact(v, d):
    # a rounded-down C must never exceed its unrounded value, neither as the
    # float nor as the decimal it prints as, and that decimal is v's floor at
    # d decimals (the float 0.99 is below 0.99, so its floor at 2 is 0.98)
    got = engine._round_down(v, d)
    printed = Fraction(repr(got))
    assert Fraction(got) <= Fraction(v) and printed <= Fraction(v)
    assert Fraction(v) - printed < Fraction(1, 10**d) and printed * 10**d == int(printed * 10**d)


def test_round_down_pins_the_boundary_case():
    # 0.82739999999995 used to round to 0.8274, above its input
    assert engine._round_down(0.82739999999995, 4) == 0.8273
    assert engine._round_down(0.8274, 4) == 0.8274


# -- truncated zero-sum formula precondition --------------------------------


def test_rvm_precondition_at_handoff():
    log_t = 2.0 * math.sqrt(2488.0 / R0)
    assert log_t == pytest.approx(42.28, abs=5e-3)
    assert check_rvm_precondition(2488.0, log_t)


def test_rvm_precondition_needs_exp1000():
    assert not check_rvm_precondition(999.0, 60.0)


def test_rvm_precondition_upper_constraint():
    assert not check_rvm_precondition(2488.0, 2488.0 / 35.0 + 10.0)


# -- medium pipeline ---------------------------------------------------------


def test_medium_s3_matches_direct_formula(density_table):
    groups = medium_terms(2488.0, 0.985692, 4, density_table)
    want = math.log(4.3128) + 0.6 * math.log(2488.0) - 2.0 * math.sqrt(2488.0 / R0)
    assert groups["s3"].log_value == pytest.approx(want, abs=1e-12)


def test_medium_s1_matches_direct_formula(density_table):
    log_x, sigma = 2488.0, 0.985692
    log_t = 2.0 * math.sqrt(log_x / R0)
    first = ExtReal.exp_of(-log_x / 2.0 + math.log(CH))
    bracket = (log_t - LOG_2PI) ** 2 / (2 * math.pi) - CH + 1.8642
    second = ExtReal.exp_of((sigma - 1.0) * log_x + math.log(bracket))
    want = first + second
    got = medium_terms(log_x, sigma, 4, density_table)["s1"]
    assert got.log_value == pytest.approx(want.log_value, abs=1e-10)
    # the sub-height piece alone: x^(-1/2) log^2(H/2pi)/(2pi) = e^-1244 * 115.09
    assert first.log_value == pytest.approx(-1244.0 + math.log(115.0895), abs=1e-3)


def test_medium_s2_single_split_collapse(density_table):
    log_x, sigma = 3000.0, 0.9866
    u = math.sqrt(log_x / R0)
    got = medium_terms(log_x, sigma, 1, density_table)["s2"]
    c1, c2 = density_table.coeffs(sigma)
    t1 = math.exp(-2.0 * u)  # x^(-nu1(t0)) / t0 in u units
    n0 = c1 * math.exp(8 * (1 - sigma) / 3 * 2 * u) * (2 * u) ** (5 - 2 * sigma) + c2 * (2 * u) ** 2
    assert got.to_real() == pytest.approx(2.0 * t1 * n0, rel=1e-10)


def test_medium_terms_refuse_outside_validity(density_table):
    with pytest.raises(ValueError):
        medium_terms(900.0, 0.99, 4, density_table)


@pytest.mark.parametrize(
    "log_x0,sigma,K,a_hi,c_ref",
    [(6000.0, 0.990000, 4, 7.22, 0.8335),
     (3000.0, 0.986688, 4, 8.86, 0.8288),
     (10000.0, 0.992100, 5, 6.72, 0.8369)],
)
def test_medium_bound_reference_rows(density_table, rebuild, log_x0, sigma, K, a_hi, c_ref):
    row = medium_bound(log_x0, sigma, K, density_table)
    assert refusal(rebuild(row)[0].premises) == ""
    assert row.A_unrounded <= a_hi
    assert abs(row.C_unrounded - c_ref) < 1e-4
    assert row.B_unrounded == (5.0 - 2.0 * sigma) / 2.0


def test_medium_bound_guards(density_table):
    with pytest.raises(ValueError):
        medium_bound(1500.0, 0.99, 4, density_table)
    with pytest.raises(ValueError):
        medium_bound(6000.0, 0.90, 4, density_table)


def test_medium_bound_deterministic(density_table):
    a = medium_bound(6000.0, 0.99, 4, density_table)
    b = medium_bound(6000.0, 0.99, 4, density_table)
    assert a.A_unrounded == b.A_unrounded
    assert a.eps0 == b.eps0
    assert a.log_A_unrounded == b.log_A_unrounded


# -- large pipeline -----------------------------------------------------------


@pytest.mark.parametrize(
    "log_x0,sigma,a_hi,c_ref",
    [(1e5, 0.997312, 23.13, 0.8659),
     (1e6, 0.998974, 38.57, 1.0318),
     (1e10, 0.999988, 45.17, 1.0903)],
)
def test_large_bound_reference_rows(density_table, rebuild, log_x0, sigma, a_hi, c_ref):
    row = large_bound(log_x0, sigma, density_table)
    f, br = rebuild(row)
    assert refusal(f.premises) == ""
    assert row.A_unrounded <= a_hi
    assert abs(row.C_unrounded - c_ref) < 1e-4
    assert row.C_unrounded == pytest.approx(br.B2 * (8 * sigma - 5) / 3, rel=1e-15)


# -- vk pipeline --------------------------------------------------------------


def test_vk_bound_constants(density_table, rebuild, vk_row):
    f, br = rebuild(vk_row)
    assert refusal(f.premises) == ""
    assert vk_row.C_unrounded == br.B2 * (8.0 * vk_row.sigma - 5.0) / 3.0  # C is nu3's B2 (8 sigma - 5)/3
    assert abs(vk_row.C_unrounded - 0.1853) < 1e-4
    assert vk_row.B_unrounded == pytest.approx(1.8000082, abs=1e-6)
    assert vk_row.B_unrounded <= 1.801
    # honest recomputation from the bundled density table
    assert vk_row.A_unrounded == pytest.approx(0.0328567, abs=2e-6)


def test_vk_terms_first_density_piece_dominates(density_table):
    br = bracket_nu3()
    groups = vk_terms(2.8e10, 0.9999932, br, density_table)
    c1 = density_table.coeffs(0.9999932)[0]
    p = 5.0 - 2.0 * 0.9999932
    w = engine.vk_decay_arg(2.8e10)
    lead = math.log(2 * c1) + br.B2 * (5 - 8 * 0.9999932) / 3 * w + p * math.log(br.B2 * w)
    assert groups["s2"].log_value == pytest.approx(lead, abs=1e-6)


@pytest.mark.parametrize("log_x", [math.nan, math.inf, -math.inf])
def test_vk_terms_refuses_non_finite_log_x(density_table, log_x):
    # NaN once returned NaN groups
    with pytest.raises(ValueError, match="vk_terms requires log x >= the bracket's log x0"):
        vk_terms(log_x, 0.9999932, bracket_nu3(), density_table)


def test_vk_exponential_sign_flips_at_five_eighths():
    # the decay rate B2 (8 sigma - 5)/3 changes sign exactly at sigma = 5/8
    br = bracket_nu3()
    assert br.B2 * (8 * 0.625 - 5) / 3 == 0.0
    assert br.B2 * (8 * 0.7 - 5) / 3 > 0 > br.B2 * (8 * 0.6 - 5) / 3


# -- envelope supremum --------------------------------------------------------


def test_epsilon0_maximizer_against_grid_argmax(default_rows):
    first = default_rows[0]
    peak = (2.0 * first.B_unrounded / first.C_unrounded) ** 2
    assert first.eps0_max_at == pytest.approx(peak, rel=1e-12)
    assert 13.3 < peak < 13.5
    # independent oracle: dense scan of the envelope
    grid = np.linspace(math.log(2.0), 100.0, 200_001)
    vals = first.log_A_unrounded + first.B_unrounded * np.log(grid) - first.C_unrounded * np.sqrt(grid)
    assert grid[int(np.argmax(vals))] == pytest.approx(peak, abs=1e-3)


def test_epsilon0_equals_envelope_at_maximizer(default_rows, vk_row, density_table):
    vk_rows = [vk_row, optimize(3e10, "vk", density_table)]
    for row in [*default_rows, *vk_rows]:
        want = row.log_rel_envelope(row.eps0_max_at, rounded=False)
        assert row.eps0.log_value == pytest.approx(want, rel=1e-9)
        for bump in (0.99, 1.01):
            at = row.eps0_max_at * bump
            if at >= row.X:
                assert row.log_rel_envelope(at, rounded=False) <= row.eps0.log_value + 1e-12
    # a VK envelope is emitted only where it already falls, so its supremum is at X
    for row in vk_rows:
        assert row.eps0_max_at == row.X


def test_epsilon0_refuses_vk_envelope_rising_at_threshold():
    # slope B - C X r'(X) at X = 2.8e10: C = 1e-6 leaves the envelope rising
    log_a, b, c, x = math.log(0.033), 1.8, 1e-6, 2.8e10
    assert b > c * x * vk_decay_arg_prime(x)
    with pytest.raises(CertificationError, match="still rises"):
        epsilon0_at(log_a, b, c, x, "vk_r")
    # the same envelope with the row's C falls from X on
    _, at = epsilon0_at(log_a, b, 0.1852, x, "vk_r")
    assert at == x


def test_epsilon0_anchored_when_maximizer_interior():
    eps, at = epsilon0_at(math.log(7.0), 1.51, 0.83, 6000.0)
    assert at == 6000.0
    assert eps.log_value == pytest.approx(math.log(7.0) + 1.51 * math.log(6000.0) - 0.83 * math.sqrt(6000.0))
    # just past the edge B = C X u'(X) = C sqrt(X)/2, the envelope still rises at X and peaks at (2B/C)^2
    x = (2.0 * 1.51 / (1.005 * 0.83)) ** 2
    eps, at = epsilon0_at(math.log(7.0), 1.51, 0.83, x)
    assert at == (2.0 * 1.51 / 0.83) ** 2
    assert eps.log_value > math.log(7.0) + 1.51 * math.log(x) - 0.83 * math.sqrt(x)


# -- monotonicity certification ----------------------------------------------


_TERM0_FAILS = "not proved (term 0 nonincreasing fails)"


def test_certifier_accepts_peak_below_anchor():
    term = EnvelopeTerm(0.0, 3.0, 1.0)  # u^3 e^-u peaks at u = 3
    assert certify_monotone([term], 50.0) == [Premise("term 0 nonincreasing", 1.0 - 3.0 / 50.0, 50.0)]


def test_certifier_rejects_peak_above_anchor():
    term = EnvelopeTerm(0.0, 3.0, 1.0)
    assert certify_monotone([term], 2.0) == [Premise("term 0 nonincreasing", 1.0 - 3.0 / 2.0, 2.0)]


def test_certifier_accepts_a_term_flat_at_the_anchor():
    term = EnvelopeTerm(0.0, 3.0, 1.0)  # u^3 e^-u peaks at u = 3, where phi = 3/3 - 1 is exactly 0
    assert engine._phi_sup(term, 3.0) == 0.0
    assert refusal(certify_monotone([term], 3.0)) == ""


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_FINITE, _FINITE, st.booleans())
@example(1.5, 1.5, True)
@example(1.5, 1.5, False)
@example(0.0, 5e-324, True)
@example(-1.7976931348623157e308, 1.7976931348623157e308, True)  # b - a overflows to inf
def test_premise_holds_by_the_sign_of_its_margin(a, b, strict):
    assert Premise("b vs a", b - a, 0.0, strict).holds == (a < b if strict else a <= b)


@pytest.mark.parametrize("margin, weak, strict", [(0.0, True, False), (-0.0, True, False), (math.inf, True, True),
                                                  (-math.inf, False, False), (math.nan, False, False)])
def test_premise_sign_rule_at_the_edges(margin, weak, strict):
    assert Premise("p", margin, 0.0).holds is weak
    assert Premise("p", margin, 0.0, strict=True).holds is strict


def test_certifier_handles_gaussian_terms():
    # u^-3 e^(2u - u^2/2) decreases once u >= 2 + solves; at u0 = 25 it must pass
    term = EnvelopeTerm(0.0, -3.0, -2.0, quad=0.5)
    assert refusal(certify_monotone([term], 25.0)) == ""
    # and a genuinely increasing gaussian-coefficient term must fail
    bad = EnvelopeTerm(0.0, 0.0, -2.0, quad=0.001)
    assert refusal(certify_monotone([bad], 25.0)) == _TERM0_FAILS


def test_certifier_names_each_failing_term_by_index():
    good, bad = EnvelopeTerm(0.0, 3.0, 1.0), EnvelopeTerm(0.0, 0.0, -2.0, quad=0.001)
    premises = certify_monotone([good, good, bad, good, bad], 25.0)
    assert [p.name for p in premises] == [f"term {i} nonincreasing" for i in range(5)]
    assert all(p.at == 25.0 and not p.strict for p in premises)
    assert refusal(premises) == "not proved (term 2 nonincreasing, term 4 nonincreasing fails)"


@pytest.mark.parametrize("regime, log_x0, sigma, K, term", [("medium", 3000.0, 0.995, 1, 1),
                                                            ("large", 1e5, 0.999, 1, 4)])
def test_an_uncertified_row_names_its_rising_term(density_table, regime, log_x0, sigma, K, term):
    with pytest.raises(CertificationError) as refused:
        compute_row(RowParams("y", log_x0, log_x0, regime, sigma, K), density_table)
    k_note = f", K={K}" if regime == "medium" else ""
    assert str(refused.value) == (f"monotonicity not proved (term {term} nonincreasing fails) "
                                  f"at log x0 = {log_x0:g}, sigma={sigma}{k_note}")


@pytest.mark.parametrize("term, u0", [
    # nonincreasing, but q = 1 + u^2 overflows at u0 = 1e200
    (EnvelopeTerm(0.0, -3.0, -1.0, quad=0.5, poly=(1.0, 0.0, 1.0)), 1e200),
    # nonincreasing, but q = (u - 10)^2 + 1 still falls at u0 = 5 (q'(u0) < 0)
    (EnvelopeTerm(0.0, 0.0, 5.0, poly=(1.0, -20.0, 101.0)), 5.0),
    # ln q is convex at the vertex of q, and e^(-u/10) ((u - 10)^2 + 1) rises beyond it
    (EnvelopeTerm(0.0, 0.0, 0.1, poly=(1.0, -20.0, 101.0)), 10.0),
    # a negative quad grows without bound
    (EnvelopeTerm(0.0, 0.0, 1.0, quad=-0.001), 5.0),
    # e^(-u^2) falls, but 2 quad u0 overflows at u0 = 1e308
    (EnvelopeTerm(0.0, 0.0, 0.0, quad=1.0), 1e308),
], ids=["q_overflows", "q_still_falls", "ln_q_convex", "negative_quad", "slope_overflows"])
def test_certifier_refuses_unproved_terms(term, u0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        premises = certify_monotone([term], u0)
    assert refusal(premises) == _TERM0_FAILS
    assert premises[0].margin == -math.inf  # an unbounded slope, not a finite miss


def _scan_rises(term: EnvelopeTerm, u0: float) -> bool:
    """The sampled check the closed form replaced, on [u0, 8 u0]: does ln g rise
    between two of 4097 points by more than float noise?"""
    vals = np.array([term.log_eval(u) for u in np.linspace(u0, 8.0 * u0, 4097).tolist()])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    return bool(np.any(np.diff(vals) > tol))


@st.composite
def _terms_at_anchor(draw):
    u0 = draw(st.floats(0.5, 100.0))
    poly = None
    if draw(st.booleans()):  # q = q2 ((u - r u0)^2 + m u0^2), real roots when m < 0
        q2, r, m = draw(st.floats(0.01, 10.0)), draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 1.0))
        poly = (q2, -2.0 * q2 * r * u0, q2 * (r * r + m) * u0 * u0)
    quad = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return EnvelopeTerm(0.0, draw(st.floats(-10.0, 10.0)), draw(st.floats(-2.0, 5.0)), quad, poly), u0


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(_terms_at_anchor())
def test_certified_terms_never_rise(term_u0):
    term, u0 = term_u0
    if certify_monotone([term], u0)[0].holds:
        assert not _scan_rises(term, u0)


def test_all_reference_rows_certify(default_rows, vk_row, rebuild):
    # a replay of each row's certificate: its fit's float call at the row's parameters
    for row in [*default_rows, vk_row]:
        assert refusal(rebuild(row)[0].premises) == "", row.label


# -- dominance of the emitted envelope ----------------------------------------


def test_envelope_dominates_term_sum(default_rows, rebuild):
    rng = np.random.default_rng(101)
    for row in default_rows:
        u0 = row.anchor / R0 if row.regime == "medium" else row.anchor
        u0 = math.sqrt(u0)
        us = u0 * (1.0 + 3.0 * rng.random(200))
        terms = rebuild(row)[0].raw_terms
        total = np.logaddexp.reduce([[t.log_eval(u) for u in us.tolist()] for t in terms], axis=0)
        if row.regime == "medium":
            log_x = R0 * us * us
        else:
            log_x = us * us
        env = np.array([row.log_rel_envelope(float(l)) for l in log_x])
        assert np.all(total <= env + 1e-12)


def test_vk_envelope_dominates_term_sum(vk_row, density_table, rebuild):
    rng = np.random.default_rng(103)
    br = rebuild(vk_row)[1]
    for log_x in vk_row.anchor * (1.0 + 3.0 * rng.random(50)):
        groups = vk_terms(float(log_x), vk_row.sigma, br, density_table)
        total = groups["s1"] + groups["s2"] + groups["s3"]
        assert total.log_value <= vk_row.log_rel_envelope(float(log_x)) + 1e-9


# -- optimizer -----------------------------------------------------------------


def test_optimize_medium_recovers_reference_choice(density_table):
    row = optimize(6000.0, "medium", density_table)
    assert abs(row.sigma - 0.990000) <= 2e-3
    assert row.K == 4
    assert row.A_unrounded <= 7.22


def test_optimize_large_recovers_reference_choice(density_table):
    row = optimize(1e6, "large", density_table)
    assert abs(row.sigma - 0.998974) <= 2e-3


def test_optimize_objective_weakly_decreases_in_anchor(density_table):
    objs = []
    for log_x0 in (3000.0, 6000.0, 10000.0):
        row = optimize(log_x0, "medium", density_table)
        objs.append(row.log_rel_envelope(row.anchor, rounded=False))
    assert objs[0] >= objs[1] >= objs[2]


def test_optimize_ranks_and_emits_with_the_pipeline_code(density_table, monkeypatch):
    # perfbench's traced certify run counts the *_bound calls made directly
    # under optimize, by wrapping the module-level names as done here; a
    # call routed through compute_row (itself traced) would hide them
    calls = dict.fromkeys(("medium_bound", "large_bound", "vk_bound", "compute_row"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counting)
    for regime, log_x0 in (("medium", 6000.0), ("large", 1e6), ("vk", 3e10)):
        row = optimize(log_x0, regime, density_table)
        # the ranked value is the emitted row's unrounded envelope at its anchor
        value = engine.REGIMES[regime].fit(log_x0, density_table)(row.sigma, row.K).value
        assert value == pytest.approx(row.log_rel_envelope(log_x0, rounded=False), abs=1e-9)
    assert calls["compute_row"] == 0
    assert all(calls[f"{regime}_bound"] >= 1 for regime in ("medium", "large", "vk"))


def _sigma_probes(table):
    """Grid points, both cell edges, cell midpoints and the VK row's sigma."""
    grid = table.sigma_grid
    cells = list(zip(grid[:-1], grid[1:]))
    return ([s for s in grid if s < 1.0] + [lo + 1e-9 for lo, _ in cells]
            + [min(hi - 1e-9, 1.0 - 1e-9) for _, hi in cells]
            + [0.5 * (lo + hi) for lo, hi in cells] + [0.9999932])


def _bound_rows(table, sigmas):
    """The (C1 rows, C2 rows) that lanes at ``sigmas`` bind, as ndarrays from float ``rows_at`` calls."""
    i1, i2 = zip(*(table.rows_at(s) for s in sigmas))
    return np.array(i1), np.array(i2)


_TERM_LOG = st.one_of(st.floats(min_value=-60.0, max_value=60.0),
                      st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(_TERM_LOG, min_size=1, max_size=23))
@example([1.5, 1.5, 1.5])
@example([-1e308, 1e308, 0.0])
@example([0.0, 5e-324, -5e-324])
@example([math.inf, math.inf])
@example([-math.inf, -math.inf])
def test_float_log_sum_is_numpys_logaddexp_reduce(values):
    # a float fit sums its terms with math, an ndarray fit with numpy's reduce;
    # the optimizer's lanes equal its float calls only if the two agree exactly
    terms = [EnvelopeTerm(v, 0.0, 0.0) for v in values]
    logs = [t.log_eval(1.0) for t in terms]
    total = engine._log_sum(terms, 1.0)
    with np.errstate(over="ignore"):  # x - y may overflow to inf; both sides then add 0
        want = float(np.logaddexp.reduce(np.array(logs)))
    assert type(total) is float and total.hex() == want.hex()


@pytest.mark.parametrize("regime, log_x0, K", [
    *[("medium", x, K) for x in (2488.0, 7000.0) for K in (1, 4, 10, "mixed")],
    *[(regime, x, K) for regime, x in (("large", 1e5), ("large", 3e8), ("vk", 2.8e10), ("vk", 5e11))
      for K in (1, "mixed")],
])
def test_fit_lanes_equal_float_calls_bit_for_bit(density_table, regime, log_x0, K):
    # optimize ranks every (K, sigma) pair at once; its picks equal a
    # per-candidate search's only if every lane equals the float call exactly.
    # "mixed" interleaves K = 1..10 over the lanes, so a medium lane's s2 is
    # padded to the largest K
    sigmas = _sigma_probes(density_table)
    Ks = [1 + i % 10 if K == "mixed" else K for i in range(len(sigmas))]
    at = engine.REGIMES[regime].fit(log_x0, density_table)
    lanes = at.bind(_bound_rows(density_table, sigmas), np.array(Ks))(np.array(sigmas))
    assert isinstance(lanes, np.ndarray) and lanes.shape == (len(sigmas),)
    assert lanes.tolist() == [at(s, k).value for s, k in zip(sigmas, Ks)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(*[st.floats(min_value=-60.0, max_value=60.0)] * 5), min_size=1, max_size=8))
def test_vk_lanes_sum_in_the_float_calls_association(density_table, values):
    # the VK float fit sums ExtReals as (s1a + s1b) + (s2a + s2b), then + s3;
    # at real anchors s1 is negligible and any order agrees, so comparable
    # summands stand in for _vk_logs here
    sigmas = np.linspace(0.985, 0.995, len(values))
    by_sigma = dict(zip(sigmas.tolist(), values))

    def logs(anchor, sigma, row_logs):
        return by_sigma[sigma] if isinstance(sigma, float) else tuple(np.array(values).T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_vk_logs", logs)
        at = engine._vk_fit(3e10, density_table)
        lanes = at.bind(_bound_rows(density_table, sigmas.tolist()), np.ones(sigmas.size, dtype=int))
        assert lanes(sigmas).tolist() == [at(s, 1).value for s in sigmas.tolist()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_TERM_LOG, st.integers(0, 3)), min_size=1, max_size=23), st.integers(0, 3))
@example([(1.5, 1), (1.5, 0)], 2)
@example([(-1e308, 2), (1e308, 0)], 1)
def test_neg_inf_padding_leaves_the_lane_sum_exact(values, lead):
    # a medium lane with K below the largest K holds ln 0 = -inf terms among
    # its own; numpy's reduce must return the unpadded sum bit for bit
    terms = [EnvelopeTerm(v, 0.0, 0.0) for v, _ in values]
    padded = [-math.inf] * lead + [x for v, pad in values for x in [v] + [-math.inf] * pad]
    with np.errstate(over="ignore"):
        got = float(np.logaddexp.reduce(np.array(padded)))
    assert got.hex() == engine._log_sum(terms, 1.0).hex()


_SIGMA_ANYWHERE = st.one_of(st.integers(0, 20), st.floats(0.98, 1.0))  # a grid row's sigma, or any


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(2488.0, 1e6), st.floats(2.8e10, 1e13),
       st.lists(st.tuples(_SIGMA_ANYWHERE, st.integers(1, 10)), min_size=1, max_size=16))
def test_medium_lanes_equal_their_float_calls_by_hex(density_table, log_x0, vk_log_x0, lanes):
    # medium lanes sum one (term, lane) matrix, each padded to the largest K; the
    # float call sums its own 2K + 3 terms as ExtReals.  VK lanes bound to the rows
    # ``rows_at`` picks keep (ln 2 C1, s2b) per lane and compute only s1b and s2a per
    # call; all lanes, and a subset bound in another order, must equal the float calls
    grid = density_table.sigma_grid
    sigmas = np.array([grid[s] if isinstance(s, int) else s for s, _ in lanes])
    order = np.arange(sigmas.size)[::-2]
    rows = _bound_rows(density_table, sigmas.tolist())
    for fit, x, Ks in ((engine._medium_fit, log_x0, np.array([K for _, K in lanes])),
                       (engine._vk_fit, vk_log_x0, np.ones(sigmas.size, dtype=int))):
        want = [fit(x, density_table)(s, K).value.hex() for s, K in zip(sigmas.tolist(), Ks.tolist())]
        assert [v.hex() for v in fit(x, density_table).bind(rows, Ks)(sigmas).tolist()] == want
        subset = fit(x, density_table).bind((rows[0][order], rows[1][order]), Ks[order])
        assert [v.hex() for v in subset(sigmas[order]).tolist()] == [want[i] for i in order]


def test_a_medium_fit_refuses_k_below_one_in_any_lane(density_table):
    # a lane's K indexes the binding's (k, K) pieces, so a K of 0 must not wrap to the largest K
    at = engine._medium_fit(5000.0, density_table)
    with pytest.raises(ValueError, match="K >= 1 required"):
        at(0.99, 0)
    for Ks in (np.array([0, 4]), np.array([0])):
        with pytest.raises(ValueError, match="K >= 1 required"):
            at.bind(_bound_rows(density_table, [0.99] * Ks.size), Ks)(np.full(Ks.size, 0.99))


@pytest.mark.parametrize("K", [1, 4, 10, "mixed"])
def test_a_medium_lane_fit_builds_at_most_five_terms(density_table, monkeypatch, K):
    # a speed guard that holds on any host: a lane fit's s2 is a_k and b_k as two
    # (k, lane) terms, so it builds s1 (2 terms), s2 (2) and s3 (1) whatever K is; a
    # float fit builds its 2K + 3 raw terms and then their 2K + 3 normalized shifts
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return EnvelopeTerm(*args, **kwargs)

    monkeypatch.setattr(engine, "EnvelopeTerm", counting)
    sigmas = _sigma_probes(density_table)
    Ks = np.array([1 + i % 10 if K == "mixed" else K for i in range(len(sigmas))])
    at = engine._medium_fit(5000.0, density_table)
    at.bind(_bound_rows(density_table, sigmas), Ks)(np.array(sigmas))
    assert 0 < len(built) <= 5
    if K != "mixed":
        built.clear()
        at(0.99, K)
        assert len(built) == 2 * (2 * K + 3)


# sha256 over the 15 default rows' raw terms, as "label:<field hexes>;poly?" lines,
# taken when every row stored its terms; the rebuilt terms must match bit for bit
_RAW_TERMS_SHA256 = "3b51fed49ab2d36b7d6874df1622de2137563729a376deee6897ad624e6208b2"


def test_rows_store_no_terms_and_rebuild_them_bit_for_bit(default_rows, vk_row, rebuild):
    names = engine.BoundConstants._fields
    assert "raw_terms" not in names
    for row in [*default_rows, vk_row]:
        for name in names:
            value = getattr(row, name)
            assert not (isinstance(value, tuple) and any(isinstance(t, EnvelopeTerm) for t in value)), name
    assert rebuild(vk_row)[0].raw_terms == ()
    assert len(default_rows) == 15
    digest = hashlib.sha256()
    for row in default_rows:
        terms = rebuild(row)[0].raw_terms
        assert terms
        for t in terms:
            fields = ",".join(float(v).hex() for v in (t.coeff_log, t.power, t.decay, t.quad, *(t.poly or ())))
            digest.update(f"{row.label}:{fields};{'poly' if t.poly else ''}\n".encode())
    assert digest.hexdigest() == _RAW_TERMS_SHA256


def test_row_repr_leaves_out_the_density_table(default_rows):
    text = repr(default_rows[0])
    assert text.startswith("BoundConstants(label='log2', regime='medium', X=0.693")
    assert text.endswith(f", log_A_unrounded={default_rows[0].log_A_unrounded!r})") and "DensityRow" not in text


def test_a_row_is_plain_certified_data(default_rows, vk_row, monkeypatch):
    # a row holds its 14 constants and nothing it was built from: reading it runs no fit and
    # builds no bracket, and its pickle carries no density table
    names = engine.BoundConstants._fields
    assert len(names) == 14 and not {"table", "monotone_certified", "A_unrounded", "bracket"} & set(names)
    calls = _count_calls(monkeypatch)
    properties = [n for n, v in vars(engine.BoundConstants).items() if isinstance(v, property)]
    for row in [*default_rows, vk_row]:
        for name in [*names, *properties]:
            getattr(row, name)
        row.as_dict()
        assert repr(row) == f"BoundConstants({', '.join(f'{k}={v!r}' for k, v in zip(names, row))})"
        assert b"DensityRow" not in pickle.dumps(row)
        assert row.A_unrounded == math.exp(row.log_A_unrounded)  # what _emit rounds up, bit for bit
    assert calls["fit"] == calls["bracket"] == 0
    assert {row.regime for row in [*default_rows, vk_row]} == {"medium", "large", "vk"}


def test_vk_certificate_and_h_condition_read_the_one_vk_premise(monkeypatch):
    from pntbounds import derived

    br = bracket_nu3()
    assert refusal(engine._certify_vk_monotone(2.8e10, 0.9999932, br)) == ""
    derived.pi_constants_vk()
    for margin in (-1.0, 0.0, math.nan):  # the r' premise is strict, and a NaN margin fails it
        monkeypatch.setattr(engine, "vk_decay_arg_prime_fall_margin", lambda log_x: margin)
        monkeypatch.setattr(derived, "vk_decay_arg_prime_fall_margin", lambda log_x: margin)
        assert refusal(engine._certify_vk_monotone(2.8e10, 0.9999932, br)) == "not proved (w' nonincreasing fails)"
        with pytest.raises(CertificationError, match="u' nonincreasing"):
            derived.pi_constants_vk()


_VK_PREMISES = ["w' nonincreasing", "C < B2", "q2 w0^2 >= 2|q0|",
                "C w' + 2 w'/w0 slack < 1 - sigma", "(B2 - C) w0 (3 ll - 1)/(5 ll) >= 0.6"]
_VK_STRICT = {0, 1, 3}  # the premises whose comparison is < or >: a zero margin fails them


@pytest.mark.parametrize("sigma, B2_scale, B3, failed", [
    # C < B2 fails only for sigma >= 1 (or B2 <= 0), which breaks the slope and truncation premises too
    (1.0, 1.0, None, [1, 3, 4]),
    # C w' >= 1/2 > 1 - sigma: the slope premise refuses it, so C w' < 1/2 is no premise of its own
    (0.9999932, 1e6, None, [3]),
    # the slope premise divides by q2 w0^2 - |q0|, so it is not listed when the quadratic fails
    (0.9999932, 1.0, 1e-6, [2]),
    (0.9999932, 3.0, None, [3]),
    (0.9999932, 0.1, None, [4]),
    # truncation value 0.488, between half the 0.6 threshold and the threshold
    (0.9999932, 0.25, None, [4]),
], ids=["C_below_B2", "C_w_half", "quadratic", "slope", "truncation", "truncation_near_threshold"])
def test_vk_certificate_names_each_failed_premise(sigma, B2_scale, B3, failed):
    br = bracket_nu3()
    br = br._replace(B2=br.B2 * B2_scale, B3=br.B3 if B3 is None else B3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        premises = engine._certify_vk_monotone(2.8e10, sigma, br)
    assert refusal(premises) == f"not proved ({', '.join(_VK_PREMISES[i] for i in failed)} fails)"
    listed = [i for i in range(len(_VK_PREMISES)) if B3 is None or i != 3]
    assert [(p.name, p.strict, p.at) for p in premises] == [(_VK_PREMISES[i], i in _VK_STRICT, 2.8e10) for i in listed]


def test_fit_lanes_take_math_log_of_the_coefficients(density_table):
    # numpy's array log differs from math.log in the last ulp on some inputs
    # (8 of these 20 000 on a host where this was checked); a table built
    # from such inputs shows a lane that took ln 2C from the wrong one
    rng = np.random.default_rng(8)
    c = rng.uniform(1.0, 30.0, 20_000)
    differ = c[np.log(2.0 * c) != np.array([math.log(2.0 * v) for v in c])]
    pick = np.sort(np.concatenate([differ, c])[:21]).tolist()
    table = DensityTable(tuple(r._replace(C1=c1, C2=c2)
                               for r, c1, c2 in zip(density_table.rows, pick, pick[::-1])))
    grid = [r.sigma for r in table.rows]
    sigmas = _sigma_probes(table) + [grid[3] + 5e-13, grid[7] - 5e-13]
    rows = _bound_rows(table, sigmas)

    def documented_rows(s):
        # within 1e-12 of grid point i: row i for both; else C1 from the row above, C2 from the row below
        i = bisect.bisect_left(grid, s)
        near = [j for j in (i - 1, i) if 0 <= j < len(grid) and abs(grid[j] - s) < 1e-12]
        return (near[0], near[0]) if near else (i, i - 1)

    want = [documented_rows(s) for s in sigmas]
    assert list(zip(rows[0].tolist(), rows[1].tolist())) == want
    assert [table.coeffs(s) for s in sigmas] == [(table.rows[a].C1, table.rows[b].C2) for a, b in want]
    c1_lanes, c2_lanes = engine._bound_log_2c(table, rows)
    assert list(zip(c1_lanes.tolist(), c2_lanes.tolist())) == [engine._log_2c(s, table) for s in sigmas]
    for regime, log_x0, K in (("medium", 5000.0, 4), ("large", 1e6, 1), ("vk", 3e10, 1)):
        at = engine.REGIMES[regime].fit(log_x0, table)
        lanes = at.bind(rows, np.full(len(sigmas), K))(np.array(sigmas))
        assert lanes.tolist() == [at(s, K).value for s in sigmas]


@pytest.mark.parametrize("regime, log_x0", [("medium", 2488.0), ("medium", 7000.0), ("large", 1e5),
                                            ("large", 3e8), ("vk", 2.8e10), ("vk", 5e11)])
def test_a_binding_gives_a_fresh_bindings_values_on_reuse(density_table, regime, log_x0):
    # optimize binds one fit twice, to other lanes and K, and calls each binding
    # many times, and emission binds again for a float call; whatever one binding
    # built must not leak into another binding of the fit, or a call into a later one
    fit = engine.REGIMES[regime].fit
    at = fit(log_x0, density_table)
    grid = [s for s in density_table.sigma_grid if s < 1.0]
    mixed = [1 + i % 10 for i in range(len(grid))] if regime == "medium" else [1] * len(grid)
    one = [4 if regime == "medium" else 1] * len(grid)
    calls = [
        (np.array(grid), np.array(mixed)),                                  # grid sigmas, mixed K
        (np.array(grid[3:9]) + 1e-12, np.array(one[3:9])),                  # off-grid by 1e-12, one K
        (np.array([grid[5] - 1e-12]), np.array(mixed[7:8])),                # one lane
        (np.array(_sigma_probes(density_table)), np.array([1 + i % 3 if regime == "medium" else 1
                                                          for i in range(len(_sigma_probes(density_table)))])),
        (np.array(grid[:4]), np.full(4, 3 if regime == "medium" else 1)),   # one K, not the largest
    ]
    bound = []
    for sigmas, Ks in calls:
        rows = _bound_rows(density_table, sigmas.tolist())
        lanes = at.bind(rows, Ks)
        want = [v.hex() for v in fit(log_x0, density_table).bind(rows, Ks)(sigmas).tolist()]
        assert [v.hex() for v in lanes(sigmas).tolist()] == want
        bound.append((lanes, sigmas, want))
    for lanes, sigmas, want in bound:  # each binding again, after the later ones
        assert [v.hex() for v in lanes(sigmas).tolist()] == want
    for s, K in ((grid[2], one[0]), (grid[2] + 1e-12, mixed[5]), (0.9999932, 1)):
        envelope, fresh = at(s, K), fit(log_x0, density_table)(s, K)
        assert type(envelope.value) is float
        assert [v.hex() for v in envelope[:4]] == [v.hex() for v in fresh[:4]]  # value, log_a, B, C
        assert envelope[4:] == fresh[4:]


@pytest.mark.parametrize("regime, log_x0, sigma, K", [("medium", 6000.0, 0.99, 4), ("large", 1e6, 0.998974, 1),
                                                   ("vk", 2.8e10, 0.9999932, 1)])
def test_emission_refuses_on_the_float_calls_premises(density_table, monkeypatch, regime, log_x0, sigma, K):
    # the premises a float call builds with its envelope are the list _emit decides, and a
    # failed one among them is what the refusal names
    want = engine.REGIMES[regime].fit(log_x0, density_table)(sigma, K).premises
    assert want and refusal(want) == ""
    decided = []

    def recording(premises):
        decided.append(premises)
        return refusal(premises)

    monkeypatch.setattr(engine, "refusal", recording)
    engine._bound(regime, log_x0, sigma, K, density_table, None, None)
    assert decided == [want]
    rec = engine.REGIMES[regime]

    def failing_last(log_x0, table, _real=rec.fit):
        at = _real(log_x0, table)

        def last_fails(sigma, K):
            f = at(sigma, K)
            return f._replace(premises=[*f.premises[:-1], f.premises[-1]._replace(margin=-1.0)])
        return last_fails

    monkeypatch.setitem(engine.REGIMES, regime, rec._replace(fit=failing_last))
    with pytest.raises(CertificationError, match=rf"^monotonicity not proved \({re.escape(want[-1].name)} fails\)"):
        engine._bound(regime, log_x0, sigma, K, density_table, None, None)


def _per_candidate_optimize(log_x0, regime, table):
    """The search one cell and one candidate at a time, with float fit calls."""
    fit = engine.REGIMES[regime].fit(log_x0, table)
    candidates = []
    for K in range(1, 11) if regime == "medium" else [1]:
        candidates += [(fit(s, K).value, s, K) for s in table.sigma_grid if s < 1.0]
        for lo, hi in zip(table.sigma_grid[:-1], table.sigma_grid[1:]):
            a, b = lo + 1e-9, min(hi - 1e-9, 1.0 - 1e-9)
            while b - a > 1e-6:
                m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
                if fit(m1, K).value <= fit(m2, K).value:
                    b = m2
                else:
                    a = m1
            candidates.append((fit(0.5 * (a + b), K).value, 0.5 * (a + b), K))
    for _value, s, K in sorted(candidates):
        try:
            return engine._bound(regime, log_x0, s, K, table, None, None)
        except CertificationError:
            continue


def _seeded_anchors(n=5, seed=13):
    """n anchors per regime, drawn as the benchmark draws its optimize requests."""
    rng = random.Random(seed)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    anchors = ([("medium", rng.uniform(2488.0, 1e4)) for _ in range(n)]
               + [("large", log_uniform(1e5, 1e10)) for _ in range(n)]
               + [("vk", log_uniform(2.8e10, 1e12)) for _ in range(n)])
    return [(regime, float(f"{x:.6g}")) for regime, x in anchors]


@pytest.mark.parametrize("quantum", [0.0, 0.5])
@pytest.mark.parametrize("regime, log_x0", [("medium", 3456.7), ("large", 2.5e7), ("vk", 4e10),
                                            *_seeded_anchors()])
def test_optimize_picks_what_a_per_candidate_search_picks(density_table, monkeypatch, regime, log_x0,
                                                          quantum):
    if quantum:  # values floored to a coarse step tie often, so tie-breaking must agree too
        for name, rec in list(engine.REGIMES.items()):
            def coarse(log_x0, table, _real=rec.fit):
                at = _real(log_x0, table)

                def floored(sigma, K):
                    got = at(sigma, K)
                    return got._replace(value=float(np.floor(got.value / quantum) * quantum))

                def floored_bind(rows, K):  # optimize ranks through the bound lanes, so they are floored too
                    lanes = at.bind(rows, K)
                    return lambda sigma: np.floor(lanes(sigma) / quantum) * quantum
                floored.bind = floored_bind
                return floored
            monkeypatch.setitem(engine.REGIMES, name, rec._replace(fit=coarse))
    row = optimize(log_x0, regime, density_table)
    ref = _per_candidate_optimize(log_x0, regime, density_table)
    assert (row.sigma, row.K) == (ref.sigma, ref.K)
    assert row.as_dict() == ref.as_dict()
    assert row.log_A_unrounded == ref.log_A_unrounded and row.eps0 == ref.eps0


def _count_calls(monkeypatch):
    """Wrap the three fits, the ``at`` each binding returns, its ``bind`` and engine's bracket bindings
    with call counters; ``calls["lanes"]`` lists each bound lane call as (the number of its ``bind`` call,
    the sigmas it is given, the lanes bound)."""
    calls = {"fit": 0, "at": 0, "bind": 0, "bracket": 0, "lanes": []}
    for regime, rec in list(engine.REGIMES.items()):
        def fit(*args, _fn=rec.fit):
            calls["fit"] += 1
            at = _fn(*args)

            def counted(*lanes):
                calls["at"] += 1
                return at(*lanes)

            def bind(rows, K):
                calls["bind"] += 1
                lanes, n = at.bind(rows, K), calls["bind"]

                def counted_lanes(sigma):
                    calls["lanes"].append((n, sigma.size, K.size))
                    return lanes(sigma)
                return counted_lanes
            counted.bind = bind
            return counted
        monkeypatch.setitem(engine.REGIMES, regime, rec._replace(fit=fit))
    for name in ("bracket_nu2", "bracket_nu3"):
        def bracket(*args, _fn=getattr(engine, name)):
            calls["bracket"] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, bracket)
    return calls


@pytest.mark.parametrize("regime, log_x0", [("medium", 2488.0), ("large", 1e5), ("vk", 2.8e10), ("vk", 1e13),
                                            *_seeded_anchors()])
def test_every_sigma_a_search_ranks_reads_the_rows_its_lane_was_bound_to(density_table, regime, log_x0):
    # optimize binds each lane's density rows (cell c: C1 from row c + 1, C2 from
    # row c; grid point i: row i), which is exact only if ``rows_at`` picks those
    # rows at every sigma the search evaluates: ternary probes, midpoints and grid
    # points
    seen = []
    rec = engine.REGIMES[regime]

    def fit(*args):
        at = rec.fit(*args)
        bind = at.bind

        def checked_bind(rows, K):
            lanes = bind(rows, K)

            def checked(sigma):
                picked = [density_table.rows_at(s) for s in sigma.tolist()]
                assert picked == list(zip(rows[0].tolist(), rows[1].tolist()))
                seen.append(sigma.size)
                return lanes(sigma)
            return checked
        at.bind = checked_bind
        return at

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(engine.REGIMES, regime, rec._replace(fit=fit))
        row = optimize(log_x0, regime, density_table)
    assert row == optimize(log_x0, regime, density_table)
    # per K, 20 cells and 20 grid points below 1: every step's two probes per cell and the last
    # call's midpoints and grid points are 40 lanes each
    assert seen == [40 * len(rec.Ks)] * 19


@pytest.mark.parametrize("regime, log_x0, max_calls", [
    ("medium", 6000.0, 30), ("large", 1e6, 25), ("vk", 3e10, 25),
])
def test_optimize_work_count(density_table, rebuild, monkeypatch, regime, log_x0, max_calls):
    # a speed guard that holds on any host: one lockstep over every (K, cell)
    # binds its lanes twice, makes one probe call per ternary step on the first
    # binding and one ranking call on the second, and each emission attempt
    # binds the fit once and makes one float call (the per-candidate search made
    # 7601 medium and 761 large/VK calls, and a lockstep per K made about 200
    # medium calls); the bracket is computed once per fit binding, not once per
    # call.  Every cell is 0.001 - 2e-9 wide and 1.015e-6 after 17 steps, so
    # every search takes 18 steps over all its lanes.  Lanes read their density
    # rows when bound, so a search looks up no ``DensityTable.rows_at`` (lanes
    # that looked their rows up made one lookup per lane call, about 20)
    calls = _count_calls(monkeypatch)
    lookups = []  # the lane calls made before each lookup

    def rows_at(self, sigma, _real=DensityTable.rows_at):
        lookups.append(len(calls["lanes"]))
        return _real(self, sigma)

    monkeypatch.setattr(DensityTable, "rows_at", rows_at)
    row = optimize(log_x0, regime, density_table)
    n = 40 * len(engine.REGIMES[regime].Ks)  # 20 cells, each taken twice or with its grid point, per K
    assert calls["lanes"] == [(1, n, n)] * 18 + [(2, n, n)] and calls["bind"] == 2
    assert lookups and set(lookups) == {19}  # every lookup is an emission's, after the search
    attempts = calls["fit"] - 1  # the search's one binding, then one per emission attempt
    assert attempts >= 1 and calls["at"] == attempts and len(calls["lanes"]) + calls["at"] <= max_calls
    assert calls["bracket"] == (0 if regime == "medium" else calls["fit"])
    assert refusal(rebuild(row)[0].premises) == ""


@pytest.mark.parametrize("log_x0", [500.0, 1500.0, 2487.9])
def test_optimize_refuses_medium_anchor_before_searching(density_table, monkeypatch, log_x0):
    calls = _count_calls(monkeypatch)
    with pytest.raises(ValueError) as refused:
        optimize(log_x0, "medium", density_table)
    assert calls["fit"] == 0
    with pytest.raises(ValueError) as bound:
        medium_bound(log_x0, 0.99, 4, density_table)
    assert str(refused.value) == str(bound.value) == "medium pipeline requires log x0 >= 2488"


@pytest.mark.parametrize("regime, log_x0", [("large", 1e6), ("vk", 3e10)])
def test_large_and_vk_refuse_a_claim_other_than_the_anchor(density_table, monkeypatch, regime, log_x0):
    # these pipelines emit constants for log x >= log x0 only, so any other
    # claim is refused, by optimize before it searches
    sigma = 0.999 if regime == "large" else 0.9999932
    want = f"the {regime} pipeline claims log x >= {log_x0:g}, its anchor, not {0.5 * log_x0:g}"
    with pytest.raises(ValueError) as refused:
        compute_row(RowParams("t", 0.5 * log_x0, log_x0, regime, sigma, 1), density_table)
    assert str(refused.value) == want
    calls = _count_calls(monkeypatch)
    with pytest.raises(ValueError) as refused:
        optimize(log_x0, regime, density_table, claim_X=0.5 * log_x0)
    assert str(refused.value) == want and calls["fit"] == 0
    with pytest.raises(ValueError, match="its anchor, not"):
        optimize(log_x0, regime, density_table, claim_X=2.0 * log_x0)
    row = compute_row(RowParams("t", log_x0, log_x0, regime, sigma, 1), density_table)
    assert row.X == log_x0


@pytest.mark.parametrize("claim_X", [3000.0, 4999.0, math.log(2.0), math.nan])
def test_medium_refuses_a_claim_below_its_anchor_that_nothing_covers(density_table, monkeypatch, claim_X):
    # the envelope is certified from the anchor on; only row log2's span below
    # its anchor has a coverage record, so any other lower claim is refused
    want = f"nothing covers log x in [{claim_X:g}, 5000), below the medium anchor"
    with pytest.raises(ValueError) as refused:
        medium_bound(5000.0, 0.989238, 4, density_table, claim_X=claim_X)
    assert str(refused.value) == want
    calls = _count_calls(monkeypatch)
    with pytest.raises(ValueError) as refused:
        optimize(5000.0, "medium", density_table, claim_X=claim_X)
    assert str(refused.value) == want and calls["fit"] == 0
    assert medium_bound(5000.0, 0.989238, 4, density_table, claim_X=6000.0).X == 6000.0
    first = engine.DEFAULT_ROW_PARAMS[0]
    assert compute_row(first, density_table).X == first.X == math.log(2.0)


@pytest.mark.parametrize("name", ["bogus", "Large", ""])
def test_every_entry_refuses_an_unknown_regime(density_table, monkeypatch, name):
    # a name outside the regime table once fell through the dispatch to the VK
    # pipeline and came back a certified row; optimize refuses before any fit
    want = f"unknown regime {name!r}, expected one of medium, large, vk"
    for call in (lambda: compute_row(RowParams("x", 3e10, 3e10, name, 0.9999932, 1), density_table),
                 lambda: engine._bound(name, 3e10, 0.9999932, 1, density_table, None, None)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == want
    calls = _count_calls(monkeypatch)
    with pytest.raises(ValueError) as refused:
        optimize(3e10, name, density_table)
    assert str(refused.value) == want and calls["fit"] == 0


@pytest.mark.parametrize("regime, log_x0", [("large", 5e4), ("large", MIN_LOG_X0_NU2 * (1 - 1e-12)),
                                            ("vk", 1e10), ("medium", math.nan), ("vk", math.nan)])
def test_optimize_refuses_an_anchor_below_the_floor_before_searching(density_table, monkeypatch,
                                                                     regime, log_x0):
    calls = _count_calls(monkeypatch)
    with pytest.raises(ValueError) as refused:
        optimize(log_x0, regime, density_table)
    floor = engine.REGIMES[regime].min_log_x0
    assert str(refused.value) == f"{regime} pipeline requires log x0 >= {floor:g}"
    assert calls["fit"] == calls["bracket"] == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_entry_refuses_a_non_finite_anchor_or_claim(density_table, monkeypatch, bad):
    # medium_bound(3000, ..., claim_X=inf) once returned a row with X = inf and eps0 = exp(nan)
    calls = _count_calls(monkeypatch)
    for call in (lambda: compute_row(RowParams("x", bad, bad, "large", 0.999, 1), density_table),
                 lambda: compute_row(RowParams("x", bad, 3000.0, "medium", 0.99, 4), density_table),
                 lambda: medium_bound(bad, 0.99, 4, density_table),
                 lambda: medium_bound(3000.0, 0.99, 4, density_table, claim_X=bad),
                 lambda: optimize(bad, "vk", density_table),
                 lambda: optimize(3000.0, "medium", density_table, claim_X=bad)):
        with pytest.raises(ValueError):
            call()
    assert calls["fit"] == calls["bracket"] == 0


@pytest.mark.parametrize("regime, log_x0, sigma", [("large", 1e6, 0.999), ("vk", 3e10, 0.9999932)])
def test_large_and_vk_refuse_a_K_other_than_1(density_table, regime, log_x0, sigma):
    # these pipelines have a single split; a K = 7 request was once served as a K = 1 row
    with pytest.raises(ValueError) as refused:
        compute_row(RowParams("y", log_x0, log_x0, regime, sigma, 7), density_table)
    assert str(refused.value) == f"the {regime} pipeline takes K = 1, not 7"
    assert compute_row(RowParams("y", log_x0, log_x0, regime, sigma, 1), density_table).K == 1


def test_medium_takes_a_K_beyond_the_optimizer_range(density_table):
    # the single-K regimes refuse any other K; medium takes K in 1..1000, not just optimize's 1..10
    for K in (12, 1000):
        assert compute_row(RowParams("6000", 6000.0, 6000.0, "medium", 0.99, K), density_table).K == K


@pytest.mark.parametrize("K", [0, -3, 1001, 10**8])
def test_medium_refuses_a_K_outside_1_to_1000(density_table, monkeypatch, K):
    # a row's cost is linear in K (K = 10^8 would take about 40 minutes), so the request is refused
    # before the pipeline runs
    monkeypatch.setattr(engine, "medium_bound", None)
    with pytest.raises(ValueError) as refused:
        compute_row(RowParams("6000", 6000.0, 6000.0, "medium", 0.99, K), density_table)
    assert str(refused.value) == f"K = {K} outside 1..1000"


def test_optimize_failure_names_the_best_ranked_reason(density_table, monkeypatch):
    with pytest.raises(CertificationError) as refused:
        optimize(1e300, "vk", density_table)
    assert str(refused.value) == ("no certifiable parameter set at log x0 = 1e+300 (best-ranked "
                                  "candidate: A = e^inf at log x0 = 1e+300 is too large to emit)")
    # with every candidate refused for its own reason, the first one tried is named
    tried = []

    def refuse(regime, log_x0, sigma, K, *rest):
        tried.append(sigma)
        raise CertificationError(f"refused sigma={sigma!r}")

    monkeypatch.setattr(engine, "_bound", refuse)
    with pytest.raises(CertificationError) as refused:
        optimize(1e6, "large", density_table)
    assert len(tried) > 1
    assert str(refused.value).endswith(f"(best-ranked candidate: refused sigma={tried[0]!r})")


# -- regime comparison and coverage --------------------------------------------


def test_regime_crossings(default_rows, vk_row):
    rc = regime_compare(default_rows, vk_row)
    assert 40.0 < rc.lower_log_x < 80.0
    assert 2e10 < rc.upper_log_x < 3.4e10
    # between the crossings the sqrt-decay table wins
    mid = 1e4
    best = min(r.log_rel_envelope(mid, rounded=False) for r in default_rows if r.X <= mid)
    assert best < vk_row.log_rel_envelope(mid, rounded=False)


def test_piecewise_coverage_segments(default_rows, sieve10m):
    report = piecewise_coverage(default_rows[0], sieve10m)
    statuses = {s.span: s.status for s in report.segments}
    assert statuses["[2, 59]"] == "pass"
    assert statuses["(59, exp(58.336)]"] == "pass"
    assert statuses["(exp(58.336), exp(2000)]"] == "assumed"
    # the last stitching segment misses by a fraction of a percent and is flagged
    last = report.segments[-1]
    assert last.status == "margin"
    assert -0.02 < last.margin < 0.0
    assert report.hard_pass

_SEGMENT = "(59, exp(58.336)]"
_TAIL = "(exp(2000), exp(2488)]"


def _old_grid_min(row) -> float:
    """The 10^4-point log grid the (59, exp(58.336)] segment used to sample;
    a test oracle only."""
    lo, hi = math.log(59.0), 58.336
    step = (hi - lo) / 9999
    return min(row.log_rel_envelope(x) - (2.0 * math.log(x) - math.log(8.0 * math.pi) - x / 2.0)
               for x in [lo + i * step for i in range(9999)] + [hi])


def _segment(report, span):
    return next(s for s in report.segments if s.span == span)


def test_coverage_closed_form_margin_is_the_old_grid_minimum(default_rows, sieve_small):
    row = default_rows[0]
    seg = _segment(piecewise_coverage(row, sieve_small), _SEGMENT)
    assert seg.margin == _old_grid_min(row) == 5.151223978086184


@pytest.mark.parametrize("changes, premise", [
    ({"B": 2.0}, "B < 2"),
    ({"C": -0.1}, "C >= 0"),
    ({"C": 2.0}, "f'(log 59) > 0"),
    ({"A": 1e-3}, "f(log 59) >= 0"),
])
def test_coverage_segment_fails_closed(default_rows, sieve_small, changes, premise):
    report = piecewise_coverage(default_rows[0]._replace(**changes), sieve_small)
    seg = _segment(report, _SEGMENT)
    assert seg.status == "fail"
    assert f"not proved ({premise} fails)" in seg.detail  # the other three premises hold
    assert not report.hard_pass


def test_coverage_segment_holds_at_c_zero(default_rows, sieve_small):
    # C >= 0 is not strict: C = 0 leaves the closed-form segment proved
    assert _segment(piecewise_coverage(default_rows[0]._replace(C=0.0), sieve_small), _SEGMENT).status == "pass"


@pytest.mark.parametrize("changes", [{"C": 0.05}, {"C_unrounded": 0.05}])
def test_coverage_tail_needs_a_decreasing_envelope(default_rows, sieve_small, changes):
    # (2B/C)^2 = 3672 > 2000: the envelope still rises at log x = 2000
    report = piecewise_coverage(default_rows[0]._replace(**changes), sieve_small)
    assert _segment(report, _SEGMENT).status == "pass"
    assert _segment(report, _TAIL).status == "fail"
    premise = ("unrounded " if "C_unrounded" in changes else "") + "C sqrt(2000) >= 2B"
    assert _segment(report, _TAIL).detail.endswith(f"; decrease past log x = 2000 not proved ({premise} fails)")
    assert not report.hard_pass


def test_coverage_refuses_a_row_without_sqrt_decay(vk_row, sieve_small):
    with pytest.raises(ValueError, match="sqrt_log"):
        piecewise_coverage(vk_row, sieve_small)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 6.0), st.floats(1.0, 1.99), st.floats(0.0, 3.0))
@example(1.1, 1.99, 3.0)  # f(log 59) = 0.29 > 0, but f dips to -0.20 further in
def test_coverage_closed_form_never_passes_a_negative_grid(default_rows, sieve_small, log_a, b, c):
    row = default_rows[0]._replace(A=math.exp(log_a), B=b, C=c)
    if _segment(piecewise_coverage(row, sieve_small), _SEGMENT).status == "pass":
        assert _old_grid_min(row) >= 0.0


def test_coverage_evaluates_the_envelope_o1_times(default_rows, sieve_small, monkeypatch):
    calls = []
    envelope = engine.BoundConstants.log_rel_envelope

    def counting(self, *args, **kwargs):
        calls.append(args)
        return envelope(self, *args, **kwargs)

    monkeypatch.setattr(engine.BoundConstants, "log_rel_envelope", counting)
    piecewise_coverage(default_rows[0], sieve_small)
    assert len(calls) <= 4


def test_no_constants_without_certificate(density_table, monkeypatch):
    refused = [Premise("term 3 nonincreasing", -1.0, 0.0)]
    monkeypatch.setattr(engine, "certify_monotone", lambda *a, **k: refused)
    with pytest.raises(CertificationError, match=r"^monotonicity not proved \(term 3 nonincreasing fails\) at"):
        medium_bound(6000.0, 0.99, 4, density_table)
