import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pntbounds import cli, derived
from pntbounds.derived import (
    CertificationError,
    GAP_A1,
    GAP_A2,
    pi_constants_classical,
    pi_constants_vk,
    theta_constants,
)
from pntbounds.engine import REGIMES, _round_up
from pntbounds.primes import verify_pointwise
from pntbounds.extnum import ExtReal
from pntbounds.regimes import decay_arg_prime, log_envelope, vk_decay_arg


def test_theta_constants_all_rows(default_rows):
    for row in default_rows:
        tc = theta_constants(row)
        assert tc.A1 == pytest.approx(row.A + 0.01, rel=1e-15)


def test_theta_default_extra_is_what_eval_serves(default_rows, vk_row, capsys):
    # one unit in the last decimal of A: 0.01 on the 2-decimal medium and large
    # rows, 0.001 on the 3-decimal VK row (a flat 0.01 default gave it 0.043)
    rows = [*default_rows, vk_row]
    a1 = {r.label: r.A + (0.001 if r.regime == "vk" else 0.01) for r in rows}
    assert {r.label: theta_constants(r).A1 for r in rows} == a1
    assert a1["vk"] == pytest.approx(0.034, abs=1e-12)
    for row in rows:
        log_x = max(row.X, 58.0)
        assert cli.main(["eval", "--log-x", repr(log_x), "--quantity", "theta", "--format", "json"]) == 0
        served = json.loads(capsys.readouterr().out)
        want = min((log_envelope(r.u_kind, math.log(a1[r.label]), r.B, r.C, log_x), r.label)
                   for r in rows if r.X <= log_x)
        rel = served["relative_bound"]
        assert (rel["mantissa"], rel["decimal_exponent"], served["source"]) == (
            *ExtReal.exp_of(want[0]).log10_parts(), want[1])


def test_served_envelopes_list_each_quantitys_sets_in_order(default_rows, vk_row):
    # psi serves each row as certified, theta each row with its A1 for A, and pi the
    # classical set (which verify-small checks) before the VK one, both with B - 1
    rows = [*default_rows, vk_row]
    assert derived.served_envelopes("psi", rows) == [(r.label, r.u_kind, r.A, r.B, r.C) for r in rows]
    theta = derived.served_envelopes("theta", rows)
    assert theta == [(r.label, r.u_kind, theta_constants(r).A1, r.B, r.C) for r in rows]
    assert all(a1 > r.A for (_, _, a1, _, _), r in zip(theta, rows))
    pis = [("classical", pi_constants_classical()), ("vk", pi_constants_vk())]
    want = [(name, p.u_kind, p.A2, p.B - 1.0, p.C) for name, p in pis]
    assert derived.served_envelopes("pi", rows) == derived.served_envelopes("pi", []) == want
    with pytest.raises(ValueError, match="unknown quantity 'li'"):
        derived.served_envelopes("li", rows)


def test_theta_gap_absorption_is_generous(default_rows):
    # at the left endpoint the gap is about 2.5e-13 versus a bump above 8e-3
    row = default_rows[0]
    lhs = 0.01 * 58.0**row.B * math.exp(-row.C * math.sqrt(58.0))
    rhs = GAP_A1 * math.exp(-29.0) + GAP_A2 * math.exp(-58.0 * 2.0 / 3.0)
    assert lhs > 1e9 * rhs
    assert lhs == pytest.approx(8.6e-3, rel=0.02)


def test_theta_constants_vk(vk_row):
    tc = theta_constants(vk_row, extra=0.001)
    assert tc.A1 == pytest.approx(vk_row.A + 0.001, rel=1e-15)


@pytest.mark.parametrize("base_extra, changes, extra, premise", [
    (0.01, {}, 1e-30, "extra L^B e^(-C u) >= (a1 + a2) x^(-1/2)"),
    # a huge bump still covers the gap, but C u'(58) = 8/(2 sqrt 58) > 1/2 lets the ratio fall
    (1e30, {"C": 8.0}, 1e30, "C u' < 1/2"),
], ids=["absorbed", "ratio_increasing"])
def test_theta_constants_name_the_failed_gap_premise(default_rows, base_extra, changes, extra, premise):
    theta_constants(default_rows[0], extra=base_extra)  # one input changed from a certified call
    with pytest.raises(CertificationError) as refused:
        theta_constants(default_rows[0]._replace(**changes), extra=extra)
    assert str(refused.value) == f"gap absorption not proved ({premise} fails) at log x = 58"


@pytest.mark.parametrize("extra", [math.nan, math.inf, -math.inf, 0.0, -0.01])
def test_theta_constants_refuse_bad_extra(default_rows, extra):
    with pytest.raises(ValueError, match="extra must be finite and > 0"):
        theta_constants(default_rows[0], extra=extra)


def test_pi_classical_constants():
    pc = pi_constants_classical()
    assert 9.55 <= pc.A2_unrounded <= 9.59
    assert pc.A2 == 9.59
    # pieces: the second term is 58^(1 - B - alpha), the third is ~4e-12
    second = 58.0 ** (1.0 - 1.515 - 0.45)
    assert second == pytest.approx(0.0199, abs=1e-4)
    third = pc.A2_unrounded / 9.40 - 1.0 - second
    assert 0.0 < third < 1e-11


def test_pi_classical_h_condition_margin_at_left_end():
    lhs = 58.0 - 0.45 - 0.8274 * math.sqrt(58.0) / 2.0
    assert lhs == pytest.approx(54.4, abs=0.05)
    assert lhs >= 58.0**0.965
    assert 58.0**0.965 == pytest.approx(50.3, abs=0.05)


def test_i2_recomputed_below_ceiling():
    pc = pi_constants_classical()
    want = (math.exp(29.0) - math.sqrt(599.0)) / (4.0 * math.pi)
    assert pc.i2_recomputed == pytest.approx(want, rel=1e-12)
    assert pc.i2_recomputed == pytest.approx(3.128e11, rel=1e-3)
    assert pc.i2_recomputed <= pc.i2_used == 7.87e12


def test_pi_vk_constants():
    pv = pi_constants_vk()
    assert 0.0270 <= pv.A2_unrounded <= 0.0280
    assert pv.A2 == 0.028
    assert pv.A2_unrounded == pytest.approx(0.027 * (1.0 + 58.0**-0.991), abs=2e-6)


def test_vk_decay_derivative_value():
    # with the consistent log^(2/5) denominator the value at exp(58) is ~0.082
    got = decay_arg_prime("vk_r", 58.0)
    want = (3.0 * math.log(58.0) - 1.0) / (5.0 * 58.0**0.4 * math.log(58.0) ** 1.2)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.08201, abs=1e-5)
    # finite-difference cross-check of d u / d log t
    h = 1e-6
    fd = (vk_decay_arg(58.0 + h) - vk_decay_arg(58.0 - h)) / (2.0 * h)
    assert got == pytest.approx(fd, rel=1e-6)


def test_vk_h_condition_chain_at_left_end():
    # log t - alpha - C t log t u'(t) >= log^(B+alpha-1) t with the true derivative
    c = 0.1853
    lhs = 58.0 - 0.19 - c * 58.0 * decay_arg_prime("vk_r", 58.0)
    assert lhs >= 58.0**0.991
    assert lhs - 58.0**0.991 == pytest.approx(0.99, abs=0.02)


def test_pi_vk_third_term_readings_agree():
    u0 = vk_decay_arg(58.0)
    base = (2.0 / math.log(2.0) + 5.43 + 7.87e12) * 58.0 ** (1.0 - 1.801) / (0.027 * math.exp(58.0))
    pow_reading = base * u0**0.1853
    exp_reading = base * math.exp(0.1853 * u0)
    assert pow_reading == pytest.approx(1.1e-12, rel=0.1)
    assert exp_reading == pytest.approx(3.6e-12, rel=0.1)
    assert round(0.027 * (1 + 58.0**-0.991 + pow_reading), 3) == round(
        0.027 * (1 + 58.0**-0.991 + exp_reading), 3)


def test_pi_envelope_dominates_assembled_pieces():
    # A2 x log^(B-1) x e^(-C u) versus the transfer pieces it was built from
    pc = pi_constants_classical()
    a1, b, c, alpha = pc.A1, pc.B, pc.C, pc.alpha
    const = 2.0 / math.log(2.0) + 5.43 + 7.87e12
    rng = np.random.default_rng(31)
    for log_x in 58.0 + rng.random(100) * 5000.0:
        log_x = float(log_x)
        u = math.sqrt(log_x)
        env = math.log(pc.A2_unrounded) + (b - 1.0) * math.log(log_x) - c * u + log_x
        theta_piece = math.log(a1) + (b - 1.0) * math.log(log_x) - c * u + log_x
        tail = math.log(a1) - alpha * math.log(log_x) - c * u + log_x
        pieces = np.logaddexp.reduce([theta_piece, tail, math.log(const)])
        assert pieces <= env + 1e-12


def test_pi_envelope_passes_small_range_and_medium_bridge(sieve_small):
    pc = pi_constants_classical()

    def bound(x):
        lx = math.log(x)
        return pc.A2 * x * lx ** (pc.B - 1.0) * math.exp(-pc.C * math.sqrt(lx))

    rep = verify_pointwise(sieve_small, bound, "pi", 2.0, 2657.0)
    assert rep.passed
    # above the sieve range the envelope dominates sqrt(x) log x/(8 pi)
    for log_x in np.linspace(math.log(2657.0), 58.336, 2000):
        have = math.log(pc.A2) + (pc.B - 1.0) * math.log(log_x) - pc.C * math.sqrt(log_x)
        need = math.log(log_x) - math.log(8.0 * math.pi) - log_x / 2.0
        assert have >= need


def test_derived_helpers_reexported():
    assert derived.I1_CEIL == 5.43
    assert derived.I2_CEIL == 7.87e12


def test_pi_constants_pinned_bit_for_bit():
    want = {
        pi_constants_classical: dict(
            A2_unrounded="0x1.32c7378dd7b45p+3", A2="0x1.32e147ae147aep+3",
            A1="0x1.2cccccccccccdp+3", B="0x1.83d70a3d70a3dp+0", C="0x1.a7a0f9096bb99p-1",
            alpha="0x1.ccccccccccccdp-2", u_kind="sqrt_log",
            i2_used="0x1.ca18237b00000p+42", i2_recomputed="0x1.235c36b67a8ffp+38"),
        pi_constants_vk: dict(
            A2_unrounded="0x1.c24766c97127cp-6", A2="0x1.cac083126e979p-6",
            A1="0x1.ba5e353f7ced9p-6", B="0x1.cd0e560418937p+0", C="0x1.7b7e90ff97247p-3",
            alpha="0x1.851eb851eb852p-3", u_kind="vk_r",
            i2_used="0x1.ca18237b00000p+42", i2_recomputed="0x1.235c36b67a8ffp+38"),
    }
    for build, fields in want.items():
        got = {k: v.hex() if isinstance(v, float) else v
               for k, v in build()._asdict().items()}
        assert got == fields


_H_GRID = np.geomspace(58.0, 1e8, 20001)


def _h_on_grid(B, C, alpha, u_kind):
    """Test-side oracle: h(L) = L - alpha - C L u'(L) - L^(B+alpha-1) on a dense log grid."""
    L = _H_GRID
    ll = np.log(L)
    if u_kind == "sqrt_log":
        up = 1.0 / (2.0 * np.sqrt(L))
    else:
        up = (3.0 * ll - 1.0) / (5.0 * L**0.4 * ll**1.2)
    return L - alpha - C * L * up - L ** (B + alpha - 1.0)


def _h_proved(B, C, alpha, u_kind):
    try:
        derived._check_h_condition(B, C, alpha, u_kind)
    except CertificationError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 2.5), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
       st.sampled_from(["sqrt_log", "vk_r"]))
def test_h_condition_closed_form_never_beats_dense_grid(B, C, alpha, u_kind):
    h = _h_on_grid(B, C, alpha, u_kind)
    if _h_proved(B, C, alpha, u_kind):
        assert h.min() >= 0.0
    elif B + alpha <= 2.0:
        # inside its premises the closed form refuses only a failing left end
        assert h[0] < 1e-12


@pytest.mark.parametrize("which", range(3))
def test_h_condition_refuses_nan(which):
    args = [1.515, 0.8274, 0.45]
    args[which] = math.nan
    with pytest.raises(CertificationError):
        derived._check_h_condition(*args, "sqrt_log")


@pytest.mark.parametrize("delta, proved", [(-1e-3, False), (5e-13, False), (1e-3, True)])
def test_h_condition_decided_at_58(delta, proved):
    # C puts h(58) just below 0, inside the 1e-12 float allowance, or above it;
    # h(59) is about 0.5 in every case
    C = 2.0 * (57.0 - delta) / math.sqrt(58.0)
    h = _h_on_grid(1.0, C, 0.0, "sqrt_log")
    assert h[0] == pytest.approx(delta, abs=1e-9)
    assert _h_proved(1.0, C, 0.0, "sqrt_log") is proved


def test_h_condition_returns_its_premises():
    premises = derived._check_h_condition(1.515, 0.8274, 0.45, "sqrt_log")
    assert [p.name for p in premises] == ["alpha >= 0", "C >= 0", "B + alpha <= 2", "u' nonincreasing",
                                          "h(58) >= 0"]
    assert all(p.holds and p.margin > 0.0 and p.at == 58.0 for p in premises)
    assert premises[-1].margin == pytest.approx(4.08, abs=0.01)


def test_h_condition_names_each_premise():
    for args, premise in [((2.5, 0.0, 0.0, "sqrt_log"), "B + alpha <= 2"),
                          ((1.515, -0.1, 0.45, "sqrt_log"), "C >= 0"),
                          ((1.515, 0.8274, -0.1, "sqrt_log"), "alpha >= 0"),
                          ((1.515, 0.8274, 0.45, "sqrt"), "u' nonincreasing")]:
        with pytest.raises(CertificationError, match=re.escape(premise)):
            derived._check_h_condition(*args)


def test_h_condition_holds_b_plus_alpha_at_two():
    # B + alpha <= 2 is not strict: at exactly 2 it holds, and h(58) = -alpha alone refuses
    assert 1.5 + 0.5 == 2.0
    with pytest.raises(CertificationError, match=r"^h' condition not proved \(h\(58\) >= 0 fails\)"):
        derived._check_h_condition(1.5, 0.0, 0.5, "sqrt_log")


def test_h_condition_alpha_premise_is_load_bearing():
    # alpha < 0 with h(58) > 0: h = 4 - sqrt(L)/2 turns negative at L = 64
    h = _h_on_grid(6.0, 1.0, -4.0, "sqrt_log")
    assert h[0] > 0.0 > h.min()
    assert not _h_proved(6.0, 1.0, -4.0, "sqrt_log")


def test_pi_builder_refuses_disagreeing_readings():
    with pytest.raises(CertificationError, match="readings disagree"):
        derived._pi_constants(0.027, 1.801, 0.1853, 0.19, "vk", (1.0, 1e12))


@pytest.mark.parametrize("build, regime", [(pi_constants_classical, "medium"), (pi_constants_vk, "vk")])
def test_pi_constants_take_their_regimes_decay_and_decimals(build, regime):
    pi, rec = build(), REGIMES[regime]
    assert pi.u_kind == rec.kind
    assert [d for d in range(6) if _round_up(pi.A2_unrounded, d) == pi.A2] == [rec.a_decimals]
