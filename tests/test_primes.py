import functools
import math

import numpy as np
import pytest
from scipy import integrate, special

from pntbounds import primes
from pntbounds.primes import build_sieve, integral_I1, li, verify_pointwise


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_sieve_of_ten():
    assert list(build_sieve(10).primes) == [2, 3, 5, 7]


def test_sieve_matches_trial_division():
    table = build_sieve(3000)
    expected = [n for n in range(2, 3001) if _is_prime_trial(n)]
    assert list(table.primes) == expected


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 25, 26, 3001])
def test_odd_sieve_edges_match_trial_division(limit):
    # one or two odd flags (2, 3, 4), odd squares and their successors (9, 25, 26), an odd limit
    assert build_sieve(limit).primes.tolist() == [n for n in range(2, limit + 1)
                                                  if _is_prime_trial(n)]


def test_sieve_counts_the_primes_below_ten_million(sieve10m):
    assert sieve10m.pi_count(10**7) == 664579


def test_prime_counts_at_verification_endpoints(sieve_small):
    # oracle: trial division counts
    assert sum(_is_prime_trial(n) for n in range(2, 600)) == 109
    assert sieve_small.pi_count(599) == 109
    assert sum(_is_prime_trial(n) for n in range(2, 2658)) == 384
    assert sieve_small.pi_count(2657) == 384


def test_theta_by_direct_summation(sieve_small):
    oracle = math.log(2) + math.log(3) + math.log(5) + math.log(7)
    assert sieve_small.theta(10) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(5.34710753, abs=1e-7)


def test_psi_by_brute_force(sieve_small):
    # oracle: enumerate every prime power p^m <= 100 directly
    oracle = 0.0
    for p in range(2, 101):
        if _is_prime_trial(p):
            pk = p
            while pk <= 100:
                oracle += math.log(p)
                pk *= p
    assert oracle == pytest.approx(94.04531122935739, abs=1e-10)
    assert sieve_small.psi(100) == pytest.approx(oracle, abs=1e-10)


def test_pi_count_at_two(sieve_small):
    assert sieve_small.pi_count(2) == 1


def test_psi_equals_sum_of_theta_roots(sieve_small):
    rng = np.random.default_rng(3)
    for x in rng.uniform(10, 90_000, size=25):
        x = float(x)
        total = 0.0
        k = 1
        while x ** (1.0 / k) >= 2.0:
            total += sieve_small.theta(x ** (1.0 / k))
            k += 1
        assert sieve_small.psi(x) == pytest.approx(total, rel=1e-9)


def test_theta_below_psi_and_monotone(sieve_small):
    xs = np.linspace(2, 90_000, 200)
    prev_t = prev_p = 0.0
    for x in xs:
        t, p = sieve_small.theta(float(x)), sieve_small.psi(float(x))
        assert t <= p
        assert t >= prev_t and p >= prev_p
        prev_t, prev_p = t, p


def test_range_errors(sieve_small):
    with pytest.raises(ValueError):
        sieve_small.theta(1.5)
    with pytest.raises(ValueError):
        sieve_small.psi(200_000)
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(MemoryError):
        build_sieve(10**12)


def test_li_against_exponential_integral():
    # independent oracle: li(x) = Ei(log x)
    for x in (2.0, 10.0, 2657.0, 1e6, 2e8):
        assert li(x) == pytest.approx(float(special.expi(math.log(x))), rel=1e-11)
    assert li(2.0) == pytest.approx(1.04516378, abs=1e-7)
    assert li(1e6) == pytest.approx(78627.549159, abs=1e-5)


def test_li_against_mpmath_on_log_grid():
    mpmath = pytest.importorskip("mpmath")
    for x in np.geomspace(2.0, 2e9, 401):
        ref = mpmath.li(float(x))
        assert abs(li(float(x)) - ref) <= 1e-12 * abs(ref)


# li at the points below, as computed by the series tested at every term for the stop rule
_LI_HEX = {
    2.0: "0x1.0b8fda7e91807p+0", 2.5: "0x1.aad3d2c5bc1fap+0", 3.0: "0x1.14f078980c0e6p+1",
    math.e: "0x1.e52670f350d0ap+0", 10.0: "0x1.8a992eaa52e54p+2", 59.0: "0x1.4b87df1ad12edp+4",
    100.0: "0x1.e204ad09a49a4p+4", 599.0: "0x1.d5f5ed8e820e5p+6", 2657.0: "0x1.8f98c8fee0694p+8",
    1e4: "0x1.3788c82532177p+10", 12345.678: "0x1.76762ab9b5b23p+10", 1e5: "0x1.2cee78d58afd1p+13",
    2.0**20: "0x1.40d987147e54cp+16", 1e6: "0x1.33238c95b6ea5p+16", 7777777.7: "0x1.00d6d524a49cap+19",
    1e7: "0x1.44aaccf6286abp+19", 3e7: "0x1.c5aa518e622acp+20", 1e8: "0x1.5fb2858075727p+22",
    5e8: "0x1.922c60261bcfep+24", 1e9: "0x1.83f2e97a7f095p+25",
}


def test_li_stop_rule_every_fourth_term_gives_the_same_sum():
    # once every point passes the stop rule, later steps round away, so testing it
    # only on every 4th term returns the sum bit for bit
    assert {x: li(x).hex() for x in _LI_HEX} == _LI_HEX
    assert [v.hex() for v in li(np.array(list(_LI_HEX))).tolist()] == list(_LI_HEX.values())


def test_li_over_an_array_equals_its_float_calls(sieve_small):
    # with numpy's log for ln x (at 4.663, 5.423, 10.024) or ln ln x (at 6.969, 13.604,
    # 19.618) li's last bit differs (numpy 2.4, x86-64), so the array path uses math.log
    xs = np.concatenate([sieve_small.primes.astype(np.float64), np.geomspace(2.0, 2e9, 401),
                         [2.0, 2.5, 4.663, 5.423, 10.024, 6.969, 13.604, 19.618]])
    got = li(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert [v.hex() for v in got.tolist()] == [li(x).hex() for x in xs.tolist()]
    assert isinstance(li(2.5), float) and li(np.array([])).size == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -3.0])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_li_over_an_array_refuses_any_bad_point(bad, at):
    xs = [10.0, 1e4, 1e6]
    xs[at] = bad
    with pytest.raises(ValueError, match=f"li requires finite x >= 2, got {bad}"):
        li(np.array(xs))


def test_li_additivity():
    # li(x) - li(2) equals the ordinary integral of 1/log t over [2, x]
    for x in (10.0, 1e4):
        plain, _ = integrate.quad(lambda t: 1.0 / math.log(t), 2.0, x, limit=200,
                                  epsabs=1e-12, epsrel=1e-12)
        assert li(x) - li(2.0) == pytest.approx(plain, abs=1e-9)


def test_li_domain():
    with pytest.raises(ValueError):
        li(1.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_li_refuses_non_finite(x):
    # for NaN or inf the series would never end
    with pytest.raises(ValueError, match="li requires finite x >= 2"):
        li(x)


def test_integral_i1(sieve_small):
    # oracle: 30-digit quadrature on each prime gap, theta summed from trial-division primes
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        primes = [p for p in range(2, 600) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        theta, oracle = mpmath.mpf(0), mpmath.mpf(0)
        for a, b in zip(primes[:-1], primes[1:]):  # 599 is prime, so the last gap ends there
            theta += mpmath.log(a)
            oracle += mpmath.quad(lambda t: abs(theta - t) / (t * mpmath.log(t) ** 2), [a, b])
    got = integral_I1(sieve_small)
    assert abs(got - float(oracle)) < 1e-12
    assert 0.0 < got <= 5.43


def test_verify_pointwise_passes_published_envelopes(sieve_small):
    def psi_bound(x):
        lx = math.log(x)
        return 9.39 * x * lx**1.515 * math.exp(-0.8274 * math.sqrt(lx))

    rep = verify_pointwise(sieve_small, psi_bound, "psi", 2.0, 59.0)
    assert rep.passed and rep.worst_margin > 0.0

    def theta_bound(x):
        lx = math.log(x)
        return 9.40 * x * lx**1.515 * math.exp(-0.8274 * math.sqrt(lx))

    rep = verify_pointwise(sieve_small, theta_bound, "theta", 2.0, 599.0)
    assert rep.passed

    def pi_bound(x):
        lx = math.log(x)
        return 9.59 * x * lx**0.515 * math.exp(-0.8274 * math.sqrt(lx))

    rep = verify_pointwise(sieve_small, pi_bound, "pi", 2.0, 2657.0)
    assert rep.passed


def test_verify_pointwise_catches_violations(sieve_small):
    rep = verify_pointwise(sieve_small, lambda x: 0.1, "psi", 2.0, 59.0)
    assert not rep.passed
    assert rep.worst_margin < 0.0


def test_verify_pointwise_checks_left_limits(sieve_small):
    # a bound that holds at every jump value but fails just below x = 3:
    # |psi(3-) - 3| = 3 - log 2 is about 2.307
    def bound(x):
        return abs(sieve_small.psi(x) - x) + 0.01

    rep = verify_pointwise(sieve_small, bound, "psi", 2.0, 10.0)
    assert not rep.passed


def test_verify_pointwise_calls_li_once_and_bound_once_per_point(sieve_small, monkeypatch):
    li_calls, bound_calls = [], []

    def counting_li(x):
        li_calls.append(x)
        return li(x)

    def bound(x):
        bound_calls.append(x)
        return x

    monkeypatch.setattr(primes, "li", counting_li)
    rep = verify_pointwise(sieve_small, bound, "pi", 2.0, 2657.0)
    assert len(li_calls) == 1 and li_calls[0].size == 384  # 384 primes; lo = 2 and hi = 2657 are two
    assert bound_calls == li_calls[0].tolist() and rep.n_points == 770
    li_calls.clear()
    bound_calls.clear()
    verify_pointwise(sieve_small, bound, "psi", 2.0, 59.0)
    # once at each jump, lo = 2 and hi = 59 among them, never again at a left limit
    assert li_calls == [] and bound_calls == sieve_small.steps("psi", 2.0, 59.0)[0].tolist()
    bound_calls.clear()
    rep = verify_pointwise(sieve_small, bound, "psi", 2.5, 60.5)
    # endpoints that are not jumps are checked after the jumps
    jumps = sieve_small.steps("psi", 2.5, 60.5)[0].tolist()
    assert bound_calls == [*jumps, 2.5, 60.5] and rep.n_points == 2 * len(jumps) + 2


def test_verify_pointwise_range_guard(sieve_small):
    with pytest.raises(ValueError):
        verify_pointwise(sieve_small, lambda x: 1.0, "psi", 2.0, 1e9)


# -- the prime-power table, checked against brute force ------------------------


@functools.lru_cache(maxsize=None)
def _brute_steps(limit: int):
    """(n, pi, theta, psi, log p if n = p^m else 0, n is prime) for n in [2, limit]."""
    rows, pi_n, theta_n, psi_n = [], 0, 0.0, 0.0
    for n in range(2, limit + 1):
        base = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)  # least prime factor
        m = n
        while m % base == 0:
            m //= base
        jump = math.log(base) if m == 1 else 0.0
        if base == n:
            pi_n += 1
            theta_n += jump
        psi_n += jump
        rows.append((n, pi_n, theta_n, psi_n, jump, base == n))
    return rows


@pytest.fixture(scope="module")
def sieve5000():
    return build_sieve(5000)


def test_psi_theta_pi_match_brute_force_everywhere(sieve5000):
    for n, pi_n, theta_n, psi_n, _, _ in _brute_steps(5000):
        for x in (float(n), n + 0.5):
            if x > 5000:
                continue
            assert sieve5000.pi_count(x) == pi_n
            assert sieve5000.theta(x) == pytest.approx(theta_n, rel=1e-13, abs=1e-13)
            assert sieve5000.psi(x) == pytest.approx(psi_n, rel=1e-13, abs=1e-13)


# prime powers 8, 9 and 4096 among the ends, and starts that are not jumps
_RANGES = [(8, 32), (9, 9.5), (7.5, 50.3), (2, 5000), (4096, 4096.5)]


@pytest.mark.parametrize("lo, hi", _RANGES)
def test_jumps_match_brute_force(sieve5000, lo, hi):
    steps = [s for s in _brute_steps(5000) if lo <= s[0] <= hi]
    want = {
        "psi": [n for n, _, _, _, jump, _ in steps if jump],
        "theta": [n for n, _, _, _, _, prime in steps if prime],
        "pi": [n for n, _, _, _, _, prime in steps if prime],
    }
    for quantity, ns in want.items():
        assert sieve5000.steps(quantity, lo, hi)[0].tolist() == ns
    assert sieve5000.steps("psi", 8, 32)[0].tolist() == [8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                                                         29, 31, 32]
    assert sieve5000.steps("psi", 9, 9.5)[0].tolist() == [9.0]


@pytest.mark.parametrize("lo, hi", _RANGES)
def test_steps_match_brute_force(sieve5000, lo, hi):
    # f is constant on [n - 1, n), so just below a jump n it is f(n - 1); the
    # values are sums near 5000, where doubles lie 9.1e-13 apart
    f = {n: (pi_n, theta_n, psi_n) for n, pi_n, theta_n, psi_n, _, _ in _brute_steps(5000)}
    f[1] = (0, 0.0, 0.0)
    for i, quantity in enumerate(("pi", "theta", "psi")):
        xs, f_at, f_below = sieve5000.steps(quantity, lo, hi)
        assert f_at == pytest.approx([f[n][i] for n in xs.tolist()], rel=0, abs=2e-12)
        assert f_below == pytest.approx([f[n - 1][i] for n in xs.tolist()], rel=0, abs=2e-12)


def test_psi_independent_of_sieve_size(sieve_small, sieve10m):
    xs = sieve_small.steps("psi", 2.0, 100_000.0)[0]
    for x in np.concatenate([xs, xs - 0.5, [100_000.0]]).tolist():
        if x >= 2.0:
            assert sieve10m.psi(x) == sieve_small.psi(x)


def _reference_report(quantity, bound, hi, lo=2.0):
    """verify_pointwise by one Python pass over brute-force steps, in its order."""
    pts, values = [], {}
    for n, pi_n, theta_n, psi_n, jump, prime in _brute_steps(int(hi)):
        after = values[n] = {"pi": pi_n, "theta": theta_n, "psi": psi_n}[quantity]
        if n >= lo and jump and (prime or quantity == "psi"):
            pts += [(float(n), after), (float(n), after - (1 if quantity == "pi" else jump))]
    pts += [(lo, values[math.floor(lo)]), (hi, values[math.floor(hi)])]
    worst, worst_x, passed = math.inf, None, True
    for x, f in pts:
        m = bound(x) - abs(f - (li(x) if quantity == "pi" else x))  # li per point, as a float call
        if not m >= 0.0:
            passed = False
        if m < worst or (math.isnan(m) and not math.isnan(worst)):
            worst, worst_x = m, x
    return len(pts), passed, worst_x, worst


@pytest.mark.parametrize("quantity, hi", [("psi", 2900.0), ("theta", 45_000.0), ("pi", 45_000.0)])
@pytest.mark.parametrize("scale, shift", [(0.3, 0.0), (0.4, 3.0), (0.25, 5.0)])
def test_verify_pointwise_matches_pointwise_reference(sieve10m, quantity, hi, scale, shift):
    # bounds that fail, pass, and pass psi but fail theta at x = 1423; pi's main term is li(x)
    def bound(x):
        return scale * math.sqrt(x) * math.log(x) + shift

    n, passed, worst_x, worst = _reference_report(quantity, bound, hi)
    rep = verify_pointwise(sieve10m, bound, quantity, 2.0, hi)
    assert (rep.n_points, rep.passed, rep.worst_x) == (n, passed, worst_x)
    assert rep.worst_margin == pytest.approx(worst, rel=1e-9)


@pytest.mark.parametrize("quantity", ["psi", "theta", "pi"])
@pytest.mark.parametrize("lo", [7.5, 8.0, 9.0])
@pytest.mark.parametrize("scale, shift", [(0.3, 0.0), (0.4, 3.0)])
def test_verify_pointwise_matches_reference_from_any_start(sieve10m, quantity, lo, scale, shift):
    # lo off a jump (7.5), at a prime power (8 = 2^3, 9 = 3^2): psi jumps there, theta does not
    def bound(x):
        return scale * math.sqrt(x) * math.log(x) + shift

    n, passed, worst_x, worst = _reference_report(quantity, bound, 2900.0, lo)
    rep = verify_pointwise(sieve10m, bound, quantity, lo, 2900.0)
    assert (rep.n_points, rep.passed, rep.worst_x) == (n, passed, worst_x)
    assert rep.worst_margin == pytest.approx(worst, rel=1e-9)


# -- fail closed ---------------------------------------------------------------


def test_verify_pointwise_nan_bound_fails(sieve_small):
    rep = verify_pointwise(sieve_small, lambda x: float("nan"), "psi", 2.0, 59.0)
    assert not rep.passed
    assert math.isnan(rep.worst_margin) and rep.worst_x == 2.0

    def nan_at_16(x):
        return float("nan") if x == 16.0 else 1e6

    rep = verify_pointwise(sieve_small, nan_at_16, "psi", 2.0, 59.0)
    assert not rep.passed
    assert math.isnan(rep.worst_margin) and rep.worst_x == 16.0


@pytest.mark.parametrize("lo, hi", [(math.nan, 59.0), (2.0, math.nan), (math.inf, 59.0),
                                    (2.0, math.inf), (-math.inf, 59.0), (59.0, 59.0),
                                    (1.5, 59.0)])
def test_verify_pointwise_rejects_bad_ranges_before_work(sieve_small, lo, hi):
    calls = []
    with pytest.raises(ValueError, match="bad range"):
        verify_pointwise(sieve_small, calls.append, "psi", lo, hi)
    assert calls == []


def test_verify_pointwise_rejects_unknown_quantity(sieve_small):
    calls = []
    with pytest.raises(ValueError, match="unknown quantity 'foo'"):
        verify_pointwise(sieve_small, calls.append, "foo", 2.0, 59.0)
    assert calls == []
