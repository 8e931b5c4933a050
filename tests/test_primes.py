import functools
import math

import numpy as np
import pytest
from scipy import integrate, special

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


@pytest.mark.parametrize("lo, hi", [(8, 32), (9, 9.5), (7.5, 50.3), (2, 5000), (4096, 4096.5)])
def test_jumps_match_brute_force(sieve5000, lo, hi):
    steps = [s for s in _brute_steps(5000) if lo <= s[0] <= hi]
    want = {
        "psi": [(n, j) for n, _, _, _, j, _ in steps if j],
        "theta": [(n, j) for n, _, _, _, j, prime in steps if prime],
        "pi": [(n, 1.0) for n, _, _, _, _, prime in steps if prime],
    }
    for quantity, pairs in want.items():
        xs, sizes = sieve5000.jumps(quantity, lo, hi)
        assert xs.tolist() == [float(n) for n, _ in pairs]
        assert sizes == pytest.approx([j for _, j in pairs], rel=1e-15)
    assert sieve5000.jumps("psi", 8, 32)[0].tolist() == [8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                                                         29, 31, 32]
    assert sieve5000.jumps("psi", 9, 9.5)[0].tolist() == [9.0]


def test_psi_independent_of_sieve_size(sieve_small, sieve10m):
    xs, _ = sieve_small.jumps("psi", 2.0, 100_000.0)
    for x in np.concatenate([xs, xs - 0.5, [100_000.0]]).tolist():
        if x >= 2.0:
            assert sieve10m.psi(x) == sieve_small.psi(x)


def _reference_report(quantity, bound, hi):
    """verify_pointwise by one Python pass over brute-force steps, in its order."""
    pts = []
    for n, _, theta_n, psi_n, jump, prime in _brute_steps(int(hi)):
        after = psi_n if quantity == "psi" else theta_n
        if jump and (prime or quantity == "psi"):
            pts += [(float(n), after), (float(n), after - jump)]
    last = _brute_steps(int(hi))[-1]
    value = last[3] if quantity == "psi" else last[2]
    pts += [(2.0, math.log(2.0)), (hi, value)]
    worst, worst_x, passed = math.inf, None, True
    for x, f in pts:
        m = bound(x) - abs(f - x)
        if not m >= 0.0:
            passed = False
        if m < worst or (math.isnan(m) and not math.isnan(worst)):
            worst, worst_x = m, x
    return len(pts), passed, worst_x, worst


@pytest.mark.parametrize("quantity, hi", [("psi", 2900.0), ("theta", 45_000.0)])
@pytest.mark.parametrize("scale, shift", [(0.3, 0.0), (0.4, 3.0), (0.25, 5.0)])
def test_verify_pointwise_matches_pointwise_reference(sieve10m, quantity, hi, scale, shift):
    # bounds that fail, pass, and pass psi but fail theta at x = 1423
    def bound(x):
        return scale * math.sqrt(x) * math.log(x) + shift

    n, passed, worst_x, worst = _reference_report(quantity, bound, hi)
    rep = verify_pointwise(sieve10m, bound, quantity, 2.0, hi)
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
