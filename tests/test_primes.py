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


def test_integral_i1(sieve_small):
    v64 = integral_I1(sieve_small, intervals_per_segment=64)
    v128 = integral_I1(sieve_small, intervals_per_segment=128)
    assert abs(v64 - v128) < 1e-3
    auto = integral_I1(sieve_small)
    assert 0.0 < auto <= 5.43
    assert auto == pytest.approx(v128, abs=1e-3)


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
