"""Integer arithmetic against plain reference computations."""

import pytest

from covercalc import arith


def trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_trial_division_up_to_10_000():
    for n in range(1, 10_001):
        assert arith.factorize(n) == trial_division(n), n


def test_prime_factors_and_prime_powers_up_to_2000():
    for n in range(1, 2001):
        fac = trial_division(n)
        assert arith.prime_factors(n) == [p for p, _ in fac]
        assert arith.is_prime_power(n) == (len(fac) == 1)


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    assert not arith.is_prime(n)
    fac = arith.factorize(n)
    assert len(fac) > 1 or fac[0][1] > 1
    assert all(arith.is_prime(p) for p, _ in fac)
    product = 1
    for p, e in fac:
        product *= p ** e
    assert product == n


def test_mersenne_prime_2_61_minus_1():
    assert arith.is_prime(2 ** 61 - 1)
    assert arith.factorize(2 ** 61 - 1) == [(2 ** 61 - 1, 1)]
    assert arith.is_prime_power(2 ** 61 - 1)


@pytest.mark.parametrize("p, q", [(1000000007, 1000000009),
                                  (999999937, 1000000007),
                                  (999999929, 999999937)])
def test_products_of_two_primes_near_10_9(p, q):
    assert arith.is_prime(p) and arith.is_prime(q)
    assert not arith.is_prime(p * q)
    assert arith.factorize(p * q) == [(p, 1), (q, 1)]
    assert arith.factorize(6 * p * q) == [(2, 1), (3, 1), (p, 1), (q, 1)]
    assert arith.factorize(p * p) == [(p, 2)]
    assert not arith.is_prime_power(p * q)
    assert arith.is_prime_power(p * p)


def test_primes_up_to_matches_is_prime():
    for n in (0, 1, 2, 3, 10, 97, 100, 5000):
        assert arith.primes_up_to(n) == [k for k in range(n + 1)
                                         if arith.is_prime(k)]


def test_prime_power_of_large_exponent():
    assert arith.is_prime_power(2 ** 100)
    assert arith.is_prime_power(3 ** 60)
    assert not arith.is_prime_power(6 ** 30)
    assert not arith.is_prime_power(0)


def test_undecided_primality_raises():
    with pytest.raises(ValueError):
        arith.is_prime(10 ** 30 + 57)
    with pytest.raises(ValueError):
        arith.factorize(0)
