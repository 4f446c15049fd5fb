"""Integer arithmetic: primality, factorization and prime enumeration.

is_prime is deterministic Miller-Rabin over the prime bases 2..37, which
is exact below _MR_LIMIT (the least strong pseudoprime to all twelve
bases); larger inputs raise ValueError rather than answer on probation.
factorize removes small primes by trial division and splits what is left
with Pollard-Brent rho, so any input below 2^63 factors in milliseconds.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461
_RHO_BATCH = 128


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


_SMALL_PRIMES = primes_up_to(1000)


def is_prime(n: int) -> bool:
    """Exact primality for n below _MR_LIMIT; ValueError above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided above {_MR_LIMIT}")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _rho(m)
            rest += [d, m // d]
    return sorted(exps.items())


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending."""
    return [p for p, _ in factorize(n)]


def is_prime_power(q: int) -> bool:
    """True iff q = p^e for a prime p and e >= 1.

    The largest e with q an exact e-th power leaves a base that is not a
    perfect power itself, so q is a prime power iff that base is prime.
    """
    if q < 2:
        return False
    e = max(e for e in range(1, q.bit_length() + 1) if _iroot(q, e) ** e == q)
    return is_prime(_iroot(q, e))


def _iroot(n: int, e: int) -> int:
    """The largest r with r^e <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard-Brent rho)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
