"""Gaussian integer arithmetic and prime factorization.

Elements are plain (a, b) int pairs meaning a + b*i.  The canonical
associate of a nonzero element is the unique one with a >= 1 and
-a < b <= a; under that rule the two conjugate primes above a split
rational prime get distinct representatives (e.g. 2+i and 2-i), the
ramified prime is 1+i, and inert primes are positive integers.
"""

from __future__ import annotations

from . import arith

Gauss = tuple  # (a, b) for a + b*i

ZERO: Gauss = (0, 0)
ONE: Gauss = (1, 0)
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def norm(z: Gauss) -> int:
    return z[0] * z[0] + z[1] * z[1]


def add(z: Gauss, w: Gauss) -> Gauss:
    return (z[0] + w[0], z[1] + w[1])


def sub(z: Gauss, w: Gauss) -> Gauss:
    return (z[0] - w[0], z[1] - w[1])


def mul(z: Gauss, w: Gauss) -> Gauss:
    a, b = z
    c, d = w
    return (a * c - b * d, a * d + b * c)


def conj(z: Gauss) -> Gauss:
    return (z[0], -z[1])


def power(z: Gauss, e: int) -> Gauss:
    out = ONE
    for _ in range(e):
        out = mul(out, z)
    return out


def divmod_round(z: Gauss, w: Gauss) -> tuple[Gauss, Gauss]:
    """Euclidean division with remainder of norm < norm(w)."""
    if w == ZERO:
        raise ZeroDivisionError("Gaussian division by zero")
    n = norm(w)
    zc = mul(z, conj(w))
    q = (_round_div(zc[0], n), _round_div(zc[1], n))
    r = sub(z, mul(q, w))
    return q, r


def _round_div(a: int, n: int) -> int:
    # nearest integer to a/n, ties toward +inf; n > 0
    return (2 * a + n) // (2 * n)


def divides(w: Gauss, z: Gauss) -> bool:
    return divmod_round(z, w)[1] == ZERO


def exact_div(z: Gauss, w: Gauss) -> Gauss:
    q, r = divmod_round(z, w)
    if r != ZERO:
        raise ValueError(f"{w} does not divide {z}")
    return q


def gcd(z: Gauss, w: Gauss) -> Gauss:
    while w != ZERO:
        z, w = w, divmod_round(z, w)[1]
    return canonical_associate(z) if z != ZERO else ZERO


def is_unit(z: Gauss) -> bool:
    return norm(z) == 1


def canonical_associate(z: Gauss) -> Gauss:
    """The unique associate with a >= 1 and -a < b <= a."""
    if z == ZERO:
        return ZERO
    for u in UNITS:
        a, b = mul(z, u)
        if a >= 1 and -a < b <= a:
            return (a, b)
    raise AssertionError(f"no canonical associate for {z}")


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod p, for p = 1 (mod 4)."""
    for x in range(2, p):
        c = pow(x, (p - 1) // 4, p)
        if (c * c) % p == p - 1:
            return c
    raise ValueError(f"{p} is not 1 mod 4")


def primes_above(p: int) -> list[Gauss]:
    """Canonical Gaussian primes dividing the rational prime p."""
    if p == 2:
        return [(1, 1)]
    if p % 4 == 3:
        return [(p, 0)]
    c = _sqrt_minus_one(p)
    pi = gcd((p, 0), (c, 1))
    pi_bar = canonical_associate(conj(pi))
    return sorted({pi, pi_bar}, key=sort_key)


def sort_key(z: Gauss):
    """Deterministic prime order: by norm, then a, with the +b conjugate first."""
    a, b = z
    return (norm(z), a, 0 if b >= 0 else 1, abs(b))


def factor(z: Gauss) -> tuple[Gauss, dict[Gauss, int]]:
    """Factor z as (unit, {canonical prime: exponent}); z must be nonzero."""
    if z == ZERO:
        raise ZeroDivisionError("cannot factor zero")
    factors: dict[Gauss, int] = {}
    rest = z
    n = norm(z)
    for p in arith.prime_factors(n):
        for pi in primes_above(p):
            e = 0
            while divides(pi, rest):
                rest = exact_div(rest, pi)
                e += 1
            if e:
                factors[pi] = e
    if not is_unit(rest):
        raise AssertionError(f"leftover non-unit {rest} factoring {z}")
    return rest, dict(sorted(factors.items(), key=lambda kv: sort_key(kv[0])))


def primes_with_norm_at_most(n: int) -> list[Gauss]:
    """All canonical Gaussian primes of norm <= n, in canonical order."""
    out = []
    for p in arith.primes_up_to(n):
        if p % 4 != 3:
            out.extend(primes_above(p))
        elif norm((p, 0)) <= n:
            out.append((p, 0))
    return sorted(out, key=sort_key)


def gauss_str(z: Gauss) -> str:
    """Render like '2+i', '2-i', '3', 'i', '1+2i'."""
    a, b = z
    if b == 0:
        return str(a)
    if b == 1:
        bs = "i"
    elif b == -1:
        bs = "-i"
    else:
        bs = f"{b}i"
    if a == 0:
        return bs
    return f"{a}+{bs}" if b > 0 else f"{a}{bs}"
