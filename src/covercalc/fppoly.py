"""Dense univariate polynomial arithmetic over a prime field F_p.

Polynomials are tuples of coefficients (c0, c1, ..., cn) with cn != 0;
the empty tuple is the zero polynomial.  Every function takes the prime p
explicitly, so values stay plain hashable tuples.

Canonical enumeration order (used for deterministic ideal listings) is by
degree, then by the integer code sum(c_i * p^i).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import arith

Poly = tuple  # tuple of ints in [0, p)

ZERO: Poly = ()
ONE: Poly = (1,)


def trim(coeffs: Sequence[int], p: int) -> Poly:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def add(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n)], p)


def neg(f: Poly, p: int) -> Poly:
    return tuple((-c) % p for c in f)


def sub(f: Poly, g: Poly, p: int) -> Poly:
    return add(f, neg(g, p), p)


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, p)


def scale(f: Poly, c: int, p: int) -> Poly:
    return trim([c * a for a in f], p)


def divmod_poly(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
    for i in range(len(f) - len(g), -1, -1):
        if i + len(g) - 1 < len(rem) and rem[i + len(g) - 1] % p:
            c = (rem[i + len(g) - 1] * inv_lead) % p
            q[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return trim(q, p), trim(rem, p)


def mod(f: Poly, g: Poly, p: int) -> Poly:
    return divmod_poly(f, g, p)[1]


def monic(f: Poly, p: int) -> Poly:
    if not f:
        return ZERO
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def pow_mod(f: Poly, e: int, modulus: Poly, p: int) -> Poly:
    result = ONE
    base = mod(f, modulus, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), modulus, p)
        base = mod(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def power(f: Poly, e: int, p: int) -> Poly:
    result = ONE
    for _ in range(e):
        result = mul(result, f, p)
    return result


def code(f: Poly, p: int) -> int:
    """Integer code sum(c_i * p^i); injective, respects canonical order within a degree."""
    v = 0
    for c in reversed(f):
        v = v * p + c
    return v


def from_code(v: int, p: int) -> Poly:
    cs = []
    while v:
        v, r = divmod(v, p)
        cs.append(r)
    return tuple(cs)


def monic_polys_of_degree(d: int, p: int) -> Iterator[Poly]:
    """All monic degree-d polynomials, in canonical (code) order."""
    for v in range(p ** d):
        yield from_code(v, p) + (0,) * (d - len(from_code(v, p))) + (1,)


def is_irreducible(f: Poly, p: int) -> bool:
    """Rabin test: x^(p^d) == x mod f and gcd conditions at maximal subdegrees."""
    d = deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    x = (0, 1)
    # x^(p^d) must equal x modulo f
    t = x
    for _ in range(d):
        t = pow_mod(t, p, f, p)
    if t != mod(x, f, p):
        return False
    # for each prime divisor r of d, gcd(x^(p^(d/r)) - x, f) must be 1
    for r in arith.prime_factors(d):
        t = x
        for _ in range(d // r):
            t = pow_mod(t, p, f, p)
        if deg(gcd(sub(t, x, p), f, p)) > 0:
            return False
    return True


def irreducibles(p: int, max_degree: int) -> Iterator[Poly]:
    """Monic irreducibles of degree 1..max_degree, in canonical order."""
    for d in range(1, max_degree + 1):
        for f in monic_polys_of_degree(d, p):
            if is_irreducible(f, p):
                yield f


def factor(f: Poly, p: int) -> tuple[int, dict[Poly, int]]:
    """Factor f as (unit, {monic irreducible: exponent}) by trial division.

    Irreducibles are tried by increasing degree; desk-scale inputs only.
    """
    if not f:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    unit = f[-1]
    g = monic(f, p)
    factors: dict[Poly, int] = {}
    d = 1
    while deg(g) > 0:
        if 2 * d > deg(g):
            factors[g] = factors.get(g, 0) + 1
            break
        found = False
        for cand in monic_polys_of_degree(d, p):
            if not is_irreducible(cand, p):
                continue
            q, r = divmod_poly(g, cand, p)
            while not r:
                factors[cand] = factors.get(cand, 0) + 1
                g = q
                q, r = divmod_poly(g, cand, p)
                found = True
        if not found or deg(g) == 0:
            d += 1
    return unit, factors


def poly_str(f: Poly, var: str = "t") -> str:
    """Render like 't^3+2t+1'; '0' for the zero polynomial."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(var if c == 1 else f"{c}{var}")
        else:
            parts.append(f"{var}^{i}" if c == 1 else f"{c}{var}^{i}")
    return "+".join(parts)
