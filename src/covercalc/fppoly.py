"""Dense univariate polynomial arithmetic over a prime field F_p.

Polynomials are tuples of coefficients (c0, c1, ..., cn) with cn != 0;
the empty tuple is the zero polynomial.  Every function takes the prime p
explicitly, so values stay plain hashable tuples.

Canonical enumeration order (used for deterministic ideal listings) is by
degree, then by the integer code sum(c_i * p^i).
"""

from __future__ import annotations

import itertools
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
    """Factor f as (unit, {monic irreducible: exponent}).

    Square-free, distinct-degree and equal-degree (Cantor-Zassenhaus)
    factorization, so the cost is polynomial in deg f and log p.  The
    factors are listed by degree, then in canonical (code) order.
    """
    if not f:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    if deg(f) <= 1:
        # a unit has no factors, and a linear polynomial is irreducible
        return f[-1], {monic(f, p): 1} if deg(f) else {}
    factors: dict[Poly, int] = {}
    for part, mult in _square_free(monic(f, p), p):
        for d, group in _distinct_degree(part, p):
            for g in _equal_degree(group, d, p):
                factors[g] = factors.get(g, 0) + mult
    ordered = sorted(factors, key=lambda g: (deg(g), code(g, p)))
    return f[-1], {g: factors[g] for g in ordered}


def _derivative(f: Poly, p: int) -> Poly:
    return trim([i * c for i, c in enumerate(f)][1:], p)


def _square_free(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Monic f as [(square-free part, multiplicity)] (Yun, with p-th roots)."""
    out = []
    c = gcd(f, _derivative(f, p), p)
    w = divmod_poly(f, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(w, c, p)
        part = divmod_poly(w, y, p)[0]
        if deg(part) > 0:
            out.append((part, i))
        w, c, i = y, divmod_poly(c, y, p)[0], i + 1
    if deg(c) > 0:
        # what is left is a polynomial in t^p: take its p-th root
        root = tuple(c[j] for j in range(0, len(c), p))
        out += [(g, m * p) for g, m in _square_free(root, p)]
    return out


def _distinct_degree(f: Poly, p: int) -> list[tuple[int, Poly]]:
    """Square-free monic f as [(d, product of its irreducible factors of degree d)]."""
    out = []
    x = (0, 1)
    h = x
    d = 0
    while deg(f) >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, f, p)
        g = gcd(sub(h, x, p), f, p)
        if deg(g) > 0:
            out.append((d, g))
            f = divmod_poly(f, g, p)[0]
            h = mod(h, f, p)
    if deg(f) > 0:
        out.append((deg(f), f))
    return out


def _equal_degree(f: Poly, d: int, p: int) -> list[Poly]:
    """Split a monic product of distinct degree-d irreducibles into them.

    The splitting polynomials a are taken in canonical order (t, t+1, ...,
    then higher degrees) until g = a^((p^d-1)/2) - 1 (odd p), or the trace
    a + a^2 + a^4 + ... + a^(2^(d-1)) (p = 2), has a proper gcd with f.
    Some a always does: one that is 0 modulo one factor and 1 modulo
    another.
    """
    if deg(f) == d:
        return [f]
    for v in itertools.count(p):
        a = from_code(v, p)
        if p == 2:
            g, t = a, a
            for _ in range(d - 1):
                t = mod(mul(t, t, p), f, p)
                g = add(g, t, p)
        else:
            g = sub(pow_mod(a, (p ** d - 1) // 2, f, p), ONE, p)
        split = gcd(g, f, p)
        if 0 < deg(split) < deg(f):
            return (_equal_degree(split, d, p)
                    + _equal_degree(divmod_poly(f, split, p)[0], d, p))


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
