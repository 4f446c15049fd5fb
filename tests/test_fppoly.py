"""Polynomial factorization over F_p: products, irreducibility, order."""

import random

import pytest

from covercalc import fppoly


def _product(unit, factors, p):
    out = (unit,)
    for g, e in factors.items():
        out = fppoly.mul(out, fppoly.power(g, e, p), p)
    return out


def _check(f, p):
    unit, factors = fppoly.factor(f, p)
    assert _product(unit, factors, p) == f
    assert all(fppoly.is_irreducible(g, p) and g[-1] == 1 for g in factors)
    keys = [(fppoly.deg(g), fppoly.code(g, p)) for g in factors]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 3)])
def test_every_small_polynomial(p, max_degree):
    for v in range(1, p ** (max_degree + 1)):
        _check(fppoly.from_code(v, p), p)


def test_repeated_factors_and_pth_powers():
    rng = random.Random(5)
    for p in (2, 3, 7):
        for _ in range(40):
            f = (rng.randrange(1, p),)
            for _ in range(rng.randint(1, 3)):
                g = fppoly.from_code(rng.randrange(p, p ** 3), p)
                f = fppoly.mul(f, fppoly.power(g, rng.choice([1, 2, p, p + 1]), p), p)
            _check(f, p)


@pytest.mark.parametrize("p", [1000000000000000003, 2305843009213693951])
def test_large_prime(p):
    # x^2 + 1 splits iff p = 1 mod 4; x^3 - x always splits into x, x - 1, x + 1
    _check((1, 0, 1), p)
    unit, factors = fppoly.factor((0, p - 1, 0, 1), p)
    assert list(factors) == [(0, 1), (1, 1), (p - 1, 1)]


def _general_factor(f, p):
    """factor's square-free, distinct-degree and equal-degree path, which it
    skips for degree <= 1."""
    factors = {}
    for part, mult in fppoly._square_free(fppoly.monic(f, p), p):
        for d, group in fppoly._distinct_degree(part, p):
            for g in fppoly._equal_degree(group, d, p):
                factors[g] = factors.get(g, 0) + mult
    return f[-1], factors


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_degree_at_most_one_matches_the_general_path(p):
    # every polynomial of degree <= 1 for the small primes; over 1000003,
    # the extreme coefficients and a seeded sample of the others
    if p < 10:
        coefficients = range(p)
    else:
        coefficients = [0, 1, 2, p - 2, p - 1,
                        *random.Random(p).sample(range(3, p - 2), 60)]
    units = [c for c in coefficients if c]
    polys = [(u,) for u in units]
    polys += [(a, u) for a in coefficients for u in units]
    for f in polys:
        assert fppoly.factor(f, p) == _general_factor(f, p), f
