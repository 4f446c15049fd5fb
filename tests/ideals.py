"""Maximal ideals of Z, Z[i] and F_p[t] named by a prime element.

Each helper proves its generator prime (irreducible over F_p) on its own,
then builds the ideal directly, without factoring a literal.
"""

from covercalc import arith, fppoly, gaussian, rings


def maximal_ideal_z(p: int) -> rings.MaximalIdealId:
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return rings.integers()._maximal(p)


def maximal_ideal_zi(z) -> rings.MaximalIdealId:
    zc = gaussian.canonical_associate(tuple(z))
    a, b = zc
    ok = (zc == (1, 1)) or (b == 0 and arith.is_prime(a) and a % 4 == 3) or \
         (arith.is_prime(gaussian.norm(zc)) and b != 0)
    if not ok:
        raise ValueError(f"{gaussian.gauss_str(zc)} is not a Gaussian prime")
    return rings.gaussian_integers()._maximal(zc)


def maximal_ideal_poly(p: int, coeffs) -> rings.MaximalIdealId:
    f = fppoly.monic(fppoly.trim(coeffs, p), p)
    if not fppoly.is_irreducible(f, p):
        raise ValueError(f"{fppoly.poly_str(f)} is not irreducible over F_{p}")
    return rings.poly_over_prime_field(p)._maximal(f)
