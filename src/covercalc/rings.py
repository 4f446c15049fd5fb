"""Rings, one class per kind.

The covering answers depend on a ring only through its maximal ideals and
their residue sizes, so all that differs between the kinds sits here,
behind one interface (RingHandle):

- Integers (Z), GaussianIntegers (Z[i]) and PolyRing (F_p[t]) are the
  concrete rings.  Each is its own element arithmetic: zero, one, coerce,
  add, mul, pow, reduce(x, h) (the canonical residue of x mod h), render
  and nonzero_residues, and over Z and F_p[t] also sub, divmod (the
  Euclidean step), norm and canonical_unit for Smith normal form.  Each
  factors element literals, lists its maximal ideals up to a residue size
  (refusing sizes above its residue_bound), orders its ideals (ideal_key),
  gives the minimal polynomial that defines each residue field, and builds
  the cyclic block R/(h) that the oracle materializes.  They are interned:
  Z and Z[i] exist once and F_p[t] once per p, so they compare and hash by
  identity.
- Field (F q=), LocalRing (local) and DedekindRing (dedekind) are value
  records of their declared data.  They accept only already-factored
  ideals and answer residue questions from what they declare.

The class attributes is_field, is_pid, is_concrete, enumerable_primes and
infinite_spectrum say which questions a kind answers.  Fields are modeled
with an empty set of maximal ideals; vector-space questions are routed
around the maximal-ideal machinery entirely.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import arith, fppoly, gaussian
from .cardinal import Cardinal, finite
from .errors import (NotApplicableError, NotEnumerableError, TooLargeError,
                     UnknownIdealError, UnsupportedLiteralError,
                     ZeroIdealError)
from .records import record

INTEGERS = "Z"
GAUSSIAN = "Zi"
POLY = "poly"
FIELD = "field"
LOCAL = "local"
DEDEKIND = "dedekind"

_MAX_FACTOR_INPUT = 2 ** 63
# the highest degree of an F_p[t] literal: over F_2, p^degree stays below
# 2^63, the cap on integer literals
MAX_POLY_DEGREE = 62
# factor_ideal keeps the factorizations of this many element literals of
# the concrete rings; a sweep of sigma or phi items names a few hundred
FACTOR_CACHE_SIZE = 512


class RingHandle:
    """A commutative ring; each kind is a subclass.

    The defaults are those of a ring whose maximal ideals cannot be listed.
    """

    kind = ""
    is_field = False
    is_pid = True             # modules may carry fraction-field and Pruefer summands
    is_concrete = False       # elements are values and modules materialize
    enumerable_primes = False
    infinite_spectrum = False

    def factor(self, generator) -> FactoredIdeal:
        raise UnsupportedLiteralError(
            f"{self} accepts only already-factored ideals")

    def residue_cardinality(self, m: MaximalIdealId) -> Cardinal:
        raise NotApplicableError("fields have no maximal ideals here")

    def least_maximal_ideal(self) -> Optional[MaximalIdealId]:
        """The canonically least maximal ideal attaining the minimum residue."""
        return None

    def min_residue_cardinality(self) -> Cardinal:
        return self.least_maximal_ideal().residue_card

    def maximal_ideals_with_residue_at_most(self, n: int) -> list:
        raise NotEnumerableError(f"{self} has no enumerable maximal ideals")

    def declared_residue(self, label: str) -> Optional[Cardinal]:
        """The residue size of the maximal ideal a label names, if declared."""
        return None


@record
class MaximalIdealId:
    """A maximal ideal: a concrete ring and its canonical generator, or
    (ring None) a label that an abstract ring declares."""

    ring: Optional[RingHandle]
    data: object                 # int | (a, b) | coeff tuple | label str
    residue_card: Cardinal

    def sort_key(self):
        tail = (self.data,) if self.ring is None else self.ring.ideal_key(self.data)
        return (self.residue_card.level, self.residue_card.n) + tail

    def generator_str(self) -> str:
        return str(self.data) if self.ring is None else self.ring.render(self.data)

    def __str__(self) -> str:
        return f"({self.generator_str()})"


@record
class FactoredIdeal:
    """A nonzero ideal as a product of maximal-ideal powers, or the unit ideal."""

    factors: tuple = ()          # ((MaximalIdealId, exponent), ...) canonical order
    unit: bool = False

    def __post_init__(self):
        if self.unit:
            if self.factors:
                raise ValueError("inconsistent factored ideal")
        else:
            if not self.factors:
                raise ValueError("proper nonzero ideal needs factors")
            ids = [m for m, _ in self.factors]
            if len(set(ids)) != len(ids) or any(e < 1 for _, e in self.factors):
                raise ValueError("factors must be distinct with positive exponents")

    @staticmethod
    def unit_ideal() -> "FactoredIdeal":
        return FactoredIdeal(unit=True)

    @staticmethod
    def from_factors(factors: dict) -> "FactoredIdeal":
        if not factors:
            return FactoredIdeal.unit_ideal()
        items = tuple(sorted(factors.items(), key=lambda kv: kv[0].sort_key()))
        return FactoredIdeal(factors=items)

    def exponent_of(self, m: MaximalIdealId) -> int:
        for mm, e in self.factors:
            if mm == m:
                return e
        return 0

    def quotient_size(self) -> Cardinal:
        """|R/I| = product of residue^exponent over the factors."""
        total = 1
        for m, e in self.factors:
            if m.residue_card.is_infinite:
                return m.residue_card
            total *= m.residue_card.finite_value ** e
        return finite(total)

    def __str__(self) -> str:
        if self.unit:
            return "(1)"
        return "*".join(m.generator_str() if e == 1 else f"{m.generator_str()}^{e}"
                        for m, e in self.factors)


IdealLiteral = Union[int, tuple, list, FactoredIdeal]


class _Concrete(RingHandle):
    """What Z, Z[i] and F_p[t] share: ideals are named by their elements."""

    is_concrete = True
    enumerable_primes = True
    infinite_spectrum = True
    symbol = "t"                 # the generator's name in residue-field elements

    def __repr__(self) -> str:
        return f"<ring {self}>"

    def is_zero(self, x) -> bool:
        return x == self.zero

    def pow(self, x, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def generator(self, ideal: FactoredIdeal):
        """A generating element of a factored ideal."""
        out = self.one
        for m, e in ideal.factors:
            out = self.mul(out, self.pow(m.data, e))
        return out

    def _maximal(self, pi) -> MaximalIdealId:
        """The maximal ideal (pi) of a prime element already proven and in
        canonical form: positive, a canonical associate, or monic."""
        return MaximalIdealId(self, pi, finite(self.residue_size(pi)))

    def residue_cardinality(self, m: MaximalIdealId) -> Cardinal:
        if m.ring is not self:
            raise UnknownIdealError(f"{m} is not an ideal of {self}")
        return m.residue_card

    def maximal_ideals_with_residue_at_most(self, n: int) -> list:
        if n > self.residue_bound:
            raise TooLargeError(f"listing the maximal ideals of {self} with "
                                f"residue size <= {n}: the bound is "
                                f"{self.residue_bound}")
        return self._maximal_ideals(n)


class Integers(_Concrete):
    kind = INTEGERS
    # a sieve lists the ~10^4 primes below 10^5 in well under a second
    residue_bound = 10 ** 5
    zero = 0
    one = 1
    coerce = staticmethod(int)
    norm = staticmethod(abs)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    render = staticmethod(str)

    def __str__(self) -> str:
        return "Z"

    def __reduce__(self):
        return integers, ()

    @staticmethod
    def divmod(a, b):
        q = a // b
        r = a - q * b
        # keep |r| <= |b|/2 so norms shrink fast
        if abs(2 * r) > abs(b):
            adj = 1 if (r > 0) == (b > 0) else -1
            q += adj
            r -= adj * b
        return q, r

    @staticmethod
    def reduce(x, h):
        return x % abs(h)

    @staticmethod
    def canonical_unit(x):
        """Unit u with u*x canonical (nonnegative)."""
        return -1 if x < 0 else 1

    @staticmethod
    def residue_size(p):
        return p

    @staticmethod
    def nonzero_residues(pi):
        """Canonical nonzero residues of R/(pi) for a prime element pi."""
        return list(range(1, pi))

    def factor(self, n) -> FactoredIdeal:
        if n == 0:
            raise ZeroIdealError("the zero ideal has no factorization")
        if abs(n) >= _MAX_FACTOR_INPUT:
            raise UnsupportedLiteralError("integer literals must be below 2^63 in size")
        return FactoredIdeal.from_factors(
            {self._maximal(p): e for p, e in arith.factorize(abs(n))})

    @staticmethod
    def ideal_key(p):
        return (p,)

    def _maximal_ideals(self, n: int) -> list:
        return [self._maximal(p) for p in arith.primes_up_to(n)]

    def least_maximal_ideal(self) -> MaximalIdealId:
        return self._maximal(2)

    @staticmethod
    def residue_field_modulus(m: MaximalIdealId) -> tuple:
        """(p, the minimal polynomial of the generator over F_p) for R/m;
        an integer is a constant, so t will do."""
        return m.data, (0, 1)

    def cyclic_block(self, ideal: FactoredIdeal) -> tuple:
        """(orders, action or None, basis elements, digits of 1) of R/ideal;
        Z acts through its scalars alone."""
        return [self.generator(ideal)], None, [1], (1,)


class GaussianIntegers(_Concrete):
    kind = GAUSSIAN
    symbol = "i"
    residue_bound = 10 ** 5      # the sieve lists these as fast as over Z
    zero = gaussian.ZERO
    one = gaussian.ONE
    add = staticmethod(gaussian.add)
    mul = staticmethod(gaussian.mul)
    render = staticmethod(gaussian.gauss_str)
    ideal_key = staticmethod(gaussian.sort_key)
    residue_size = staticmethod(gaussian.norm)

    def __str__(self) -> str:
        return "Zi"

    def __reduce__(self):
        return gaussian_integers, ()

    @staticmethod
    def coerce(x):
        return (x, 0) if isinstance(x, int) else tuple(x)

    @staticmethod
    def reduce(x, h):
        return gaussian.divmod_round(tuple(x), h)[1]

    @staticmethod
    def nonzero_residues(pi):
        # split or ramified pi: 1..N(pi)-1; inert q: a+bi with 0 <= a, b < q
        u, v = pi
        if v != 0:
            return [(r, 0) for r in range(1, gaussian.norm(pi))]
        return [(a, b) for b in range(u) for a in range(u) if (a, b) != (0, 0)]

    def factor(self, z) -> FactoredIdeal:
        z = self.coerce(z)
        if z == gaussian.ZERO:
            raise ZeroIdealError("the zero ideal has no factorization")
        if gaussian.norm(z) >= _MAX_FACTOR_INPUT:
            raise UnsupportedLiteralError("Gaussian literals must have norm below 2^63")
        _, factors = gaussian.factor(z)
        if not factors:
            return FactoredIdeal.unit_ideal()
        return FactoredIdeal.from_factors(
            {self._maximal(pi): e for pi, e in factors.items()})

    def _maximal_ideals(self, n: int) -> list:
        return [self._maximal(z) for z in gaussian.primes_with_norm_at_most(n)]

    def least_maximal_ideal(self) -> MaximalIdealId:
        return self._maximal((1, 1))

    @staticmethod
    def residue_field_modulus(m: MaximalIdealId) -> tuple:
        u, v = m.data
        if v == 0:
            # inert prime: F_{p^2} = F_p[i] with i^2 = -1
            return u, (1, 0, 1)
        # split or ramified: i = c mod m, where u + v*c = 0 mod p
        p = gaussian.norm(m.data)
        return p, (u * pow(v, p - 2, p) % p, 1)

    def cyclic_block(self, ideal: FactoredIdeal) -> tuple:
        # Smith normal form of the lattice (a+bi)Z[i] in the basis (1, i)
        from . import snf
        a, b = self.generator(ideal)
        diag, U, _ = snf.smith_normal_form(integers(), [[a, -b], [b, a]])
        det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
        Uinv = [[U[1][1] // det, -U[0][1] // det],
                [-U[1][0] // det, U[0][0] // det]]
        T = [[0, -1], [1, 0]]  # multiplication by i on (1, i) coordinates
        UT = [[sum(U[i][l] * T[l][j] for l in range(2)) for j in range(2)]
              for i in range(2)]
        A = [[sum(UT[i][l] * Uinv[l][j] for l in range(2)) for j in range(2)]
             for i in range(2)]
        kept = [c for c in range(2) if diag[c] != 1]
        orders = [diag[c] for c in kept]
        act = [[A[i][j] % orders[ki] for kj, j in enumerate(kept)]
               for ki, i in enumerate(kept)]
        basis = [(Uinv[0][c], Uinv[1][c]) for c in kept]
        return orders, act, basis, tuple(U[i][0] for i in kept)


class PolyRing(_Concrete):
    """F_p[t] over a prime field; there is one instance per p."""

    kind = POLY
    # every monic polynomial of degree <= log_p(n) is tested for
    # irreducibility: n = 1024 takes about 0.4 s over F_2, 4096 about 6 s
    residue_bound = 2 ** 10
    zero = fppoly.ZERO
    one = fppoly.ONE
    render = staticmethod(fppoly.poly_str)

    def __init__(self, p: int):
        self.p = p

    def __str__(self) -> str:
        return f"Fp[t] p={self.p}"

    def __reduce__(self):
        return poly_over_prime_field, (self.p,)

    def coerce(self, x):
        return fppoly.trim((x,) if isinstance(x, int) else tuple(x), self.p)

    def norm(self, x):
        return fppoly.deg(x) + 1

    def residue_size(self, f):
        return self.p ** fppoly.deg(f)

    def divmod(self, a, b):
        return fppoly.divmod_poly(a, b, self.p)

    def reduce(self, x, h):
        return fppoly.mod(fppoly.trim(x, self.p), h, self.p)

    def add(self, a, b):
        return fppoly.add(a, b, self.p)

    def sub(self, a, b):
        return fppoly.sub(a, b, self.p)

    def mul(self, a, b):
        return fppoly.mul(a, b, self.p)

    def canonical_unit(self, x):
        """Scalar u with u*x monic."""
        return (pow(x[-1], self.p - 2, self.p),)

    def nonzero_residues(self, pi):
        return [fppoly.from_code(v, self.p)
                for v in range(1, self.p ** fppoly.deg(pi))]

    def factor(self, coeffs) -> FactoredIdeal:
        f = fppoly.trim(coeffs, self.p)
        if not f:
            raise ZeroIdealError("the zero ideal has no factorization")
        if fppoly.deg(f) == 0:
            return FactoredIdeal.unit_ideal()
        if fppoly.deg(f) > MAX_POLY_DEGREE:
            raise UnsupportedLiteralError(
                f"polynomial literals must have degree at most {MAX_POLY_DEGREE}")
        _, factors = fppoly.factor(f, self.p)
        return FactoredIdeal.from_factors(
            {self._maximal(g): e for g, e in factors.items()})

    def ideal_key(self, f):
        return (len(f), fppoly.code(f, self.p))

    def _maximal_ideals(self, n: int) -> list:
        top = 0
        while self.p ** (top + 1) <= n:
            top += 1
        return [self._maximal(f) for f in fppoly.irreducibles(self.p, top)]

    def least_maximal_ideal(self) -> MaximalIdealId:
        return self._maximal((0, 1))

    def residue_field_modulus(self, m: MaximalIdealId) -> tuple:
        return self.p, m.data

    def cyclic_block(self, ideal: FactoredIdeal) -> tuple:
        # basis 1, t, ..., t^(d-1); t acts by the companion matrix of g
        g = self.generator(ideal)
        dg = fppoly.deg(g)
        comp = [[0] * dg for _ in range(dg)]
        for i in range(1, dg):
            comp[i][i - 1] = 1
        for i in range(dg):
            comp[i][dg - 1] = (-g[i]) % self.p
        basis = [tuple([0] * c + [1]) for c in range(dg)]
        return [self.p] * dg, comp, basis, (1,) + (0,) * (dg - 1)


@record
class Field(RingHandle):
    """A field of the given size, a prime power or infinite."""

    card: Cardinal
    kind = FIELD
    is_field = True

    def __str__(self) -> str:
        return f"F q={self.card}"

    def factor(self, generator) -> FactoredIdeal:
        if generator == 0:
            raise ZeroIdealError("zero ideal over a field")
        return FactoredIdeal.unit_ideal()

    def min_residue_cardinality(self) -> Cardinal:
        raise NotApplicableError("fields have no maximal ideals here")


@record
class LocalRing(RingHandle):
    """A local ring, known by its residue size and the label of its ideal."""

    residue: Cardinal
    label: str = "m"
    kind = LOCAL

    def __str__(self) -> str:
        tail = "" if self.label == "m" else f" label={self.label}"
        return f"local residue={self.residue}{tail}"

    def declared_residue(self, label: str) -> Optional[Cardinal]:
        return self.residue if label == self.label else None

    def residue_cardinality(self, m: MaximalIdealId) -> Cardinal:
        if m.ring is not None or m.data != self.label:
            raise UnknownIdealError(f"{m} is not the maximal ideal of {self}")
        return self.residue

    def least_maximal_ideal(self) -> MaximalIdealId:
        return maximal_ideal_abstract(self.label, self.residue)


@record
class DedekindRing(RingHandle):
    """Dedekind factorization data: declared primes with their residue
    sizes, the least residue size over the whole spectrum, and whether the
    spectrum is infinite."""

    primes: tuple                # ((label, Cardinal), ...)
    min_residue: Cardinal
    infinite_spectrum: bool = True
    kind = DEDEKIND
    is_pid = False
    enumerable_primes = True

    def __str__(self) -> str:
        decl = ", ".join(f"{lab}:{res}" for lab, res in self.primes)
        tail = "" if self.infinite_spectrum else " spectrum=finite"
        return f"dedekind {{{decl}}} min={self.min_residue}{tail}"

    def declared_residue(self, label: str) -> Optional[Cardinal]:
        for lab, res in self.primes:
            if lab == label:
                return res
        return None

    def residue_cardinality(self, m: MaximalIdealId) -> Cardinal:
        res = None if m.ring is not None else self.declared_residue(m.data)
        if res is None:
            raise UnknownIdealError(f"{m} is not declared in {self}")
        return res

    def least_maximal_ideal(self) -> Optional[MaximalIdealId]:
        best = [maximal_ideal_abstract(lab, res) for lab, res in self.primes
                if res == self.min_residue]
        return min(best, key=lambda m: m.sort_key()) if best else None

    def min_residue_cardinality(self) -> Cardinal:
        return self.min_residue

    def maximal_ideals_with_residue_at_most(self, n: int) -> list:
        bound = finite(n)
        ids = [maximal_ideal_abstract(lab, res) for lab, res in self.primes
               if res <= bound]
        return sorted(ids, key=lambda m: m.sort_key())


_INTEGERS = Integers()
_GAUSSIAN_INTEGERS = GaussianIntegers()
_POLY_RINGS: dict[int, PolyRing] = {}


def integers() -> Integers:
    return _INTEGERS


def gaussian_integers() -> GaussianIntegers:
    return _GAUSSIAN_INTEGERS


def poly_over_prime_field(p: int) -> PolyRing:
    ring = _POLY_RINGS.get(p)
    if ring is None:
        if not arith.is_prime(p):
            raise ValueError(f"F_p[t] needs a prime p, got {p}")
        ring = _POLY_RINGS[p] = PolyRing(p)
    return ring


def _check_field_size(card: Cardinal, what: str) -> None:
    if card.is_finite and not arith.is_prime_power(card.finite_value):
        raise ValueError(f"{what} must be a prime power or infinite, got {card}")


def field_ring(card: Cardinal) -> Field:
    _check_field_size(card, "a field's size")
    return Field(card)


def abstract_local(residue: Cardinal, label: str = "m") -> LocalRing:
    _check_field_size(residue, "the residue size")
    return LocalRing(residue, label)


def abstract_dedekind(primes: Sequence[tuple[str, Cardinal]],
                      min_residue: Cardinal,
                      infinite_spectrum: bool = True) -> DedekindRing:
    prs = tuple(primes)
    labels = [lab for lab, _ in prs]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate prime labels")
    _check_field_size(min_residue, "the min residue size")
    for lab, res in prs:
        _check_field_size(res, f"the residue size of {lab}")
        if min_residue > res:
            raise ValueError(f"min_residue {min_residue} exceeds residue of {lab}")
    return DedekindRing(prs, min_residue, infinite_spectrum)


def maximal_ideal_abstract(label: str, residue: Cardinal) -> MaximalIdealId:
    return MaximalIdealId(None, label, residue)


def factor_ideal(ring: RingHandle, generator: IdealLiteral) -> FactoredIdeal:
    """Factor the principal ideal generated by an element literal.

    Z takes ints, Z[i] takes (a, b) pairs or ints, F_p[t] takes coefficient
    sequences (c0, c1, ...).  Abstract kinds only pass through FactoredIdeal
    values whose primes they declare.  The concrete rings factor each
    literal once per process (_factor_literal); the result is immutable.
    """
    if isinstance(generator, FactoredIdeal):
        for m, _ in generator.factors:
            ring.residue_cardinality(m)  # raises UnknownIdealError if foreign
        return generator
    if not ring.is_concrete:
        return ring.factor(generator)
    if isinstance(generator, list):
        generator = tuple(generator)
    return _factor_literal(ring, generator)


@lru_cache(maxsize=FACTOR_CACHE_SIZE, typed=True)
def _factor_literal(ring: _Concrete, literal) -> FactoredIdeal:
    """ring.factor(literal), once per process for each (ring, literal);
    a literal that raises is not kept and raises again."""
    return ring.factor(literal)


def residue_cardinality(ring: RingHandle, m: MaximalIdealId) -> Cardinal:
    """|R/m|; abstract kinds answer from their declared data."""
    return ring.residue_cardinality(m)


def min_residue_cardinality(ring: RingHandle) -> Cardinal:
    """Minimum of |R/m| over all maximal ideals."""
    return ring.min_residue_cardinality()


def maximal_ideals_with_residue_at_most(ring: RingHandle, n: int) -> list[MaximalIdealId]:
    """All maximal ideals m with |R/m| <= n, in canonical order.

    Always a finite list.  For abstract Dedekind data the enumeration runs
    over the declared primes only.  Over Z, Z[i] and F_p[t], an n above the
    ring's residue_bound raises TooLargeError before anything is enumerated.
    """
    if n < 1:
        raise ValueError("bound must be >= 1")
    return ring.maximal_ideals_with_residue_at_most(n)
