"""Ring adapters: factorization, residue cardinalities, prime enumeration.

Concrete kinds (Z, Z[i], F_p[t]) factor element literals themselves and
carry their element arithmetic in one ops record each (element_ops);
abstract kinds (a local ring, or Dedekind data supplied by the user) only
accept already-factored input and answer residue questions from their
declared data.

Fields are modeled with an empty set of maximal ideals; vector-space
questions are routed around the maximal-ideal machinery entirely.
"""

from __future__ import annotations

import operator
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


@record
class RingHandle:
    kind: str
    p: int = 0                                  # POLY: the coefficient prime
    card: Optional[Cardinal] = None             # FIELD: cardinality
    residue: Optional[Cardinal] = None          # LOCAL: residue cardinality
    label: str = "m"                            # LOCAL: maximal ideal label
    primes: tuple = ()                          # DEDEKIND: ((label, Cardinal), ...)
    min_residue: Optional[Cardinal] = None      # DEDEKIND: min over the full spectrum
    infinite_spectrum: bool = True              # DEDEKIND: spectrum infinite?

    def __str__(self) -> str:
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == GAUSSIAN:
            return "Zi"
        if self.kind == POLY:
            return f"Fp[t] p={self.p}"
        if self.kind == FIELD:
            return f"F q={self.card}"
        if self.kind == LOCAL:
            tail = "" if self.label == "m" else f" label={self.label}"
            return f"local residue={self.residue}{tail}"
        decl = ", ".join(f"{lab}:{res}" for lab, res in self.primes)
        tail = "" if self.infinite_spectrum else " spectrum=finite"
        return f"dedekind {{{decl}}} min={self.min_residue}{tail}"


def integers() -> RingHandle:
    return RingHandle(INTEGERS)


def gaussian_integers() -> RingHandle:
    return RingHandle(GAUSSIAN)


def poly_over_prime_field(p: int) -> RingHandle:
    if not arith.is_prime(p):
        raise ValueError(f"F_p[t] needs a prime p, got {p}")
    return RingHandle(POLY, p=p)


def _check_field_size(card: Cardinal, what: str) -> None:
    if card.is_finite and not arith.is_prime_power(card.finite_value):
        raise ValueError(f"{what} must be a prime power or infinite, got {card}")


def field_ring(card: Cardinal) -> RingHandle:
    _check_field_size(card, "a field's size")
    return RingHandle(FIELD, card=card)


def abstract_local(residue: Cardinal, label: str = "m") -> RingHandle:
    _check_field_size(residue, "the residue size")
    return RingHandle(LOCAL, residue=residue, label=label)


def abstract_dedekind(primes: Sequence[tuple[str, Cardinal]],
                      min_residue: Cardinal,
                      infinite_spectrum: bool = True) -> RingHandle:
    prs = tuple(primes)
    labels = [lab for lab, _ in prs]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate prime labels")
    _check_field_size(min_residue, "the min residue size")
    for lab, res in prs:
        _check_field_size(res, f"the residue size of {lab}")
        if min_residue > res:
            raise ValueError(f"min_residue {min_residue} exceeds residue of {lab}")
    return RingHandle(DEDEKIND, primes=prs, min_residue=min_residue,
                      infinite_spectrum=infinite_spectrum)


def is_field(ring: RingHandle) -> bool:
    return ring.kind == FIELD

def is_pid_kind(ring: RingHandle) -> bool:
    """Kinds whose modules may carry fraction-field and Pruefer summands."""
    return ring.kind in (INTEGERS, GAUSSIAN, POLY, FIELD, LOCAL)

def is_concrete(ring: RingHandle) -> bool:
    """Kinds the oracle can materialize."""
    return ring.kind in (INTEGERS, GAUSSIAN, POLY)

def has_enumerable_primes(ring: RingHandle) -> bool:
    return ring.kind in (INTEGERS, GAUSSIAN, POLY, DEDEKIND)

def has_infinite_spectrum(ring: RingHandle) -> bool:
    if ring.kind in (INTEGERS, GAUSSIAN, POLY):
        return True
    if ring.kind == DEDEKIND:
        return ring.infinite_spectrum
    return False


@record
class MaximalIdealId:
    """A maximal ideal, named by its canonical generator (or an opaque label)."""

    ring_kind: str
    data: object                 # int | (a, b) | coeff tuple | label str
    residue_card: Cardinal
    char: int = 0                # POLY only: the coefficient prime

    def sort_key(self):
        if self.ring_kind == INTEGERS:
            tail = (self.data,)
        elif self.ring_kind == GAUSSIAN:
            tail = gaussian.sort_key(self.data)
        elif self.ring_kind == POLY:
            tail = (len(self.data), fppoly.code(self.data, self.char))
        else:
            tail = (self.data,)
        return (self.residue_card.level, self.residue_card.n) + tail

    def generator_str(self) -> str:
        if self.ring_kind in (INTEGERS, GAUSSIAN, POLY):
            return _ops(self.ring_kind, self.char).render(self.data)
        return str(self.data)

    def __str__(self) -> str:
        return f"({self.generator_str()})"


def maximal_ideal_z(p: int) -> MaximalIdealId:
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return MaximalIdealId(INTEGERS, p, finite(p))


def maximal_ideal_zi(z: gaussian.Gauss) -> MaximalIdealId:
    zc = gaussian.canonical_associate(tuple(z))
    n = gaussian.norm(zc)
    a, b = zc
    ok = (zc == (1, 1)) or (b == 0 and arith.is_prime(a) and a % 4 == 3) or \
         (arith.is_prime(n) and b != 0)
    if not ok:
        raise ValueError(f"{gaussian.gauss_str(zc)} is not a Gaussian prime")
    return MaximalIdealId(GAUSSIAN, zc, finite(n))


def maximal_ideal_poly(p: int, coeffs) -> MaximalIdealId:
    f = fppoly.monic(fppoly.trim(coeffs, p), p)
    if not fppoly.is_irreducible(f, p):
        raise ValueError(f"{fppoly.poly_str(f)} is not irreducible over F_{p}")
    return MaximalIdealId(POLY, f, finite(p ** fppoly.deg(f)), char=p)


def maximal_ideal_abstract(label: str, residue: Cardinal) -> MaximalIdealId:
    return MaximalIdealId("abstract", label, residue)


@record
class FactoredIdeal:
    """A nonzero ideal as a product of maximal-ideal powers, or the unit/zero ideal."""

    factors: tuple = ()          # ((MaximalIdealId, exponent), ...) canonical order
    unit: bool = False
    zero: bool = False

    def __post_init__(self):
        if self.unit or self.zero:
            if self.factors or (self.unit and self.zero):
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
    def zero_ideal() -> "FactoredIdeal":
        return FactoredIdeal(zero=True)

    @staticmethod
    def from_factors(factors: dict) -> "FactoredIdeal":
        if not factors:
            return FactoredIdeal.unit_ideal()
        items = tuple(sorted(factors.items(), key=lambda kv: kv[0].sort_key()))
        return FactoredIdeal(factors=items)

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.factors)

    def exponent_of(self, m: MaximalIdealId) -> int:
        for mm, e in self.factors:
            if mm == m:
                return e
        return 0

    def primes(self) -> list[MaximalIdealId]:
        return [m for m, _ in self.factors]

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
        if self.zero:
            return "(0)"
        return "*".join(m.generator_str() if e == 1 else f"{m.generator_str()}^{e}"
                        for m, e in self.factors)


IdealLiteral = Union[int, tuple, list, FactoredIdeal]


def factor_ideal(ring: RingHandle, generator: IdealLiteral) -> FactoredIdeal:
    """Factor the principal ideal generated by an element literal.

    Z takes ints, Z[i] takes (a, b) pairs or ints, F_p[t] takes coefficient
    sequences (c0, c1, ...).  Abstract kinds only pass through FactoredIdeal
    values whose primes they declare.
    """
    if isinstance(generator, FactoredIdeal):
        _check_factored(ring, generator)
        return generator
    if ring.kind == INTEGERS:
        return _factor_int(generator)
    if ring.kind == GAUSSIAN:
        return _factor_gauss(_GAUSS_OPS.coerce(generator))
    if ring.kind == POLY:
        return _factor_poly(ring.p, generator)
    if ring.kind == FIELD:
        if generator == 0:
            raise ZeroIdealError("zero ideal over a field")
        return FactoredIdeal.unit_ideal()
    raise UnsupportedLiteralError(
        f"{ring} accepts only already-factored ideals")


def _check_factored(ring: RingHandle, ideal: FactoredIdeal) -> None:
    for m, _ in ideal.factors:
        residue_cardinality(ring, m)  # raises UnknownIdealError if foreign


def _factor_int(n: int) -> FactoredIdeal:
    if n == 0:
        raise ZeroIdealError("the zero ideal has no factorization")
    if abs(n) >= _MAX_FACTOR_INPUT:
        raise UnsupportedLiteralError("integer literals must be below 2^63 in size")
    return FactoredIdeal.from_factors(
        {maximal_ideal_z(p): e for p, e in arith.factorize(abs(n))})


def _factor_gauss(z: gaussian.Gauss) -> FactoredIdeal:
    if z == gaussian.ZERO:
        raise ZeroIdealError("the zero ideal has no factorization")
    if gaussian.norm(z) >= _MAX_FACTOR_INPUT:
        raise UnsupportedLiteralError("Gaussian literals must have norm below 2^63")
    _, factors = gaussian.factor(z)
    if not factors:
        return FactoredIdeal.unit_ideal()
    return FactoredIdeal.from_factors(
        {maximal_ideal_zi(pi): e for pi, e in factors.items()})


def _factor_poly(p: int, coeffs) -> FactoredIdeal:
    f = fppoly.trim(coeffs, p)
    if not f:
        raise ZeroIdealError("the zero ideal has no factorization")
    if fppoly.deg(f) == 0:
        return FactoredIdeal.unit_ideal()
    _, factors = fppoly.factor(f, p)
    return FactoredIdeal.from_factors(
        {maximal_ideal_poly(p, g): e for g, e in factors.items()})


def residue_cardinality(ring: RingHandle, m: MaximalIdealId) -> Cardinal:
    """|R/m|; abstract kinds answer from their declared data."""
    if ring.kind in (INTEGERS, GAUSSIAN, POLY):
        if m.ring_kind != ring.kind or (ring.kind == POLY and m.char != ring.p):
            raise UnknownIdealError(f"{m} is not an ideal of {ring}")
        return m.residue_card
    if ring.kind == LOCAL:
        if m.ring_kind != "abstract" or m.data != ring.label:
            raise UnknownIdealError(f"{m} is not the maximal ideal of {ring}")
        return ring.residue
    if ring.kind == DEDEKIND:
        for lab, res in ring.primes:
            if m.ring_kind == "abstract" and m.data == lab:
                return res
        raise UnknownIdealError(f"{m} is not declared in {ring}")
    raise NotApplicableError("fields have no maximal ideals here")


def layer_cardinality(ring: RingHandle, m: MaximalIdealId, j: int) -> Cardinal:
    """|m^(j-1)/m^j|.

    Equal to |R/m| for every j: over the Dedekind kinds supported here,
    each quotient m^(j-1)/m^j is a one-dimensional R/m-vector space, and
    the abstract kinds inherit the same rule by convention.
    """
    if j < 1:
        raise ValueError("layer index must be >= 1")
    return residue_cardinality(ring, m)


def min_residue_cardinality(ring: RingHandle) -> Cardinal:
    """Minimum of |R/m| over all maximal ideals."""
    if ring.kind == INTEGERS or ring.kind == GAUSSIAN:
        return finite(2)
    if ring.kind == POLY:
        return finite(ring.p)
    if ring.kind == LOCAL:
        return ring.residue
    if ring.kind == DEDEKIND:
        return ring.min_residue
    raise NotApplicableError("fields have no maximal ideals here")


# The largest n that maximal_ideals_with_residue_at_most lists up to, per
# concrete ring.  Over Z and Z[i] a sieve lists the ~10^4 ideals below 10^5
# in well under a second.  Over F_p[t] every monic polynomial of degree at
# most log_p(n) is tested for irreducibility: n = 1024 takes about 0.4 s
# over F_2, n = 4096 already about 6 s.
RESIDUE_ENUMERATION_BOUND = {INTEGERS: 10 ** 5, GAUSSIAN: 10 ** 5, POLY: 2 ** 10}


def maximal_ideals_with_residue_at_most(ring: RingHandle, n: int) -> list[MaximalIdealId]:
    """All maximal ideals m with |R/m| <= n, in canonical order.

    Always a finite list.  For abstract Dedekind data the enumeration runs
    over the declared primes only.  Over Z, Z[i] and F_p[t], an n above
    RESIDUE_ENUMERATION_BOUND raises TooLargeError before anything is
    enumerated.
    """
    if n < 1:
        raise ValueError("bound must be >= 1")
    limit = RESIDUE_ENUMERATION_BOUND.get(ring.kind)
    if limit is not None and n > limit:
        raise TooLargeError(f"listing the maximal ideals of {ring} with "
                            f"residue size <= {n}: the bound is {limit}")
    if ring.kind == INTEGERS:
        return [maximal_ideal_z(p) for p in arith.primes_up_to(n)]
    if ring.kind == GAUSSIAN:
        return [maximal_ideal_zi(z) for z in gaussian.primes_with_norm_at_most(n)]
    if ring.kind == POLY:
        top = 0
        while ring.p ** (top + 1) <= n:
            top += 1
        return [maximal_ideal_poly(ring.p, f)
                for f in fppoly.irreducibles(ring.p, top)]
    if ring.kind == DEDEKIND:
        bound = finite(n)
        ids = [maximal_ideal_abstract(lab, res) for lab, res in ring.primes
               if res <= bound]
        return sorted(ids, key=lambda m: m.sort_key())
    raise NotEnumerableError(f"{ring} has no enumerable maximal ideals")


def least_maximal_ideal(ring: RingHandle) -> Optional[MaximalIdealId]:
    """The canonically least maximal ideal attaining the minimum residue."""
    if ring.kind == INTEGERS:
        return maximal_ideal_z(2)
    if ring.kind == GAUSSIAN:
        return maximal_ideal_zi((1, 1))
    if ring.kind == POLY:
        return maximal_ideal_poly(ring.p, (0, 1))
    if ring.kind == LOCAL:
        return maximal_ideal_abstract(ring.label, ring.residue)
    if ring.kind == DEDEKIND:
        best = [maximal_ideal_abstract(lab, res) for lab, res in ring.primes
                if res == ring.min_residue]
        return min(best, key=lambda m: m.sort_key()) if best else None
    return None


def ideal_generator_element(ring: RingHandle, ideal: FactoredIdeal):
    """A generating element of a factored ideal over a concrete (PID) ring."""
    ops = element_ops(ring)
    if ideal.zero:
        return ops.zero
    out = ops.one
    for m, e in ideal.factors:
        out = ops.mul(out, ops.pow(m.data, e))
    return out


class _ElementOps:
    """Element arithmetic of one concrete ring kind.

    Every kind has zero, one, coerce, add, mul, pow, is_zero, render,
    reduce(x, h) and nonzero_residues(pi); reduce is the canonical
    residue of x modulo h (non-negative over Z, the divmod_round
    remainder over Z[i]).  Z and F_p[t] add norm, sub, divmod (the
    Euclidean step, with a balanced remainder over Z) and canonical_unit
    for Smith normal form.
    """

    def is_zero(self, x) -> bool:
        return x == self.zero

    def pow(self, x, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, x)
        return out


class _IntOps(_ElementOps):
    zero = 0
    one = 1
    coerce = staticmethod(int)
    norm = staticmethod(abs)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    render = staticmethod(str)

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
    def nonzero_residues(pi):
        """Canonical nonzero residues of R/(pi) for a prime element pi."""
        return list(range(1, pi))


class _GaussOps(_ElementOps):
    zero = gaussian.ZERO
    one = gaussian.ONE
    add = staticmethod(gaussian.add)
    mul = staticmethod(gaussian.mul)
    render = staticmethod(gaussian.gauss_str)

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


class _PolyOps(_ElementOps):
    zero = fppoly.ZERO
    one = fppoly.ONE
    render = staticmethod(fppoly.poly_str)

    def __init__(self, p: int):
        self.p = p

    def coerce(self, x):
        return fppoly.trim((x,) if isinstance(x, int) else tuple(x), self.p)

    def norm(self, x):
        return fppoly.deg(x) + 1

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


_INT_OPS = _IntOps()
_GAUSS_OPS = _GaussOps()


def _ops(kind: str, p: int):
    if kind == INTEGERS:
        return _INT_OPS
    if kind == GAUSSIAN:
        return _GAUSS_OPS
    if kind == POLY:
        return _PolyOps(p)
    raise NotApplicableError("only concrete rings have element arithmetic")


def element_ops(ring: RingHandle):
    """The element arithmetic of a concrete ring (Z, Z[i] or F_p[t])."""
    return _ops(ring.kind, ring.p)
