"""Text grammar for rings, module descriptors, monoids, and matrices.

Ring literals:
    Z | Zi | Fp[t] p=<prime> | F q=<cardinal> | local residue=<cardinal>
    | dedekind {m1:r1, m2:r2, ...} min=<cardinal> [spectrum=finite|infinite]
with every finite field or residue cardinal a prime power.

Descriptors:  "<ring>: <summand> (+ <summand>)*" with summands
    R/(lit)  R  Q  Pruefer(lit)  primes(N[, infinite])  0
optionally suffixed ^k for k a positive integer or aleph0.  Element
literals are integers over Z, label products like m1^2*m2 over the
abstract kinds, and over Zi and Fp[t] one signed sum of terms c, c*var
and var^e (_terms), with var i (which takes no exponent) or t.

Errors: syntax errors carry a position.  parse_spec has one boundary
around its summands: a library error there becomes SpecSemanticError,
except TooLargeError, which keeps its own exit code.

Monoid lists: "N + C(2,3) + C(0,4)".

Rendering a parsed descriptor produces a string that parses back to an
equal value (the text may normalize, e.g. primes(4) expands).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from . import fppoly, rings
from .cardinal import Cardinal, ZERO, cardinal_sum, finite, parse_cardinal
from .errors import (CoverCalcError, SpecSemanticError, SpecSyntaxError,
                     TooLargeError)
from .modules import ModuleDescriptor, make_descriptor
from .rings import FactoredIdeal, RingHandle

if TYPE_CHECKING:
    from .monoids import MonoidDescriptor

_INT = re.compile(r"-?\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_CARD = re.compile(r"aleph0|uncountable|\d+")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SpecSyntaxError:
        return SpecSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.try_lit(lit):
            raise self.error(f"expected {lit!r}")

    def regex(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def int_(self) -> int:
        return int(self.regex(_INT, "an integer"))

    def cardinal(self) -> Cardinal:
        return parse_cardinal(self.regex(_CARD, "a cardinal"))


def parse_ring(text: str) -> RingHandle:
    cur = _Cursor(text)
    ring = _ring(cur)
    if not cur.done():
        raise cur.error("trailing input after ring")
    return ring


def _ring(cur: _Cursor) -> RingHandle:
    """Parse a ring literal; rings that cannot exist are semantic errors."""
    try:
        return _ring_literal(cur)
    except ValueError as exc:
        raise SpecSemanticError(str(exc)) from exc


def _ring_literal(cur: _Cursor) -> RingHandle:
    if cur.try_lit("Zi"):
        return rings.gaussian_integers()
    if cur.try_lit("Z"):
        return rings.integers()
    if cur.try_lit("Fp[t]"):
        cur.expect("p=")
        return rings.poly_over_prime_field(cur.int_())
    if cur.try_lit("F"):
        cur.expect("q=")
        return rings.field_ring(cur.cardinal())
    if cur.try_lit("local"):
        cur.expect("residue=")
        residue = cur.cardinal()
        label = "m"
        if cur.try_lit("label="):
            label = cur.regex(_NAME, "a label")
        return rings.abstract_local(residue, label)
    if cur.try_lit("dedekind"):
        cur.expect("{")
        primes = []
        while True:
            label = cur.regex(_NAME, "a prime label")
            cur.expect(":")
            primes.append((label, cur.cardinal()))
            if not cur.try_lit(","):
                break
        cur.expect("}")
        cur.expect("min=")
        min_residue = cur.cardinal()
        infinite = True
        if cur.try_lit("spectrum="):
            word = cur.regex(_NAME, "finite or infinite")
            if word not in ("finite", "infinite"):
                raise cur.error("spectrum must be finite or infinite")
            infinite = word == "infinite"
        return rings.abstract_dedekind(primes, min_residue, infinite)
    raise cur.error("expected a ring literal")


def parse_spec(text: str) -> tuple[RingHandle, ModuleDescriptor]:
    """Parse '<ring>: <summands>' into a validated descriptor.  Errors
    other than the library's are defects and propagate."""
    cur = _Cursor(text)
    ring = _ring(cur)
    cur.expect(":")
    try:
        return ring, _summands(cur, ring)
    except (SpecSyntaxError, SpecSemanticError, TooLargeError):
        raise
    except (ValueError, CoverCalcError) as exc:
        raise SpecSemanticError(str(exc)) from exc


def _summands(cur: _Cursor, ring: RingHandle) -> ModuleDescriptor:
    free = ZERO
    field = ZERO
    torsion = []
    pruefer = []
    tail = 0
    if cur.try_lit("0"):
        if not cur.done():
            raise cur.error("trailing input after zero module")
        return make_descriptor(ring)
    while True:
        cur.skip_ws()
        if cur.try_lit("R/("):
            lit = _element_literal(cur, ring)
            cur.expect(")")
            mult = _multiplicity(cur)
            torsion.append((rings.factor_ideal(ring, lit), mult))
        elif cur.try_lit("Pruefer("):
            lit = _element_literal(cur, ring)
            cur.expect(")")
            mult = _multiplicity(cur)
            ideal = rings.factor_ideal(ring, lit)
            if len(ideal.factors) != 1 or ideal.factors[0][1] != 1:
                raise SpecSemanticError("Pruefer summands need a maximal ideal")
            pruefer.append((ideal.factors[0][0], mult))
        elif cur.try_lit("R"):
            free = cardinal_sum([free, _multiplicity(cur)])
        elif cur.try_lit("Q"):
            field = cardinal_sum([field, _multiplicity(cur)])
        elif cur.try_lit("primes("):
            bound = cur.int_()
            infinite = False
            if cur.try_lit(","):
                cur.expect("infinite")
                infinite = True
            cur.expect(")")
            for m in rings.maximal_ideals_with_residue_at_most(ring, bound):
                torsion.append((FactoredIdeal.from_factors({m: 1}), finite(1)))
            if infinite:
                tail = max(tail, bound) if tail else bound
        else:
            raise cur.error("expected a summand")
        if cur.done():
            break
        cur.expect("+")
    return make_descriptor(ring, free_rank=free, torsion=torsion,
                           field_copies=field, pruefer=pruefer,
                           tail_above=tail)


def _multiplicity(cur: _Cursor) -> Cardinal:
    if cur.try_lit("^"):
        return cur.cardinal()
    return finite(1)


def _element_literal(cur: _Cursor, ring: RingHandle):
    if ring.kind == rings.GAUSSIAN:
        terms = _terms(cur, "i", 1, "a Gaussian integer")
        return (terms.get(0, 0), terms.get(1, 0))
    if ring.is_concrete:
        return _entry(cur, ring)
    return _abstract_literal(cur, ring)


def _entry(cur: _Cursor, ring: RingHandle):
    """A polynomial in t over F_p[t], an integer otherwise: the element
    literals of Z and F_p[t], and the entries of a matrix."""
    if ring.kind == rings.POLY:
        terms = _terms(cur, "t", rings.MAX_POLY_DEGREE, "a polynomial in t")
        return fppoly.trim([terms.get(e, 0) for e in range(max(terms) + 1)],
                           ring.p)
    return cur.int_()


def _terms(cur: _Cursor, var: str, top: int, what: str) -> dict[int, int]:
    """A signed sum of terms c, c*var and var^e as {exponent: summed
    coefficient}.  An exponent 0 <= e <= top follows var only when top > 1,
    so over Z[i] (top 1) no '^' is read after i."""
    terms: dict[int, int] = {}
    first = True
    while True:
        if cur.try_lit("-"):
            sign = -1
        elif cur.try_lit("+") or first:
            sign = 1
        else:
            return terms
        cur.skip_ws()
        m = _INT.match(cur.text, cur.pos)
        if m:
            cur.pos = m.end()
            coeff = int(m.group(0))
            e = 1 if cur.try_lit(var) else 0
        elif cur.try_lit(var):
            coeff, e = 1, 1
        else:
            raise cur.error(f"expected {what}" if first
                            else "expected a term after sign")
        if e and top > 1 and cur.try_lit("^"):
            e = cur.int_()
            if e < 0:
                raise cur.error(f"exponents in {var} must be nonnegative")
            if e > top:
                raise cur.error(
                    f"polynomial literals must have degree at most {top}")
        terms[e] = terms.get(e, 0) + sign * coeff
        first = False


def _abstract_literal(cur: _Cursor, ring: RingHandle) -> FactoredIdeal:
    factors: dict[rings.MaximalIdealId, int] = {}
    while True:
        label = cur.regex(_NAME, "a prime label")
        e = 1
        if cur.try_lit("^"):
            e = cur.int_()
        residue = ring.declared_residue(label)
        if residue is None:
            raise SpecSemanticError(f"{label} is not a declared prime of {ring}")
        if e < 1:
            raise cur.error("exponents of prime labels must be positive")
        m = rings.maximal_ideal_abstract(label, residue)
        factors[m] = factors.get(m, 0) + e
        if not cur.try_lit("*"):
            break
    return FactoredIdeal.from_factors(factors)


def parse_element(text: str, ring: RingHandle):
    """Parse a standalone element literal for the given ring."""
    cur = _Cursor(text)
    v = _element_literal(cur, ring)
    if not cur.done():
        raise cur.error("trailing input after element")
    return v


def parse_monoid(text: str) -> MonoidDescriptor:
    from . import monoids
    cur = _Cursor(text)
    summands = []
    while True:
        cur.skip_ws()
        if cur.try_lit("N"):
            summands.append(monoids.FREE_N)
        elif cur.try_lit("C("):
            r = cur.int_()
            cur.expect(",")
            n = cur.int_()
            cur.expect(")")
            try:
                summands.append(monoids.finite_cyclic(r, n))
            except ValueError as exc:
                raise SpecSemanticError(str(exc)) from exc
        else:
            raise cur.error("expected N or C(r,n)")
        if cur.done():
            break
        cur.expect("+")
    return monoids.MonoidDescriptor(tuple(summands))


def parse_matrix(text: str, ring: RingHandle) -> list[list]:
    """Parse [[...],[...]] with integer or polynomial entries."""
    cur = _Cursor(text)
    cur.expect("[")
    out = []
    while True:
        cur.expect("[")
        row = []
        while True:
            row.append(_entry(cur, ring))
            if not cur.try_lit(","):
                break
        cur.expect("]")
        out.append(row)
        if not cur.try_lit(","):
            break
    cur.expect("]")
    if not cur.done():
        raise cur.error("trailing input after matrix")
    if any(len(r) != len(out[0]) for r in out):
        raise SpecSemanticError("matrix rows have unequal lengths")
    return out


def render_ring(ring: RingHandle) -> str:
    return str(ring)


def render_descriptor(d: ModuleDescriptor) -> str:
    if d.is_zero:
        return f"{render_ring(d.ring)}: 0"
    # the primes(N, infinite) token re-adds one copy of R/m for each m with
    # residue <= N on reparse, so those copies are not rendered explicitly
    parts = []
    for ideal, mult in d.torsion:
        if d.tail_above and _is_listed_prime(ideal, d.tail_above):
            mult = _card_minus_one(mult)
            if mult == ZERO:
                continue
        if d.ring.is_concrete:
            gen = d.ring.render(d.ring.generator(ideal))
        else:
            gen = str(ideal)
        parts.append(_suffix(f"R/({gen})", mult))
    if d.free_rank > ZERO:
        parts.append(_suffix("R", d.free_rank))
    if d.field_copies > ZERO:
        parts.append(_suffix("Q", d.field_copies))
    for m, mult in d.pruefer:
        parts.append(_suffix(f"Pruefer({m.generator_str()})", mult))
    if d.tail_above:
        parts.append(f"primes({d.tail_above}, infinite)")
    return f"{render_ring(d.ring)}: " + " + ".join(parts)


def _is_listed_prime(ideal: FactoredIdeal, n: int) -> bool:
    """Whether primes(n) lists the ideal: a maximal ideal (one prime to
    the first power) with residue size at most n."""
    if len(ideal.factors) != 1:
        return False
    m, e = ideal.factors[0]
    return e == 1 and m.residue_card <= finite(n)


def _suffix(base: str, mult: Cardinal) -> str:
    if mult == finite(1):
        return base
    return f"{base}^{mult}"


def _card_minus_one(mult: Cardinal) -> Cardinal:
    return finite(mult.finite_value - 1) if mult.is_finite else mult
