"""Small residue-field arithmetic R/m for the concrete ring kinds.

Elements are encoded as integers 0..q-1 via the base-p code of their
coefficient vector, which doubles as the canonical enumeration order.
Only the operations needed for line covers are provided.
"""

from __future__ import annotations

from . import fppoly, gaussian, rings
from .errors import NonEnumerableResidueError
from .records import record


@record
class ResidueField:
    """F = R/m for a concrete ring; q = p^d elements coded as ints."""

    p: int
    d: int
    modulus: tuple = ()     # minimal polynomial of the generator when d > 1
    symbol: str = "t"
    gauss_i: int = 0        # image of i mod m (Z[i] with prime residue)
    source_kind: str = rings.INTEGERS

    @property
    def q(self) -> int:
        return self.p ** self.d

    def elements(self):
        return range(self.q)

    def _decode(self, a: int) -> tuple:
        return fppoly.from_code(a, self.p)

    def add(self, a: int, b: int) -> int:
        return fppoly.code(fppoly.add(self._decode(a), self._decode(b), self.p), self.p)

    def neg(self, a: int) -> int:
        return fppoly.code(fppoly.neg(self._decode(a), self.p), self.p)

    def mul(self, a: int, b: int) -> int:
        prod = fppoly.mul(self._decode(a), self._decode(b), self.p)
        if self.d > 1:
            prod = fppoly.mod(prod, self.modulus, self.p)
        return fppoly.code(prod, self.p)

    def elt_str(self, a: int) -> str:
        if self.d == 1:
            return str(a)
        return fppoly.poly_str(self._decode(a), self.symbol)

    def reduce(self, x) -> int:
        """Code of the image in F of an element of the source ring."""
        if self.source_kind == rings.INTEGERS:
            return x % self.p
        if self.source_kind == rings.POLY:
            r = fppoly.mod(fppoly.trim(x, self.p), self.modulus, self.p)
            return fppoly.code(r, self.p)
        a, b = x
        if self.d == 1:
            return (a + b * self.gauss_i) % self.p
        return fppoly.code(fppoly.trim((a, b), self.p), self.p)


def residue_field(ring: rings.RingHandle, m: rings.MaximalIdealId) -> ResidueField:
    """Build R/m arithmetic; concrete rings with finite residue only."""
    res = rings.residue_cardinality(ring, m)
    if not res.is_finite:
        raise NonEnumerableResidueError(f"residue of {m} is infinite")
    if ring.kind == rings.INTEGERS:
        return ResidueField(p=m.data, d=1, source_kind=rings.INTEGERS)
    if ring.kind == rings.POLY:
        return ResidueField(p=ring.p, d=fppoly.deg(m.data), modulus=m.data,
                            symbol="t", source_kind=rings.POLY)
    if ring.kind == rings.GAUSSIAN:
        u, v = m.data
        if v == 0:
            # inert prime: F_{p^2} = F_p[i] with i^2 = -1
            return ResidueField(p=u, d=2, modulus=(1, 0, 1), symbol="i",
                                source_kind=rings.GAUSSIAN)
        p = gaussian.norm(m.data)
        c = (-u * pow(v, p - 2, p)) % p
        return ResidueField(p=p, d=1, gauss_i=c, source_kind=rings.GAUSSIAN)
    raise NonEnumerableResidueError(f"{ring} has no concrete residue fields")
