"""Small residue-field arithmetic R/m for the concrete rings.

R/m is F_p[x]/(f) for the minimal polynomial f of the ring's generator
(t over F_p[t], i over Z[i]; an integer is a constant, so f = t over Z).
Elements are encoded as integers 0..q-1 via the base-p code of their
coefficient vector, which doubles as the canonical enumeration order.
Only the operations needed for line covers are provided.
"""

from __future__ import annotations

from . import fppoly, rings
from .errors import NonEnumerableResidueError
from .records import record


@record
class ResidueField:
    """F = R/m for a concrete ring; q = p^d elements coded as ints."""

    p: int
    d: int
    modulus: tuple          # minimal polynomial of the generator, of degree d
    symbol: str = "t"

    @property
    def q(self) -> int:
        return self.p ** self.d

    def elements(self):
        return range(self.q)

    def _decode(self, a: int) -> tuple:
        return fppoly.from_code(a, self.p)

    def add(self, a: int, b: int) -> int:
        return fppoly.code(fppoly.add(self._decode(a), self._decode(b), self.p), self.p)

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
        """Code of the image in F of an element of the source ring, read as
        a polynomial in the generator."""
        f = fppoly.trim((x,) if isinstance(x, int) else x, self.p)
        return fppoly.code(fppoly.mod(f, self.modulus, self.p), self.p)


def residue_field(ring: rings.RingHandle, m: rings.MaximalIdealId) -> ResidueField:
    """Build R/m arithmetic; concrete rings with finite residue only."""
    res = rings.residue_cardinality(ring, m)
    if not res.is_finite:
        raise NonEnumerableResidueError(f"residue of {m} is infinite")
    if not ring.is_concrete:
        raise NonEnumerableResidueError(f"{ring} has no concrete residue fields")
    p, modulus = ring.residue_field_modulus(m)
    return ResidueField(p, fppoly.deg(modulus), modulus, ring.symbol)
