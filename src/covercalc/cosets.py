"""Minimum coset covers of a punctured module.

For a cyclic torsion module R/I over a finite-residue Dedekind kind, the
least number of proper-submodule cosets covering R/I minus one point is
the sum over the prime-power factors m^n of I of n*(|R/m| - 1): each of
the n graded layers m^(j-1)/m^j is a one-dimensional R/m-space and
contributes its |R/m| - 1 nonzero classes.  The same sum
is returned for direct sums of prime-power blocks, flagged as conjectural
except where it is a theorem (cyclic inputs, and all modules over Z).

The explicit cover peels prime-power factors in canonical order: layer j
of the factor m^e contributes the cosets g*r*pi^(j-1) + (g*pi^j) for the
nonzero residues r, where g is the product of the factors already peeled;
the whole cover is finally translated by the puncture.
"""

from __future__ import annotations

from . import arith, modules, rings
from .cardinal import finite
from .errors import (InfiniteResidueError, NotMaterializableError,
                     TrivialGroupError)
from .records import record
from .rings import FactoredIdeal, MaximalIdealId, RingHandle


def phi_prime(ring: RingHandle, m: MaximalIdealId, n: int) -> int:
    """Contribution of one prime-power factor m^n: n*(|R/m| - 1)."""
    if n < 1:
        raise ValueError("exponent must be positive")
    residue = rings.residue_cardinality(ring, m)
    if not residue.is_finite:
        raise InfiniteResidueError(f"residue of {m} is infinite")
    return n * (residue.finite_value - 1)


def phi_cyclic(ring: RingHandle, ideal) -> int:
    """Minimum punctured coset cover size of R/I, I factored or a literal."""
    ideal = rings.factor_ideal(ring, ideal)
    if ideal.unit:
        raise TrivialGroupError("R/R is the trivial module")
    return sum(phi_prime(ring, m, e) for m, e in ideal.factors)


def phi_finite_abelian(orders) -> int:
    """Szegedy's count for a finite abelian group given by cyclic orders."""
    orders = list(orders)
    if not orders or any(o < 1 for o in orders):
        raise ValueError("orders must be positive integers")
    if all(o == 1 for o in orders):
        raise TrivialGroupError("the trivial group has no punctured cover")
    return sum((p - 1) * e for o in orders for p, e in arith.factorize(o))


def phi_conjecture_value(ring: RingHandle, blocks) -> tuple[int, bool]:
    """Predicted punctured-cover size for a sum of prime-power blocks.

    Returns (value, conjectural).  The value is a theorem for cyclic inputs
    (pairwise distinct primes) and for every Z-module; other direct sums
    carry the conjectural flag.
    """
    blocks = list(blocks)
    if not blocks:
        raise TrivialGroupError("no blocks")
    value = sum(phi_prime(ring, m, n) for m, n in blocks)
    primes = [m for m, _ in blocks]
    cyclic = len(set(primes)) == len(primes)
    conjectural = not (cyclic or ring.kind == rings.INTEGERS)
    return value, conjectural


@record
class CosetCoverWitness:
    ring: RingHandle
    modulus: FactoredIdeal
    modulus_element: object
    puncture: object
    cosets: tuple            # ((submodule generator element, representative), ...)

    def count(self) -> int:
        return len(self.cosets)

    def target_str(self) -> str:
        gen = self.ring.render(self.modulus_element)
        return f"{self.ring}: R/({gen})"


def build_coset_cover(ring: RingHandle, ideal, puncture) -> CosetCoverWitness:
    """Explicit minimal coset cover of (R/I) minus a puncture.

    Concrete rings only.  Emits exactly phi_cyclic(ring, I) cosets; layer
    representatives within a block are r*pi^(j-1) over the canonical
    nonzero residues r, lifted by the product of previously peeled blocks,
    then the whole list is translated by the puncture.
    """
    if not ring.is_concrete:
        raise NotMaterializableError(f"cannot build concrete cosets over {ring}")
    ideal = rings.factor_ideal(ring, ideal)
    if ideal.unit:
        raise TrivialGroupError("R/R is the trivial module")
    h = ring.generator(ideal)
    puncture = ring.reduce(puncture, h)
    cosets = []
    g = ring.one
    for m, e in ideal.factors:
        pi = m.data
        for j in range(1, e + 1):
            sub_gen = ring.reduce(ring.mul(g, ring.pow(pi, j)), h)
            # only the last layer of the last factor has sub_gen = 0 mod h;
            # its cosets are single points, represented mod h
            modulus = h if ring.is_zero(sub_gen) else sub_gen
            layer = ring.mul(g, ring.pow(pi, j - 1))
            for r in ring.nonzero_residues(pi):
                rep = ring.reduce(ring.add(ring.mul(r, layer), puncture), h)
                cosets.append((sub_gen, ring.reduce(rep, modulus)))
        g = ring.mul(g, ring.pow(pi, e))
    expected = phi_cyclic(ring, ideal)
    if len(cosets) != expected:
        raise AssertionError(f"built {len(cosets)} cosets, expected {expected}")
    return CosetCoverWitness(ring, ideal, h, puncture, tuple(cosets))


def verify_coset_cover(witness: CosetCoverWitness, max_size: int = 4096) -> bool:
    """Materialize the target and check the witness elementwise.

    True iff no coset contains the puncture, every submodule is proper,
    and the union is exactly the module minus the puncture.
    """
    from . import oracle
    ring = witness.ring
    d = modules.make_descriptor(ring, torsion=((witness.modulus, finite(1)),))
    mod = oracle.materialize(d, max_size=max_size)
    return check_coset_cover_on(mod, witness)


def check_coset_cover_on(mod, witness: CosetCoverWitness) -> bool:
    """Elementwise coset-witness check against an already-materialized target."""
    from . import _kernels as kernels
    from .errors import ShapeMismatchError
    if (len(mod.summands) != 1 or mod.ring != witness.ring
            or mod.summands[0].annihilator != witness.modulus):
        raise ShapeMismatchError("module does not match the witness target")
    puncture_idx = mod.encode_ring_element(0, witness.puncture)
    universe = mod.full_mask & ~(1 << puncture_idx)
    union = 0
    for sub_gen, rep in witness.cosets:
        sub_mask = mod.span([mod.encode_ring_element(0, sub_gen)])
        if sub_mask == mod.full_mask:
            return False
        coset = kernels.translate(mod.orders, sub_mask,
                                  mod.encode_ring_element(0, rep))
        if (coset >> puncture_idx) & 1:
            return False
        union |= coset
    return union == universe
