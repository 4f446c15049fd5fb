"""Symbolic module descriptors and their canonical normal form.

A descriptor records a direct sum of cyclic modules: a free part, torsion
summands R/I with factored annihilators (multiplicities are extended
cardinals), copies of the fraction field, and Pruefer summands.  A torsion
"tail" flag stands for one copy of R/m for every maximal ideal of residue
above a bound, which is how families like "one cyclic summand per prime"
are written down without listing them.

Normalization splits every torsion annihilator into its prime-power
parts (the summand-wise Chinese remainder decomposition) and returns a
descriptor of the same module; the blocks property groups those parts by
maximal ideal in canonical order, on any descriptor.

nc_set reads a descriptor once for everything the covering answers need
from it: the NC set (the maximal ideals at which two summands survive),
q, the least residue size |R/m| over it, and the canonically least ideal
attaining q.
"""

from __future__ import annotations

from typing import Optional

from . import rings
from .cardinal import ALEPH0, Cardinal, ZERO, cardinal_sum, finite
from .errors import NotApplicableError, SpecSemanticError
from .records import record
from .rings import FactoredIdeal, MaximalIdealId, RingHandle


@record
class ModuleDescriptor:
    ring: RingHandle
    free_rank: Cardinal = ZERO
    torsion: tuple = ()        # ((FactoredIdeal, multiplicity Cardinal), ...)
    field_copies: Cardinal = ZERO
    pruefer: tuple = ()        # ((MaximalIdealId, multiplicity Cardinal), ...)
    tail_above: int = 0        # > 0: plus one copy of R/m for every m with |R/m| > tail_above

    @property
    def is_zero(self) -> bool:
        return (self.free_rank == ZERO and not self.torsion
                and self.field_copies == ZERO and not self.pruefer
                and self.tail_above == 0)

    @property
    def has_divisible_part(self) -> bool:
        return self.field_copies > ZERO or bool(self.pruefer)

    @property
    def is_finite_torsion(self) -> bool:
        """Finitely many torsion summands and nothing else."""
        return (self.free_rank == ZERO and not self.has_divisible_part
                and self.tail_above == 0
                and all(mult.is_finite for _, mult in self.torsion))

    @property
    def blocks(self) -> tuple:
        """Torsion prime-power parts grouped by maximal ideal, in canonical
        order: ((MaximalIdealId, ((exp, mult), ... exp desc)), ...)."""
        by_m: dict[MaximalIdealId, dict[int, Cardinal]] = {}
        for ideal, mult in self.torsion:
            for m, e in ideal.factors:
                exps = by_m.setdefault(m, {})
                exps[e] = cardinal_sum([exps.get(e, ZERO), mult])
        return tuple((m, tuple(sorted(by_m[m].items(), key=lambda kv: -kv[0])))
                     for m in sorted(by_m, key=lambda m: m.sort_key()))

    def reduced_summand_count(self) -> Cardinal:
        parts = [self.free_rank] + [mult for _, mult in self.torsion]
        if self.tail_above:
            parts.append(ALEPH0)
        return cardinal_sum(parts)


def make_descriptor(ring: RingHandle,
                    free_rank: Cardinal = ZERO,
                    torsion=(),
                    field_copies: Cardinal = ZERO,
                    pruefer=(),
                    tail_above: int = 0) -> ModuleDescriptor:
    """Validate, merge, and canonically order the parts of a descriptor."""
    merged: dict[FactoredIdeal, Cardinal] = {}
    for ideal, mult in torsion:
        # factors a literal; checks that a factored ideal belongs to the ring
        ideal = rings.factor_ideal(ring, ideal)
        if ideal.unit:
            raise SpecSemanticError(
                "torsion annihilators must be proper nonzero ideals")
        if mult == ZERO:
            continue
        merged[ideal] = cardinal_sum([merged.get(ideal, ZERO), mult])
    torsion_t = tuple(sorted(merged.items(), key=lambda kv: _ideal_key(kv[0])))

    if field_copies > ZERO or pruefer:
        if not ring.is_pid:
            raise SpecSemanticError(
                f"fraction-field and Pruefer summands need a PID kind, not {ring}")
    if ring.is_field:
        if pruefer:
            raise SpecSemanticError("a field has no Pruefer modules")
        if torsion_t:
            raise SpecSemanticError("a field has no torsion modules")
        # F = R over a field: fold fraction-field copies into the free part
        free_rank = cardinal_sum([free_rank, field_copies])
        field_copies = ZERO

    pr_merged: dict[MaximalIdealId, Cardinal] = {}
    for m, mult in pruefer:
        rings.residue_cardinality(ring, m)  # membership check
        if mult == ZERO:
            continue
        pr_merged[m] = cardinal_sum([pr_merged.get(m, ZERO), mult])
    pruefer_t = tuple(sorted(pr_merged.items(), key=lambda kv: kv[0].sort_key()))

    if tail_above:
        if not ring.enumerable_primes:
            raise SpecSemanticError(f"{ring} cannot carry a prime-family tail")
        if not ring.infinite_spectrum:
            raise SpecSemanticError("prime-family tail needs an infinite spectrum")
        if free_rank > ZERO or field_copies > ZERO or pruefer_t:
            raise SpecSemanticError(
                "a prime-family tail is only supported on pure-torsion descriptors")
    return ModuleDescriptor(ring, free_rank, torsion_t, field_copies,
                            pruefer_t, tail_above)


def _ideal_key(ideal: FactoredIdeal):
    return tuple((m.sort_key(), e) for m, e in ideal.factors)


def normalize(d: ModuleDescriptor) -> ModuleDescriptor:
    """The same module with every torsion summand split into its
    prime-power parts (Chinese remainder theorem); idempotent."""
    torsion = [(FactoredIdeal.from_factors({m: e}), mult)
               for m, exps in d.blocks for e, mult in exps]
    return make_descriptor(d.ring, d.free_rank, torsion, d.field_copies,
                           d.pruefer, d.tail_above)


@record
class NCSet:
    """Maximal ideals where at least two summands localize nonzero, with
    q, the least residue size over them, and the canonically least ideal
    attaining q (None when no such ideal can be named)."""

    all_maximal: bool
    ideals: tuple = ()
    q: Optional[Cardinal] = None
    ideal: Optional[MaximalIdealId] = None

    @property
    def is_empty(self) -> bool:
        return not self.all_maximal and not self.ideals

    def __str__(self) -> str:
        if self.all_maximal:
            return "all"
        return "{" + ", ".join(str(m) for m in self.ideals) + "}"


def nc_set(d: ModuleDescriptor) -> NCSet:
    """Ideals at which two or more reduced summands localize nonzero.

    Free summands localize nonzero everywhere, a torsion summand R/I exactly
    at the primes dividing I.  Divisible summands are excluded: the covering
    thresholds for non-reduced modules depend only on the reduced part.
    """
    if d.ring.is_field:
        raise NotApplicableError("fields have no maximal ideals here")
    if d.free_rank >= finite(2):
        return NCSet(True, q=rings.min_residue_cardinality(d.ring),
                     ideal=d.ring.least_maximal_ideal())
    counts: dict[MaximalIdealId, int] = {}
    for ideal, mult in d.torsion:
        per_copy = 2 if mult >= finite(2) else 1
        for m, _ in ideal.factors:
            counts[m] = counts.get(m, 0) + per_copy
    free_bonus = 1 if d.free_rank == finite(1) else 0
    members = set()
    for m, c in counts.items():
        tail_bonus = 1 if (d.tail_above and m.residue_card > finite(d.tail_above)) else 0
        if c + free_bonus + tail_bonus >= 2:
            members.add(m)
    if not members:
        return NCSet(False)
    ideals = tuple(sorted(members, key=lambda m: m.sort_key()))
    residues = [rings.residue_cardinality(d.ring, m) for m in ideals]
    q = min(residues)
    return NCSet(False, ideals, q, ideals[residues.index(q)])


def q_value(d: ModuleDescriptor) -> Optional[Cardinal]:
    """min |R/m| over the NC set; None when the NC set is empty."""
    return nc_set(d).q


def descriptor_from_presentation(ring: RingHandle, A, ncols_free: int = 0) -> ModuleDescriptor:
    """Descriptor of coker(A) + R^ncols_free.

    Rows of A index generators, columns are relations; unit invariant
    factors vanish, zero ones contribute free rank.
    """
    from . import snf
    if ncols_free < 0:
        raise ValueError("ncols_free must be nonnegative")
    m = len(A)
    n = len(A[0]) if m else 0
    diag, _, _ = snf.smith_normal_form(ring, A) if m and n else ([], None, None)
    free = ncols_free + max(m - n, 0) if m else ncols_free
    torsion = []
    for dd in diag:
        if ring.is_zero(dd):
            free += 1
            continue
        ideal = rings.factor_ideal(ring, dd)
        if not ideal.unit:
            torsion.append((ideal, finite(1)))
    return make_descriptor(ring, free_rank=finite(free), torsion=torsion)
