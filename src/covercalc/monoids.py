"""Covers of direct sums of cyclic monoids.

A direct sum of cyclic monoids is either itself cyclic (no cover by
proper submonoids exists), or a group (delegate to the module machinery
over Z), or it splits as a partition into exactly two proper submonoids:
take a non-group cyclic summand generated by f, and pair the sum of the
remaining summands with the set of elements having a nonzero f-component
(plus the identity).
"""

from __future__ import annotations

from typing import Optional

from . import rings
from .cardinal import finite
from .errors import EmptyDescriptorError
from .modules import ModuleDescriptor, make_descriptor
from .records import record

CYCLIC_MONOID = "cyclic-monoid"
IS_GROUP = "is-group"
TWO_SUBMONOIDS = "two-submonoids"


@record
class CyclicMonoidSummand:
    """Free N, or the finite cyclic monoid <f : f^(index+period) = f^index>."""

    free: bool
    index: int = 0
    period: int = 1

    def __post_init__(self):
        if not self.free and (self.index < 0 or self.period < 1):
            raise ValueError("need index >= 0 and period >= 1")

    @property
    def is_group(self) -> bool:
        return (not self.free) and self.index == 0

    @property
    def is_trivial(self) -> bool:
        return (not self.free) and self.index == 0 and self.period == 1

    def __str__(self) -> str:
        return "N" if self.free else f"C({self.index},{self.period})"


FREE_N = CyclicMonoidSummand(free=True)


def finite_cyclic(index: int, period: int) -> CyclicMonoidSummand:
    return CyclicMonoidSummand(free=False, index=index, period=period)


@record
class MonoidDescriptor:
    summands: tuple

    def __str__(self) -> str:
        return " + ".join(str(s) for s in self.summands)


@record
class MonoidPartition:
    """Partition into {x : x_pivot = 0} and {x : x_pivot > 0} with 0 shared."""

    pivot: int

    def part_strs(self) -> tuple[str, str]:
        return (f"{{x : x[{self.pivot}] = 0}}",
                f"{{x : x[{self.pivot}] > 0}} + {{0}}")


@record
class MonoidAnswer:
    kind: str
    group_descriptor: Optional[ModuleDescriptor] = None
    partition: Optional[MonoidPartition] = None


def classify_monoid(d: MonoidDescriptor) -> MonoidAnswer:
    """Exactly one of: cyclic monoid, abelian group, or a two-part partition.

    Trivial summands C(0,1) are dropped first; a partition needs a
    nontrivial complement next to the non-group pivot summand.
    """
    if not d.summands:
        raise EmptyDescriptorError("monoid descriptor has no summands")
    live = [(i, s) for i, s in enumerate(d.summands) if not s.is_trivial]
    if len(live) <= 1:
        return MonoidAnswer(CYCLIC_MONOID)
    if all(s.is_group for _, s in live):
        torsion = []
        for _, s in live:
            torsion.append((rings.factor_ideal(rings.integers(), s.period),
                            finite(1)))
        delegate = make_descriptor(rings.integers(), torsion=torsion)
        return MonoidAnswer(IS_GROUP, group_descriptor=delegate)
    pivot = min(i for i, s in live if not s.is_group)
    return MonoidAnswer(TWO_SUBMONOIDS, partition=MonoidPartition(pivot))


def verify_monoid_partition(d: MonoidDescriptor, answer: MonoidAnswer,
                            bound: int = 10) -> bool:
    """Check a two-submonoid partition on a truncation of the monoid.

    Free summands are cut at the bound and closure is only required where
    sums stay inside the truncation, so the check is sound but partial for
    infinite monoids.  Part order does not matter.

    Membership in either part depends only on an element's pivot
    coordinate and on whether the element is zero, and so does membership
    of a sum; the check therefore runs over those classes instead of over
    all element pairs, which is equivalent to the elementwise check (the
    tests compare the two) but stays fast at bound 10.
    """
    if answer.kind != TWO_SUBMONOIDS:
        raise ValueError("only two-submonoid answers carry a partition")
    pivot = answer.partition.pivot
    piv = d.summands[pivot]
    piv_range = range(bound + 1) if piv.free else range(piv.index + piv.period)
    # classes: (pivot coordinate, element-is-zero); a class with zero=True
    # exists only for pivot coordinate 0, and zero=False needs some other
    # summand (guaranteed: a partition needs at least two live summands)
    classes = [(p, p == 0 and z) for p in piv_range for z in (True, False)
               if not (z and p != 0)]

    def cls_member_a(c):
        return c[0] == 0

    def cls_member_b(c):
        return c[1] or c[0] > 0

    for c in classes:
        if not (cls_member_a(c) or cls_member_b(c)):
            return False
        if cls_member_a(c) and cls_member_b(c) and not c[1]:
            return False
    for p1, z1 in classes:
        for p2, z2 in classes:
            v = p1 + p2
            if piv.free:
                if v > bound:
                    continue  # pivot sum leaves the truncation
                sp = v
            else:
                sp = v if v < piv.index + piv.period else \
                    piv.index + (v - piv.index) % piv.period
            sc = (sp, z1 and z2 and sp == 0)
            a1, a2 = cls_member_a((p1, z1)), cls_member_a((p2, z2))
            b1, b2 = cls_member_b((p1, z1)), cls_member_b((p2, z2))
            if a1 and a2 and not cls_member_a(sc):
                return False
            if b1 and b2 and not cls_member_b(sc):
                return False
    return True
