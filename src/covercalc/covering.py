"""Exact covering thresholds for direct sums of cyclic modules.

The answer shapes:

  * no cover at all (cyclic modules, and the zero module);
  * an exact threshold kappa: the module is a union of J-many proper
    submodules precisely when J >= kappa (kappa = q+1 in the finite case,
    aleph0 for the countable-but-not-finite cases);
  * an upper bound only: coverable by kappa-many and not by finitely many,
    with the intermediate infinite cardinals left unresolved.  This occurs
    for a finite direct sum with a free summand over a ring with infinitely
    many maximal ideals, all of infinite residue.

sigma and classify read q from one modules.nc_set call each, and
build_cover_witness reads q and its lines' ideal from one.
Finite thresholds come with an explicit witness: q+1 lines of the plane
(R/m)^2 over the residue field at a minimizing ideal m, pulled back through
reduction of two summand coordinates.  Countable thresholds are witnessed
by chains (growing partial sums, the Pruefer chain, or the localization
chain inside the fraction field).
"""

from __future__ import annotations

import math
from typing import Optional, Union

from . import modules, residues, rings
from .cardinal import ALEPH0, Cardinal, ZERO, finite
from .errors import (DimensionTooSmallError, HasDivisiblePartError,
                     NonEnumerableResidueError, NotApplicableError,
                     NotCoverableError, NotEnumerableError)
from .modules import ModuleDescriptor, make_descriptor
from .records import record
from .rings import FactoredIdeal, MaximalIdealId, RingHandle

CYCLIC = "cyclic"
COUNTABLE_NOT_FINITE = "countable-not-finite"
FINITE_THRESHOLD = "finite-threshold"

NO_COVER = "no-cover"
THRESHOLD = "threshold"
UPPER_BOUND_ONLY = "upper-bound-only"


@record
class Trichotomy:
    kind: str
    q: Optional[Cardinal] = None
    witness_ideal: Optional[MaximalIdealId] = None


@record
class CoverAnswer:
    kind: str
    value: Optional[Cardinal] = None
    note: str = ""

    def __post_init__(self):
        if self.kind == THRESHOLD:
            # two proper submodules never cover a module
            if self.value.is_finite and self.value.finite_value < 3:
                raise ValueError(f"impossible finite threshold {self.value}")
        if self.kind == UPPER_BOUND_ONLY and self.value.is_finite:
            raise ValueError("upper-bound-only answers are infinite")

    def token(self) -> str:
        if self.kind == NO_COVER:
            return "no-cover"
        if self.kind == THRESHOLD:
            return f"threshold({self.value})"
        return f"upper-bound-only({self.value})"


def no_cover() -> CoverAnswer:
    return CoverAnswer(NO_COVER)


def threshold(value: Cardinal) -> CoverAnswer:
    return CoverAnswer(THRESHOLD, value)


def upper_bound_only(value: Cardinal) -> CoverAnswer:
    return CoverAnswer(UPPER_BOUND_ONLY, value, note="not finitely coverable")


def classify(d: ModuleDescriptor) -> Trichotomy:
    """Cyclic / countable-not-finite / threshold-at-q, for reduced descriptors."""
    if d.ring.is_field:
        raise NotApplicableError("classify needs a non-field ring; use nu1")
    if d.has_divisible_part:
        raise HasDivisiblePartError("classify takes reduced descriptors; see sigma")
    nc = modules.nc_set(d)
    if nc.is_empty:
        if d.reduced_summand_count().is_finite:
            return Trichotomy(CYCLIC)
        return Trichotomy(COUNTABLE_NOT_FINITE)
    return Trichotomy(FINITE_THRESHOLD, q=nc.q, witness_ideal=nc.ideal)


def nu1(field_card: Cardinal, dim_card: Cardinal) -> Cardinal:
    """Least number of proper subspaces covering a vector space of dim >= 2.

    aleph0 when field and dimension are both infinite; otherwise the size
    of the projective line: q+1 for a finite field, |F| itself when infinite.
    """
    if dim_card < finite(2):
        raise DimensionTooSmallError("dimension < 2 admits no cover")
    if field_card.is_infinite and dim_card.is_infinite:
        return ALEPH0
    return field_card.successor()


def sigma(d: ModuleDescriptor) -> CoverAnswer:
    """Exact covering answer for any descriptor shape."""
    return _sigma(d, _nc_set(d))


def _nc_set(d: ModuleDescriptor) -> Optional[modules.NCSet]:
    """modules.nc_set(d), or None over a field, which has none."""
    return None if d.ring.is_field else modules.nc_set(d)


def _sigma(d: ModuleDescriptor, nc: Optional[modules.NCSet]) -> CoverAnswer:
    """sigma(d), given _nc_set(d)."""
    if d.ring.is_field:
        if d.free_rank < finite(2):
            return no_cover()
        return threshold(nu1(d.ring.card, d.free_rank))

    q = nc.q
    if d.has_divisible_part:
        if q is not None and q.is_finite:
            return threshold(q.successor())
        return threshold(ALEPH0)
    if q is None:
        if d.reduced_summand_count().is_finite:
            return no_cover()
        return threshold(ALEPH0)
    if q.is_finite:
        return threshold(q.successor())
    if d.reduced_summand_count().is_infinite:
        return threshold(ALEPH0)
    if d.free_rank > ZERO and d.ring.infinite_spectrum:
        return upper_bound_only(q)
    return threshold(q)


def sigma_integer(d: ModuleDescriptor) -> Union[int, float]:
    """The least finite cover size, or math.inf when no finite cover exists."""
    ans = sigma(d)
    if ans.kind == THRESHOLD and ans.value.is_finite:
        return ans.value.finite_value
    return math.inf


def s_set(ring: RingHandle, n: int) -> list[ModuleDescriptor]:
    """The planes (R/m)^2 over all m with |R/m| < n, in canonical order."""
    if not ring.enumerable_primes:
        raise NotEnumerableError(f"{ring} has no enumerable maximal ideals")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return []       # every residue field has at least 2 elements
    out = []
    for m in rings.maximal_ideals_with_residue_at_most(ring, n - 1):
        ideal = FactoredIdeal.from_factors({m: 1})
        out.append(make_descriptor(ring, torsion=((ideal, finite(2)),)))
    return out


LINES = "lines"
CHAIN = "chain"
GROWING_SUBSUM = "growing-subsum"
PRUEFER_CHAIN = "pruefer-chain"
LOCALIZATION_CHAIN = "localization-chain"


@record
class CoverWitness:
    kind: str                           # LINES or CHAIN
    ideal: Optional[MaximalIdealId] = None
    summand_pair: Optional[tuple] = None
    line_points: tuple = ()             # ((lam, mu) residue codes, ...) when concrete
    line_strs: tuple = ()
    chain_kind: str = ""
    description: str = ""
    materializable: bool = False
    symbolic: bool = False

    def count(self) -> Optional[int]:
        return len(self.line_strs) if self.kind == LINES else None


def build_cover_witness(d: ModuleDescriptor) -> CoverWitness:
    """An explicit minimal cover matching sigma(d).

    Finite thresholds produce the q+1 lifted lines; countable answers a
    chain description.  Raises when no cover exists or when no concrete
    maximal ideal attaining q can be named.
    """
    nc = _nc_set(d)
    ans = _sigma(d, nc)
    if ans.kind == NO_COVER:
        raise NotCoverableError("no cover by proper submodules exists")
    if ans.kind == UPPER_BOUND_ONLY:
        raise NonEnumerableResidueError(
            "only a symbolic upper bound is known; no finite witness")
    if ans.value.is_finite:
        return _lines_witness(d, nc, ans.value.finite_value - 1)
    return _chain_witness(d)


def _lines_witness(d: ModuleDescriptor, nc: Optional[modules.NCSet],
                   q: int) -> CoverWitness:
    if d.ring.is_field:
        raise NonEnumerableResidueError(
            "vector-space covers are supported through nu1 only")
    m = nc.ideal
    if m is None:
        raise NonEnumerableResidueError(
            "no declared maximal ideal attains the minimum residue")
    pair = _summand_pair(d, m)
    if d.ring.is_concrete:
        F = residues.residue_field(d.ring, m)
        pts = [(1, 0)] + [(lam, 1) for lam in F.elements()]
        strs = tuple(_point_str(F, lam, mu) for lam, mu in pts)
        return CoverWitness(LINES, ideal=m, summand_pair=pair,
                            line_points=tuple(pts), line_strs=strs,
                            materializable=d.is_finite_torsion)
    strs = ("(1:0)",) + tuple(f"({k}:1)" for k in range(q))
    return CoverWitness(LINES, ideal=m, summand_pair=pair, line_strs=strs,
                        symbolic=True)


def _point_str(F, lam: int, mu: int) -> str:
    return f"({F.elt_str(lam)}:{F.elt_str(mu)})"


def _summand_pair(d: ModuleDescriptor, m: MaximalIdealId) -> tuple[int, int]:
    """Two least flat indices of reduced summands localizing nonzero at m.

    Flat order: torsion entries (multiplicities expanded) then free copies.
    """
    found = []
    idx = 0
    for ideal, mult in d.torsion:
        # an infinite multiplicity occupies two slots in the flat indexing
        copies = mult.finite_value if mult.is_finite else 2
        if ideal.exponent_of(m) > 0:
            for c in range(min(copies, 2 - len(found))):
                found.append(idx + c)
        if len(found) >= 2:
            return (found[0], found[1])
        idx += copies
    free = d.free_rank.finite_value if d.free_rank.is_finite else 2
    for c in range(free):
        found.append(idx + c)
        if len(found) >= 2:
            return (found[0], found[1])
    raise NonEnumerableResidueError(f"fewer than two summands localize at {m}")


def _chain_witness(d: ModuleDescriptor) -> CoverWitness:
    if d.field_copies > ZERO:
        p = d.ring.least_maximal_ideal()
        desc = (f"chain 0 < R_(p) < R_(p)*(1/p) < R_(p)*(1/p^2) < ... at p={p}, "
                f"union = fraction field; lifted across the other summands")
        return CoverWitness(CHAIN, ideal=p, chain_kind=LOCALIZATION_CHAIN,
                            description=desc)
    if d.pruefer:
        m = d.pruefer[0][0]
        desc = (f"Pruefer chain 0 < R*(1/p)/R < R*(1/p^2)/R < ... at p={m}, "
                f"lifted across the other summands")
        return CoverWitness(CHAIN, ideal=m, chain_kind=PRUEFER_CHAIN,
                            description=desc)
    if d.reduced_summand_count().is_infinite:
        desc = ("growing partial direct sums M_1 < M_2 < ... exhausting the "
                "summands; every element lands in some finite stage")
        return CoverWitness(CHAIN, chain_kind=GROWING_SUBSUM, description=desc)
    raise NonEnumerableResidueError(
        "countable threshold over an abstract ring: no concrete chain")
