"""Brute-force ground truth on materialized finite modules.

A finite module is a tuple of cyclic orders (elements are coordinate
tuples) together with one integer matrix for the ring action: every ring
materialized here is generated by one element over Z, so the action is
multiplication by i over Z[i], by t over F_p[t], and None over Z.  Subsets
are int bitmasks over the element indexing, and the heavy work (closures,
exact minimum covers) runs in the kernels of covercalc._kernels.

Both searches take their candidates from characters of M, indexed by
their digits in the mixed radix of the dual: the kernels of a character
chi and of its images chi.A, chi.A^2, ... meet in the largest submodule
inside its kernel, its core, which is the annihilator of the cyclic
submodule R.chi of the dual (_cores).  Characters of order p give the
maximal submodules; cosets of the cores of all characters give the
puncture-avoiding cosets.  Each caller builds the kernels and images of
every character it needs in one pass over the coordinates (_characters),
so a core only looks them up by index.  Every submodule is the meet of
the cores of the characters vanishing on it, so the meets of the cores
give the whole lattice too.

The exact searches here are deliberately independent of the closed-form
covering machinery: minimum submodule covers restrict to maximal
submodules (every proper submodule of a finite module extends to a
maximal one), and punctured coset covers restrict to inclusion-maximal
puncture-avoiding cosets (every avoiding coset extends to a maximal one).
An avoiding coset y+K is inclusion-maximal exactly when K has a unique
minimal over-submodule K' (M when K is maximal) and y-p lies in K'
outside K: two distinct minimal ones would meet in K and put the
puncture p in y+K.  The over-submodules of a core are the annihilators
of the submodules of R.chi, which are cyclic as R is a principal ideal
domain, so each is a core again or M, and K' is the meet of the cores
above K.  Both restrictions, and the lattice of meets, are
cross-validated against unrestricted references kept apart in
tests/reference.py, which list every subgroup from generator matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from operator import and_, mul, or_
from typing import Optional

from . import _kernels as kernels
from . import arith, residues, rings
from .covering import CoverWitness, LINES
from .errors import (NotMaterializableError, ShapeMismatchError,
                     TooLargeError, TrivialGroupError, UnsupportedRingError)
from .modules import ModuleDescriptor
from .records import record
from .rings import FactoredIdeal, RingHandle

SIGMA_SIZE_BOUND = 4096
ALL_SUBGROUPS_BOUND = 32
COSET_SIZE_BOUND = 32
# maximal_submodules builds a kernel of |M| bits per line of M/pM, its work
# counted in elements: (Z/2)^12 is 4095 * 4096, (Z/2)^13 four times that
SIGMA_WORK_BOUND = 1 << 25
HARD_SIZE_CAP = 1 << 16   # representation limits of a materialized module
HARD_COORD_CAP = 16
# A process keeps this many checked cyclic blocks R/(pi^e), keyed by
# (ring, ideal), and the addition and multiplication tables of this many
# residue fields R/m, keyed by (ring, m).  A sweep meets a few hundred
# summands over a few dozen maximal ideals.
BLOCK_CACHE_SIZE = 256
RESIDUE_TABLE_CACHE_SIZE = 64


@record
class SummandInfo:
    start: int
    ncoords: int
    annihilator: FactoredIdeal
    basis: tuple          # ring element represented by each coordinate
    one: tuple            # the digits of 1 in the summand


@record
class FiniteModule:
    orders: tuple
    action: Optional[tuple] = None    # the ring generator's matrix
    ring: RingHandle = rings.integers()
    summands: tuple = ()

    def __post_init__(self):
        if self.action is None:
            return
        for i, di in enumerate(self.orders):
            for j, dj in enumerate(self.orders):
                if (dj * self.action[i][j]) % di:
                    raise ValueError(
                        f"action entry [{i}][{j}] is not well defined")

    @property
    def size(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def encode(self, digits) -> int:
        return kernels.encode(self.orders, digits)

    def decode(self, x: int) -> tuple:
        return kernels.decode(self.orders, x)

    def span(self, seeds) -> int:
        return kernels.closure(self.orders, self.action, list(seeds))

    def encode_ring_element(self, summand_idx: int, elem) -> int:
        """Element index of a ring element inside one cyclic summand: the
        element times the summand's generator 1."""
        info = self.summands[summand_idx]
        digits = [0] * len(self.orders)
        digits[info.start:info.start + info.ncoords] = info.one
        return self.encode(_scalar_action(self, elem, digits))


def materialize(d: ModuleDescriptor,
                max_size: int = SIGMA_SIZE_BOUND) -> FiniteModule:
    """Realize a finite torsion descriptor as orders + action matrix.

    Summands materialize as listed (composite annihilators give a single
    cyclic block); normalized descriptors therefore yield one block per
    prime power.
    """
    ring = d.ring
    if not ring.is_concrete:
        raise UnsupportedRingError(f"cannot materialize modules over {ring}")
    if not d.is_finite_torsion:
        raise NotMaterializableError("only finite torsion descriptors materialize")
    flat: list[FactoredIdeal] = []
    for ideal, mult in d.torsion:
        flat.extend([ideal] * mult.finite_value)

    total = 1
    for ideal in flat:
        total *= ideal.quotient_size().finite_value
        if total > min(max_size, HARD_SIZE_CAP):
            raise TooLargeError(f"materialized size exceeds {max_size}")

    orders: list[int] = []
    blocks: list = []   # per summand: its action block, None over Z
    infos: list[SummandInfo] = []
    for ideal in flat:
        block = _cyclic_block(ring, ideal)
        info = block.summands[0]
        infos.append(SummandInfo(len(orders), info.ncoords, ideal, info.basis,
                                 info.one))
        orders.extend(block.orders)
        blocks.append(block.action)
    if len(orders) > HARD_COORD_CAP:
        raise TooLargeError(f"more than {HARD_COORD_CAP} cyclic coordinates")
    action = None
    if orders and blocks[0] is not None:
        # block diagonal: each row is zero outside its own block
        rows = []
        pos = 0
        for act in blocks:
            left, right = (0,) * pos, (0,) * (len(orders) - pos - len(act))
            rows.extend(left + row + right for row in act)
            pos += len(act)
        action = tuple(rows)
    return FiniteModule(tuple(orders), action, ring, tuple(infos))


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _cyclic_block(ring: RingHandle, ideal: FactoredIdeal) -> FiniteModule:
    """R/ideal as a module of its own, its action reduced, checked once per
    process for each (ring, ideal).  The action of a direct sum is block
    diagonal, so a block whose annihilator kills it does so in every sum."""
    o, act, basis, one = ring.cyclic_block(ideal)
    orders = tuple(o)
    if act is not None:
        act = tuple(tuple(a % d for a in row) for row, d in zip(act, orders))
    block = FiniteModule(orders, act, ring, (
        SummandInfo(0, len(orders), ideal, tuple(basis), tuple(one)),))
    _check_annihilators(block)
    return block


def _check_annihilators(mod: FiniteModule) -> None:
    """Re-derive each summand's annihilator action and require it to vanish."""
    for info in mod.summands:
        gen = mod.ring.generator(info.annihilator)
        for c in range(info.ncoords):
            x = [0] * len(mod.orders)
            x[info.start + c] = 1
            if any(_scalar_action(mod, gen, x)):
                raise AssertionError(
                    f"annihilator {info.annihilator} does not kill summand")


def _scalar_action(mod: FiniteModule, scalar, digits) -> list:
    """Multiplication by a ring element on one element's digit vector.

    The scalar is read as its coefficients in powers of the action: an
    integer over Z, a + b*i over Z[i], c0 + c1*t + ... over F_p[t].
    Returns the reduced digits of the product.
    """
    coeffs = (scalar,) if isinstance(scalar, int) else scalar
    orders = mod.orders
    out = [0] * len(orders)
    for k, coeff in enumerate(coeffs):
        if k:
            digits = [sum(map(mul, row, digits)) % d
                      for row, d in zip(mod.action, orders)]
        out = [(o + coeff * v) % d for o, v, d in zip(out, digits, orders)]
    return out


@record
class SubmoduleSet:
    mask: int
    generators: tuple

    def size(self) -> int:
        return self.mask.bit_count()


def _wrap(mod: FiniteModule, mask: int) -> SubmoduleSet:
    return SubmoduleSet(mask, _generators(mod, mask)[0])


def _generators(mod: FiniteModule, mask: int) -> tuple:
    """(generators, span): each generator is the least element of the mask
    outside the span of those before it, and the span grows by one closure
    per generator.  The span is the mask exactly when it is a submodule."""
    gens, span = [], 1
    while mask & ~span:
        rest = mask & ~span
        x = (rest & -rest).bit_length() - 1
        gens.append(x)
        span = kernels.closure(mod.orders, mod.action, (x,), span)
    return tuple(gens), span


def maximal_submodules(mod: FiniteModule) -> list[int]:
    """Masks of the maximal proper submodules.

    Candidates are invariant cores of index-p subgroups: every maximal
    submodule K satisfies K = core(H) for any index-p subgroup H between
    K and M, so taking cores of all index-p subgroups and keeping the
    inclusion-maximal ones is exhaustive.  (For residue fields larger
    than F_p the maximal submodules themselves have non-prime index.)
    The index-p subgroups are the kernels of the order-p characters, whose
    digit j is a multiple of d_j/p, or 0 when p does not divide d_j; without
    an action each is maximal, and only an action calls for the filter.

    The work, one kernel of |M| bits per line, is known up front: above
    SIGMA_WORK_BOUND this raises TooLargeError before enumerating.
    """
    n = mod.size
    if n == 1:
        return []
    primes = arith.prime_factors(n)
    work = n * sum((p ** sum(d % p == 0 for d in mod.orders) - 1) // (p - 1)
                   for p in primes)
    if work > SIGMA_WORK_BOUND:
        raise TooLargeError(f"maximal submodules scan {work} elements: "
                            f"the bound is {SIGMA_WORK_BOUND}")
    found = set()
    for p in primes:
        found |= _distinct_cores(mod, [d // gcd(d, p) for d in mod.orders])
    if mod.action is None:
        return sorted(found)
    # a core of prime index is maximal; the others are kept when in no
    # other core, met largest first: one inside another lies inside a
    # maximal one, so only the maxima found so far are checked
    maxima = [m for m in found if n // m.bit_count() in primes]
    for m in sorted(found.difference(maxima), key=int.bit_count,
                    reverse=True):
        if not any((m | o) == o for o in maxima):
            maxima.append(m)
    return sorted(maxima)


def _distinct_cores(mod: FiniteModule, steps) -> set:
    """The cores of the nontrivial characters whose digit j is a multiple
    of steps[j], each once."""
    kern, img = _characters(mod, steps)
    return set(filter(None, _cores(kern, img, range(1, len(kern)))[1:]))


def _characters(mod: FiniteModule, steps) -> tuple:
    """(kernels, images) of the characters whose digit j is a multiple of
    steps[j], a divisor of d_j.  Character c, chi_c(x) = sum_j c_j x_j/d_j
    mod 1, has the index digits c_j/steps[j] in the mixed radix r_j =
    d_j/steps[j]; images[c] is the index of chi_c.A, whose digit b is
    sum_j c_j A_jb d_b/d_j mod d_b, and images is None without an action.

    The value classes of a character map each v to the mask of the x with
    chi(x) = v/N, N = lcm(orders).  Those of c + m.e_j, c below coordinate
    j, are the classes of c met with those of x_j mod r_j.  The last
    coordinate builds class 0 only, and only for top digits m dividing r_j:
    the others generate the cyclic subgroup, so share the kernel, of one of
    those, looked up by index (left 0 without an action).
    """
    orders, full, act = mod.orders, mod.full_mask, mod.action
    top = lcm(*orders)
    radices = [d // s for d, s in zip(orders, steps)]
    levels = [j for j, r in enumerate(radices) if r > 1]
    classes, kern = [{0: full}], []
    for j in levels:
        stride, r, by_q = prod(orders[:j]), radices[j], {}
        below = classes[:]
        for m in range(1, r):
            g = gcd(m, r)
            q = r // g
            # m.x_j.N/r mod N depends on x_j mod q only
            if q not in by_q:     # the elements by x_j mod q
                block = ((1 << stride) - 1) * (full // ((1 << stride * q) - 1))
                by_q[q] = [block << t * stride for t in range(q)]
            res, step, w = by_q[q], top // q, m * top // r
            if j != levels[-1]:
                for cls in below:
                    met = {}
                    for u, mu in cls.items():
                        for t, mv in enumerate(res):
                            key = (u + t * w) % top
                            met[key] = met.get(key, 0) | mu & mv
                    classes.append(met)
            elif m == g:
                # class u meets class 0 where x_j = -u/step mod q
                kern += [reduce(or_, [mu & res[-u // step % q]
                                      for u, mu in cls.items()
                                      if u % step == 0])
                         for cls in classes]
            elif act is None:
                kern += [0] * len(classes)
            else:
                # u.chi, u a unit mod N with u.m/g = 1 mod q, has the
                # kernel of chi, and top digit g; with no level below, u.c
                # is c = 0 whatever u is
                scaled = [0]    # the index of u.c, by c
                if len(levels) > 1:
                    u = next(u for u in itertools.count(pow(m // g, -1, q), q)
                             if gcd(u, top) == 1)
                    for i in levels[:-1]:
                        size, r_i = len(scaled), radices[i]
                        scaled = [x + u * t % r_i * size for t in range(r_i)
                                  for x in scaled]
                kern += [kern[(g - 1) * len(classes) + c] for c in scaled]
    kern[:0] = [cls[0] for cls in classes]
    if act is None:
        return kern, None
    img, size = [0] * len(kern), 1
    for b in levels:
        d, digits = orders[b], [0]
        for j in levels:
            coef = steps[j] * act[j][b] * d // orders[j]
            digits = [(v + t * coef) % d for t in range(radices[j])
                      for v in digits]
        img = [x + v // steps[b] * size for x, v in zip(img, digits)]
        size *= radices[b]
    return kern, img


def _cores(kern: list, img, starts) -> list:
    """core[c], the largest submodule inside ker chi_c, for each index c
    in starts and each one met from them (0 for the others).

    core(chi) is the meet of the kernels of chi, chi.A, chi.A^2, ..., so
    core(chi) = ker chi & core(chi.A), taken once along the graph c ->
    img[c].  Every walk in it ends in a cycle, whose characters share one
    core: the meet of their kernels.  Without an action, cores are kernels.
    """
    if img is None:
        return kern
    core = [0] * len(kern)      # 0 until known: every core holds 0
    for c in starts:
        path = []
        while not core[c]:
            core[c] = -1        # on this walk
            path.append(c)
            c = img[c]
        if core[c] < 0:         # the walk closed a cycle at c: its meet,
            core[c] = reduce(and_, [kern[v] for v in path[path.index(c):]])
        meet = core[c]          # which the pass back keeps on the cycle
        for v in reversed(path):
            meet &= kern[v]
            core[v] = meet
    return core


def enumerate_submodules(mod: FiniteModule, maximal_only: bool = True,
                         max_size: Optional[int] = None) -> list[SubmoduleSet]:
    """Action-invariant subgroups: all of them, or the maximal ones only."""
    bound = max_size or (SIGMA_SIZE_BOUND if maximal_only else ALL_SUBGROUPS_BOUND)
    if mod.size > bound:
        raise TooLargeError(f"module size {mod.size} exceeds bound {bound}")
    return [_wrap(mod, m) for m in _submodule_masks(mod, maximal_only)]


def _submodule_masks(mod: FiniteModule, maximal_only: bool) -> list[int]:
    """The maximal submodules, or every submodule: each is the meet of the
    cores of the characters vanishing on it (M the meet of none)."""
    if maximal_only:
        return maximal_submodules(mod)
    lattice = {mod.full_mask}
    for core in _distinct_cores(mod, [1] * len(mod.orders)):
        lattice |= {core & s for s in lattice}
    return sorted(lattice)


def min_submodule_cover(mod: FiniteModule, maximal_only: bool = True,
                        max_size: int = SIGMA_SIZE_BOUND):
    """Exact minimum number of proper submodules covering the module.

    Returns (size, [SubmoduleSet...]), or (None, []) when no cover exists
    (cyclic modules, including the zero module).
    """
    if mod.size > max_size:
        raise TooLargeError(f"module size {mod.size} exceeds bound {max_size}")
    if mod.size == 1:
        return None, []
    full = mod.full_mask
    # distinct masks: each witness part is wrapped once
    candidates = [m for m in _submodule_masks(mod, maximal_only) if m != full]
    # every candidate holds 0, so covering M - {0} is covering M, and the
    # root's counting bound over it, (|M|-1)/(|M|/p-1), exceeds p
    size, idxs = kernels.min_cover(
        full & ~1, candidates,
        symmetries=lambda: coset_symmetries(mod, 0, candidates))
    return size, [_wrap(mod, candidates[i]) for i in idxs]


def punctured_coset_candidates(mod: FiniteModule, puncture: int):
    """The inclusion-maximal puncture-avoiding cosets of proper submodules
    as (coset, submodule, rep), rep the least element of the coset; no
    other coset is built.

    None is lost by taking cores: y+S avoids the puncture p exactly when
    some chi vanishing on S has chi(y) != chi(p); the submodule S lies in
    ker chi, so in K = core(ker chi), and y+S lies in y+K, which avoids p
    as chi is constant on it.  Such a y+K is maximal exactly when every
    proper submodule above K holds y-p: when K has a unique minimal
    over-submodule K' and y-p lies in K' outside K (two distinct minimal
    ones meet in K).  Every submodule above a core is a core or M (see
    the module docstring), so K' is the meet of the cores above K, and
    K' = K when there is no unique one.  The cosets of K inside p+K', but
    p+K, are the maximal ones.
    """
    full = mod.full_mask
    subs = sorted(_distinct_cores(mod, [1] * len(mod.orders)),
                  key=int.bit_count, reverse=True)
    pairs = []
    for i, sub in enumerate(subs):
        # every core above sub is larger, so it comes earlier
        over = full
        for o in subs[:i]:
            if not sub & ~o:
                over &= o
        if over != sub:
            pairs.append((sub, over))
    cands = []
    for sub, over in pairs:
        # the cosets of sub inside puncture + over, but puncture + sub
        rest = kernels.translate(mod.orders, over & ~sub, puncture)
        while rest:
            x = (rest & -rest).bit_length() - 1   # the least of its coset
            coset = kernels.translate(mod.orders, sub, x)
            rest &= ~coset
            cands.append((coset, sub, x))
    cands.sort(key=lambda t: (-t[0].bit_count(), t[0], t[1]))
    return cands


def automorphisms(mod: FiniteModule) -> list[tuple]:
    """A few cheap module automorphisms, as integer matrices on the digits.

    The summands (each coordinate, without summand data) are grouped by
    their orders and action blocks.  Per group: a swap and a cycle of its
    blocks, and a scaling of its first block by a unit of largest
    multiplicative order.  Per ordered pair of groups (a group with itself
    when it has two blocks): the shear x_i += c*x_j of their first blocks,
    with the least c that makes it well defined.  Matrices that are not
    well defined or do not commute with the action are dropped.  They
    generate some subgroup of Aut(M), which is all a symmetry needs to be.
    """
    k = len(mod.orders)
    blocks = ([(info.start, info.ncoords) for info in mod.summands]
              if mod.summands else [(c, 1) for c in range(k)])
    act = mod.action
    groups: dict = {}
    for start, width in blocks:
        coords = range(start, start + width)
        sig = (tuple(mod.orders[c] for c in coords),
               act and tuple(tuple(act[r][c] for c in coords) for r in coords))
        groups.setdefault(sig, []).append(start)
    classes = [(len(sig[0]), starts) for sig, starts in groups.items()]

    def identity():
        return [[int(r == c) for c in range(k)] for r in range(k)]

    def cycling(starts, width):
        sigma = identity()
        for pos, start in enumerate(starts):
            dest = starts[(pos + 1) % len(starts)]
            for t in range(width):
                sigma[start + t][start + t] = 0
                sigma[dest + t][start + t] = 1
        return sigma

    out = []
    for width, starts in classes:
        if len(starts) > 1:
            out.append(cycling(starts[:2], width))
        if len(starts) > 2:
            out.append(cycling(starts, width))
        first = starts[0]
        u = _unit_of_largest_order(lcm(*mod.orders[first:first + width]))
        if u != 1:
            sigma = identity()
            for t in range(width):
                sigma[first + t][first + t] = u
            out.append(sigma)
    for width, dst in classes:
        for width_j, src in classes:
            if width_j != width or (src is dst and len(src) < 2):
                continue
            i = dst[0]
            j = src[1] if src is dst else src[0]
            c = lcm(*(mod.orders[i + t] // gcd(mod.orders[i + t],
                                               mod.orders[j + t])
                      for t in range(width)))
            sigma = identity()
            for t in range(width):
                sigma[i + t][j + t] = c
            out.append(sigma)
    return [tuple(map(tuple, sigma)) for sigma in out
            if _is_automorphism(mod, sigma)]


def _unit_of_largest_order(m: int) -> int:
    """The least unit mod m whose order is the exponent of (Z/m)^*."""
    lam = 1
    for p, e in arith.factorize(m):
        lam = lcm(lam, 2 ** (e - 2) if p == 2 and e >= 3
                  else p ** (e - 1) * (p - 1))
    if lam == 1:
        return 1
    qs = arith.prime_factors(lam)
    return next(u for u in range(2, m) if gcd(u, m) == 1
                and all(pow(u, lam // q, m) != 1 for q in qs))


def _is_automorphism(mod: FiniteModule, sigma) -> bool:
    """Well defined on the orders and commuting with the action matrix.
    (Swaps, unit scalings and shears are invertible by construction.)"""
    orders, k, mat = mod.orders, len(mod.orders), mod.action
    for r in range(k):
        for c in range(k):
            if (sigma[r][c] * orders[c]) % orders[r]:
                return False
            if mat is not None and (
                    sum(sigma[r][t] * mat[t][c] - mat[r][t] * sigma[t][c]
                        for t in range(k)) % orders[r]):
                return False
    return True


def fixing_permutation(mod: FiniteModule, sigma, puncture: int) -> tuple:
    """The element permutation x -> sigma(x - puncture) + puncture.

    It is x -> sigma x + (puncture - sigma puncture), built one output
    digit at a time over the mixed-radix enumeration of x: each input
    digit t adds t times its column of sigma.
    """
    orders, p = mod.orders, mod.decode(puncture)
    out, stride = [0] * mod.size, 1
    for row, d, pr in zip(sigma, orders, p):
        digits = [(pr - sum(map(mul, row, p))) % d]
        for s, dc in zip(row, orders):
            digits = [(v + t * s) % d for t in range(dc) for v in digits]
        out = [x + v * stride for x, v in zip(out, digits)]
        stride *= d
    return tuple(out)


def coset_symmetries(mod: FiniteModule, puncture: int, masks) -> list[tuple]:
    """The automorphisms, conjugated to fix the puncture, as permutations
    of the candidate indices (perm[i] is the index of the image of mask i).

    Each maps the puncture-avoiding cosets of proper submodules onto
    themselves; a matrix that moves some candidate off the list is
    dropped, and so is one that moves no candidate.
    """
    index = {m: i for i, m in enumerate(masks)}
    out = []
    for sigma in automorphisms(mod):
        tau = fixing_permutation(mod, sigma, puncture)
        perm = []
        for m in masks:
            image = 0
            while m:
                lsb = m & -m
                image |= 1 << tau[lsb.bit_length() - 1]
                m ^= lsb
            perm.append(index.get(image))
        if None not in perm and perm != list(range(len(masks))):
            out.append(tuple(perm))
    return out


def min_coset_cover_punctured(mod: FiniteModule, puncture: int,
                              max_size: int = COSET_SIZE_BOUND):
    """Exact minimum number of proper-submodule cosets covering M - {puncture}."""
    if not 0 <= puncture < mod.size:
        raise ValueError(
            f"puncture {puncture} is outside 0..{mod.size - 1}")
    if mod.size > max_size:
        raise TooLargeError(f"module size {mod.size} exceeds bound {max_size}")
    if mod.size == 1:
        raise TrivialGroupError("the trivial module has no punctured cover")
    cands = punctured_coset_candidates(mod, puncture)
    universe = mod.full_mask & ~(1 << puncture)
    masks = [c[0] for c in cands]
    size, idxs = kernels.min_cover(
        universe, masks,
        symmetries=lambda: coset_symmetries(mod, puncture, masks))
    # several parts may be cosets of one submodule: wrap each once
    wrapped = {sub: _wrap(mod, sub) for sub in {cands[i][1] for i in idxs}}
    witness = [(cands[i][0], wrapped[cands[i][1]], cands[i][2]) for i in idxs]
    return size, witness


def verify_cover_witness(mod: FiniteModule, witness) -> bool:
    """Elementwise check of a lines cover: every line must be a proper
    submodule and their union all of M.  Coset covers are checked by
    cosets.verify_coset_cover.
    """
    if not isinstance(witness, CoverWitness) or witness.kind != LINES:
        raise ShapeMismatchError("expected a lines cover witness")
    if not witness.line_points:
        raise ShapeMismatchError("symbolic witness cannot be materialized")
    if not mod.summands:
        raise ShapeMismatchError("module carries no summand data")
    i, j = witness.summand_pair
    if max(i, j) >= len(mod.summands):
        raise ShapeMismatchError("witness indexes a missing summand")
    F = residues.residue_field(mod.ring, witness.ideal)
    q, points = F.q, witness.line_points
    if len(points) != q + 1 or not all(0 <= c < q for pt in points for c in pt):
        return False
    add, mul = _residue_tables(mod.ring, witness.ideal)
    # every element reduced once to its images in summands i and j, built
    # over the mixed-radix index one coordinate at a time
    images = []
    for info in (mod.summands[i], mod.summands[j]):
        vals = [0]
        for k, d in enumerate(mod.orders):
            if info.start <= k < info.start + info.ncoords:
                r = F.reduce(info.basis[k - info.start])
                row = [mul[s % F.p][r] for s in range(d)]
                vals = [add[x][y] for y in row for x in vals]
            else:
                vals = vals * d
        images.append(vals)
    by_pair: dict = {}
    for x, pair in enumerate(zip(*images)):
        by_pair[pair] = by_pair.get(pair, 0) | 1 << x
    union = 0
    for lam, mu in points:
        line_mask = 0
        for (xi, xj), mask in by_pair.items():
            if mul[mu][xi] == mul[lam][xj]:
                line_mask |= mask
        if (line_mask == mod.full_mask
                or _generators(mod, line_mask)[1] != line_mask):
            return False
        union |= line_mask
    return union == mod.full_mask


@lru_cache(maxsize=RESIDUE_TABLE_CACHE_SIZE)
def _residue_tables(ring: RingHandle, m) -> tuple:
    """The addition and multiplication tables of R/m, q x q tuples of
    codes, built once per process for each (ring, m).  Callers build R/m
    first, so a witness of the wrong length is refused before any table."""
    F = residues.residue_field(ring, m)
    q = F.q
    return (tuple(tuple(F.add(a, b) for b in range(q)) for a in range(q)),
            tuple(tuple(F.mul(a, b) for b in range(q)) for a in range(q)))
