"""Brute-force ground truth on materialized finite modules.

A finite module is a tuple of cyclic orders (elements are coordinate
tuples) together with integer matrices generating the ring action
(multiplication by i over Z[i], by t over F_p[t]; none over Z).  Subsets
are int bitmasks over the element indexing, and the heavy work (closures,
exact minimum covers) runs in the kernels of covercalc._kernels.

Both searches take their candidates from characters of M, read as weight
vectors on the coordinates: the kernels of a character and of its images
under the action meet in the largest submodule inside its kernel
(_core).  Characters of order p give the maximal submodules; the cosets
of the cores of all characters give the puncture-avoiding cosets.

The exact searches here are deliberately independent of the closed-form
covering machinery: minimum submodule covers restrict to maximal
submodules (every proper submodule of a finite module extends to a
maximal one), and punctured coset covers restrict to inclusion-maximal
puncture-avoiding cosets (every avoiding coset extends to a maximal one).
Both restrictions are cross-validated against unrestricted searches in
the test suite.
"""

from __future__ import annotations

import bisect
import itertools
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from . import _kernels as kernels
from . import arith, modules, residues, rings
from .covering import CoverWitness, LINES
from .errors import (NotMaterializableError, ShapeMismatchError,
                     TooLargeError, TrivialGroupError, UnsupportedRingError)
from .modules import Descriptor, NormalizedDescriptor
from .records import record
from .rings import FactoredIdeal, RingHandle

SIGMA_SIZE_BOUND = 4096
ALL_SUBGROUPS_BOUND = 64
COSET_SIZE_BOUND = 32
# maximal_submodules scans every element once per projective functional;
# (Z/2)^12 is 4095 * 4096 elements, (Z/2)^13 four times that
SIGMA_WORK_BOUND = 1 << 25
HARD_SIZE_CAP = 1 << 16   # representation limits of a materialized module
HARD_COORD_CAP = 16


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
    actions: tuple = ()
    ring: RingHandle = rings.integers()
    summands: tuple = ()

    def __post_init__(self):
        for mat in self.actions:
            for i, di in enumerate(self.orders):
                for j, dj in enumerate(self.orders):
                    if (dj * mat[i][j]) % di:
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
        return kernels.closure(self.orders, self.actions, list(seeds))

    def encode_ring_element(self, summand_idx: int, elem) -> int:
        """Element index of a ring element inside one cyclic summand: the
        element times the summand's generator 1."""
        info = self.summands[summand_idx]
        digits = [0] * len(self.orders)
        digits[info.start:info.start + info.ncoords] = info.one
        return self.encode(_scalar_action(self, elem, digits))


def materialize(d: Descriptor, max_size: int = SIGMA_SIZE_BOUND) -> FiniteModule:
    """Realize a finite torsion descriptor as orders + action matrices.

    Summands materialize as listed (composite annihilators give a single
    cyclic block); normalized descriptors therefore yield one block per
    prime power.
    """
    plain = modules._as_plain(d)
    ring = plain.ring
    if not ring.is_concrete:
        raise UnsupportedRingError(f"cannot materialize modules over {ring}")
    if plain.has_divisible_part or plain.free_rank > modules.ZERO or plain.tail_above:
        raise NotMaterializableError("only finite torsion descriptors materialize")
    entries = (d.torsion_entries() if isinstance(d, NormalizedDescriptor)
               else plain.torsion)
    flat: list[FactoredIdeal] = []
    for ideal, mult in entries:
        if not mult.is_finite:
            raise NotMaterializableError("infinite multiplicity")
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
        start = len(orders)
        o, act, basis, one = ring.cyclic_block(ideal)
        orders.extend(o)
        blocks.append(act)
        infos.append(SummandInfo(start, len(o), ideal, tuple(basis), one))
    if len(orders) > HARD_COORD_CAP:
        raise TooLargeError(f"more than {HARD_COORD_CAP} cyclic coordinates")
    actions = ()
    if orders and blocks[0] is not None:
        k = len(orders)
        mat = [[0] * k for _ in range(k)]
        pos = 0
        for act in blocks:
            b = len(act)
            for i in range(b):
                for j in range(b):
                    mat[pos + i][pos + j] = act[i][j] % orders[pos + i]
            pos += b
        actions = (tuple(tuple(row) for row in mat),)
    mod = FiniteModule(tuple(orders), actions, ring, tuple(infos))
    _check_annihilators(mod)
    return mod


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
                      for row, d in zip(mod.actions[0], orders)]
        out = [(o + coeff * v) % d for o, v, d in zip(out, digits, orders)]
    return out


@record
class SubmoduleSet:
    mask: int
    generators: tuple

    def size(self) -> int:
        return self.mask.bit_count()


def _wrap(mod: FiniteModule, mask: int) -> SubmoduleSet:
    gens: list[int] = []
    span = 1
    m = mask
    while m:
        lsb = m & -m
        x = lsb.bit_length() - 1
        if not (span >> x) & 1:
            gens.append(x)
            span = mod.span(gens)
        m &= ~span
    return SubmoduleSet(mask, tuple(gens))


def maximal_submodules(mod: FiniteModule) -> list[int]:
    """Masks of the maximal proper submodules.

    Candidates are invariant cores of index-p subgroups: every maximal
    submodule K satisfies K = core(H) for any index-p subgroup H between
    K and M, so taking cores of all index-p subgroups and keeping the
    inclusion-maximal ones is exhaustive.  (For residue fields larger
    than F_p the maximal submodules themselves have non-prime index.)
    The index-p subgroups are the kernels of the projective functionals
    on M/pM, read as characters of order p.  Without an action every
    such kernel is maximal and distinct functionals give distinct ones,
    so only an action calls for the inclusion filter, and a core can
    only lie in a strictly larger one.

    The work, functionals times elements, is known up front: above
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
    top, memo = lcm(*mod.orders), {}
    cores: set[int] = set()
    for p in primes:
        for a in itertools.product(*(range(p) if d % p == 0 else (0,)
                                     for d in mod.orders)):
            if next(filter(None, a), 0) != 1:
                continue    # one functional per line: first nonzero is 1
            cores.add(_core(mod, [aj * (top // p) for aj in a], memo))
    ordered = sorted(cores)
    if not mod.actions:
        return ordered
    larger = sorted(ordered, key=int.bit_count, reverse=True)
    sizes = [-c.bit_count() for c in larger]
    return [c for c in ordered
            if not any((c | o) == o for o in
                       larger[:bisect.bisect_left(sizes, -c.bit_count())])]


def _core(mod: FiniteModule, w, memo: Optional[dict] = None) -> int:
    """Mask of core(ker chi), the largest submodule inside ker chi.

    The character is chi(x) = sum_j w_j x_j mod N, N = lcm(orders), with
    w_j d_j = 0 mod N so that it is well defined; chi.A has the weights
    w A mod N.  The core is the meet of the kernels of chi, chi.A,
    chi.A^2, ... (all words in the action matrices), taken layer by
    layer.  Once a whole layer leaves the meet K unchanged, K is the
    core: every x in K has v(Ax) = (vA)(x) = 0 for each v met so far, as
    vA lies in the next layer, so K is a submodule.  The meet also stops
    at K = {0}, the least submodule.

    memo maps weight vectors to their kernels; callers that take the
    cores of many characters of one module share one.
    """
    orders, top = mod.orders, lcm(*mod.orders)
    if memo is None:
        memo = {}

    def kernel(v):
        if v not in memo:
            memo[v] = _kernel(orders, top, v)
        return memo[v]

    columns = [tuple(zip(*mat)) for mat in mod.actions]
    w = tuple(w)
    core = kernel(w)
    seen, layer = {(0,) * len(orders), w}, [w]
    while core != 1:
        layer = [v for v in dict.fromkeys(
            tuple(sum(map(mul, u, col)) % top for col in cols)
            for u in layer for cols in columns) if v not in seen]
        if not layer:
            break
        seen.update(layer)
        meet = core
        for v in layer:
            meet &= kernel(v)
        if meet == core:
            break
        core = meet
    return core


def _kernel(orders, top: int, w) -> int:
    """Mask of the kernel of x -> sum_j w_j x_j mod top.

    Built over the mixed-radix index one coordinate at a time: classes
    maps each value on the prefix coordinates to the mask of the prefix
    elements taking it, and digit v of the next coordinate shifts each
    class up by v prefix sizes.  The last coordinate builds class 0 only.
    """
    if not orders:
        return 1
    classes, size = {0: 1}, 1
    for d, wj in zip(orders[:-1], w):
        grown: dict = {}
        for val, mask in classes.items():
            for v in range(d):
                key = (val + v * wj) % top
                grown[key] = grown.get(key, 0) | mask << v * size
        classes, size = grown, size * d
    kernel = 0
    for v in range(orders[-1]):
        kernel |= classes.get(-v * w[-1] % top, 0) << v * size
    return kernel


def all_subgroups(orders: Sequence[int]) -> list[int]:
    """All subgroups of the abelian group with the given cyclic orders.

    Enumerates canonical upper-triangular generator matrices H with
    h_jj | d_j and reduced off-diagonals, pruned by the requirement that
    the spanned lattice contain diag(d); masks are deduplicated.
    """
    k = len(orders)
    if k == 0:
        return [1]
    found: set[int] = set()
    col_divisors = [_divisors(d) for d in orders]

    def feasible_prefix(cols, j) -> bool:
        # solve H x = d_j e_j over Z using columns 0..j (upper triangular)
        x = [0] * (j + 1)
        target = [0] * (j + 1)
        target[j] = orders[j]
        for i in range(j, -1, -1):
            acc = target[i] - sum(cols[l][i] * x[l] for l in range(i + 1, j + 1))
            if acc % cols[i][i]:
                return False
            x[i] = acc // cols[i][i]
        return True

    def extend(cols):
        j = len(cols)
        if j == k:
            gens = [kernels.encode(orders, col) for col in cols]
            found.add(kernels.closure(orders, (), gens))
            return
        for hjj in col_divisors[j]:
            for off in itertools.product(*(range(cols[i][i]) for i in range(j))):
                col = [off[i] for i in range(j)] + [hjj] + [0] * (k - j - 1)
                cols.append(col)
                if feasible_prefix(cols, j):
                    extend(cols)
                cols.pop()

    extend([])
    return sorted(found)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_submodules(mod: FiniteModule, maximal_only: bool = True,
                         max_size: Optional[int] = None) -> list[SubmoduleSet]:
    """Action-invariant subgroups: all of them, or the maximal ones only."""
    bound = max_size or (SIGMA_SIZE_BOUND if maximal_only else ALL_SUBGROUPS_BOUND)
    if mod.size > bound:
        raise TooLargeError(f"module size {mod.size} exceeds bound {bound}")
    if maximal_only:
        masks = maximal_submodules(mod)
    else:
        masks = [m for m in all_subgroups(mod.orders)
                 if kernels.invariant_core(mod.orders, mod.actions, m) == m]
    return [_wrap(mod, m) for m in masks]


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
    if maximal_only:
        candidates = maximal_submodules(mod)
    else:
        candidates = [s.mask for s in enumerate_submodules(mod, maximal_only=False,
                                                           max_size=max_size)
                      if s.mask != mod.full_mask]
    union = 0
    for c in candidates:
        union |= c
    if union != mod.full_mask:
        return None, []   # some generator escapes every proper submodule
    # every candidate holds 0, so covering M - {0} is covering M, and the
    # root's counting bound over it, (|M|-1)/(|M|/p-1), exceeds p
    size, idxs = kernels.min_cover(
        mod.full_mask & ~1, candidates,
        symmetries=lambda: coset_symmetries(mod, 0, candidates))
    return size, [_wrap(mod, candidates[i]) for i in idxs]


def punctured_coset_candidates(mod: FiniteModule, puncture: int,
                               inclusion_maximal: bool = True):
    """Puncture-avoiding cosets of proper submodules as (coset, submodule, rep),
    rep the least element of the coset.

    With inclusion_maximal, only the inclusion-maximal ones: for each
    nonzero character chi (one per core) every coset of K = core(ker chi)
    but the puncture's, then the maximal ones among those.  That loses
    none: y+S avoids the puncture p exactly when some chi vanishing on S
    has chi(y) != chi(p); the submodule S lies in ker chi, so in K, and
    y+S lies in y+K, which avoids p as chi is constant on it.  Without
    it, every proper submodule from all_subgroups is translated, as the
    reference.
    """
    if inclusion_maximal:
        top, subs, memo = lcm(*mod.orders), {}, {}
        for a in itertools.product(*(range(d) for d in mod.orders)):
            if any(a):
                subs[_core(mod, [aj * (top // d)
                                 for aj, d in zip(a, mod.orders)],
                           memo)] = None
    else:
        subs = [s.mask for s in enumerate_submodules(
            mod, maximal_only=False, max_size=mod.size)
            if s.mask != mod.full_mask]
    cands = []
    for sub in subs:
        assigned = 0
        while assigned != mod.full_mask:
            # the least element not yet assigned is the least of its coset
            x = (~assigned & (assigned + 1)).bit_length() - 1
            coset = kernels.translate(mod.orders, sub, x)
            assigned |= coset
            if not (coset >> puncture) & 1:
                cands.append((coset, sub, x))
    cands.sort(key=lambda t: (-t[0].bit_count(), t[0], t[1]))
    if inclusion_maximal:
        kept = []
        for c in cands:
            if not any((c[0] | k[0]) == k[0] for k in kept):
                kept.append(c)
        cands = kept
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
    groups: dict = {}
    for start, width in blocks:
        coords = range(start, start + width)
        sig = (tuple(mod.orders[c] for c in coords),
               tuple(tuple(tuple(mat[r][c] for c in coords) for r in coords)
                     for mat in mod.actions))
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
    """Well defined on the orders and commuting with every action matrix.
    (Swaps, unit scalings and shears are invertible by construction.)"""
    orders, k = mod.orders, len(mod.orders)
    for r in range(k):
        for c in range(k):
            if (sigma[r][c] * orders[c]) % orders[r]:
                return False
    for mat in mod.actions:
        for r in range(k):
            for c in range(k):
                lhs = sum(sigma[r][t] * mat[t][c] for t in range(k))
                rhs = sum(mat[r][t] * sigma[t][c] for t in range(k))
                if (lhs - rhs) % orders[r]:
                    return False
    return True


def fixing_permutation(mod: FiniteModule, sigma, puncture: int) -> tuple:
    """The element permutation x -> sigma(x - puncture) + puncture."""
    p = mod.decode(puncture)
    out = []
    for x in range(mod.size):
        d = [a - b for a, b in zip(mod.decode(x), p)]
        out.append(mod.encode([sum(s * v for s, v in zip(row, d)) + p[r]
                               for r, row in enumerate(sigma)]))
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
                              max_size: int = COSET_SIZE_BOUND,
                              inclusion_maximal: bool = True):
    """Exact minimum number of proper-submodule cosets covering M - {puncture}."""
    if mod.size > max_size:
        raise TooLargeError(f"module size {mod.size} exceeds bound {max_size}")
    if mod.size == 1:
        raise TrivialGroupError("the trivial module has no punctured cover")
    cands = punctured_coset_candidates(mod, puncture, inclusion_maximal)
    universe = mod.full_mask & ~(1 << puncture)
    masks = [c[0] for c in cands]
    size, idxs = kernels.min_cover(
        universe, masks,
        symmetries=lambda: coset_symmetries(mod, puncture, masks))
    witness = [(cands[i][0], _wrap(mod, cands[i][1]), cands[i][2]) for i in idxs]
    return size, witness


def verify_cover_witness(mod: FiniteModule, witness) -> bool:
    """Elementwise check of a lines cover or a punctured coset cover.

    Lines: every part must be a proper submodule and the union all of M.
    Coset witnesses: no coset contains the puncture and the union is
    exactly M minus the puncture.
    """
    from .cosets import CosetCoverWitness, check_coset_cover_on
    if isinstance(witness, CosetCoverWitness):
        return check_coset_cover_on(mod, witness)
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
    add = [[F.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[F.mul(a, b) for b in range(q)] for a in range(q)]
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
        if line_mask == mod.full_mask or not _is_submodule(mod, line_mask):
            return False
        union |= line_mask
    return union == mod.full_mask


def _is_submodule(mod: FiniteModule, mask: int) -> bool:
    if not (mask & 1):
        return False
    gens: list[int] = []
    span = 1
    m = mask
    while m & ~span:
        x = (m & ~span)
        x = (x & -x).bit_length() - 1
        gens.append(x)
        span = mod.span(gens)
        if span & ~mask:
            return False
    return span == mask
