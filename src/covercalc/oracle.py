"""Brute-force ground truth on materialized finite modules.

A finite module is a tuple of cyclic orders (elements are coordinate
tuples) together with one integer matrix for the ring action: every ring
materialized here is generated by one element over Z, so the action is
multiplication by i over Z[i], by t over F_p[t], and None over Z.  Subsets
are int bitmasks over the element indexing, and the heavy work (closures,
exact minimum covers) runs in the kernels of covercalc._kernels.

Both searches take their candidates from characters of M: the kernels
of chi, chi.A, chi.A^2, ... meet in its core, the largest submodule in
ker chi, the annihilator of R.chi in the dual (_cores).  The maximal
submodules are cores of order-p characters, one per F_p-line of them;
the avoiding cosets are cosets of the cores of all characters, whose
kernels depend on the orders alone and are kept (_kernel_table).

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
above K.  Both restrictions are cross-validated against unrestricted
references kept apart in tests/reference.py, which list every subgroup
from generator matrices.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import count, repeat
from math import gcd, lcm, prod
from operator import add, and_, itemgetter, mul, or_, xor
from typing import Optional

from . import _kernels as kernels
from . import arith, rings
from .errors import (NotMaterializableError, ShapeMismatchError,
                     TooLargeError, TrivialGroupError, UnsupportedRingError)
from .modules import ModuleDescriptor
from .records import record
from .rings import FactoredIdeal, RingHandle

SIGMA_SIZE_BOUND = 4096
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
# For the phi oracle, the kernels of every character of this many tuples
# of orders, each table at most KERNEL_TABLE_BITS bits (a larger one is
# rebuilt each call): 17 KiB for (Z/2)^8, 4.3 MiB in all; a sweep meets 56.
KERNEL_TABLE_CACHE_SIZE = 256
KERNEL_TABLE_BITS = 1 << 16


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

    bound, total = min(max_size, HARD_SIZE_CAP), 1
    for ideal in flat:
        total *= ideal.quotient_size().finite_value
        if total > bound:
            raise TooLargeError(f"materialized size exceeds {bound}")

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
    The index-p subgroups are the kernels of the order-p characters, one
    per F_p-line of them; without an action each is maximal, and only an
    action calls for the filter.

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
    found = []
    for p in primes:
        coords = [j for j, d in enumerate(mod.orders) if d % p == 0]
        found += (_line_cores if mod.action else _line_kernels)(mod, p, coords)
    if mod.action is None:
        return sorted(found)
    # a core of prime index is maximal; the others are kept when in no
    # other core, met largest first: one inside another lies inside a
    # maximal one, so only the maxima found so far are checked
    found = set(found)
    maxima = [m for m in found if n // m.bit_count() in primes]
    for m in sorted(found.difference(maxima), key=int.bit_count,
                    reverse=True):
        if not any((m | o) == o for o in maxima):
            maxima.append(m)
    return sorted(maxima)


def _digit_classes(orders, j: int, q: int) -> list:
    """The masks of the elements by x_j mod q, from shifts of the first
    stride of each period of x_j (q when q | d_j, else d_j)."""
    stride, d = prod(orders[:j]), orders[j]
    period = q if d % q == 0 else d
    block = ((1 << stride) - 1) * (((1 << prod(orders)) - 1)
                                   // ((1 << stride * period) - 1))
    out = [0] * q
    for t in range(period):
        out[t % q] |= block << t * stride
    return out


def _line_kernels(mod: FiniteModule, p: int, coords) -> list:
    """The kernels of chi_a(x) = sum_k a_k x_j / p, j = coords[k], for each
    a whose first nonzero digit is 1 (one per F_p-line), by ascending sum_k
    a_k p^k: the value classes of a prefix of a, met with those of x_j mod
    p, give the prefix plus a_j's (class 0 at the end; over F_2, a XOR)."""
    res = [_digit_classes(mod.orders, j, p) for j in coords]
    if len(res) == 1:
        return [res[0][0]]
    if p == 2:
        odd = [0]
        for _, m in res:
            odd += list(map(xor, odd, repeat(m)))
        return list(map(xor, odd[1:], repeat(mod.full_mask)))
    inv = [0] + [pow(t, -1, p) for t in range(1, p)]
    *below, last = res
    lines = below[:1]
    for cls_j in below[1:]:
        # class v of a prefix plus t.e_j: its class u met with x_j = (v-u)/t
        by_t = [[[cls_j[(v - u) * inv[t] % p] for u in range(p)]
                 for v in range(p)] for t in range(1, p)]
        lines += [cls_j] + [[sum(map(and_, cls, by_v)) for by_v in by_vs]
                            for by_vs in by_t for cls in lines]
    zero = [[last[-u * inv[t] % p] for u in range(p)] for t in range(1, p)]
    return ([cls[0] for cls in lines] + [last[0]]
            + [sum(map(and_, cls, by_u)) for by_u in zero for cls in lines])


def _line_cores(mod: FiniteModule, p: int, coords) -> list:
    """The cores of the characters of _line_kernels, in their order: as
    (k.chi).A = k.(chi.A), a line's image under A (read mod p, one block
    per summand) is the line of its image: over F_2 the index itself, else
    where[c], the position of the line of index c: c + t.p^k, c != 0 of
    first nonzero digit l, is l/t times rep(c) + (t/l).p^k, after the n
    lines below p^k, p^k and n lines per smaller top digit."""
    kern = _line_kernels(mod, p, coords)
    act, lines = mod.action, len(kern)
    if len(coords) == 1:    # one line, whose image is itself or 0
        return kern
    if p == 2:
        img = [0]
        for j in coords:
            e = sum((act[j][b] & 1) << k for k, b in enumerate(coords))
            img += list(map(xor, img, repeat(e)))
        return _cores([mod.full_mask, *kern], img)[1:]
    img, span = [0], 1
    for blk in [[k for k, j in enumerate(coords) if s.start <= j < s.start
                 + s.ncoords] for s in mod.summands] or [range(len(coords))]:
        sub = _images([p] * len(blk), [[act[coords[j]][coords[b]] % p
                                        for b in blk] for j in blk])
        img = [x + y for y in [v * span for v in sub] for x in img]
        span *= p ** len(blk)
    # lead[c] is c's first nonzero digit; index 0 goes past the lines
    inv = [0] + [pow(t, -1, p) for t in range(1, p)]
    where, lead, n = [lines], [0], 0
    for _ in coords:
        up, up_lead = list(where), list(lead)
        for t in range(1, p):
            shift = [n - lines] + [1 + t * i % p * n for i in inv[1:]]
            up += map(add, map(shift.__getitem__, lead), where)
            up_lead += [t, *lead[1:]]
        where, lead, n = up, up_lead, n * p + 1
    img = [where[img[c]] for c, l in enumerate(lead) if l == 1]
    return _cores(kern + [mod.full_mask], img + [lines])[:lines]


def _characters(mod: FiniteModule) -> tuple:
    """(kernels, images) of the characters chi_c(x) = sum_j c_j x_j/d_j,
    c in the mixed radix of the orders; images[c] is the index of chi_c.A,
    of digits sum_j c_j A_jb d_b/d_j mod d_b (None without an action)."""
    orders, act = mod.orders, mod.action
    table = (_kernel_table if mod.size ** 2 <= KERNEL_TABLE_BITS
             else _kernel_table.__wrapped__)
    kern = table(orders)
    if act is None:
        return kern, None
    return kern, _images(orders, [[a * d // d_j for a, d in zip(row, orders)]
                                  for row, d_j in zip(act, orders)])


def _images(radices, coef) -> list:
    """The index of chi.A for each index chi over the mixed radix radices,
    where digit k of chi.A is sum_j chi_j coef[j][k] mod radices[k]."""
    img, size = [0] * prod(radices), 1
    for b, r in enumerate(radices):
        digits = [0]
        for j, r_j in enumerate(radices):
            digits = [(v + t * coef[j][b]) % r for t in range(r_j)
                      for v in digits]
        img = [x + v * size for x, v in zip(img, digits)]
        size *= r
    return img


@lru_cache(maxsize=KERNEL_TABLE_CACHE_SIZE)
def _kernel_table(orders: tuple) -> tuple:
    """The kernel of each character of _characters, by index: the value
    classes of c + m.e_j, c below coordinate j, map each v to the mask of
    the x with chi(x) = v/N, N = lcm(orders), from those of c and of x_j
    mod q = d_j/g, g = gcd(m, d_j).  The last coordinate builds class 0
    for m = g only: u.chi, u a unit mod N with u.m/g = 1 mod q, has the
    kernel of chi and top digit g, and is looked up by index."""
    top, classes, kern = lcm(*orders), [{0: (1 << prod(orders)) - 1}], []
    for j, d in enumerate(orders):
        last, below = j == len(orders) - 1, classes[:]
        for m in range(1, d):
            g = gcd(m, d)
            q = d // g
            if last and m != g:
                u = next(u for u in count(pow(m // g, -1, q), q)
                         if gcd(u, top) == 1)
                scaled = [0]    # the index of u.c, by c
                for r in orders[:-1]:
                    scaled = [x + u * t % r * len(scaled) for t in range(r)
                              for x in scaled]
                kern += [kern[(g - 1) * len(classes) + c] for c in scaled]
                continue
            res, w = _digit_classes(orders, j, q), m * top // d
            if last:    # class u meets class 0 where x_j = -u/w mod q
                kern += [reduce(or_, [mu & res[-u // w % q] for u, mu
                                      in cls.items() if u % w == 0])
                         for cls in classes]
                continue
            for cls in below:
                met = {}
                for u, mu in cls.items():
                    for t, mv in enumerate(res):
                        key = (u + t * w) % top
                        met[key] = met.get(key, 0) | mu & mv
                classes.append(met)
    kern[:0] = [cls[0] for cls in classes]
    return tuple(kern)


def _cores(kern, img) -> list:
    """core[c], the meet of the kernels of chi_c, chi_c.A, ..., for each c,
    as core(c) = ker chi_c & core(img[c]) for all c at once until a step
    changes none (a chain of subgroups long at most), or the kernels."""
    if img is None:
        return kern
    core = list(kern)
    while True:
        met = list(map(and_, kern, map(core.__getitem__, img)))
        if met == core:
            return core
        core = met


def min_submodule_cover(mod: FiniteModule, max_size: int = SIGMA_SIZE_BOUND):
    """Exact minimum number of proper submodules covering the module.

    The candidates are the maximal submodules: every proper submodule lies
    in one, so no cover over all submodules is smaller.
    Returns (size, [SubmoduleSet...]), or (None, []) when no cover exists
    (cyclic modules, including the zero module).
    """
    if mod.size > max_size:
        raise TooLargeError(f"module size {mod.size} exceeds bound {max_size}")
    if mod.size == 1:
        return None, []
    # distinct masks: each witness part is wrapped once
    candidates = maximal_submodules(mod)
    # every candidate holds 0, so covering M - {0} is covering M, and the
    # root's counting bound over it, (|M|-1)/(|M|/p-1), exceeds p
    size, idxs = kernels.min_cover(
        mod.full_mask & ~1, candidates,
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
    subs = sorted(set(_cores(*_characters(mod))[1:]), key=int.bit_count,
                  reverse=True)
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
    (Swaps, unit scalings and shears are invertible by construction.)

    Only the entries where sigma differs from the identity are read, as
    E = sigma - I: the identity's entries are well defined, and
    sigma.A - A.sigma = E.A - A.E, which vanishes outside the rows and
    columns of E's nonzero entries."""
    orders, k, mat = mod.orders, len(mod.orders), mod.action
    moved = [(r, t, sigma[r][t] - (r == t)) for r in range(k) for t in range(k)
             if sigma[r][t] != (r == t)]
    if any((sigma[r][t] * orders[t]) % orders[r] for r, t, _ in moved):
        return False
    if mat is None:
        return True
    diff = {}
    for r, t, e in moved:
        for c in range(k):      # E.A gains e * A[t] in row r
            diff[r, c] = diff.get((r, c), 0) + e * mat[t][c]
        for q in range(k):      # A.E gains A[q][r] * e in column t
            diff[q, t] = diff.get((q, t), 0) - mat[q][r] * e
    return not any(v % orders[r] for (r, _), v in diff.items())


def fixing_permutation(mod: FiniteModule, sigma, puncture: int) -> tuple:
    """The element permutation x -> sigma(x - puncture) + puncture.

    It is x -> sigma x + (puncture - sigma puncture), built one output
    digit at a time over the mixed-radix enumeration of x: each input
    digit t adds t times its column of sigma.  A row of the identity
    keeps its digit, so only the other rows move x, each by its new digit
    less the old one, times its stride.
    """
    orders, p, size = mod.orders, mod.decode(puncture), mod.size
    out, stride = list(range(size)), 1
    for r, (row, d, pr) in enumerate(zip(sigma, orders, p)):
        if any(s != (c == r) for c, s in enumerate(row)):
            digits = [(pr - sum(map(mul, row, p))) % d]
            for s, dc in zip(row, orders):
                digits = [(v + t * s) % d for t in range(dc) for v in digits]
            old = ([t for t in range(d) for _ in range(stride)]
                   * (size // (stride * d)))
            out = [x + (v - t) * stride for x, v, t in zip(out, digits, old)]
        stride *= d
    return tuple(out)


def coset_symmetries(mod: FiniteModule, puncture: int, masks) -> list[tuple]:
    """The automorphisms, conjugated to fix the puncture, as permutations
    of the candidate indices (perm[i] is the index of the image of mask i).

    Each maps the puncture-avoiding cosets of proper submodules onto
    themselves; a matrix that moves some candidate off the list is
    dropped, and so is one that moves no candidate.  A mask's image is the
    sum of the bits of its elements' images, which one itemgetter per mask
    picks from the table of image bits; its last index, past the elements,
    picks a 0, so a singleton's getter returns a tuple too.
    """
    index = {m: i for i, m in enumerate(masks)}
    getters = [itemgetter(*kernels._bits(m), mod.size) for m in masks]
    identity = list(range(len(masks)))
    out = []
    for sigma in automorphisms(mod):
        bits = [1 << y for y in fixing_permutation(mod, sigma, puncture)]
        bits.append(0)
        perm = [index.get(sum(get(bits))) for get in getters]
        if None not in perm and perm != identity:
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
    from . import covering, residues
    if (not isinstance(witness, covering.CoverWitness)
            or witness.kind != covering.LINES):
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
    # the elements by their image in R/m through summand i, and j: digit
    # x_k adds (x_k mod p).r_k, r_k the image of its basis element
    full, images = mod.full_mask, []
    for info in (mod.summands[i], mod.summands[j]):
        classes = [full] + [0] * (q - 1)
        for k in range(info.start, info.start + info.ncoords):
            r, met = F.reduce(info.basis[k - info.start]), [0] * q
            for t, m in enumerate(_digit_classes(mod.orders, k, F.p)):
                back = add[add[mul[t][r]].index(0)]     # v -> v - t.r
                met = list(map(or_, met, map(and_, map(
                    classes.__getitem__, back), repeat(m))))
            classes = met
        images.append(classes)
    union, by_mu = 0, {}
    for lam, mu in points:
        # the x with mu.x_i = lam.x_j, from the disjoint classes of x_j
        if mu not in by_mu:     # and those of mu.x_i
            by_mu[mu] = [0] * q
            for a, v in enumerate(mul[mu]):
                by_mu[mu][v] |= images[0][a]
        line_mask = sum(map(and_, map(by_mu[mu].__getitem__, mul[lam]),
                            images[1]))
        if line_mask == full or _generators(mod, line_mask)[1] != line_mask:
            return False
        union |= line_mask
    return union == full


@lru_cache(maxsize=RESIDUE_TABLE_CACHE_SIZE)
def _residue_tables(ring: RingHandle, m) -> tuple:
    """The addition and multiplication tables of R/m, q x q tuples of
    codes, built once per process for each (ring, m).  Callers build R/m
    first, so a witness of the wrong length is refused before any table."""
    from . import residues
    F = residues.residue_field(ring, m)
    q = F.q
    return (tuple(tuple(F.add(a, b) for b in range(q)) for a in range(q)),
            tuple(tuple(F.mul(a, b) for b in range(q)) for a in range(q)))
