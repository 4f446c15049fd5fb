"""Brute-force ground truth on materialized finite modules.

A finite module is a tuple of cyclic orders (elements are coordinate
tuples) together with one integer matrix for the ring action: every ring
materialized here is generated by one element over Z, so the action is
multiplication by i over Z[i], by t over F_p[t], and None over Z.  Subsets
are int bitmasks over the element indexing, and the heavy work (closures,
exact minimum covers) runs in the kernels of covercalc._kernels.

The maximal submodules are the kernels of the R-maps of M onto a residue
field R/m, one per R/m-line of them, built from the masks of the
elements by their image in R/m through each summand (_residue_classes),
whose reduction onto R/m is kept with its cyclic block, in the action of
R/m's own block (_unit_maps), as in the lines check.  The avoiding cosets come
from characters of M: the kernels of chi, chi.A, chi.A^2, ... meet in
its core, the largest submodule in ker chi, the annihilator of R.chi in
the dual (_cores); they are cosets of the cores of all characters, whose
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
from operator import and_, itemgetter, mul, or_, sub, xor
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
# maximal_submodules builds a kernel of |M| bits per maximal submodule,
# (q^n - 1)/(q - 1) at a maximal ideal with residue field F_q met by n
# summands, its work counted in elements: (Z/2)^12 is 4095 * 4096, (Z/2)^13
# four times that
SIGMA_WORK_BOUND = 1 << 25
HARD_SIZE_CAP = 1 << 16   # and so 16 coordinates, each of order >= 2
# A process keeps this many checked cyclic blocks R/(pi^e), keyed by
# (ring, ideal), each with its reductions onto the residue fields R/m above
# its ideal, among them the blocks R/m those reductions are read from.  A
# sweep meets a few hundred summands over a few dozen maximal ideals.
BLOCK_CACHE_SIZE = 256
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
    # per maximal ideal m above the annihilator: (m, R/m as a module
    # without summand data, the code of the image of each basis element)
    reductions: tuple


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
                                 info.one, info.reductions))
        orders.extend(block.orders)
        blocks.append(block.action)
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
    process for each (ring, ideal), with its reductions: for each maximal
    ideal m above the ideal, the code of each basis element in R/m's own
    block.  The action of a direct sum is block diagonal, so a block
    whose annihilator kills it does so in every sum."""
    o, act, basis, one = ring.cyclic_block(ideal)
    orders = tuple(o)
    if act is not None:
        act = tuple(tuple(a % d for a in row) for row, d in zip(act, orders))
    reductions = []
    for m, _ in ideal.factors:
        if ideal.factors == ((m, 1),):      # R/m itself
            field, unit = FiniteModule(orders, act, ring), one
        else:
            info = _cyclic_block(ring, FactoredIdeal(((m, 1),))).summands[0]
            field, unit = info.reductions[0][1], info.one
        reductions.append((m, field, tuple(
            field.encode(_scalar_action(field, b, unit)) for b in basis)))
    block = FiniteModule(orders, act, ring, (
        SummandInfo(0, len(orders), ideal, tuple(basis), tuple(one),
                    tuple(reductions)),))
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

    A maximal submodule N has M/N = R/m for a maximal ideal m, so those
    at m are the kernels of the nonzero R-maps M -> R/m, one per R/m-line
    of them: the maps sum_i c_i.pi_i, c in (R/m)^n, over the n summands
    R/I_i with I_i in m, pi_i the reduction of summand i mod m, kept with
    its block.  That is (q^n - 1)/(q - 1) kernels at m, q = |R/m|, each
    built once (_line_kernels) and kept as built: distinct lines have
    distinct kernels, and M/N names m.  A module without summand data
    raises ShapeMismatchError.

    The work, one kernel of |M| bits per line, is known up front: above
    SIGMA_WORK_BOUND this raises TooLargeError before enumerating.
    """
    if mod.size == 1:
        return []
    if not mod.summands:
        raise ShapeMismatchError("module carries no summand data")
    at: dict = {}    # by m's generator: the summands share one ring
    for info in mod.summands:
        for m, field, codes in info.reductions:
            at.setdefault(m.data, (field, []))[1].append((info.start, codes))
    work = mod.size * sum((q ** len(reds) - 1) // (q - 1)
                          for field, reds in at.values()
                          for q in [field.size])
    if work > SIGMA_WORK_BOUND:
        raise TooLargeError(f"maximal submodules scan {work} elements: "
                            f"the bound is {SIGMA_WORK_BOUND}")
    found = []
    for field, reds in at.values():
        found += _line_kernels(mod, [_residue_classes(mod, start, field, codes)
                                     for start, codes in reds], field)
    return sorted(found)


def _digit_classes(orders, j: int, q: int) -> list:
    """The masks of the elements by x_j mod q, from the shifts of the
    stripes of x_j = 0 mod its period (q when q | d_j, else d_j)."""
    d = orders[j]
    period = q if d % q == 0 else d
    zero, stride = _stripes(orders, j, period)
    out = [0] * q
    for t in range(period):
        out[t % q] |= zero << t * stride
    return out


def _stripes(orders, j: int, period: int) -> tuple:
    """(mask, stride) for a period dividing d_j: the mask of the x with
    x_j = 0 mod period, the first stride of each period of x_j, whose
    shift by t.stride is the mask of x_j = t mod period."""
    stride = prod(orders[:j])
    return ((1 << stride) - 1) * (((1 << prod(orders)) - 1)
                                  // ((1 << stride * period) - 1)), stride


def _residue_classes(mod: FiniteModule, start: int, field: FiniteModule,
                     codes) -> list:
    """The masks of the elements by each base-p digit of the code of
    their image in R/m = field through the summand at coordinate start.
    That image is sum_k (x_k mod p).r_k, r_k = codes[k] the code of the
    image of coordinate k's basis element, so each code digit is an
    F_p-functional of the x_k mod p, whose classes take in one coordinate
    at a time: class u met with x_k = t goes to class u + c.t, c the
    digit of r_k, and x_k = t to c.t at the first k with c != 0 (one
    exists: the reduction is onto).  _code_classes meets them by code."""
    p = field.orders[0]
    out = [None] * len(field.orders)
    for k, r in enumerate(codes, start):
        if r == 0:
            continue
        res = _digit_classes(mod.orders, k, p)
        for b, cls in enumerate(out):
            c = r // p ** b % p
            if c == 0:
                continue
            met = [0] * p
            if cls is None:
                for t, m in enumerate(res):
                    met[c * t % p] = m
            else:
                for u, mu in enumerate(cls):
                    if mu:
                        for t, m in enumerate(res):
                            met[(u + c * t) % p] |= mu & m
            out[b] = met
    return out


def _code_classes(digits) -> list:
    """The masks of the elements by code, from those by each base-p digit
    of it (_residue_classes): class v meets class v_b of each digit b."""
    out = digits[0]
    for cls in digits[1:]:
        out = [a & m for m in cls for a in out]
    return out


def _line_kernels(mod: FiniteModule, res, field: FiniteModule) -> list:
    """The kernels of f_c = sum_i c_i.pi_i for each c in (R/m)^n whose
    first nonzero c_i is 1, one per R/m-line.  res[i] holds the classes
    of the base-p digits of pi_i's codes (_residue_classes), so codes add
    digit by digit mod p, and the units act through their maps of codes
    (_unit_maps on field, R/m as a module).  One summand's kernel meets
    its digits' classes 0.  Otherwise the value classes of a prefix of c,
    met with those of c_j.pi_j, give the prefix plus c_j.pi_j (class 0
    only at the last summand; over F_2, a XOR)."""
    if len(res) == 1:
        return [reduce(and_, [cls[0] for cls in res[0]])]
    res = list(map(_code_classes, res))
    if field.size == 2:
        odd = [0]
        for _, m in res:
            odd += list(map(xor, odd, repeat(m)))
        return list(map(xor, odd[1:], repeat(mod.full_mask)))
    units = _unit_maps(field)
    *below, last = res
    lines = below[:1]
    if len(below) > 1:    # the code of v - u, by v and u
        codes = list(map(field.decode, range(field.size)))
        diff = [[field.encode(list(map(sub, dv, du))) for du in codes]
                for dv in codes]
    for cls_j in below[1:]:
        # class v of a prefix plus c_j.pi_j: its class u met with
        # pi_j = s.(v - u), s = 1/c_j
        by_s = [[[cls_j[s[w]] for w in row] for row in diff] for s in units]
        lines += [cls_j] + [[sum(map(and_, cls, by_v)) for by_v in by_vs]
                            for by_vs in by_s for cls in lines]
    # class 0 of a prefix plus c.pi_last: its class u met with
    # pi_last = s.u, s = -1/c
    zero = [[last[w] for w in s] for s in units]
    return ([cls[0] for cls in lines] + [last[0]]
            + [sum(map(and_, cls, by_u)) for by_u in zero for cls in lines])


def _unit_maps(field: FiniteModule) -> list:
    """For each unit s of R/m = field, the code of s.a by code a: the
    powers of the map of a generator of the cyclic group of units.  The
    element of code v is s = sum_k v_k g^k, v_k the base-p digits of v
    and g the ring's generator (the code of s in residues, and so of a
    lines witness's points); it acts F_p-linearly, so _images builds its
    map from the codes of s.e_b, one scalar action each.  The block's
    basis is 1, g, g^2, ..., so each map sends code 1 to the code of its
    unit.  The search starts at v = 1, the identity, the one unit of F_2."""
    q, d = field.size, len(field.orders)
    for v in range(1, q):
        s = field.decode(v)
        step = _images(field.orders, [
            _scalar_action(field, s, [int(b == c) for c in range(d)])
            for b in range(d)])
        powers = [step]
        while powers[-1] != list(range(q)):
            powers.append(list(map(step.__getitem__, powers[-1])))
        if len(powers) == q - 1:
            return powers


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


def _images(radices, coef, const=None) -> list:
    """The index of f(x) for each index x over the mixed radix radices, f
    the affine map whose digit k is sum_j x_j coef[j][k] + const[k] mod
    radices[k] (const 0 when None): chi -> chi.A on characters, s.a on
    R/m, x -> sigma(x - p) + p on elements.  The table starts as the
    identity, and only a digit that f moves (its column of coef not the
    unit vector, or its constant not 0) is rebuilt, over the enumeration
    of x, and replaces x's own digit there, times its stride."""
    size, stride = prod(radices), 1
    img = list(range(size))
    for k, (r, c) in enumerate(zip(radices, const or repeat(0))):
        col = [row[k] for row in coef]
        if c % r or any(a != (j == k) for j, a in enumerate(col)):
            digits = [c % r]
            for a, r_j in zip(col, radices):
                digits = [(v + t * a) % r for t in range(r_j) for v in digits]
            old = ([t for t in range(r) for _ in range(stride)]
                   * (size // (stride * r)))
            img = [x + (v - t) * stride for x, v, t in zip(img, digits, old)]
        stride *= r
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
                # the index of u.c, by c over the j coordinates below
                kern += [kern[(g - 1) * len(classes) + c] for c in _images(
                    orders[:j], [[u * (a == b) for b in range(j)]
                                 for a in range(j)])]
                continue
            w = m * top // d
            if last:    # class u meets class 0 where x_j = -u/w mod q,
                # whose mask alone is built, as it is met
                zero, stride = _stripes(orders, j, q)
                kern += [reduce(or_, [mu & zero << (-u // w % q) * stride
                                      for u, mu in cls.items() if u % w == 0])
                         for cls in classes]
                continue
            res = _digit_classes(orders, j, q)
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
    changes none (a chain of subgroups long at most), or the kernels
    without an action.  The phi candidates are cosets of these cores."""
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
    """A few cheap candidate symmetries, as integer matrices on the digits.

    The summands (each coordinate, without summand data) are grouped by
    their orders and action blocks.  Per group: a swap and a cycle of its
    blocks, and a scaling of its first block by a unit of largest
    multiplicative order.  Per ordered pair of groups (a group with itself
    when it has two blocks): the shear x_i += c*x_j of their first blocks,
    with the least c that makes it well defined.  A matrix need not be a
    module automorphism (a shear between blocks whose actions differ is
    not): coset_symmetries keeps one only when its element map permutes
    the candidates, which is all a symmetry of the search needs to do.
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
    return [tuple(map(tuple, sigma)) for sigma in out]


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


def fixing_permutation(mod: FiniteModule, sigma, puncture: int) -> tuple:
    """The element map x -> sigma(x - puncture) + puncture, which fixes the
    puncture: the affine map x -> sigma x + (puncture - sigma puncture),
    whose digit r reads row r of sigma (_images reads coefficients by
    column).  It is a permutation when sigma is invertible on M, and
    coset_symmetries checks that it is one."""
    p = mod.decode(puncture)
    return tuple(_images(mod.orders, list(zip(*sigma)),
                         [pr - sum(map(mul, row, p))
                          for row, pr in zip(sigma, p)]))


def coset_symmetries(mod: FiniteModule, puncture: int, masks) -> list[tuple]:
    """The symmetries of the set system (the universe M - {puncture}, the
    candidate masks), as permutations of the candidate indices (perm[i]
    is the index of the image of mask i), one per matrix of automorphisms
    whose element map (fixing_permutation) is a bijection that sends every
    candidate onto a candidate and moves at least one.  Such a map fixes
    the puncture, so it maps the universe onto itself, as min_cover asks.

    A mask's image is the sum of the bits of its elements' images, which
    one itemgetter per mask picks from the table of image bits; its last
    index, past the elements, picks a 0, so a singleton's getter returns a
    tuple too.  The sum is that image only when the bits are distinct, so
    a map that is not a bijection is dropped before any mask is mapped.
    """
    index = {m: i for i, m in enumerate(masks)}
    getters = [itemgetter(*kernels._bits(m), mod.size) for m in masks]
    identity = list(range(len(masks)))
    out = []
    for sigma in automorphisms(mod):
        tau = fixing_permutation(mod, sigma, puncture)
        if len(set(tau)) < mod.size:
            continue
        bits = [1 << y for y in tau]
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
    submodule and their union all of M.  Line (lam, mu) holds the x with
    mu.pi_i(x) = lam.pi_j(x), pi_i and pi_j the reductions of the
    witness's summands onto R/m, m its ideal; with m not above both
    annihilators there are no such lines.  Coset covers are checked by
    cosets.verify_coset_cover.
    """
    from . import covering
    if (not isinstance(witness, covering.CoverWitness)
            or witness.kind != covering.LINES):
        raise ShapeMismatchError("expected a lines cover witness")
    if not witness.line_points:
        raise ShapeMismatchError("symbolic witness cannot be materialized")
    if not mod.summands:
        raise ShapeMismatchError("module carries no summand data")
    pair, summands = witness.summand_pair or (), mod.summands
    if len(pair) != 2 or not all(
            isinstance(n, int) and 0 <= n < len(summands) for n in pair):
        raise ShapeMismatchError("witness indexes a missing summand")
    reds = [(info.start, field, codes)
            for info in map(summands.__getitem__, pair)
            for m, field, codes in info.reductions if m == witness.ideal]
    if len(reds) < 2:
        return False
    field = reds[0][1]
    q, points = field.size, witness.line_points
    # a -> s.a for each code s, a unit's map keyed by its image of code 1
    times = {s[1]: s for s in _unit_maps(field)}
    times[0] = [0] * q
    if len(points) != q + 1 or not all(
            isinstance(pt, tuple) and len(pt) == 2
            and all(c in times for c in pt) for pt in points):
        return False
    # the elements by their image in R/m through summand i, and j
    full, images = mod.full_mask, [
        _code_classes(_residue_classes(mod, start, field, codes))
        for start, _, codes in reds]
    union, by_mu = 0, {}
    for lam, mu in points:
        # the x with mu.x_i = lam.x_j, from the disjoint classes of x_j
        if mu not in by_mu:     # and those of mu.x_i
            by_mu[mu] = [0] * q
            for a, v in enumerate(times[mu]):
                by_mu[mu][v] |= images[0][a]
        line_mask = sum(map(and_, map(by_mu[mu].__getitem__, times[lam]),
                            images[1]))
        if line_mask == full or _generators(mod, line_mask)[1] != line_mask:
            return False
        union |= line_mask
    return union == full
