"""Search kernels over int bitmasks, in Python.

Elements of a finite abelian group with cyclic orders (d_0, ..., d_{k-1})
are indexed in mixed radix (digit 0 least significant); subsets are Python
ints with bit x set for element index x.  A module's ring acts through
one integer matrix on the digits (multiplication by i over Z[i], by t over
F_p[t]), or None over Z.  translate and closure act on a whole mask at
once, one coordinate at a time, as shifts of the int; invariant_core and
apply_matrix work element by element.  min_cover is the exact-cover
search: a plain search, then, if that has not closed, orbital branching
under instance symmetries, which restarts from the plain search's best
size; a node builds its group, a stabilizer in its parent's, only when it
branches.  BACKEND
names the implementation; the benchmark records it.

No caller in covercalc uses invariant_core; it stays because the
benchmark's tracer wraps it by name, and a traced run would fail on its
absence.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import itemgetter, mul

from .errors import TooLargeError

BACKEND = "pure"
# A process keeps the shifts of this many (orders, g) pairs.  One oracle
# item translates by the same elements again and again: in a phi item 58 %
# of the calls repeat an earlier one, in a sigma item 66 %.
STEPS_CACHE_SIZE = 256


def encode(orders, digits) -> int:
    x = 0
    for d, o in zip(reversed(digits), reversed(orders)):
        x = x * o + (d % o)
    return x


def decode(orders, x: int) -> tuple:
    out = []
    for o in orders:
        x, r = divmod(x, o)
        out.append(r)
    return tuple(out)


@lru_cache(maxsize=64)
def _periods(orders) -> tuple:
    """(stride, order, rep) per coordinate: the digit of x is
    x // stride mod order, and rep has one bit at the start of each run
    of stride * order indices, over which that digit cycles once."""
    n, stride, out = prod(orders), 1, []
    for d in orders:
        period = stride * d
        out.append((stride, d, ((1 << n) - 1) // ((1 << period) - 1)))
        stride = period
    return tuple(out)


@lru_cache(maxsize=STEPS_CACHE_SIZE)
def _steps(orders, g: int) -> tuple:
    """The shifts that add g, as (low, up, down) per coordinate where g has
    a nonzero digit r: low holds the elements whose digit is below d - r;
    they move up by r strides and the others wrap down by d - r strides."""
    steps = []
    for stride, d, rep in _periods(orders):
        g, r = divmod(g, d)
        if r:
            steps.append(((rep << (d - r) * stride) - rep,
                          r * stride, (d - r) * stride))
    return tuple(steps)


def _shift(mask: int, steps) -> int:
    for low, up, down in steps:
        lo = mask & low
        mask = (lo << up) | ((mask ^ lo) >> down)
    return mask


def translate(orders, mask: int, g: int) -> int:
    """{x + g : x in mask}."""
    return _shift(mask, _steps(orders, g))


def apply_matrix(orders, mat, x: int) -> int:
    xd = decode(orders, x)
    return encode(orders, [sum(map(mul, row, xd)) for row in mat])


def closure(orders, action, seeds, members=1) -> int:
    """The submodule generated by a submodule mask (default {0}) and the
    seed indices: their subgroup, closed under the action matrix."""
    pending = list(seeds)
    while pending:
        g = pending.pop()
        if (members >> g) & 1:
            continue
        steps = _steps(orders, g)
        t = _shift(members, steps)
        while t & ~members:
            members |= t
            t = _shift(t, steps)
        if action is not None:
            pending.append(apply_matrix(orders, action, g))
    return members


def invariant_core(orders, action, mask: int) -> int:
    """Largest subset of a subgroup mask closed under the action matrix."""
    if action is None:
        return mask
    # the image of each element of the mask, computed once
    images = [(x, apply_matrix(orders, action, x)) for x in _bits(mask)]
    while True:
        keep = mask
        for x, y in images:
            if (keep >> x) & 1 and not (mask >> y) & 1:
                keep &= ~(1 << x)
        if keep == mask:
            return mask
        mask = keep


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


# The search first runs without symmetries.  Instances that have not closed
# after this many nodes fetch their symmetries and restart from the best
# size found (see min_cover).  Over the 899 phi golden (module, puncture)
# pairs, 557, 115, 84, 56 and 40 searches fetch at 1, 50, 100, 200 and 500
# nodes.  At 1 the fetches cost more than the symmetries save; below 100
# they fall on F_2[t] pairs that the plain search closes in about a
# millisecond, and those get slower.  One sigma golden fetches at 100.
_PLAIN_NODES = 100
# Each child group keeps at most this many stabilizer generators.
_STABILIZER_GENS = 12
# A search past this many nodes raises TooLargeError.  The heaviest
# instance the oracles answer takes about 143,000: (Z/7)^2 minus a point.
# The lex-least witness pass counts its own nodes against the same bound.
_NODE_BUDGET = 300_000


def min_cover(universe: int, candidates, symmetries=None) -> tuple:
    """Exact minimum cover of the universe bits by candidate masks.

    Returns (size, witness) where witness is the lexicographically least
    increasing index tuple of that size, or (None, ()) when infeasible.

    symmetries, if given, is a zero-argument callable returning
    permutations of the candidate indices (tuples, perm[i] is the image of
    i), each induced by a permutation of the elements that maps the universe
    onto itself.  It is called only when the plain search needs more than
    _PLAIN_NODES nodes.  A symmetric search then restarts from the plain
    search's best size, with every candidate allowed at its root, and
    proves on its own that no smaller cover exists.  The symmetries prune
    the proof of optimality but never change the size or the witness.
    The optimality proof and the lex-least witness pass each raise
    TooLargeError past _NODE_BUDGET nodes.
    """
    if universe == 0:
        return 0, ()
    total = 0
    for c in candidates:
        total |= c
    if universe & ~total:
        return None, ()

    best = _greedy_size(universe, candidates)
    if symmetries is None:
        best = _search(universe, candidates, best, ())
    else:
        try:
            best = _search(universe, candidates, best, (), _PLAIN_NODES)
        except _Unfinished as stop:
            best = _search(universe, candidates, stop.best,
                           tuple(symmetries()))
    return best, _lex_witness(universe, candidates, best)


def _greedy_size(universe: int, candidates) -> int:
    cov = 0
    size = 0
    while universe & ~cov:
        rem = universe & ~cov
        pick, gain = -1, 0
        for i, c in enumerate(candidates):
            g = (c & rem).bit_count()
            if g > gain:
                pick, gain = i, g
        cov |= candidates[pick]
        size += 1
    return size


class _Unfinished(Exception):
    """The best size a stopped search found."""

    def __init__(self, best: int):
        super().__init__(best)
        self.best = best


def _search(universe: int, candidates, upper: int, gens,
            node_limit=None) -> int:
    """Prove the minimum cover size by orbital branching.

    A node branches on the uncovered element with the fewest allowed
    candidates.  The scan that finds it also packs, in element order, the
    uncovered elements whose allowed holders meet none of those packed
    before: no candidate holds two of them, so the node needs one more
    candidate per packed element, and it is pruned once that many reach
    the best size found.  Otherwise the counting bound (uncovered elements
    over the most any candidate covers, excluded or not) may prune it.
    The node's group (a group of instance symmetries that fixes every
    chosen candidate) splits the branching element's candidates into
    orbits; child k includes the best representative of orbit k and
    excludes orbits 1..k-1 entirely.  A cover through any member of orbit k maps to
    one through its representative, so nothing optimal is lost.  The
    child's group is the stabilizer of its representative in its parent's
    group.  A child builds it only once it branches, as the bounds prune
    most children on entry, and each (representative, parent group) pair
    is built once per search.  With no generators this is element
    branching with sibling exclusion.
    Returns the smaller of upper and the least size of a cover.  Once
    node_limit nodes have been visited it raises _Unfinished with the best
    size found.  With no node_limit, a search past _NODE_BUDGET nodes
    raises TooLargeError.
    """
    if node_limit == 0:
        raise _Unfinished(upper)
    # the root's counting bound, before the holders are built: it alone
    # proves every instance whose greedy size meets it
    maxcov = max((c & universe).bit_count() for c in candidates)
    if -(-universe.bit_count() // maxcov) >= upper:
        return upper
    n = len(candidates)
    limit = _NODE_BUDGET if node_limit is None else node_limit
    # the candidates holding each element, at its bit's bit_length: a list
    # keeps no key of its own, where a dict keyed by the bits would keep
    # n ints of up to n bits for a universe of n bits
    holders = [0] * (universe.bit_length() + 1)
    for i, c in enumerate(candidates):
        m = c & universe
        while m:
            low = m & -m
            m ^= low
            holders[low.bit_length()] |= 1 << i
    best = upper
    nodes = 0
    # (rep, id(parent group)) -> (parent group, its stabilizer of rep); the
    # stored parent keeps its id from being reused
    stabilizers = {}

    def group(rep: int, parent: tuple) -> tuple:
        if all(g[rep] == rep for g in parent):
            return parent   # the orbit of rep is {rep}
        key = (rep, id(parent))
        hit = stabilizers.get(key)
        if hit is None:
            hit = stabilizers[key] = (parent, _stabilizer(rep, parent, n))
        return hit[1]

    def dfs(cov: int, depth: int, allowed: int, chosen, parent):
        # the node's group: parent's stabilizer of the candidate chosen
        # last, or parent itself at the root (chosen None)
        nonlocal best, nodes
        nodes += 1
        if nodes > limit:
            if node_limit is not None:
                raise _Unfinished(best)
            raise TooLargeError("the cover search ran out of nodes: "
                                f"the bound is {_NODE_BUDGET}")
        rem = universe & ~cov
        if not rem:
            if depth < best:
                best = depth
            return
        if depth + 1 >= best:
            return
        opts, fewest = 0, n + 1
        # the packing: elements whose allowed holders are disjoint from
        # those of the elements packed before them, one candidate each
        held, packed = 0, depth
        m = rem
        while m:
            low = m & -m
            m ^= low
            o = holders[low.bit_length()] & allowed
            k = o.bit_count()
            if k < fewest:
                opts, fewest = o, k
                if k == 0:
                    return
            if not o & held:
                held |= o
                packed += 1
                if packed >= best:
                    return
        gains = [(c & rem).bit_count() for c in candidates]
        need = -(-rem.bit_count() // max(gains))
        if depth + need >= best:
            return
        ranked = []
        m = opts
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            ranked.append((-gains[i], i))
        ranked.sort()
        gens = parent if chosen is None else group(chosen, parent)
        if gens:
            # orbits in the order of their best member, which represents them
            children = []
            seen = 0
            for _, i in ranked:
                if not (seen >> i) & 1:
                    orbit = _orbit(i, gens)
                    seen |= orbit
                    children.append((i, orbit))
        else:
            children = [(i, 1 << i) for _, i in ranked]
        for rep, orbit in children:
            if depth + 1 >= best:
                break
            dfs(cov | candidates[rep], depth + 1, allowed, rep, gens)
            allowed &= ~orbit

    try:
        dfs(0, 0, (1 << n) - 1, None, gens)
    finally:
        del dfs, group  # the recursive closures are a reference cycle: break it
    return best


def _orbit(i: int, gens) -> int:
    """Bitmask of the orbit of candidate index i under the generators."""
    mask = 1 << i
    stack = [i]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not (mask >> y) & 1:
                mask |= 1 << y
                stack.append(y)
    return mask


def _stabilizer(rep: int, gens, n: int) -> tuple:
    """Up to _STABILIZER_GENS distinct Schreier generators of the stabilizer
    of rep: u_{s(x)}^-1 s u_x over the orbit transversal u.  Any subset of
    them generates a subgroup of the stabilizer, which is all soundness
    needs.  The orbit is walked breadth first, and each s u_x is either the
    transversal element of a new point or checked at once.  Permutations
    compose through itemgetter, in C; it returns a tuple for two or more
    indices, and one candidate has only the identity."""
    if n < 2:
        return ()
    identity = tuple(range(n))
    transversal = {rep: identity}
    order = [rep]
    inverses = {}
    found = {}
    for x in order:
        compose = itemgetter(*transversal[x])   # s -> s u_x
        for s in gens:
            y = s[x]
            su = compose(s)
            uy = transversal.get(y)
            if uy is None:
                transversal[y] = su
                order.append(y)
                continue
            if su == uy:
                continue
            inv = inverses.get(y)
            if inv is None:
                inv = inverses[y] = dict(zip(uy, identity))
            h = itemgetter(*su)(inv)
            if h != identity:
                found[h] = None
                if len(found) >= _STABILIZER_GENS:
                    return tuple(found)
    return tuple(found)


def _lex_witness(universe: int, candidates, k: int) -> tuple:
    """The lexicographically least index tuple of k candidates covering the
    universe; past _NODE_BUDGET nodes it raises TooLargeError."""
    n = len(candidates)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | candidates[i]
    path = []
    nodes = 0

    def dfs(cov: int, start: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise TooLargeError("the lex-least witness pass ran out of "
                                f"nodes: the bound is {_NODE_BUDGET}")
        if len(path) == k:
            return not (universe & ~cov)
        if universe & ~(cov | suffix[start]):
            return False
        rem = universe & ~cov
        left, need = k - len(path), rem.bit_count()
        # counting bound: left more candidates cover at most left times the
        # most any one of them still covers.  The check above leaves some
        # candidate meeting rem, so the most is at least 1 and the bound
        # can prune only when left < |rem|.
        if left < need and left * max(map(int.bit_count, map(
                rem.__and__, candidates[start:]))) < need:
            return False
        for i in range(start, n - left + 1):
            if universe & ~(cov | suffix[i]):
                break
            # in a minimum cover every member contributes new elements
            if not (candidates[i] & universe & ~cov):
                continue
            path.append(i)
            if dfs(cov | candidates[i], i + 1):
                return True
            path.pop()
        return False

    try:
        found = dfs(0, 0)
    finally:
        del dfs
    if not found:
        raise AssertionError("lex pass failed to reproduce the optimal size")
    return tuple(path)
