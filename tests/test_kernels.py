"""Kernel contracts, the word-parallel group kernels against elementwise
references, and soundness of the exact-cover search with symmetries."""

import gc
import itertools
import random

import pytest
from test_oracle import block_modules, parse

from covercalc import _kernels, oracle
from covercalc.errors import TooLargeError


def brute_min_cover(universe, candidates):
    n = len(candidates)
    for k in range(0, n + 1):
        best = None
        for combo in itertools.combinations(range(n), k):
            cov = 0
            for i in combo:
                cov |= candidates[i]
            if universe & ~cov == 0:
                best = combo
                break  # combinations are generated in lex order
        if best is not None:
            return k, best
    return None, ()


class TestKernels:
    def test_encode_decode(self):
        orders = (4, 3, 2)
        for x in range(24):
            assert _kernels.encode(orders, _kernels.decode(orders, x)) == x

    def test_translate(self):
        orders = (4,)
        mask = 0b0011  # {0, 1}
        assert _kernels.translate(orders, mask, 2) == 0b1100

    def test_apply_matrix(self):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        assert _kernels.apply_matrix(orders, swap, _kernels.encode(orders, (1, 0))) == \
            _kernels.encode(orders, (0, 1))

    def test_closure_subgroup(self):
        orders = (4, 2)
        mask = _kernels.closure(orders, None, [_kernels.encode(orders, (2, 1))])
        members = {_kernels.decode(orders, i) for i in range(8) if (mask >> i) & 1}
        assert members == {(0, 0), (2, 1)}

    def test_closure_with_action(self):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        mask = _kernels.closure(orders, swap, [_kernels.encode(orders, (1, 0))])
        assert mask.bit_count() == 4

    def test_invariant_core(self):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        sub = 1 | (1 << _kernels.encode(orders, (1, 0)))   # {0, (1,0)}: not invariant
        assert _kernels.invariant_core(orders, swap, sub) == 1
        diag = 1 | (1 << _kernels.encode(orders, (1, 1)))
        assert _kernels.invariant_core(orders, swap, diag) == diag

    def test_min_cover_small(self):
        universe = 0b111111
        candidates = [0b000111, 0b111000, 0b010101, 0b101010]
        size, witness = _kernels.min_cover(universe, candidates)
        assert size == 2 and witness == (0, 1)

    def test_min_cover_infeasible(self):
        assert _kernels.min_cover(0b111, [0b001]) == (None, ())

    def test_min_cover_empty_universe(self):
        assert _kernels.min_cover(0, [0b1]) == (0, ())

    def test_min_cover_matches_bruteforce(self):
        rng = random.Random(42)
        for _ in range(60):
            nbits = rng.randint(3, 10)
            universe = (1 << nbits) - 1
            ncand = rng.randint(2, 8)
            candidates = [rng.getrandbits(nbits) for _ in range(ncand)]
            size, witness = _kernels.min_cover(universe, candidates)
            bsize, bwitness = brute_min_cover(universe, candidates)
            assert size == bsize
            if size is not None:
                cov = 0
                for i in witness:
                    cov |= candidates[i]
                assert universe & ~cov == 0
                assert len(witness) == size
                assert witness == bwitness  # lexicographically least


def _bits(mask):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _add(orders, x, y):
    return _kernels.encode(orders, [a + b for a, b in
                                    zip(_kernels.decode(orders, x),
                                        _kernels.decode(orders, y))])


def reference_translate(orders, mask, g):
    """{x + g : x in mask}, element by element through the digits."""
    return sum(1 << _add(orders, x, g) for x in _bits(mask))


def reference_closure(orders, action, seeds):
    """The seeds' orbit under the action matrix, then every sum reached
    from 0 by adding orbit elements: the subgroup an invariant set spans
    is invariant."""
    orbit, stack = set(seeds), list(seeds)
    while stack and action is not None:
        y = _kernels.apply_matrix(orders, action, stack.pop())
        if y not in orbit:
            orbit.add(y)
            stack.append(y)
    members, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for g in orbit:
            y = _add(orders, x, g)
            if y not in members:
                members.add(y)
                stack.append(y)
    return sum(1 << x for x in members)


def reference_invariant_core(orders, action, mask):
    """Drop every element with an image outside the mask until none is."""
    while action is not None:
        keep = sum(1 << x for x in _bits(mask)
                   if mask >> _kernels.apply_matrix(orders, action, x) & 1)
        if keep == mask:
            break
        mask = keep
    return mask


@pytest.fixture(scope="module")
def modules_up_to_64():
    """Every block module of size <= 64 over Z, Z[i], F_2[t] and F_3[t]."""
    mods = [mod for _, mod in block_modules(64)]
    assert len(mods) >= 500
    return mods


class TestWordParallelKernels:
    def test_translate_matches_the_elementwise_reference(self, modules_up_to_64):
        rng = random.Random(11)
        for mod in modules_up_to_64:
            n, orders = mod.size, mod.orders
            units = [_kernels.encode(orders, [int(i == j) for j in range(len(orders))])
                     for i in range(len(orders))]
            for g in units + [n - 1] + [rng.randrange(n) for _ in range(4)]:
                for mask in (mod.full_mask, 1, rng.getrandbits(n),
                             rng.getrandbits(n)):
                    assert _kernels.translate(orders, mask, g) == \
                        reference_translate(orders, mask, g), (orders, mask, g)

    def test_closure_matches_the_elementwise_reference(self, modules_up_to_64):
        rng = random.Random(12)
        for mod in modules_up_to_64:
            n, orders = mod.size, mod.orders
            for count in (1, 1, 2, 3):
                seeds = [rng.randrange(n) for _ in range(count)]
                for action in (None, mod.action):
                    assert _kernels.closure(orders, action, seeds) == \
                        reference_closure(orders, action, seeds), \
                        (orders, action, seeds)
                # from the submodule one more element generates: the
                # closure of the seeds and that element
                extra = rng.randrange(n)
                sub = _kernels.closure(orders, mod.action, [extra])
                assert _kernels.closure(orders, mod.action, seeds, sub) == \
                    reference_closure(orders, mod.action, seeds + [extra]), \
                    (orders, seeds, extra)

    def test_invariant_core_matches_the_elementwise_reference(
            self, modules_up_to_64):
        rng = random.Random(13)
        for mod in modules_up_to_64:
            n, orders = mod.size, mod.orders
            for count in (1, 2):
                sub = _kernels.closure(orders, None,
                                       [rng.randrange(n) for _ in range(count)])
                for mask in (sub, rng.getrandbits(n) | 1):
                    assert _kernels.invariant_core(orders, mod.action, mask) == \
                        reference_invariant_core(orders, mod.action, mask)


def rotation_instances(seed, count):
    """Covers of Z/n (as bits 0..n-1) by every rotation of a few random
    subsets, with the rotation by one (and, when the candidates allow it,
    the reflection) as candidate permutations."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 12)
        rot = lambda m, k: ((m << k) | (m >> (n - k))) & ((1 << n) - 1)
        candidates = []
        for _ in range(rng.randint(1, 3)):
            base = sum(1 << b for b in rng.sample(range(n), rng.randint(2, 4)))
            for k in range(n):
                if rot(base, k) not in candidates:
                    candidates.append(rot(base, k))
        rng.shuffle(candidates)
        index = {c: i for i, c in enumerate(candidates)}
        reflect = lambda m: sum(1 << ((n - b) % n) for b in range(n) if m >> b & 1)
        gens = [tuple(index[rot(c, 1)] for c in candidates)]
        if all(reflect(c) in index for c in candidates):
            gens.append(tuple(index[reflect(c)] for c in candidates))
        out.append(((1 << n) - 1, candidates, gens))
    return out


@pytest.mark.parametrize("plain_nodes", [0, 1, 3, _kernels._PLAIN_NODES])
def test_symmetric_search_matches_bruteforce(monkeypatch, plain_nodes):
    # plain_nodes 0 searches with the symmetries from the root; the others
    # restart with them after that many plain nodes, from the best size
    # found.  A restart that starts above the optimum must find a smaller
    # cover itself; up to 3 plain nodes, some do.
    monkeypatch.setattr(_kernels, "_PLAIN_NODES", plain_nodes)
    real, starts = _kernels._search, []

    def search(universe, candidates, upper, gens, *args):
        if gens:
            starts.append(upper)
        return real(universe, candidates, upper, gens, *args)

    monkeypatch.setattr(_kernels, "_search", search)
    overshoots = above = 0
    for universe, candidates, gens in rotation_instances(11, 60):
        calls = []
        starts.clear()
        got = _kernels.min_cover(universe, candidates,
                                 symmetries=lambda: calls.append(1) or gens)
        assert got == brute_min_cover(universe, candidates)
        if plain_nodes == 0:
            assert calls == [1]
        assert len(starts) == len(calls)
        above += any(upper > got[0] for upper in starts)
        overshoots += _kernels._greedy_size(universe, candidates) > got[0]
    # instances where greedy is already optimal cannot catch over-pruning
    assert overshoots >= 5
    if plain_nodes <= 3:
        assert above > 0


def test_symmetries_are_fetched_only_past_the_plain_node_count():
    def refuse():
        raise AssertionError("symmetries fetched for an easy instance")
    assert _kernels.min_cover(0b111111, [0b000111, 0b111000, 0b010101],
                              symmetries=refuse) == (2, (0, 1))


@pytest.mark.parametrize("spec, answer", [
    ("Z: R/(2)^8", 3), ("Z: R/(3)^4", 4), ("Z: R/(4) + R/(2)^3", 3),
    ("Zi: R/(3) + R/(3)", 10), ("Fp[t] p=2: R/(t^2+t+1)^3", 5)])
def test_sigma_root_bound_closes_before_any_symmetry(monkeypatch, spec,
                                                     answer):
    # over M - {0} the counting bound (|M|-1)/(|M|/p-1) is p+1 when the
    # least residue field repeats, so greedy's cover is proved at the root;
    # one plain node would otherwise be enough to fetch the symmetries
    def refuse(*args):
        raise AssertionError("symmetries fetched for a root-bound instance")
    monkeypatch.setattr(_kernels, "_PLAIN_NODES", 1)
    monkeypatch.setattr(oracle, "coset_symmetries", refuse)
    assert oracle.min_submodule_cover(oracle.materialize(parse(spec)))[0] \
        == answer


@pytest.mark.parametrize("spec", [
    "Z: R/(2) + R/(5)^2", "Z: R/(2) + R/(3)^3", "Z: R/(2) + R/(3) + R/(5)^2",
    "Z: R/(4) + R/(9) + R/(3)"])
def test_symmetric_sigma_search_matches_bruteforce(monkeypatch, spec):
    # greedy overshoots on these, so the search goes past the root bound,
    # with the automorphisms from the root
    fetched = []
    real = oracle.coset_symmetries
    monkeypatch.setattr(_kernels, "_PLAIN_NODES", 0)
    monkeypatch.setattr(oracle, "coset_symmetries",
                        lambda *args: fetched.append(real(*args)) or fetched[-1])
    mod = oracle.materialize(parse(spec))
    size, witness = oracle.min_submodule_cover(mod)
    candidates = oracle.maximal_submodules(mod)
    assert (size, tuple(candidates.index(s.mask) for s in witness)) \
        == brute_min_cover(mod.full_mask, candidates)
    assert _kernels._greedy_size(mod.full_mask, candidates) > size
    assert len(fetched) == 1 and fetched[0]


def test_search_past_its_node_budget_raises(monkeypatch):
    # the first instance past the root bound
    universe, candidates, _ = next(
        inst for inst in rotation_instances(11, 60)
        if _kernels._greedy_size(*inst[:2]) > _kernels.min_cover(*inst[:2])[0])
    monkeypatch.setattr(_kernels, "_NODE_BUDGET", 1)
    with pytest.raises(TooLargeError, match="the bound is 1"):
        _kernels.min_cover(universe, candidates)


def test_stabilizer_generators_fix_the_representative():
    universe, candidates, gens = rotation_instances(5, 1)[0]
    for rep in range(len(candidates)):
        for h in _kernels._stabilizer(rep, gens, len(candidates)):
            assert h[rep] == rep
            assert sorted(h) == list(range(len(candidates)))


def reference_stabilizer(rep, gens, n):
    """_stabilizer composed one index at a time, with a Python loop for each
    inverse, after the whole orbit is walked."""
    identity = tuple(range(n))
    transversal = {rep: identity}
    order = [rep]
    for x in order:
        ux = transversal[x]
        for s in gens:
            y = s[x]
            if y not in transversal:
                transversal[y] = tuple(map(s.__getitem__, ux))
                order.append(y)
    inverses = {}
    found = {}
    for x in order:
        ux = transversal[x]
        for s in gens:
            y = s[x]
            su = tuple(map(s.__getitem__, ux))
            if su == transversal[y]:
                continue
            inv = inverses.get(y)
            if inv is None:
                inv = [0] * n
                for j, v in enumerate(transversal[y]):
                    inv[v] = j
                inverses[y] = inv
            h = tuple(map(inv.__getitem__, su))
            if h != identity:
                found[h] = None
                if len(found) >= _kernels._STABILIZER_GENS:
                    return tuple(found)
    return tuple(found)


def stabilizer_groups():
    """(generators, candidate count): every rotation_instances group, the
    coset symmetries of five phi modules at punctures 0 and |M|-1, and
    groups on one and two candidates, where itemgetter over a single index
    returns a scalar."""
    for seed, count in ((5, 1), (7, 1), (11, 60)):
        for _, candidates, gens in rotation_instances(seed, count):
            yield tuple(gens), len(candidates)
    for spec in ("Z: R/(2)^5", "Z: R/(3)^2 + R/(9)", "Zi: R/(2+i)^2",
                 "Zi: R/(1+i)^3 + R/(2i)", "Fp[t] p=2: R/(t)^3 + R/(t^2)"):
        mod = oracle.materialize(parse(spec), max_size=81)
        for puncture in (0, mod.size - 1):
            masks = [c[0] for c in
                     oracle.punctured_coset_candidates(mod, puncture)]
            yield tuple(oracle.coset_symmetries(mod, puncture, masks)), \
                len(masks)
    yield ((0,),), 1
    yield ((1, 0),), 2
    yield ((0, 1), (1, 0)), 2


def test_stabilizer_matches_the_elementwise_reference():
    # the same generators in the same order, so every symmetric search tree
    # stays as it is; the stabilizers are checked again as groups, since
    # the search builds a child's group in its parent's
    def check(group, n):
        got = [_kernels._stabilizer(rep, group, n) for rep in range(n)]
        assert got == [reference_stabilizer(rep, group, n)
                       for rep in range(n)], group
        return got

    checked = 0
    for gens, n in stabilizer_groups():
        children = set(check(gens, n)) - {()}
        for child in children:
            check(child, n)
        checked += n * (1 + len(children))
    assert checked > 5000


def test_lex_pass_on_the_31_singletons_of_a_field():
    # F_32 minus a point: the only proper submodule is {0}, so the cover is
    # the 31 singletons, and at every lex node left == |rem|, where the
    # counting bound cannot prune and is not evaluated
    mod = oracle.materialize(parse("Fp[t] p=2: R/(t^5+t^2+1)"), max_size=32)
    for puncture in (0, 7, 31):
        size, witness = oracle.min_coset_cover_punctured(mod, puncture)
        assert size == 31
        assert [rep for _, _, rep in witness] == \
            [x for x in range(32) if x != puncture]
        universe = mod.full_mask & ~(1 << puncture)
        candidates = [1 << x for x in range(32) if x != puncture]
        assert _kernels._lex_witness(universe, candidates, 31) == \
            tuple(range(31))


def test_min_cover_leaves_no_cyclic_garbage(monkeypatch):
    # the recursive search closures are freed on every exit, the
    # _Unfinished one of the plain search included; this instance's plain
    # search runs past 3 nodes
    universe, candidates, gens = rotation_instances(7, 1)[0]
    restarts = []
    gc.collect()
    gc.disable()
    try:
        _kernels.min_cover(0b111111, [0b000111, 0b111000, 0b010101])
        monkeypatch.setattr(_kernels, "_PLAIN_NODES", 0)
        _kernels.min_cover(universe, candidates, symmetries=lambda: gens)
        monkeypatch.setattr(_kernels, "_PLAIN_NODES", 3)
        _kernels.min_cover(universe, candidates,
                           symmetries=lambda: restarts.append(1) or gens)
        # and so is the walk that tabulates the character kernels
        mod = oracle.materialize(parse("Zi: R/(1+i)^2 + R/(3)"), max_size=36)
        oracle.maximal_submodules(mod)
        oracle.punctured_coset_candidates(mod, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert restarts == [1]


def planted_partitions(seed, count):
    """Universes split into k equal blocks, hidden among random masks of
    the same size: the blocks are a minimum cover, and along it the
    counting bound of the lex pass is met with equality."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k, width = rng.randint(2, 4), rng.randint(2, 3)
        bits = list(range(k * width))
        rng.shuffle(bits)
        blocks = [sum(1 << b for b in bits[j::k]) for j in range(k)]
        noise = [sum(1 << b for b in rng.sample(range(k * width), width))
                 for _ in range(rng.randint(2, 6))]
        candidates = blocks + noise
        rng.shuffle(candidates)
        out.append(((1 << (k * width)) - 1, candidates))
    return out


def test_lex_witness_counting_bound_matches_bruteforce():
    # the rows of a 3x3 grid, after a column pair: once candidate 0 is
    # chosen the rows still cover what is left, but two more candidates
    # cover at most 2 * 3 of its 7 elements, so the lex pass prunes there
    rows = [0b000000111, 0b000111000, 0b111000000]
    universe, candidates = 0b111111111, [0b000001001] + rows
    rem = universe & ~candidates[0]
    assert universe & ~(candidates[0] | rows[0] | rows[1] | rows[2]) == 0
    assert 2 * max((c & rem).bit_count() for c in rows) < rem.bit_count()
    assert _kernels.min_cover(universe, candidates) == (3, (1, 2, 3)) \
        == brute_min_cover(universe, candidates)
    # at the root, and at every node along the blocks, left * max == |rem|
    for universe, candidates in planted_partitions(5, 40):
        assert _kernels.min_cover(universe, candidates) \
            == brute_min_cover(universe, candidates)


def test_packing_bound_matches_bruteforce():
    # with the root's counting bound below greedy's size, the root node
    # closes only when the elements it packs, one candidate each, reach
    # that size: then the proof takes one node
    rng = random.Random(7)
    closed_by_packing = 0
    for _ in range(200):
        nbits = rng.randint(4, 12)
        universe = (1 << nbits) - 1
        candidates = [rng.getrandbits(nbits) for _ in range(rng.randint(3, 9))]
        want = brute_min_cover(universe, candidates)
        assert _kernels.min_cover(universe, candidates) == want
        if want[0] is None:
            continue
        greedy = _kernels._greedy_size(universe, candidates)
        if -(-nbits // max(map(int.bit_count, candidates))) >= greedy:
            continue
        try:
            size = _kernels._search(universe, candidates, greedy, (), 1)
        except _kernels._Unfinished:
            continue
        assert size == want[0]
        closed_by_packing += 1
    assert closed_by_packing >= 5
