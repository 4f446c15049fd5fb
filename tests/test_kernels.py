"""Kernel contracts, the word-parallel group kernels against elementwise
references, and soundness of the exact-cover search with symmetries."""

import gc
import itertools
import random

import pytest
from test_oracle import block_modules, parse

from covercalc import _kernels, oracle
from covercalc._kernels import pure
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


@pytest.mark.parametrize("impl", [pure])
class TestKernels:
    def test_encode_decode(self, impl):
        orders = (4, 3, 2)
        for x in range(24):
            assert impl.encode(orders, impl.decode(orders, x)) == x

    def test_translate(self, impl):
        orders = (4,)
        mask = 0b0011  # {0, 1}
        assert impl.translate(orders, mask, 2) == 0b1100

    def test_apply_matrix(self, impl):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        assert impl.apply_matrix(orders, swap, impl.encode(orders, (1, 0))) == \
            impl.encode(orders, (0, 1))

    def test_closure_subgroup(self, impl):
        orders = (4, 2)
        mask = impl.closure(orders, (), [impl.encode(orders, (2, 1))])
        members = {impl.decode(orders, i) for i in range(8) if (mask >> i) & 1}
        assert members == {(0, 0), (2, 1)}

    def test_closure_with_action(self, impl):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        mask = impl.closure(orders, (swap,), [impl.encode(orders, (1, 0))])
        assert mask.bit_count() == 4

    def test_invariant_core(self, impl):
        orders = (2, 2)
        swap = ((0, 1), (1, 0))
        sub = 1 | (1 << impl.encode(orders, (1, 0)))   # {0, (1,0)}: not invariant
        assert impl.invariant_core(orders, (swap,), sub) == 1
        diag = 1 | (1 << impl.encode(orders, (1, 1)))
        assert impl.invariant_core(orders, (swap,), diag) == diag

    def test_min_cover_small(self, impl):
        universe = 0b111111
        candidates = [0b000111, 0b111000, 0b010101, 0b101010]
        size, witness = _kernels.min_cover(universe, candidates)
        assert size == 2 and witness == (0, 1)

    def test_min_cover_infeasible(self, impl):
        assert _kernels.min_cover(0b111, [0b001]) == (None, ())

    def test_min_cover_empty_universe(self, impl):
        assert _kernels.min_cover(0, [0b1]) == (0, ())

    def test_min_cover_matches_bruteforce(self, impl):
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
    return pure.encode(orders, [a + b for a, b in
                                zip(pure.decode(orders, x),
                                    pure.decode(orders, y))])


def reference_translate(orders, mask, g):
    """{x + g : x in mask}, element by element through the digits."""
    return sum(1 << _add(orders, x, g) for x in _bits(mask))


def reference_closure(orders, actions, seeds):
    """The seeds' orbit under the action matrices, then every sum reached
    from 0 by adding orbit elements: the subgroup an invariant set spans
    is invariant."""
    orbit, stack = set(seeds), list(seeds)
    while stack:
        x = stack.pop()
        for mat in actions:
            y = pure.apply_matrix(orders, mat, x)
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


def reference_invariant_core(orders, actions, mask):
    """Drop every element with an image outside the mask until none is."""
    while True:
        keep = sum(1 << x for x in _bits(mask)
                   if all(mask >> pure.apply_matrix(orders, mat, x) & 1
                          for mat in actions))
        if keep == mask:
            return mask
        mask = keep


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
            units = [pure.encode(orders, [int(i == j) for j in range(len(orders))])
                     for i in range(len(orders))]
            for g in units + [n - 1] + [rng.randrange(n) for _ in range(4)]:
                for mask in (mod.full_mask, 1, rng.getrandbits(n),
                             rng.getrandbits(n)):
                    assert pure.translate(orders, mask, g) == \
                        reference_translate(orders, mask, g), (orders, mask, g)

    def test_closure_matches_the_elementwise_reference(self, modules_up_to_64):
        rng = random.Random(12)
        for mod in modules_up_to_64:
            n, orders = mod.size, mod.orders
            for count in (1, 1, 2, 3):
                seeds = [rng.randrange(n) for _ in range(count)]
                for actions in ((), mod.actions):
                    assert pure.closure(orders, actions, seeds) == \
                        reference_closure(orders, actions, seeds), \
                        (orders, actions, seeds)

    def test_invariant_core_matches_the_elementwise_reference(
            self, modules_up_to_64):
        rng = random.Random(13)
        for mod in modules_up_to_64:
            n, orders = mod.size, mod.orders
            for count in (1, 2):
                sub = pure.closure(orders, (),
                                   [rng.randrange(n) for _ in range(count)])
                for mask in (sub, rng.getrandbits(n) | 1):
                    assert pure.invariant_core(orders, mod.actions, mask) == \
                        reference_invariant_core(orders, mod.actions, mask)


def test_one_min_cover_for_both_backends():
    assert _kernels.min_cover is pure.min_cover
    assert _kernels.BACKEND == "pure"
    for name in ("translate", "closure", "invariant_core"):
        assert getattr(_kernels, name) is getattr(pure, name)


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


@pytest.mark.parametrize("plain_nodes", [0, 3])
def test_symmetric_search_matches_bruteforce(monkeypatch, plain_nodes):
    # plain_nodes 0 searches with the symmetries from the root; 3 restarts
    # after a few plain nodes with whatever upper bound they found
    monkeypatch.setattr(pure, "_PLAIN_NODES", plain_nodes)
    overshoots = 0
    for universe, candidates, gens in rotation_instances(11, 60):
        calls = []
        got = pure.min_cover(universe, candidates,
                             symmetries=lambda: calls.append(1) or gens)
        assert got == brute_min_cover(universe, candidates)
        if plain_nodes == 0:
            assert calls == [1]
        overshoots += pure._greedy_size(universe, candidates) > got[0]
    # instances where greedy is already optimal cannot catch over-pruning
    assert overshoots >= 5


def test_symmetries_are_fetched_only_past_the_plain_node_count():
    def refuse():
        raise AssertionError("symmetries fetched for an easy instance")
    assert pure.min_cover(0b111111, [0b000111, 0b111000, 0b010101],
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
    monkeypatch.setattr(pure, "_PLAIN_NODES", 1)
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
    monkeypatch.setattr(pure, "_PLAIN_NODES", 0)
    monkeypatch.setattr(oracle, "coset_symmetries",
                        lambda *args: fetched.append(real(*args)) or fetched[-1])
    mod = oracle.materialize(parse(spec))
    size, witness = oracle.min_submodule_cover(mod)
    candidates = oracle.maximal_submodules(mod)
    assert (size, tuple(candidates.index(s.mask) for s in witness)) \
        == brute_min_cover(mod.full_mask, candidates)
    assert pure._greedy_size(mod.full_mask, candidates) > size
    assert len(fetched) == 1 and fetched[0]


def test_search_past_its_node_budget_raises(monkeypatch):
    # the first instance past the root bound
    universe, candidates, _ = next(
        inst for inst in rotation_instances(11, 60)
        if pure._greedy_size(*inst[:2]) > pure.min_cover(*inst[:2])[0])
    monkeypatch.setattr(pure, "_NODE_BUDGET", 1)
    with pytest.raises(TooLargeError, match="the bound is 1"):
        pure.min_cover(universe, candidates)


def test_stabilizer_generators_fix_the_representative():
    universe, candidates, gens = rotation_instances(5, 1)[0]
    for rep in range(len(candidates)):
        for h in pure._stabilizer(rep, gens, len(candidates)):
            assert h[rep] == rep
            assert sorted(h) == list(range(len(candidates)))


def test_min_cover_leaves_no_cyclic_garbage(monkeypatch):
    # the recursive search closures are freed on every exit, the
    # _Unfinished one of the plain search included; this instance's plain
    # search runs past 3 nodes
    universe, candidates, gens = rotation_instances(7, 1)[0]
    restarts = []
    gc.collect()
    gc.disable()
    try:
        pure.min_cover(0b111111, [0b000111, 0b111000, 0b010101])
        monkeypatch.setattr(pure, "_PLAIN_NODES", 0)
        pure.min_cover(universe, candidates, symmetries=lambda: gens)
        monkeypatch.setattr(pure, "_PLAIN_NODES", 3)
        pure.min_cover(universe, candidates,
                       symmetries=lambda: restarts.append(1) or gens)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert restarts == [1]
