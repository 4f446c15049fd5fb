"""Kernel contracts, parity of the group kernels between the two
backends, and soundness of the one exact-cover search with symmetries."""

import gc
import itertools
import random

import pytest

from covercalc import _kernels
from covercalc._kernels import pure

try:
    fast = _kernels.load("c")
except Exception:
    fast = None

BACKENDS = [pure] + ([fast] if fast is not None else [])


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


@pytest.mark.parametrize("impl", BACKENDS)
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


@pytest.mark.skipif(fast is None, reason="compiled kernel not built")
class TestBackendParity:
    def test_closure_parity(self):
        rng = random.Random(8)
        for _ in range(40):
            orders = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3)))
            n = 1
            for o in orders:
                n *= o
            seeds = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
            k = len(orders)
            # a well-defined action: multiplication by an integer scalar
            c = rng.randint(0, 5)
            scalar = tuple(tuple(c if i == j else 0 for j in range(k))
                           for i in range(k))
            assert pure.closure(orders, (scalar,), seeds) == \
                fast.closure(orders, (scalar,), seeds)
            mask = rng.getrandbits(n) | 1
            assert pure.invariant_core(orders, (scalar,), mask) == \
                fast.invariant_core(orders, (scalar,), mask)


def test_one_min_cover_for_both_backends():
    assert _kernels.min_cover is pure.min_cover
    if fast is not None:
        assert not hasattr(fast, "min_cover")


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
