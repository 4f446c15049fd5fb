"""What a process keeps between calls: literal factorizations, checked
cyclic blocks with their reductions onto residue fields, character
kernel tables, and translation shifts and periods.

Each is a bounded functools.lru_cache holding immutable values, so a hit
returns what a fresh computation would, and an input that raises is never
kept.  Each is emptied before every test (conftest.py) or exempt below.
"""

import ast
import importlib.util
import json
import math
import os
import pkgutil
import random
import sys
import threading

import pytest

import covercalc
from covercalc import _kernels, covering, oracle, parser, rings
from covercalc.errors import SpecSemanticError, UnsupportedLiteralError
from covercalc.rings import FactoredIdeal

# caches the autouse fixture leaves alone, each with why no test needs it
# emptied
EXEMPT = {
    "covercalc.cardinal.finite": "shares the record of each small finite "
    "cardinal; no test counts its calls or patches what it skips",
}
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "covbench", "golden")

Z = rings.integers()


def parse(text):
    return parser.parse_spec(text)[1]


@pytest.fixture
def clear_blocks():
    oracle._cyclic_block.cache_clear()
    yield
    oracle._cyclic_block.cache_clear()


@pytest.mark.parametrize("spec, message", [
    ("Z: R/(0)", "zero ideal"),
    ("Zi: R/(0)", "zero ideal"),
    ("Fp[t] p=3: R/(0)", "zero ideal"),
    ("Z: R/(9223372036854775808)", "integer literals must be below"),
    ("Zi: R/(3037000500+3037000500i)", "Gaussian literals must have norm"),
])
def test_a_literal_that_fails_fails_again(spec, message):
    kept = rings._factor_literal.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SpecSemanticError, match=message):
            parse(spec)
    assert rings._factor_literal.cache_info().currsize == kept


def test_an_over_degree_polynomial_fails_again():
    kept = rings._factor_literal.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UnsupportedLiteralError, match="degree at most 62"):
            rings.factor_ideal(rings.poly_over_prime_field(2),
                               (1,) + (0,) * 62 + (1,))
    assert rings._factor_literal.cache_info().currsize == kept


def test_a_literal_is_factored_once():
    rings._factor_literal.cache_clear()
    first = rings.factor_ideal(Z, 360)
    assert rings.factor_ideal(Z, 360) is first
    poly = rings.poly_over_prime_field(3)
    # a list and a tuple name the same literal
    assert rings.factor_ideal(poly, [1, 0, 1]) is rings.factor_ideal(
        poly, (1, 0, 1))
    info = rings._factor_literal.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_factored_ideals_and_abstract_rings_bypass_the_cache():
    rings._factor_literal.cache_clear()
    ideal = rings.factor_ideal(Z, 12)
    assert rings.factor_ideal(Z, ideal) is ideal
    d = parse("local residue=4: R/(m^2) + R/(m)")
    assert d.torsion
    assert rings._factor_literal.cache_info().currsize == 1


@pytest.mark.parametrize("ring_class, spec", [
    (rings.Integers, "Z: R/(4) + R/(2)"),
    (rings.PolyRing, "Fp[t] p=2: R/(t^2+t+1) + R/(t+1)"),
])
def test_a_bad_block_is_refused_each_time(monkeypatch, clear_blocks,
                                          ring_class, spec):
    real = ring_class.cyclic_block

    def doubled_orders(self, ideal):
        # R/(2h) in place of R/(h): h does not kill it
        orders, act, basis, one = real(self, ideal)
        return [2 * o for o in orders], act, basis, one

    monkeypatch.setattr(ring_class, "cyclic_block", doubled_orders)
    d = parse(spec)
    for _ in range(2):
        with pytest.raises(AssertionError, match="does not kill summand"):
            oracle.materialize(d)
    assert oracle._cyclic_block.cache_info().currsize == 0


def test_cache_bounds_are_the_module_constants():
    assert (rings._factor_literal.cache_parameters()["maxsize"]
            == rings.FACTOR_CACHE_SIZE)
    assert (oracle._cyclic_block.cache_parameters()["maxsize"]
            == oracle.BLOCK_CACHE_SIZE)
    assert (_kernels._steps.cache_parameters()["maxsize"]
            == _kernels.STEPS_CACHE_SIZE)
    assert (oracle._kernel_table.cache_parameters()["maxsize"]
            == oracle.KERNEL_TABLE_CACHE_SIZE)


def _cache_definitions():
    """(module, function name) of every function in src/covercalc that
    carries an lru_cache or cache decorator, read from the source."""
    found = []
    for info in pkgutil.iter_modules(covercalc.__path__):
        name = f"covercalc.{info.name}"
        path = importlib.util.find_spec(name).origin
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                label = (target.attr if isinstance(target, ast.Attribute)
                         else getattr(target, "id", None))
                if label in ("lru_cache", "cache"):
                    found.append((name, node.name))
    return found


def test_every_cache_is_emptied_before_each_test_or_exempt(empty_caches):
    definitions = _cache_definitions()
    assert len(definitions) >= 6
    emptied = set(map(id, empty_caches))
    for module, function in definitions:
        # module level, so the fixture can reach it
        cache = getattr(importlib.import_module(module), function)
        assert hasattr(cache, "cache_clear"), (module, function)
        qualified = f"{module}.{function}"
        assert (id(cache) in emptied) != (qualified in EXEMPT), qualified
    # the fixture empties only caches, each of them once
    assert len(emptied) == len(empty_caches) == len(definitions) - len(EXEMPT)
    assert all(cache.cache_info().currsize == 0 for cache in empty_caches)
    assert set(EXEMPT) <= {f"{m}.{f}" for m, f in definitions}


def test_cached_steps_are_the_uncached_ones():
    # random orders and elements, more of them than the cache holds, each
    # asked twice: a hit returns what a fresh computation would, as a tuple
    rng = random.Random(3)
    keys = []
    while len(set(keys)) <= _kernels.STEPS_CACHE_SIZE:
        orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        size = 1
        for d in orders:
            size *= d
        keys.append((orders, rng.randrange(size)))
    for orders, g in keys + keys[::-1]:
        steps = _kernels._steps(orders, g)
        assert steps == _kernels._steps.__wrapped__(orders, g)
        assert _is_frozen(steps)
    info = _kernels._steps.cache_info()
    assert info.hits > 0
    assert info.currsize == _kernels.STEPS_CACHE_SIZE


def _is_frozen(value) -> bool:
    """Tuples all the way down to the ints."""
    if isinstance(value, tuple):
        return all(map(_is_frozen, value))
    return isinstance(value, int)


@pytest.mark.parametrize("spec", [
    "Z: R/(8) + R/(3)", "Zi: R/(3)^2 + R/(2+i)", "Zi: R/(2i)",
    "Fp[t] p=3: R/(t^2+1)^2 + R/(t)",
])
def test_cached_blocks_and_tables_are_tuples(clear_blocks, spec):
    d = parse(spec)
    mod = oracle.materialize(d)
    for ideal, _ in d.torsion:
        block = oracle._cyclic_block(d.ring, ideal)
        info = block.summands[0]
        assert _is_frozen(block.orders) and _is_frozen(info.one)
        assert block.action is None or _is_frozen(block.action)
        assert _is_frozen(info.basis)
        # one reduction per maximal ideal above the ideal, onto R/m as a
        # module without summand data
        assert isinstance(info.reductions, tuple)
        assert [m for m, _, _ in info.reductions] == [
            m for m, _ in ideal.factors]
        for m, field, codes in info.reductions:
            assert field.summands == () and _is_frozen(field.orders)
            assert field.action is None or _is_frozen(field.action)
            assert field.size == m.residue_card.finite_value
            assert _is_frozen(codes) and len(codes) == len(info.basis)
    assert mod.summands[0].reductions == oracle._cyclic_block(
        d.ring, d.torsion[0][0]).summands[0].reductions


# F_9 and F_4 with two summands each, and F_3 through a square: a warm
# call reads each summand's reduction from its block as materialize left it
@pytest.mark.parametrize("spec", ["Zi: R/(3) + R/(3)",
                                  "Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)",
                                  "Fp[t] p=3: R/(t) + R/(t^2)"])
def test_warm_maximal_submodules_calls_encode_nothing(monkeypatch,
                                                     clear_blocks, spec):
    mod = oracle.materialize(parse(spec))
    first = oracle.maximal_submodules(mod)
    calls, real = [], oracle.FiniteModule.encode_ring_element
    monkeypatch.setattr(oracle.FiniteModule, "encode_ring_element",
                        lambda self, *args: calls.append(args)
                        or real(self, *args))
    looked_up = oracle._cyclic_block.cache_info()
    assert oracle.maximal_submodules(mod) == first
    assert calls == []
    assert oracle._cyclic_block.cache_info() == looked_up


# each pair shares a summand: the second module is built from blocks the
# first one left behind
@pytest.mark.parametrize("first, second", [
    ("Z: R/(4) + R/(9)", "Z: R/(9)^2 + R/(4) + R/(5)"),
    ("Zi: R/(3) + R/(2i)", "Zi: R/(2i)^2 + R/(1+i) + R/(3)"),
    ("Fp[t] p=2: R/(t^2+t+1)^2", "Fp[t] p=2: R/(t) + R/(t^2+t+1)^2"),
    ("Fp[t] p=3: R/(t^2) + R/(t+1)", "Fp[t] p=3: R/(t+1) + R/(t^2)"),
])
def test_shared_blocks_build_the_same_module(clear_blocks, first, second):
    oracle.materialize(parse(first))
    warm = oracle.materialize(parse(second))
    assert oracle._cyclic_block.cache_info().hits > 0
    oracle._cyclic_block.cache_clear()
    d = parse(second)
    cold = oracle.materialize(d)
    assert warm == cold
    # the summands' blocks, and the blocks R/m their reductions are read from
    ideals = {ideal for ideal, _ in d.torsion} | {
        FactoredIdeal(((m, 1),)) for ideal, _ in d.torsion
        for m, _ in ideal.factors}
    assert oracle._cyclic_block.cache_info().currsize == len(ideals)


def test_threads_sharing_the_caches_build_equal_modules(clear_blocks):
    # the F_2[t] and Z modules of 32 elements share one kernel table
    specs = ["Zi: R/(3)^2 + R/(2i)", "Fp[t] p=2: R/(t^2+t+1)^2 + R/(t)",
             "Z: R/(8) + R/(4) + R/(3)", "Z: R/(2)^5"]
    expected = []
    for spec in specs:
        d = parse(spec)
        mod = oracle.materialize(d)
        w = covering.build_cover_witness(d)
        expected.append((mod, oracle.verify_cover_witness(mod, w),
                         oracle.maximal_submodules(mod)))
    results, errors = [], []

    def work():
        try:
            for spec in specs * 5:
                d = parse(spec)
                mod = oracle.materialize(d)
                w = covering.build_cover_witness(d)
                results.append((spec, mod, oracle.verify_cover_witness(mod, w),
                                oracle.maximal_submodules(mod)))
        except Exception as exc:   # reported by the assertions below
            errors.append(exc)

    rings._factor_literal.cache_clear()
    oracle._cyclic_block.cache_clear()
    oracle._kernel_table.cache_clear()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 6 * 5 * len(specs)
    by_spec = dict(zip(specs, expected))
    assert all(result[1:] == by_spec[result[0]] for result in results)


def _golden_modules(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as f:
        return [oracle.materialize(parse(entry["spec"]))
                for entry in json.load(f)["items"]]


def test_cached_kernel_tables_are_fresh_builds_for_every_golden_group():
    # the orders of the sigma and phi goldens, through _characters as the
    # phi oracle calls it: each table is asked twice, and the hit returns
    # what a fresh build would, as a tuple
    keys = {}
    for mod in _golden_modules("sigma") + _golden_modules("phi"):
        keys[mod.orders] = mod
    assert len(keys) >= 500
    for orders, mod in keys.items():
        for _ in range(2):
            kern, _img = oracle._characters(mod)
        info = oracle._kernel_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert kern == oracle._kernel_table.__wrapped__(orders)
        assert _is_frozen(kern)
        oracle._kernel_table.cache_clear()


def test_rings_with_equal_orders_share_one_kernel_table():
    # F_2[t] and Z[i] modules of 32 elements have the orders of (Z/2)^5:
    # one table serves the punctured candidates of all four modules, and
    # maximal_submodules, which builds one kernel per line, keeps none
    specs = ["Z: R/(2)^5", "Fp[t] p=2: R/(t^5)",
             "Fp[t] p=2: R/(t^2+t+1)^2 + R/(t)", "Zi: R/(1+i)^5"]
    for i, spec in enumerate(specs):
        mod = oracle.materialize(parse(spec))
        assert mod.orders == (2,) * 5
        oracle.maximal_submodules(mod)
        oracle.punctured_coset_candidates(mod, 0)
        info = oracle._kernel_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, i, 1)


def _table_bytes(table) -> int:
    return sys.getsizeof(table) + sum(
        sys.getsizeof(m) for m in {id(m): m for m in table}.values())


def test_kernel_tables_past_the_bit_bound_are_not_kept():
    # (Z/2)^8 holds 256 kernels of 256 bits, at the bound; (Z/2)^9 four
    # times that, rebuilt on each call and never kept
    at_bound, past = oracle.FiniteModule((2,) * 8), oracle.FiniteModule((2,) * 9)
    assert 256 * 256 == oracle.KERNEL_TABLE_BITS
    oracle._characters(past)
    assert oracle._kernel_table.cache_info().currsize == 0
    assert len(oracle._characters(at_bound)[0]) == 256
    assert oracle._kernel_table.cache_info().currsize == 1


def test_kernel_table_retention_is_bounded():
    # a table of at most KERNEL_TABLE_BITS bits has at most as many
    # characters as elements, so at most 256 masks of 256 bits: all the
    # characters of (Z/2)^8 weigh the most, and 256 of them under 5 MiB
    heaviest = _table_bytes(oracle._kernel_table((2,) * 8))
    assert oracle.KERNEL_TABLE_CACHE_SIZE * heaviest < 5 << 20
    rng = random.Random(5)
    kept = set()
    while len(kept) <= oracle.KERNEL_TABLE_CACHE_SIZE:
        orders = tuple(rng.choice((2, 3, 4, 5, 8, 9))
                       for _ in range(rng.randint(1, 4)))
        if math.prod(orders) ** 2 > oracle.KERNEL_TABLE_BITS:
            continue
        kern, _ = oracle._characters(oracle.FiniteModule(orders))
        assert _table_bytes(kern) <= heaviest
        kept.add(orders)
    assert (oracle._kernel_table.cache_info().currsize
            == oracle.KERNEL_TABLE_CACHE_SIZE)
