"""What a process keeps between calls: literal factorizations, checked
cyclic blocks, residue-field tables and translation shifts.

Each is a bounded functools.lru_cache holding immutable values, so a hit
returns what a fresh computation would, and an input that raises is never
kept.
"""

import random
import sys
import threading

import pytest

from covercalc import _kernels, covering, oracle, parser, rings
from covercalc.errors import SpecSemanticError, UnsupportedLiteralError

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
    assert (oracle._residue_tables.cache_parameters()["maxsize"]
            == oracle.RESIDUE_TABLE_CACHE_SIZE)
    assert (_kernels._steps.cache_parameters()["maxsize"]
            == _kernels.STEPS_CACHE_SIZE)


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
        for m, _ in ideal.factors:
            tables = oracle._residue_tables(mod.ring, m)
            assert _is_frozen(tables) and len(tables) == 2
            q = m.residue_card.finite_value
            assert all(len(t) == q and all(len(row) == q for row in t)
                       for t in tables)


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
    assert oracle._cyclic_block.cache_info().currsize == len(d.torsion)


def test_threads_sharing_the_caches_build_equal_modules(clear_blocks):
    specs = ["Zi: R/(3)^2 + R/(2i)", "Fp[t] p=2: R/(t^2+t+1)^2 + R/(t)",
             "Z: R/(8) + R/(4) + R/(3)"]
    expected = []
    for spec in specs:
        d = parse(spec)
        mod = oracle.materialize(d)
        w = covering.build_cover_witness(d)
        expected.append((mod, oracle.verify_cover_witness(mod, w)))
    results, errors = [], []

    def work():
        try:
            for spec in specs * 5:
                d = parse(spec)
                mod = oracle.materialize(d)
                w = covering.build_cover_witness(d)
                results.append((spec, mod, oracle.verify_cover_witness(mod, w)))
        except Exception as exc:   # reported by the assertions below
            errors.append(exc)

    rings._factor_literal.cache_clear()
    oracle._cyclic_block.cache_clear()
    oracle._residue_tables.cache_clear()
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
    assert all((mod, ok) == by_spec[spec] for spec, mod, ok in results)
