"""The brute-force engine: materialization, enumeration, exact covers.

Independent cross-checks: the maximal submodules are compared against
those of a join-closure method that knows nothing about generator
matrices, and the maximal submodules, the punctured coset candidates and
the lex-least sigma witness against the unrestricted references of
tests/reference.py, which list every subgroup from generator matrices.
"""

import functools
import itertools
import json
import math
import operator
import os
import tracemalloc

import pytest

from covercalc import _kernels as kernels
from covercalc import (arith, cosets, covering, fppoly, gaussian, modules,
                       oracle, parser, residues, rings)
from covercalc.cardinal import finite
from covercalc.errors import (NotCoverableError, ShapeMismatchError,
                              TooLargeError, TrivialGroupError)
from covercalc.rings import FactoredIdeal
import reference
from reference import every_avoiding_coset, replace, submodule_lattice

Z = rings.integers()


def parse(text):
    return parser.parse_spec(text)[1]


def golden_items(name):
    """The items of the benchmark's golden file covbench/golden/NAME.json."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "covbench", "golden", name + ".json")
    with open(path) as f:
        return json.load(f)["items"]


def subgroups_by_join_closure(orders):
    """All subgroups via pairwise joins of cyclic subgroups (double loop)."""
    n = 1
    for o in orders:
        n *= o
    cyclics = set()
    for x in range(n):
        cyclics.add(kernels.closure(orders, (), [x]))
    known = set(cyclics)
    while True:
        new = set()
        for a in known:
            for b in cyclics:
                if b & ~a:
                    gens = [i for i in range(n) if ((a | b) >> i) & 1]
                    j = kernels.closure(orders, (), gens)
                    if j not in known:
                        new.add(j)
        if not new:
            break
        known |= new
    return known


def block_modules(bound, over=None):
    """(spec, module) for every sum of prime-power cyclic blocks of size
    <= bound over the given rings, by default Z, Z[i], F_2[t] and F_3[t]."""
    out = []
    for ring in over or (Z, rings.gaussian_integers(),
                         rings.poly_over_prime_field(2),
                         rings.poly_over_prime_field(3)):
        blocks = []
        for m in rings.maximal_ideals_with_residue_at_most(ring, bound):
            r, n = m.residue_card.finite_value, 1
            while r ** n <= bound:
                blocks.append((FactoredIdeal.from_factors({m: n}), r ** n))
                n += 1

        def rec(start, size, chosen):
            if chosen:
                d = modules.make_descriptor(
                    ring, torsion=[(ideal, finite(1)) for ideal in chosen])
                out.append((parser.render_descriptor(d),
                            oracle.materialize(d, max_size=bound)))
            for j in range(start, len(blocks)):
                if size * blocks[j][1] <= bound:
                    chosen.append(blocks[j][0])
                    rec(j, size * blocks[j][1], chosen)
                    chosen.pop()

        rec(0, 1, [])
    return out


# block_modules builds prime-power blocks only.  These sums have a cyclic
# coordinate of composite order, or a summand with a composite annihilator.
COMPOSITE_SPECS = (
    "Z: R/(6) + R/(4)", "Z: R/(30)", "Z: R/(12) + R/(2)", "Z: R/(6) + R/(2)",
    "Z: R/(20)", "Z: R/(10) + R/(2)", "Zi: R/(3+3i)", "Zi: R/(1+3i) + R/(2)",
    "Zi: R/(2+4i)", "Zi: R/(3+i) + R/(1+i)", "Zi: R/(1+3i)",
    "Fp[t] p=2: R/(t^3+t) + R/(t+1)", "Fp[t] p=2: R/(t^4+t)",
    "Fp[t] p=3: R/(t^3-t)", "Fp[t] p=3: R/(t^2-1) + R/(t)")


def composite_modules(bound):
    """(spec, module) for each of COMPOSITE_SPECS of size <= bound."""
    mods = [(spec, oracle.materialize(parse(spec)))
            for spec in COMPOSITE_SPECS]
    return [(spec, mod) for spec, mod in mods if mod.size <= bound]


def inclusion_maximal(masks):
    """The masks contained in no other of the list."""
    return [m for m in masks if not any(m != o and (m | o) == o for o in masks)]


class TestMaterialize:
    def test_plain_z(self):
        mod = oracle.materialize(parse("Z: R/(12) + R/(18)"))
        assert sorted(mod.orders) == [12, 18]
        assert mod.action is None
        assert mod.size == 216

    def test_gaussian_ramified_square(self):
        # (1+i)^2 = 2i generates (2): the module Z[i]/(2) has 4 elements
        mod = oracle.materialize(parse("Zi: R/(2i)"))
        assert mod.size == 4
        assert sorted(mod.orders) == [2, 2]

    def test_gaussian_two_coordinates(self):
        mod = oracle.materialize(parse("Zi: R/(2)"))
        assert sorted(mod.orders) == [2, 2]
        # multiplication by i has order 4 on Z[i]/(2)? it squares to -1
        act = mod.action
        x = mod.encode([1, 0])
        ix = kernels.apply_matrix(mod.orders, act, x)
        iix = kernels.apply_matrix(mod.orders, act, ix)
        # i*i*x = -x = x mod 2
        assert iix == x

    def test_poly_companion(self):
        mod = oracle.materialize(parse("Fp[t] p=2: R/(t^2+t+1)"))
        assert mod.orders == (2, 2)
        act = mod.action
        # t annihilates nothing; t^2 + t + 1 kills every element
        for x in range(mod.size):
            tx = kernels.apply_matrix(mod.orders, act, x)
            ttx = kernels.apply_matrix(mod.orders, act, tx)
            s = [a + b + c for a, b, c in
                 zip(mod.decode(ttx), mod.decode(tx), mod.decode(x))]
            assert mod.encode(s) == 0

    def test_gaussian_annihilator_killed(self):
        mod = oracle.materialize(parse("Zi: R/(2+i)"))
        assert mod.orders == (5,)
        # multiplication by 2+i is zero on every element
        for x in range(5):
            assert oracle._scalar_action(mod, (2, 1), mod.decode(x)) == [0]

    @pytest.mark.parametrize("spec", ["Z: R/(4) + R/(3)", "Zi: R/(2+i)",
                                      "Fp[t] p=2: R/(t^2+t+1)",
                                      "Fp[t] p=3: R/(t)^2 + R/(t+1)"])
    def test_annihilator_check_raises_on_a_nonzero_image(self, spec):
        mod = oracle.materialize(parse(spec))
        oracle._check_annihilators(mod)
        # a summand read with its annihilator's prime removed, and a wrong
        # action: each leaves some basis vector with a nonzero image
        info = mod.summands[0]
        ideal = info.annihilator
        factors = dict(ideal.factors)
        prime = next(iter(factors))
        factors[prime] -= 1
        smaller = FactoredIdeal.from_factors(
            {m: e for m, e in factors.items() if e})
        broken = [replace(mod, summands=(replace(info, annihilator=smaller),)
                          + mod.summands[1:])]
        if mod.action is not None:
            k = len(mod.orders)
            broken.append(replace(mod, action=tuple(
                tuple(int(i == j) for j in range(k)) for i in range(k))))
        for bad in broken:
            with pytest.raises(AssertionError):
                oracle._check_annihilators(bad)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            oracle.materialize(parse("Z: R/(5000)"), max_size=4096)

    def test_normalized_descriptor_splits_blocks(self):
        mod = oracle.materialize(modules.normalize(parse("Z: R/(12) + R/(18)")))
        assert sorted(mod.orders) == [2, 3, 4, 9]
        assert mod.size == 216


class TestEnumeration:
    def test_klein_counts(self):
        mod = oracle.materialize(parse("Z: R/(2) + R/(2)"))
        assert len(oracle.maximal_submodules(mod)) == 3

    def test_z4_chain(self):
        mod = oracle.materialize(parse("Z: R/(4)"))
        maxi = oracle.maximal_submodules(mod)
        assert len(maxi) == 1 and maxi[0].bit_count() == 2

    def test_gaussian_invariance_filter(self):
        # of the 3 order-2 subgroups of Z[i]/(2), only (1+i)M is i-invariant,
        # and it is the one maximal submodule
        mod = oracle.materialize(parse("Zi: R/(2)"))
        (maxi,) = oracle.maximal_submodules(mod)
        img = {mod.encode(oracle._scalar_action(mod, (1, 1), mod.decode(x)))
               for x in range(mod.size)}
        assert {i for i in range(mod.size) if (maxi >> i) & 1} == img

    def test_f4_maximal_submodules_have_index_four(self):
        mod = oracle.materialize(parse("Fp[t] p=2: R/(t^2+t+1)^2"))
        maxi = oracle.maximal_submodules(mod)
        assert len(maxi) == 5
        assert all(m.bit_count() == 4 for m in maxi)

    @pytest.mark.parametrize("orders", [(2, 4), (3, 9), (4, 8), (2, 2), (9, 3),
                                        (2, 2, 2), (5, 5), (6, 4), (12,),
                                        (2, 3), (10, 2)])
    def test_subgroup_counts_match_closure_enumeration(self, orders):
        mod = z_module(orders)
        assert sorted(mod.orders) == sorted(orders)
        proper = subgroups_by_join_closure(mod.orders) - {mod.full_mask}
        assert oracle.maximal_submodules(mod) == \
            sorted(inclusion_maximal(list(proper)))

    def test_action_invariance_postcondition(self):
        for spec in ["Zi: R/(1+i)^3", "Fp[t] p=2: R/(t^2+t+1) + R/(t)",
                     "Zi: R/(2+i) + R/(1+i)"]:
            mod = oracle.materialize(parse(spec))
            for m in oracle.maximal_submodules(mod):
                assert kernels.invariant_core(mod.orders, mod.action, m) == m


class TestCharacterLevelSets:
    """The character routines behind the punctured candidates (every
    character) and maximal_submodules (one kernel per R/m-line of
    functionals), against elementwise invariant cores, the kernels of the
    residue functionals and all_subgroups."""

    @pytest.mark.parametrize("spec", ["Z: R/(4) + R/(6)", "Zi: R/(1+i)^3",
                                      "Zi: R/(2+i) + R/(3)",
                                      "Fp[t] p=2: R/(t^2+t+1) + R/(t)^2",
                                      "Fp[t] p=3: R/(t^2+1) + R/(t)",
                                      "Fp[t] p=3: R/(t)^2 + R/(t^2+1)",
                                      "Zi: R/(3) + R/(3)",
                                      "Fp[t] p=5: R/(t) + R/(t+2)",
                                      "Z: R/(12)", "Z: R/(10) + R/(2)",
                                      "Zi: R/(2+i)", "Fp[t] p=7: R/(t+3)"])
    def test_class_of_zero_is_the_core_of_the_kernel(self, spec):
        # class 0 of a character's values is its kernel, and the meets
        # along its images reach its core
        check_characters(oracle.materialize(parse(spec), max_size=256))

    @pytest.mark.parametrize("orders,top", [((4, 6), 12), ((2, 2, 4), 4),
                                            ((3, 9), 9), ((5,), 5), ((), 1)])
    def test_kernel_table_matches_elementwise_kernels(self, orders, top):
        # plain groups without an action, the trivial one too
        assert math.lcm(*orders) == top
        check_characters(oracle.FiniteModule(orders))

    @pytest.mark.parametrize("orders", [(256,), (4, 64), (6, 36),
                                        (2, 2, 50), (9, 27)])
    def test_last_coordinate_kernels_match_elementwise_kernels(self, orders):
        # the last coordinate builds the classes of x_j that class 0 meets
        top = math.lcm(*orders)
        assert list(oracle._kernel_table.__wrapped__(orders)) == [
            elementwise_kernel(orders, top, [a * (top // d) for a, d in
                                             zip(kernels.decode(orders, c),
                                                 orders)])
            for c in range(math.prod(orders))]

    def test_kernel_table_builds_only_the_classes_it_meets(self):
        # Z/4096: one class of x_0 for each divisor, not one per residue
        tracemalloc.start()
        try:
            oracle._kernel_table.__wrapped__((4096,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19

    @pytest.mark.parametrize("spec", [
        "Z: R/(3)^4", "Z: R/(9) + R/(3) + R/(25)", "Z: R/(6) + R/(4)",
        "Fp[t] p=3: R/(t)^2 + R/(t+1)", "Zi: R/(3) + R/(1+i)^2",
        "Zi: R/(3) + R/(3)", "Fp[t] p=3: R/(t^2+1) + R/(t^2+1)",
        "Fp[t] p=2: R/(t^3+t+1)^4", "Zi: R/(7) + R/(7)",
        "Zi: R/(3+3i) + R/(3)", "Fp[t] p=2: R/(t^3+t) + R/(t+1)"])
    def test_one_kernel_per_maximal_submodule(self, monkeypatch, spec):
        # (q^n - 1)/(q - 1) kernels at each maximal ideal m, q = |R/m| and
        # n the summands whose annihilator m contains, all of them kept,
        # and none from the table of every character
        mod = oracle.materialize(parse(spec))
        built, real = [], oracle._line_kernels
        monkeypatch.setattr(oracle, "_line_kernels",
                            lambda *args: built.append(real(*args)) or built[-1])
        maximal = oracle.maximal_submodules(mod)
        ideals = {m for s in mod.summands for m, _ in s.annihilator.factors}
        want = sum((q ** n - 1) // (q - 1) for m in ideals
                   for q in [m.residue_card.finite_value]
                   for n in [sum(m in dict(s.annihilator.factors)
                                 for s in mod.summands)])
        assert sum(map(len, built)) == len(maximal) == want
        assert sorted(itertools.chain(*built)) == maximal
        assert oracle._kernel_table.cache_info().currsize == 0
        if mod.size <= 1024:
            proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
            assert maximal == sorted(inclusion_maximal(proper))

    @pytest.mark.parametrize("spec", [
        "Zi: R/(3) + R/(3)", "Fp[t] p=3: R/(t^2+1) + R/(t^2+1)",
        "Fp[t] p=2: R/(t^3+t+1)^3", "Zi: R/(7) + R/(7)",
        "Zi: R/(3)^2 + R/(1+i)^2", "Fp[t] p=2: R/(t^2+t+1)^2 + R/(t)^2",
        "Zi: R/(3+3i) + R/(3)", "Zi: R/(1+3i) + R/(2)",
        "Fp[t] p=2: R/(t^3+t) + R/(t+1)", "Fp[t] p=3: R/(t^2-1) + R/(t)",
        "Fp[t] p=3: R/(t^4+2t^2+1) + R/(t^2+1)", "Z: R/(6) + R/(4)",
        "Z: R/(12) + R/(2)", "Zi: R/(7)", "Fp[t] p=2: R/(t^6+t+1)"])
    def test_kernels_are_those_of_the_residue_functionals(self, spec):
        # over q > p, composite annihilators and several summands at m
        mod = oracle.materialize(parse(spec))
        assert oracle.maximal_submodules(mod) == functional_kernels(mod)

    @pytest.mark.parametrize("spec", ["Fp[t] p=4093: R/(t)", "Zi: R/(59)",
                                      "Z: R/(61) + R/(61)"])
    def test_maximal_submodules_over_a_large_prime(self, spec):
        mod = oracle.materialize(parse(spec))
        proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
        assert oracle.maximal_submodules(mod) == \
            sorted(inclusion_maximal(proper))

    def test_maximal_submodules_match_all_subgroups_up_to_64(self):
        checked = 0
        for spec, mod in block_modules(64) + composite_modules(64):
            proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
            assert oracle.maximal_submodules(mod) == \
                sorted(inclusion_maximal(proper)), spec
            checked += 1
        assert checked >= 565

    def test_punctured_candidates_match_all_subgroups_up_to_32(self):
        checked = 0
        for spec, mod in block_modules(32) + composite_modules(32):
            # every puncture up to 16 elements or of a composite order,
            # three above
            for puncture in (range(mod.size)
                             if mod.size <= 16 or spec in COMPOSITE_SPECS
                             else {0, 1, mod.size - 1}):
                every = every_avoiding_coset(mod, puncture)
                maximal = inclusion_maximal([c[0] for c in every])
                want = [c for c in every if c[0] in maximal]
                assert oracle.punctured_coset_candidates(mod, puncture) == \
                    want, (spec, puncture)
                checked += 1
        assert checked >= 2000


def check_characters(mod):
    """Every kernel and image of oracle._characters and every core against
    the elementwise kernels, weights and invariant cores, and
    maximal_submodules against the kernels of the R/m-functionals."""
    orders, top = mod.orders, math.lcm(*mod.orders)
    # the weights w_j = c_j N/d_j of each character, by index
    chars = [tuple(a * (top // d) for a, d in
                   zip(kernels.decode(orders, c), orders))
             for c in range(mod.size)]
    kern, img = oracle._characters(mod)
    # every kernel is built, with or without an action
    want = [elementwise_kernel(orders, top, w) for w in chars]
    assert list(kern) == want
    cores = oracle._cores(kern, img)
    if mod.action is None:
        assert img is None and cores == kern
    else:
        # chi.A has the weights w A mod N
        columns = list(zip(*mod.action))
        assert [chars[i] for i in img] == [
            tuple(sum(map(operator.mul, w, col)) % top for col in columns)
            for w in chars]
        for c, kernel in enumerate(want):
            core = kernels.invariant_core(orders, mod.action, kernel)
            assert cores[c] == core, chars[c]
            # its translates partition M
            translates = {kernels.translate(orders, core, x)
                          for x in range(mod.size)}
            assert sum(m.bit_count() for m in translates) == mod.size
            assert functools.reduce(int.__or__, translates) == mod.full_mask
    check_functionals(mod)


def check_functionals(mod):
    """maximal_submodules against the kernels of the R/m-functionals,
    element by element.  A module without summand data is refused, and
    the Z-module of its orders, materialized, is checked in its place."""
    if not mod.summands:
        if mod.size > 1:
            with pytest.raises(ShapeMismatchError):
                oracle.maximal_submodules(mod)
        mod = z_module(mod.orders)
    assert oracle.maximal_submodules(mod) == functional_kernels(mod)


def z_module(orders):
    """The sum of the Z/d over the orders d, materialized (its
    coordinates in the order of its normalized descriptor)."""
    return oracle.materialize(parse(
        "Z: " + (" + ".join(f"R/({d})" for d in orders) or "0")))


def residue_tables(F):
    """The addition and multiplication tables of the residue field F,
    from the arithmetic of residues alone."""
    return ([[F.add(a, b) for b in range(F.q)] for a in range(F.q)],
            [[F.mul(a, b) for b in range(F.q)] for a in range(F.q)])


def functional_kernels(mod):
    """The kernel of sum_i c_i.pi_i for each maximal ideal m and each c
    in (R/m)^n whose first nonzero entry is 1, sorted, element by element
    from the arithmetic of residues.residue_field: pi_i(x) is the image of
    x's part in summand i, sum_k x_k r_k, r_k the residue of its basis
    element, over the n summands whose annihilator m contains."""
    out = []
    for m in {m for s in mod.summands for m, _ in s.annihilator.factors}:
        F = residues.residue_field(mod.ring, m)
        q = F.q
        add, mul = residue_tables(F)
        images = []
        for s in mod.summands:
            if s.annihilator.exponent_of(m):
                r = [F.reduce(b) for b in s.basis]
                images.append([functools.reduce(
                    lambda v, kr: add[v][mul[kr[0] % F.p][kr[1]]],
                    zip(mod.decode(x)[s.start:s.start + s.ncoords], r), 0)
                    for x in range(mod.size)])
        for c in itertools.product(range(q), repeat=len(images)):
            if any(c) and c[min(i for i, v in enumerate(c) if v)] == 1:
                values = [0] * mod.size
                for ci, pi in zip(c, images):
                    values = [add[v][mul[ci][w]] for v, w in zip(values, pi)]
                out.append(sum(1 << x for x, v in enumerate(values) if v == 0))
    return sorted(out)


def elementwise_kernel(orders, top, w):
    """Mask of {x : sum_j w_j x_j = 0 mod top}, element by element."""
    return sum(1 << x for x in range(math.prod(orders))
               if sum(wj * v for wj, v in
                      zip(w, kernels.decode(orders, x))) % top == 0)


def _bits(mask):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def test_oracle_answers_without_the_closed_form_modules(monkeypatch):
    """The oracle stays independent of the closed-form machinery: with every
    function of covering, cosets and residues raising, it materializes and
    answers both searches as before."""
    specs = ["Z: R/(2)^3", "Z: R/(6) + R/(2)", "Zi: R/(1+i)^2 + R/(1+i)",
             "Zi: R/(2+i)^2", "Fp[t] p=2: R/(t^2+t+1) + R/(t)^2",
             "Fp[t] p=2: R/(t^3+t) + R/(t+1)", "Fp[t] p=3: R/(t)^3"]
    descriptors = [parse(spec) for spec in specs]

    def answers():
        out = []
        for d in descriptors:
            mod = oracle.materialize(d)
            out.append((mod, oracle.min_submodule_cover(mod),
                        [oracle.min_coset_cover_punctured(mod, p)
                         for p in (0, mod.size - 1)]))
        return out

    def refuse(name):
        def closed_form(*args, **kwargs):
            raise AssertionError(f"the oracle called {name}")
        return closed_form

    for module in (covering, cosets, residues):
        for name, obj in vars(module).items():
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                monkeypatch.setattr(module, name, refuse(name))
    alone = answers()
    monkeypatch.undo()
    for cache in (rings._factor_literal, oracle._cyclic_block):
        cache.cache_clear()
    assert alone == answers()


class TestMinCover:
    def test_klein(self):
        mod = oracle.materialize(parse("Z: R/(2) + R/(2)"))
        size, witness = oracle.min_submodule_cover(mod)
        assert size == 3 and len(witness) == 3

    def test_cyclic_no_cover(self):
        mod = oracle.materialize(parse("Z: R/(6)"))
        assert oracle.min_submodule_cover(mod) == (None, [])

    def test_three_squared(self):
        mod = oracle.materialize(parse("Z: R/(3) + R/(3)"))
        assert oracle.min_submodule_cover(mod)[0] == 4

    def test_zero_module(self):
        mod = oracle.materialize(parse("Z: 0"))
        assert oracle.min_submodule_cover(mod) == (None, [])

    def test_maximal_restriction_sound_up_to_64(self):
        # sampled orders <= 64: covers over maximal submodules agree with
        # covers over all proper submodules
        samples = ["Z: R/(2) + R/(2)", "Z: R/(4) + R/(2)", "Z: R/(8) + R/(8)",
                   "Z: R/(3) + R/(3)", "Z: R/(9) + R/(3)", "Z: R/(2)^3",
                   "Z: R/(6) + R/(10)", "Z: R/(4) + R/(4) + R/(2)",
                   "Z: R/(5) + R/(5)", "Z: R/(7) + R/(7)", "Z: R/(12) + R/(4)",
                   "Zi: R/(1+i)^2", "Zi: R/(1+i) + R/(1+i)",
                   "Fp[t] p=2: R/(t)^2 + R/(t+1)", "Fp[t] p=2: R/(t^2+t+1)^2",
                   "Zi: R/(2+i) + R/(2+i)"]
        for spec in samples:
            mod = oracle.materialize(parse(spec), max_size=64)
            a = oracle.min_submodule_cover(mod, max_size=64)[0]
            proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
            b = kernels.min_cover(mod.full_mask, proper)[0]
            assert a == b, spec

    def test_witness_is_the_lex_least_over_all_submodules_up_to_32(self):
        # the search takes only the maximal submodules; over every proper
        # submodule the lex-least minimum cover is the same, mask for mask
        checked = 0
        for spec, mod in block_modules(32) + composite_modules(32):
            size, witness = oracle.min_submodule_cover(mod)
            proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
            want, idxs = kernels.min_cover(mod.full_mask & ~1, proper)
            assert (size, [s.mask for s in witness]) == \
                (want, [proper[i] for i in idxs]), spec
            checked += 1
        assert checked >= 293

    def test_deterministic_witness(self):
        mod = oracle.materialize(parse("Z: R/(12) + R/(18)"))
        a = oracle.min_submodule_cover(mod)
        b = oracle.min_submodule_cover(mod)
        assert a == b


class TestPuncturedCosets:
    def test_z4(self):
        mod = oracle.materialize(parse("Z: R/(4)"))
        size, witness = oracle.min_coset_cover_punctured(mod, 0)
        assert size == 2

    def test_klein(self):
        mod = oracle.materialize(parse("Z: R/(2) + R/(2)"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 2

    def test_z5(self):
        mod = oracle.materialize(parse("Z: R/(5)"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 4

    def test_trivial_rejected(self):
        mod = oracle.materialize(parse("Z: 0"))
        with pytest.raises(TrivialGroupError):
            oracle.min_coset_cover_punctured(mod, 0)

    def test_puncture_outside_m_rejected(self):
        mod = oracle.materialize(parse("Z: R/(2) + R/(2)"))
        for puncture in (-1, mod.size, 9):
            with pytest.raises(ValueError):
                oracle.min_coset_cover_punctured(mod, puncture)

    def test_restriction_cross_validated_up_to_16(self):
        specs = ["Z: R/(4)", "Z: R/(6)", "Z: R/(8)", "Z: R/(12)", "Z: R/(16)",
                 "Z: R/(2) + R/(2)", "Z: R/(4) + R/(2)", "Z: R/(9)",
                 "Z: R/(3) + R/(3)", "Z: R/(4) + R/(4)", "Z: R/(2)^3",
                 "Zi: R/(1+i)^2", "Fp[t] p=2: R/(t) + R/(t+1)"]
        for spec in specs:
            mod = oracle.materialize(parse(spec), max_size=16)
            for puncture in {0, mod.size - 1}:
                a = oracle.min_coset_cover_punctured(mod, puncture)[0]
                every = [c[0] for c in every_avoiding_coset(mod, puncture)]
                b = kernels.min_cover(mod.full_mask & ~(1 << puncture),
                                      every)[0]
                assert a == b, (spec, puncture)

    def test_every_puncture_same_count(self):
        mod = oracle.materialize(parse("Z: R/(12)"))
        counts = {oracle.min_coset_cover_punctured(mod, x)[0]
                  for x in range(mod.size)}
        assert counts == {4}


def reference_verify_lines(mod, witness):
    """A lines witness checked line by line, each element decoded and
    reduced to F again for every line (F's operations memoized)."""
    F = residues.residue_field(mod.ring, witness.ideal)
    add, mul = functools.cache(F.add), functools.cache(F.mul)
    i, j = witness.summand_pair
    red_i = [F.reduce(elem) for elem in mod.summands[i].basis]
    red_j = [F.reduce(elem) for elem in mod.summands[j].basis]

    def reduce(digits, info, red):
        acc = 0
        for c in range(info.ncoords):
            acc = add(acc, mul(digits[info.start + c] % F.p, red[c]))
        return acc

    if len(witness.line_points) != F.q + 1:
        return False
    union = 0
    for lam, mu in witness.line_points:
        line_mask = 0
        for x in range(mod.size):
            digits = mod.decode(x)
            xi = reduce(digits, mod.summands[i], red_i)
            xj = reduce(digits, mod.summands[j], red_j)
            if mul(mu, xi) == mul(lam, xj):
                line_mask |= 1 << x
        # a submodule is the closure of all of its elements
        if line_mask == mod.full_mask or kernels.closure(
                mod.orders, mod.action, list(_bits(line_mask))) != line_mask:
            return False
        union |= line_mask
    return union == mod.full_mask


def reference_verdict(mod, witness):
    """verify_cover_witness's verdict on the lines of reference.py."""
    F = residues.residue_field(mod.ring, witness.ideal)
    pts = witness.line_points
    if len(pts) != F.q + 1 or not all(0 <= c < F.q for pt in pts for c in pt):
        return False
    add, mul = residue_tables(F)
    union = 0
    for line in reference.witness_lines(mod, witness, F, add, mul):
        if line == mod.full_mask or oracle._generators(mod, line)[1] != line:
            return False
        union |= line
    return union == mod.full_mask


def lines_checked(monkeypatch, check, mod, witness):
    """(verdict, the line masks check handed to oracle._generators)."""
    seen, real = [], oracle._generators
    monkeypatch.setattr(oracle, "_generators",
                        lambda mod, mask: seen.append(mask) or real(mod, mask))
    try:
        return check(mod, witness), seen
    finally:
        monkeypatch.setattr(oracle, "_generators", real)


class TestVerifyWitness:
    def test_lines_are_the_per_element_ones_on_every_sigma_golden(
            self, monkeypatch):
        checked = 0
        for item in golden_items("sigma"):
            d = parse(item["spec"])
            if covering.sigma_integer(d) == math.inf:
                continue
            mod, w = oracle.materialize(d), covering.build_cover_witness(d)
            got = lines_checked(monkeypatch, oracle.verify_cover_witness,
                                mod, w)
            assert got[0] is True, item["spec"]
            assert got == lines_checked(monkeypatch, reference_verdict,
                                        mod, w), item["spec"]
            checked += 1
        assert checked == 473

    # F_4, F_9, and the coordinates of orders 12 and 18 read mod 2
    @pytest.mark.parametrize("spec", ["Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)",
                                      "Zi: R/(3) + R/(3)",
                                      "Z: R/(12) + R/(18)"])
    def test_tampered_lines_are_the_per_element_ones(self, monkeypatch, spec):
        d = parse(spec)
        mod, w = oracle.materialize(d), covering.build_cover_witness(d)
        _, mul = residue_tables(residues.residue_field(mod.ring, w.ideal))
        pts, q = w.line_points, len(w.line_points) - 1
        # each point replaced by a multiple of itself (the same line, or 0)
        # or of the next point (a duplicated line), and the summand pairs
        # swapped or repeated
        tampered = [replace(w, line_points=pts[:k] + (
            (mul[s][lam], mul[s][mu]),) + pts[k + 1:])
            for k in range(q + 1) for s in range(q)
            for lam, mu in (pts[k], pts[(k + 1) % (q + 1)])]
        tampered += [replace(w, summand_pair=pair)
                     for pair in [(1, 0), (0, 0), (1, 1)]]
        verdicts = set()
        for t in tampered:
            got = lines_checked(monkeypatch, oracle.verify_cover_witness,
                                mod, t)
            assert got == lines_checked(monkeypatch, reference_verdict,
                                        mod, t), (t.summand_pair,
                                                  t.line_points)
            verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_accepts_built_witnesses(self):
        for spec in ["Z: R/(2) + R/(2)", "Z: R/(12) + R/(18)",
                     "Zi: R/(1+i) + R/(1+i)", "Fp[t] p=2: R/(t^2+t+1)^2",
                     "Z: R/(9) + R/(3)"]:
            d = parse(spec)
            w = covering.build_cover_witness(d)
            mod = oracle.materialize(d)
            assert oracle.verify_cover_witness(mod, w), spec

    def test_rejects_partial_cover(self):
        d = parse("Z: R/(2) + R/(2)")
        w = covering.build_cover_witness(d)
        broken = replace(w, line_points=w.line_points[:2],
                         line_strs=w.line_strs[:2])
        mod = oracle.materialize(d)
        assert not oracle.verify_cover_witness(mod, broken)

    def test_agrees_with_the_per_line_reference_up_to_256(self):
        kinds = set()
        for spec, mod in block_modules(256):
            try:
                w = covering.build_cover_witness(parse(spec))
            except NotCoverableError:
                continue
            assert oracle.verify_cover_witness(mod, w) is True, spec
            assert reference_verify_lines(mod, w) is True, spec
            kinds.add(mod.ring.kind)
        assert len(kinds) == 3   # Z, Z[i] and F_p[t]

    @pytest.mark.parametrize("spec", [
        "Z: R/(2) + R/(2)", "Z: R/(12) + R/(18)", "Zi: R/(3) + R/(3)",
        "Fp[t] p=2: R/(t^2+t+1)^2", "Fp[t] p=3: R/(t) + R/(t^2)"])
    def test_rejects_tampered_points(self, spec):
        d = parse(spec)
        w = covering.build_cover_witness(d)
        mod = oracle.materialize(d)
        pts = w.line_points
        q = len(pts) - 1
        for bad in [(q, 1), (1, q), (-1, 1), pts[0], (0, 0)]:
            tampered = replace(w, line_points=pts[:-1] + (bad,))
            assert oracle.verify_cover_witness(mod, tampered) is False, bad

    def test_rejects_a_witness_naming_another_maximal_ideal(self):
        d = parse("Z: R/(4) + R/(4) + R/(3) + R/(3)")
        mod = oracle.materialize(d)
        w = covering.build_cover_witness(d)
        assert (w.summand_pair, str(w.ideal)) == ((0, 1), "(2)")
        other = covering.build_cover_witness(parse("Z: R/(3) + R/(3)"))
        # two lines of (Z/4)^2 read modulo 3 instead of 2
        assert not oracle.verify_cover_witness(mod, replace(w, ideal=other.ideal))
        # four lines mod 3: x_0 = x_1 mod 3 is not a subgroup of (Z/4)^2
        assert not oracle.verify_cover_witness(
            mod, replace(w, ideal=other.ideal, line_points=other.line_points))

    def test_shape_mismatch(self):
        d = parse("Z: R/(2) + R/(2)")
        w = covering.build_cover_witness(d)
        other = oracle.materialize(parse("Z: R/(4)"))
        with pytest.raises(ShapeMismatchError):
            oracle.verify_cover_witness(other, w)
        # Python would read summands 0 and 1 at indices -2 and -1
        mod = oracle.materialize(d)
        assert oracle.verify_cover_witness(mod, w)
        for pair in [(-2, -1), (0, -1), (-1, 1), (0, 2)]:
            with pytest.raises(ShapeMismatchError):
                oracle.verify_cover_witness(mod, replace(w, summand_pair=pair))

    def test_chain_witness_not_materializable(self):
        w = covering.build_cover_witness(parse("Z: Q"))
        mod = oracle.materialize(parse("Z: R/(4)"))
        with pytest.raises(ShapeMismatchError):
            oracle.verify_cover_witness(mod, w)

    def test_coset_witness_through_oracle_surface(self):
        # the oracle checks lines only; coset covers go through cosets
        from covercalc import cosets, rings
        w = cosets.build_coset_cover(rings.integers(), 4, 0)
        mod = oracle.materialize(parse("Z: R/(4)"))
        with pytest.raises(ShapeMismatchError):
            oracle.verify_cover_witness(mod, w)
        assert cosets.check_coset_cover_on(mod, w)
        wrong = oracle.materialize(parse("Z: R/(8)"))
        with pytest.raises(ShapeMismatchError):
            cosets.check_coset_cover_on(wrong, w)


class TestCosetSymmetries:
    """Every generator handed to the search is a symmetry of the instance."""

    @pytest.mark.parametrize("spec", ["Z: R/(3) + R/(3) + R/(9)",
                                      "Zi: R/(2+i) + R/(2+i)",
                                      "Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)",
                                      "Fp[t] p=2: R/(t) + R/(t) + R/(t+1)"])
    def test_generators_are_symmetries(self, spec):
        mod = oracle.materialize(parse(spec), max_size=81)
        sigmas = oracle.automorphisms(mod)
        assert len(sigmas) >= 2   # a block swap and a block shear at least
        for sigma in sigmas:
            # as a map of elements: a bijection commuting with the action
            image = [oracle.fixing_permutation(mod, sigma, 0)[x]
                     for x in range(mod.size)]
            assert sorted(image) == list(range(mod.size))
            for x in range(mod.size) if mod.action else ():
                assert image[kernels.apply_matrix(mod.orders, mod.action, x)] == \
                    kernels.apply_matrix(mod.orders, mod.action, image[x])
        for puncture in (0, 1, mod.size - 1):
            masks = [c[0] for c in
                     oracle.punctured_coset_candidates(mod, puncture)]
            perms = oracle.coset_symmetries(mod, puncture, masks)
            assert perms
            for sigma in sigmas:
                tau = oracle.fixing_permutation(mod, sigma, puncture)
                assert tau[puncture] == puncture
            for perm in perms:
                assert sorted(perm) == list(range(len(masks)))
            # each perm is the action of some fixing automorphism on the masks
            taus = [oracle.fixing_permutation(mod, s, puncture) for s in sigmas]
            images = {tuple(masks.index(_image(m, tau)) for m in masks)
                      for tau in taus
                      if all(_image(m, tau) in masks for m in masks)}
            assert set(perms) <= images

    @pytest.mark.parametrize("spec", ["Z: R/(3) + R/(3) + R/(9)",
                                      "Z: R/(2) + R/(4) + R/(4)",
                                      "Zi: R/(2+i) + R/(2+i)",
                                      "Zi: R/(1+i)^2 + R/(1+i)^2",
                                      "Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)",
                                      "Fp[t] p=2: R/(t) + R/(t) + R/(t+1)^2"])
    def test_fixing_permutation_matches_elementwise(self, spec):
        mod = oracle.materialize(parse(spec), max_size=81)
        sigmas = oracle.automorphisms(mod)
        assert sigmas
        for sigma in sigmas:
            for puncture in range(mod.size):
                p = mod.decode(puncture)
                want = []
                for x in range(mod.size):
                    d = [a - b for a, b in zip(mod.decode(x), p)]
                    want.append(mod.encode(
                        [sum(s * v for s, v in zip(row, d)) + p[r]
                         for r, row in enumerate(sigma)]))
                assert oracle.fixing_permutation(mod, sigma, puncture) == \
                    tuple(want), (sigma, puncture)

    @pytest.mark.parametrize("spec", ["Z: R/(2)^4", "Z: R/(3) + R/(9)",
                                      "Z: R/(2) + R/(4) + R/(4)",
                                      "Zi: R/(2+i) + R/(2+i)",
                                      "Fp[t] p=2: R/(t) + R/(t) + R/(t+1)^2"])
    def test_forced_symmetric_search_changes_nothing(self, monkeypatch, spec):
        mod = oracle.materialize(parse(spec), max_size=64)
        punctures = (0, 3, mod.size - 1)
        plain = [oracle.min_coset_cover_punctured(mod, p, max_size=64)
                 for p in punctures]
        monkeypatch.setattr(kernels, "_PLAIN_NODES", 0)
        forced = [oracle.min_coset_cover_punctured(mod, p, max_size=64)
                  for p in punctures]
        assert forced == plain

    def test_plain_node_budget_changes_nothing_on_the_phi_goldens(
            self, monkeypatch):
        # all 899 phi golden (module, puncture) pairs: symmetries fetched
        # at the root, or past 1, 3, the default or 500 plain nodes, give
        # the same size and witness
        pairs = [(oracle.materialize(parse(e["spec"]), max_size=e["size"]),
                  int(p), e["size"])
                 for e in golden_items("phi") for p in e["digests"]]
        assert len(pairs) == 899
        real, fetched = oracle.coset_symmetries, []
        monkeypatch.setattr(oracle, "coset_symmetries",
                            lambda *args: fetched.append(1) or real(*args))
        budgets = (0, 1, 3, kernels._PLAIN_NODES, 500)
        answers, fetches = {}, {}
        for plain in budgets:
            monkeypatch.setattr(kernels, "_PLAIN_NODES", plain)
            fetched.clear()
            answers[plain] = [
                oracle.min_coset_cover_punctured(mod, p, max_size=size)
                for mod, p, size in pairs]
            fetches[plain] = len(fetched)
        assert all(answers[plain] == answers[0] for plain in budgets)
        # each budget fetches for a different set of searches
        assert [fetches[p] for p in budgets] == sorted(
            set(fetches.values()), reverse=True), fetches

    def test_symmetries_match_the_reference_on_the_goldens(self,
                                                           monkeypatch):
        # the same permutations in the same order as the dense check and
        # the elementwise, bit by bit mapping of tests/reference.py, at
        # punctures 0 and |M|-1 of every phi golden and 0 of every sigma
        # golden; the sparse and dense checks agree on every matrix that
        # automorphisms tries
        sparse, verdicts = oracle._is_automorphism, []

        def both(mod, sigma):
            got = sparse(mod, sigma)
            assert got == reference.is_automorphism_dense(mod, sigma), sigma
            verdicts.append(got)
            return got

        monkeypatch.setattr(oracle, "_is_automorphism", both)
        instances = []
        for e in golden_items("phi"):
            mod = oracle.materialize(parse(e["spec"]), max_size=e["size"])
            for p in (0, mod.size - 1):
                masks = [c[0] for c in
                         oracle.punctured_coset_candidates(mod, p)]
                instances.append((mod, p, masks))
        for e in golden_items("sigma"):
            mod = oracle.materialize(parse(e["spec"]))
            masks = [m for m in oracle.maximal_submodules(mod)
                     if m != mod.full_mask]
            instances.append((mod, 0, masks))
        assert len(instances) == 2 * 227 + 1010
        perms = 0
        for mod, p, masks in instances:
            got = oracle.coset_symmetries(mod, p, masks)
            assert got == reference.coset_symmetries(
                mod, p, masks, oracle.automorphisms(mod)), (mod, p)
            perms += len(got)
        assert perms > 1000 and True in verdicts and False in verdicts

    @pytest.mark.parametrize("spec, sigma", [
        # x_1 += x_0 sends 2.e_0 = 0 to 2.e_1, which is not 0 mod 4
        ("Z: R/(2) + R/(4)", ((1, 0), (1, 1))),
        # an order-5 coordinate into an order-2 one, under an action
        ("Zi: R/(1+i) + R/(2+i)", ((1, 1), (0, 1))),
        # a shear between blocks whose actions differ, t and t+1 acting as
        # 0 and 1: well defined, but it does not commute with the action
        ("Fp[t] p=2: R/(t) + R/(t+1)", ((1, 1), (0, 1)))])
    def test_broken_matrices_fail_both_checks(self, spec, sigma):
        mod = oracle.materialize(parse(spec))
        assert not oracle._is_automorphism(mod, sigma)
        assert not reference.is_automorphism_dense(mod, sigma)

    # nodes of the symmetric search: a cheaper stabilizer must leave the
    # search tree as it is, and a stronger bound may only lower them.  The
    # lex-least witness pass counts its own nodes against the same budget,
    # so it runs at the default one and only the optimality proof's nodes
    # are pinned.
    @pytest.mark.parametrize("spec,puncture,nodes,answer",
                             [("Z: R/(3)^2 + R/(9)", 0, 924, 8),
                              ("Z: R/(3)^2 + R/(9)", 80, 398, 8),
                              ("Z: R/(2)^6", 0, 5, 6),
                              ("Z: R/(2)^6", 63, 5, 6)])
    def test_symmetric_search_node_count_is_pinned(self, monkeypatch, spec,
                                                   puncture, nodes, answer):
        mod = oracle.materialize(parse(spec), max_size=81)
        lex_witness, default = kernels._lex_witness, kernels._NODE_BUDGET

        def lex_at_default_budget(*args):
            with monkeypatch.context() as m:
                m.setattr(kernels, "_NODE_BUDGET", default)
                return lex_witness(*args)

        monkeypatch.setattr(kernels, "_lex_witness", lex_at_default_budget)
        monkeypatch.setattr(kernels, "_NODE_BUDGET", nodes)
        size, _ = oracle.min_coset_cover_punctured(mod, puncture, max_size=81)
        assert size == answer
        monkeypatch.setattr(kernels, "_NODE_BUDGET", nodes - 1)
        with pytest.raises(TooLargeError, match="the cover search ran out of "
                           f"nodes: the bound is {nodes - 1}"):
            oracle.min_coset_cover_punctured(mod, puncture, max_size=81)


def _image(mask, tau):
    return sum(1 << tau[x] for x in range(len(tau)) if mask >> x & 1)



def _elements_and_arithmetic(ring):
    """Sample elements of a concrete ring, its subtraction, and the
    multiplication by its generator (None over Z)."""
    if ring is Z:
        return list(range(-30, 31)), lambda x, y: x - y, None
    if ring is rings.gaussian_integers():
        elems = [(a, b) for a in range(-5, 6) for b in range(-5, 6)]
        return elems, gaussian.sub, lambda x: gaussian.mul((0, 1), x)
    p = ring.p
    return ([fppoly.from_code(v, p) for v in range(p ** 5)],
            lambda x, y: fppoly.sub(x, y, p),
            lambda x: fppoly.mul((0, 1), x, p))


def _divides(ring, h, x):
    if ring is Z:
        return x % h == 0
    if ring is rings.gaussian_integers():
        return gaussian.divides(h, x)
    return not fppoly.divmod_poly(x, h, ring.p)[1]


@pytest.mark.parametrize("spec", ["Z: R/(12)", "Zi: R/(2+2i)", "Zi: R/(3)",
                                  "Zi: R/(3+4i)", "Fp[t] p=2: R/(t^3+t)",
                                  "Fp[t] p=3: R/(t^2+1)"])
def test_ring_elements_encode_through_the_quotient_map(spec):
    """encode_ring_element sends each coordinate's basis element to that
    coordinate, is onto, identifies x and y exactly when h divides x - y,
    adds, and turns multiplication by the generator into the action."""
    ring, d = parser.parse_spec(spec)
    mod = oracle.materialize(d, max_size=64)
    info = mod.summands[0]
    for c, element in enumerate(info.basis):
        unit = [int(k == c) for k in range(len(mod.orders))]
        assert mod.encode_ring_element(0, element) == mod.encode(unit)
    h = ring.generator(info.annihilator)
    elems, sub, times_generator = _elements_and_arithmetic(ring)
    index = {x: mod.encode_ring_element(0, x) for x in elems}
    assert set(index.values()) == set(range(mod.size))
    for x, y in itertools.product(elems, repeat=2):
        assert (index[x] == index[y]) == _divides(ring, h, sub(x, y))
        total = [a + b for a, b in zip(mod.decode(index[x]), mod.decode(index[y]))]
        assert mod.encode_ring_element(0, ring.add(x, y)) == mod.encode(total)
    for x in elems if times_generator else ():
        moved = kernels.apply_matrix(mod.orders, mod.action, index[x])
        assert mod.encode_ring_element(0, times_generator(x)) == moved
