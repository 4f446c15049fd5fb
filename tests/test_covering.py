"""Covering thresholds, classification, witnesses, and the S-set."""

import itertools
import math

import pytest

from covercalc import covering, modules, oracle, parser, rings
from covercalc.cardinal import ALEPH0, UNCOUNTABLE, finite
from covercalc.errors import (DimensionTooSmallError, HasDivisiblePartError,
                              NonEnumerableResidueError, NotCoverableError)

Z = rings.integers()


def parse(text):
    return parser.parse_spec(text)[1]


def min_subspace_cover_bruteforce(q, n, field_elems, add, mul):
    """Least number of proper subspaces covering F_q^n, by exhaustion."""
    vectors = list(itertools.product(field_elems, repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    # subspaces spanned by each subset of vectors, as bitmasks
    spans = set()
    for size in range(1, n):
        for basis in itertools.combinations(vectors[1:], size):
            span = {vectors[0]}
            frontier = [vectors[0]]
            # close under addition and scalar multiples of basis vectors
            while True:
                new = set()
                for v in span:
                    for b in basis:
                        for c in field_elems:
                            w = tuple(add(x, mul(c, y)) for x, y in zip(v, b))
                            if w not in span:
                                new.add(w)
                if not new:
                    break
                span |= new
            if len(span) < len(vectors):
                spans.add(frozenset(index[v] for v in span))
    spans = sorted(spans, key=len, reverse=True)
    universe = frozenset(range(len(vectors)))
    for k in range(1, len(spans) + 1):
        for combo in itertools.combinations(spans, k):
            if frozenset().union(*combo) == universe:
                return k
    return None


class TestNu1:
    def test_f2_plane(self):
        assert covering.nu1(finite(2), finite(2)) == finite(3)

    def test_both_infinite(self):
        assert covering.nu1(ALEPH0, ALEPH0) == ALEPH0
        assert covering.nu1(UNCOUNTABLE, ALEPH0) == ALEPH0

    def test_f4_dim3(self):
        assert covering.nu1(finite(4), finite(3)) == finite(5)

    def test_infinite_field_finite_dim(self):
        assert covering.nu1(ALEPH0, finite(2)) == ALEPH0
        assert covering.nu1(UNCOUNTABLE, finite(5)) == UNCOUNTABLE

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            covering.nu1(finite(2), finite(1))

    def test_against_bruteforce_prime_fields(self):
        for q in (2, 3, 5):
            got = covering.nu1(finite(q), finite(2)).finite_value
            brute = min_subspace_cover_bruteforce(
                q, 2, list(range(q)),
                lambda a, b, q=q: (a + b) % q,
                lambda a, b, q=q: (a * b) % q)
            assert got == brute == q + 1

    def test_against_bruteforce_gf4(self):
        # hand-rolled GF(4) = {0, 1, w, w+1} with w^2 = w + 1
        add = lambda a, b: a ^ b
        mul_table = {}
        for a in range(4):
            for b in range(4):
                # carry-less multiply then reduce by x^2 + x + 1
                prod = 0
                for bit in range(2):
                    if (b >> bit) & 1:
                        prod ^= a << bit
                if prod & 4:
                    prod ^= 0b111
                mul_table[a, b] = prod
        brute = min_subspace_cover_bruteforce(
            4, 2, list(range(4)), add, lambda a, b: mul_table[a, b])
        assert brute == covering.nu1(finite(4), finite(2)).finite_value == 5

    def test_independent_of_dimension(self):
        for q in (2, 3):
            brute3 = min_subspace_cover_bruteforce(
                q, 3, list(range(q)),
                lambda a, b, q=q: (a + b) % q,
                lambda a, b, q=q: (a * b) % q)
            assert brute3 == q + 1


class TestClassify:
    def test_cyclic(self):
        assert covering.classify(parse("Z: R/(6)")).kind == covering.CYCLIC

    def test_symbolic_prime_family(self):
        tri = covering.classify(parse("Z: primes(10, infinite)"))
        assert tri.kind == covering.COUNTABLE_NOT_FINITE

    def test_finite_threshold(self):
        tri = covering.classify(parse("Z: R/(12) + R/(18)"))
        assert tri.kind == covering.FINITE_THRESHOLD
        assert tri.q == finite(2)
        assert tri.witness_ideal.generator_str() == "2"

    def test_divisible_rejected(self):
        with pytest.raises(HasDivisiblePartError):
            covering.classify(parse("Z: Q"))

    def test_zero_module(self):
        assert covering.classify(parse("Z: 0")).kind == covering.CYCLIC


class TestSigma:
    CASES = [
        ("Z: R/(5) + R/(9) + R^1", "threshold(4)"),
        ("Z: Q", "threshold(aleph0)"),
        ("Z: R/(9) + R^1", "threshold(4)"),
        ("Z: R/(8) + R^1", "threshold(3)"),
        ("Z: R/(6)", "no-cover"),
        ("Z: 0", "no-cover"),
        ("Z: R^2", "threshold(3)"),
        ("Z: R^aleph0", "threshold(3)"),
        ("Z: primes(10, infinite)", "threshold(aleph0)"),
        ("Z: Q + R/(4) + R/(4)", "threshold(3)"),
        ("Z: Pruefer(2)", "threshold(aleph0)"),
        ("Z: Q^aleph0 + Pruefer(3)", "threshold(aleph0)"),
        ("Zi: R/(5)", "no-cover"),
        ("Zi: R/(1+i) + R/(1+i)", "threshold(3)"),
        ("Fp[t] p=2: R/(t^2+t+1)^2", "threshold(5)"),
        ("F q=2: R^2", "threshold(3)"),
        ("F q=7: R", "no-cover"),
        ("F q=aleph0: R^2", "threshold(aleph0)"),
        ("local residue=5: R/(m) + R/(m^2)", "threshold(6)"),
        ("local residue=aleph0: R/(m) + R/(m)", "threshold(aleph0)"),
        ("local residue=uncountable: R/(m)^2", "threshold(uncountable)"),
        ("dedekind {m1:aleph0, m2:aleph0} min=aleph0: R/(m1) + R",
         "upper-bound-only(aleph0)"),
        ("dedekind {m1:aleph0, m2:aleph0} min=aleph0 spectrum=finite: R/(m1) + R",
         "threshold(aleph0)"),
        ("dedekind {m1:aleph0, m2:aleph0} min=aleph0: R/(m1) + R/(m1)",
         "threshold(aleph0)"),
        ("dedekind {m1:3, m2:aleph0} min=3: R/(m1^2)^2", "threshold(4)"),
    ]

    @pytest.mark.parametrize("spec,expected", CASES)
    def test_decision_table(self, spec, expected):
        assert covering.sigma(parse(spec)).token() == expected

    def test_sigma_integer(self):
        assert covering.sigma_integer(parse("Z: R/(2) + R/(2)")) == 3
        assert covering.sigma_integer(parse("Z: R/(6)")) == math.inf
        assert covering.sigma_integer(parse("Z: Q")) == math.inf
        assert covering.sigma_integer(parse("Z: R/(9) + R/(3)")) == 4

    def test_sigma_integer_9_3_oracle(self):
        mod = oracle.materialize(parse("Z: R/(9) + R/(3)"))
        size, witness = oracle.min_submodule_cover(mod)
        assert size == 4
        smaller, _ = oracle.min_submodule_cover(mod)
        assert smaller == 4

    def test_threshold_floor(self):
        with pytest.raises(ValueError):
            covering.threshold(finite(2))


class TestSSet:
    def test_integers(self):
        out = covering.s_set(Z, 4)
        assert [parser.render_descriptor(d) for d in out] == \
            ["Z: R/(2)^2", "Z: R/(3)^2"]
        assert [parser.render_descriptor(d) for d in covering.s_set(Z, 3)] == \
            ["Z: R/(2)^2"]

    def test_no_residue_field_below_two(self):
        for ring in (Z, rings.gaussian_integers(),
                     rings.poly_over_prime_field(2)):
            assert covering.s_set(ring, 1) == []
            assert covering.s_set(ring, 2) == []

    def test_poly(self):
        out = covering.s_set(rings.poly_over_prime_field(2), 5)
        assert [parser.render_descriptor(d) for d in out] == \
            ["Fp[t] p=2: R/(t)^2", "Fp[t] p=2: R/(t+1)^2",
             "Fp[t] p=2: R/(t^2+t+1)^2"]

    def test_ladder_matches_sigma(self):
        # each plane (R/m)^2 with |R/m| = p has sigma exactly p + 1
        for d in covering.s_set(Z, 8):
            p = d.torsion[0][0].factors[0][0].data
            assert covering.sigma_integer(d) == p + 1

    def test_not_enumerable(self):
        from covercalc.errors import NotEnumerableError
        with pytest.raises(NotEnumerableError):
            covering.s_set(rings.abstract_local(finite(3)), 5)


class TestWitness:
    def test_klein_lines(self):
        w = covering.build_cover_witness(parse("Z: R/(2) + R/(2)"))
        assert w.kind == covering.LINES
        assert w.line_strs == ("(1:0)", "(0:1)", "(1:1)")
        assert w.summand_pair == (0, 1)

    def test_12_18_lines_verify(self):
        d = parse("Z: R/(12) + R/(18)")
        w = covering.build_cover_witness(d)
        assert str(w.ideal) == "(2)"
        mod = oracle.materialize(d)
        assert oracle.verify_cover_witness(mod, w)

    def test_q_chain(self):
        w = covering.build_cover_witness(parse("Z: Q"))
        assert w.kind == covering.CHAIN
        assert w.chain_kind == covering.LOCALIZATION_CHAIN

    def test_pruefer_chain(self):
        w = covering.build_cover_witness(parse("Z: Pruefer(5)"))
        assert w.chain_kind == covering.PRUEFER_CHAIN

    def test_growing_subsum(self):
        w = covering.build_cover_witness(parse("Z: primes(5, infinite)"))
        assert w.chain_kind == covering.GROWING_SUBSUM

    def test_no_cover_raises(self):
        with pytest.raises(NotCoverableError):
            covering.build_cover_witness(parse("Z: R/(6)"))

    def test_upper_bound_only_raises(self):
        d = parse("dedekind {m1:aleph0} min=aleph0: R/(m1) + R")
        with pytest.raises(NonEnumerableResidueError):
            covering.build_cover_witness(d)

    def test_abstract_symbolic_lines(self):
        d = parse("local residue=5: R/(m) + R/(m)")
        w = covering.build_cover_witness(d)
        assert w.symbolic and len(w.line_strs) == 6

    def test_divisible_part_uses_reduced_lines(self):
        w = covering.build_cover_witness(parse("Z: Q + R/(4) + R/(4)"))
        assert w.kind == covering.LINES
        assert len(w.line_strs) == 3 and not w.materializable

    def test_mixed_torsion_free_pair(self):
        w = covering.build_cover_witness(parse("Z: R/(9) + R^1"))
        assert w.summand_pair == (0, 1)
        assert len(w.line_strs) == 4


@pytest.mark.parametrize("text", [
    "Z: R/(12) + R/(18)", "Z: R/(6)", "Z: 0", "Z: R^2", "Z: R/(2)^aleph0",
    "Z: Q + R/(3)^2", "Z: Pruefer(2) + R", "Zi: R/(3)^2 + R/(1+i)",
    "local residue=aleph0: R^2", "dedekind {m1:4, m2:aleph0} min=2: R^2",
])
def test_sigma_builds_the_nc_set_once(monkeypatch, text):
    d = parse(text)
    expected = covering.sigma(d)
    calls = _count_nc_sets(monkeypatch)
    assert covering.sigma(d) == expected
    assert calls == [d]


def _count_nc_sets(monkeypatch) -> list:
    """The descriptors of every modules.nc_set call from here on."""
    calls = []
    nc_set = modules.nc_set

    def counting(x):
        calls.append(x)
        return nc_set(x)

    monkeypatch.setattr(modules, "nc_set", counting)
    return calls


@pytest.mark.parametrize("text", [
    "Z: R/(12) + R/(18)", "Zi: R/(3)^2 + R/(1+i)", "Z: R/(9) + R^1",
    "Z: Q + R/(4) + R/(4)", "Z: R/(2)^aleph0", "Z: Pruefer(2) + R",
    "local residue=5: R/(m) + R/(m)", "dedekind {m1:4, m2:aleph0} min=4: R^2",
])
def test_build_cover_witness_builds_the_nc_set_once(monkeypatch, text):
    d = parse(text)
    expected = covering.build_cover_witness(d)
    calls = _count_nc_sets(monkeypatch)
    assert covering.build_cover_witness(d) == expected
    assert calls == [d]


def test_cover_command_builds_the_nc_set_twice(monkeypatch, capsys):
    from covercalc import cli
    calls = _count_nc_sets(monkeypatch)
    assert cli.main(["cover", "Z: R/(12) + R/(18)", "--check", "--json"]) == 0
    assert '"witness_checked": true' in capsys.readouterr().out
    # once for the answer and its NC set, once for the witness
    assert len(calls) == 2


class TestEquivalences:
    def test_threshold_matches_quotient_criterion(self):
        # sigma finite exactly when some residue n-1 ideal has two summands
        # localizing nonzero, and none smaller does
        import random
        rng = random.Random(3)
        for _ in range(40):
            ns = [rng.randint(2, 20) for _ in range(rng.randint(1, 3))]
            d = parse("Z: " + " + ".join(f"R/({n})" for n in ns))
            s = covering.sigma_integer(d)
            nc = modules.nc_set(d)
            if s == math.inf:
                assert nc.is_empty
            else:
                residues = sorted(m.data for m in nc.ideals)
                assert residues[0] == s - 1

    def test_monotone_threshold_vs_oracle(self):
        # oracle finds a cover of the threshold size and none smaller
        for spec in ["Z: R/(2) + R/(2)", "Z: R/(3)^2", "Z: R/(12) + R/(18)",
                     "Z: R/(9) + R/(3)", "Z: R/(5)^2"]:
            d = parse(spec)
            kappa = covering.sigma_integer(d)
            mod = oracle.materialize(d)
            size, witness = oracle.min_submodule_cover(mod)
            assert size == kappa
            assert len(witness) == kappa

    def test_sigma_vs_oracle_all_small_non_z_modules(self):
        # every Z[i]- and F_2[t]-module that is a sum of prime-power blocks
        # of materialized size <= 32
        from covercalc.cardinal import finite
        from covercalc.modules import make_descriptor
        from covercalc.rings import FactoredIdeal
        for ring in (rings.gaussian_integers(), rings.poly_over_prime_field(2)):
            prims = rings.maximal_ideals_with_residue_at_most(ring, 32)
            blocks = []
            for m in prims:
                r = m.residue_card.finite_value
                n = 1
                while r ** n <= 32:
                    blocks.append((m, n, r ** n))
                    n += 1
            stack = [(0, 1, [])]
            while stack:
                i, prod, chosen = stack.pop()
                if chosen:
                    torsion = [(FactoredIdeal.from_factors({m: n}), finite(1))
                               for m, n in chosen]
                    d = make_descriptor(ring, torsion=torsion)
                    mod = oracle.materialize(d, max_size=32)
                    size, _ = oracle.min_submodule_cover(mod, max_size=32)
                    got = math.inf if size is None else size
                    assert got == covering.sigma_integer(d), chosen
                for j in range(i, len(blocks)):
                    m, n, sz = blocks[j]
                    if prod * sz <= 32:
                        stack.append((j, prod * sz, chosen + [(m, n)]))
