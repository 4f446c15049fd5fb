"""Punctured coset covers: counts, constructions, and oracle agreement."""

import random

import pytest

from covercalc import cosets, oracle, parser, rings
from covercalc.cardinal import finite
from covercalc.errors import (InfiniteResidueError, TrivialGroupError,
                              ZeroIdealError)
from ideals import maximal_ideal_poly, maximal_ideal_z, maximal_ideal_zi

Z = rings.integers()
ZI = rings.gaussian_integers()
F2T = rings.poly_over_prime_field(2)


def parse(text):
    return parser.parse_spec(text)[1]


class TestPhiPrime:
    def test_z_examples(self):
        assert cosets.phi_prime(Z, maximal_ideal_z(2), 2) == 2
        assert cosets.phi_prime(Z, maximal_ideal_z(5), 1) == 4

    def test_gaussian_ramified_cubed(self):
        m = maximal_ideal_zi((1, 1))
        assert cosets.phi_prime(ZI, m, 3) == 3
        # oracle on the 8-element module Z[i]/(1+i)^3 = Z[i]/(2+2i)
        mod = oracle.materialize(parse("Zi: R/(2+2i)"))
        assert mod.size == 8
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 3

    def test_infinite_residue(self):
        from covercalc.cardinal import ALEPH0
        local = rings.abstract_local(ALEPH0)
        m = rings.maximal_ideal_abstract("m", ALEPH0)
        with pytest.raises(InfiniteResidueError):
            cosets.phi_prime(local, m, 1)

    def test_abstract_finite_residue_ok(self):
        local = rings.abstract_local(finite(4))
        m = rings.maximal_ideal_abstract("m", finite(4))
        assert cosets.phi_prime(local, m, 3) == 9


class TestPhiCyclic:
    def test_twelve(self):
        assert cosets.phi_cyclic(Z, 12) == 4
        assert cosets.phi_cyclic(Z, 12) == cosets.phi_finite_abelian([12])
        mod = oracle.materialize(parse("Z: R/(12)"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 4

    def test_prime(self):
        for p in (2, 3, 5, 7, 11):
            assert cosets.phi_cyclic(Z, p) == p - 1

    def test_gaussian_split_prime(self):
        assert cosets.phi_cyclic(ZI, (2, 1)) == 4
        mod = oracle.materialize(parse("Zi: R/(2+i)"))
        assert mod.size == 5
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 4

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            cosets.phi_cyclic(Z, 0)
        with pytest.raises(TrivialGroupError):
            cosets.phi_cyclic(Z, 1)

    def test_agreement_with_szegedy(self):
        # exhaustive on a long prefix, seeded sampling across the full range
        for n in range(2, 100_000):
            assert cosets.phi_cyclic(Z, n) == cosets.phi_finite_abelian([n])
        rng = random.Random(99)
        for _ in range(5_000):
            n = rng.randint(100_000, 10 ** 6)
            assert cosets.phi_cyclic(Z, n) == cosets.phi_finite_abelian([n])


class TestPhiFiniteAbelian:
    def test_klein(self):
        assert cosets.phi_finite_abelian([2, 2]) == 2
        # brute force on the Klein group
        mod = oracle.materialize(parse("Z: R/(2) + R/(2)"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 2

    def test_mixed(self):
        assert cosets.phi_finite_abelian([2, 4, 3]) == 5
        mod = oracle.materialize(parse("Z: R/(2) + R/(4) + R/(3)"))
        assert oracle.min_coset_cover_punctured(mod, 0, max_size=24)[0] == 5

    def test_trivial(self):
        with pytest.raises(TrivialGroupError):
            cosets.phi_finite_abelian([1, 1])


class TestPhiVectorSpace:
    def test_f2_cubed_bruteforce(self):
        mod = oracle.materialize(parse("Z: R/(2)^3"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 3


class TestConjectureValue:
    def test_z_not_conjectural(self):
        m2 = maximal_ideal_z(2)
        value, conj = cosets.phi_conjecture_value(Z, [(m2, 1), (m2, 1)])
        assert value == 2 and not conj

    def test_f2t_conjectural(self):
        mt = maximal_ideal_poly(2, (0, 1))
        value, conj = cosets.phi_conjecture_value(F2T, [(mt, 1), (mt, 1)])
        assert value == 2 and conj
        mod = oracle.materialize(parse("Fp[t] p=2: R/(t)^2"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 2

    def test_gaussian_conjectural(self):
        m = maximal_ideal_zi((1, 1))
        value, conj = cosets.phi_conjecture_value(ZI, [(m, 2), (m, 1)])
        assert value == 3 and conj
        mod = oracle.materialize(parse("Zi: R/(2i) + R/(1+i)"))
        assert mod.size == 8
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 3

    def test_cyclic_not_conjectural(self):
        m = maximal_ideal_poly(2, (0, 1))
        m2 = maximal_ideal_poly(2, (1, 1))
        _, conj = cosets.phi_conjecture_value(F2T, [(m, 2), (m2, 1)])
        assert not conj


class TestBuildCosetCover:
    def test_z4_puncture0(self):
        w = cosets.build_coset_cover(Z, 4, 0)
        assert w.cosets == ((2, 1), (0, 2))
        assert cosets.verify_coset_cover(w)

    def test_z4_puncture1(self):
        w = cosets.build_coset_cover(Z, 4, 1)
        assert w.cosets == ((2, 0), (0, 3))
        assert cosets.verify_coset_cover(w)

    def test_z6(self):
        w = cosets.build_coset_cover(Z, 6, 0)
        assert w.count() == 3 == cosets.phi_cyclic(Z, 6)
        assert cosets.verify_coset_cover(w)
        mod = oracle.materialize(parse("Z: R/(6)"))
        assert oracle.min_coset_cover_punctured(mod, 0)[0] == 3

    def test_exactness_sample(self):
        rng = random.Random(2718)
        ns = list(range(2, 60)) + [rng.randint(60, 1000) for _ in range(40)]
        for n in ns:
            for puncture in (0, 1):
                w = cosets.build_coset_cover(Z, n, puncture % n)
                assert w.count() == cosets.phi_cyclic(Z, n)
                assert cosets.verify_coset_cover(w, max_size=max(n, 8))

    def test_every_puncture_small_range(self):
        for n in range(2, 31):
            expected = cosets.phi_cyclic(Z, n)
            for puncture in range(n):
                w = cosets.build_coset_cover(Z, n, puncture)
                assert w.count() == expected
                assert cosets.verify_coset_cover(w, max_size=max(n, 8))

    def test_gaussian_and_poly_targets(self):
        w = cosets.build_coset_cover(ZI, (2, 1), (1, 0))
        assert w.count() == 4 and cosets.verify_coset_cover(w)
        w = cosets.build_coset_cover(F2T, (1, 1, 1), (1,))
        assert w.count() == 3 and cosets.verify_coset_cover(w)
        w = cosets.build_coset_cover(F2T, (0, 1, 1), ())
        assert w.count() == 2 and cosets.verify_coset_cover(w)


class TestLocality:
    def test_equality_on_z_instances(self):
        # phi splits over the primary components on every tested Z-instance
        for orders, size in [((4, 3), 12), ((2, 2, 3), 12), ((8, 3), 24),
                             ((2, 9), 18), ((4, 5), 20)]:
            spec = "Z: " + " + ".join(f"R/({o})" for o in orders)
            mod = oracle.materialize(parse(spec))
            assert mod.size == size
            total = oracle.min_coset_cover_punctured(mod, 0, max_size=24)[0]
            assert total == cosets.phi_finite_abelian(list(orders))

    def test_inequality_on_non_z_rings(self):
        # the localization bound phi(M) >= sum of local contributions
        mod = oracle.materialize(parse("Fp[t] p=2: R/(t) + R/(t+1)"))
        whole = oracle.min_coset_cover_punctured(mod, 0)[0]
        part_t = oracle.min_coset_cover_punctured(
            oracle.materialize(parse("Fp[t] p=2: R/(t)")), 0)[0]
        part_t1 = oracle.min_coset_cover_punctured(
            oracle.materialize(parse("Fp[t] p=2: R/(t+1)")), 0)[0]
        assert whole >= part_t + part_t1
