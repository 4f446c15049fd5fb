"""Ring adapters: factorization, residues, and prime enumeration.

Derived expectations are recomputed here by independent brute force:
residue counts over Z[i] by grid classification under exact divisibility,
irreducible polynomials by root/product elimination, Gaussian primes by
exhaustive norm search.
"""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercalc import (arith, cardinal, fppoly, gaussian, parser, residues,
                       rings)
from covercalc.cardinal import ALEPH0, UNCOUNTABLE, finite
from covercalc.errors import (NotApplicableError, NotEnumerableError,
                              UnknownIdealError, UnsupportedLiteralError,
                              ZeroIdealError)
from ideals import maximal_ideal_poly, maximal_ideal_z, maximal_ideal_zi

Z = rings.integers()
ZI = rings.gaussian_integers()
F2T = rings.poly_over_prime_field(2)
F3T = rings.poly_over_prime_field(3)
F5T = rings.poly_over_prime_field(5)


def gauss_residue_count_bruteforce(pi):
    """|Z[i]/(pi)| by classifying a grid of representatives."""
    n = gaussian.norm(pi)
    pts = [(a, b) for a in range(-2 * n, 2 * n + 1)
           for b in range(-2 * n, 2 * n + 1)]
    classes = []
    for z in pts[:400]:
        if not any(gaussian.divides(pi, gaussian.sub(z, w)) for w in classes):
            classes.append(z)
    return len(classes)


def irreducibles_bruteforce(p, max_deg):
    """Monic irreducibles over F_p of degree <= max_deg by trial products."""
    monics = []
    for d in range(1, max_deg + 1):
        monics.extend(f for f in fppoly.monic_polys_of_degree(d, p))
    out = []
    for f in monics:
        reducible = False
        for g in monics:
            if 0 < fppoly.deg(g) < fppoly.deg(f) and not fppoly.divmod_poly(f, g, p)[1]:
                reducible = True
                break
        if not reducible:
            out.append(f)
    return out


def factors_as_dict(ideal):
    return {m.generator_str(): e for m, e in ideal.factors}


class TestFactorIdeal:
    def test_integer_360(self):
        assert factors_as_dict(rings.factor_ideal(Z, 360)) == {"2": 3, "3": 2, "5": 1}

    def test_poly_t3_plus_t(self):
        # t^3 + t = t*(t+1)^2 over F_2
        ideal = rings.factor_ideal(F2T, (0, 1, 0, 1))
        assert factors_as_dict(ideal) == {"t": 1, "t+1": 2}

    def test_gaussian_five_splits(self):
        ideal = rings.factor_ideal(ZI, 5)
        assert factors_as_dict(ideal) == {"2+i": 1, "2-i": 1}
        for m, _ in ideal.factors:
            assert gauss_residue_count_bruteforce(m.data) == 5
        prod = gaussian.mul((2, 1), (2, -1))
        assert prod == (5, 0)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            rings.factor_ideal(Z, 0)
        with pytest.raises(ZeroIdealError):
            rings.factor_ideal(F2T, ())

    def test_abstract_raw_literal_rejected(self):
        local = rings.abstract_local(finite(4))
        with pytest.raises(UnsupportedLiteralError):
            rings.factor_ideal(local, 8)

    def test_abstract_passthrough(self):
        ded = rings.abstract_dedekind([("m1", finite(3))], finite(3))
        m = rings.maximal_ideal_abstract("m1", finite(3))
        ideal = rings.FactoredIdeal.from_factors({m: 2})
        assert rings.factor_ideal(ded, ideal) is ideal

    @given(st.integers(min_value=2, max_value=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_integer_roundtrip(self, n):
        ideal = rings.factor_ideal(Z, n)
        prod = 1
        for m, e in ideal.factors:
            prod *= m.data ** e
        assert prod == n

    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30))
    @settings(max_examples=150, deadline=None)
    def test_gaussian_roundtrip_and_norm(self, a, b):
        if (a, b) == (0, 0):
            return
        ideal = rings.factor_ideal(ZI, (a, b))
        prod = (1, 0)
        norm_prod = 1
        for m, e in ideal.factors:
            prod = gaussian.mul(prod, gaussian.power(m.data, e))
            norm_prod *= rings.residue_cardinality(ZI, m).finite_value ** e
        # equal up to a unit
        assert gaussian.divides(prod, (a, b)) and gaussian.divides((a, b), prod)
        assert norm_prod == gaussian.norm((a, b))

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_poly_roundtrip(self, coeffs):
        f = fppoly.trim(coeffs, 3)
        if fppoly.deg(f) < 1:
            return
        ideal = rings.factor_ideal(F3T, f)
        prod = fppoly.ONE
        for m, e in ideal.factors:
            prod = fppoly.mul(prod, fppoly.power(m.data, e, 3), 3)
        assert prod == fppoly.monic(f, 3)


class TestResidues:
    def test_integer(self):
        m = maximal_ideal_z(7)
        assert rings.residue_cardinality(Z, m) == finite(7)

    def test_poly_quadratic(self):
        m = maximal_ideal_poly(2, (1, 1, 1))
        # count residues of degree < 2 over F_2 directly
        assert len(list(itertools.product(range(2), repeat=2))) == 4
        assert rings.residue_cardinality(F2T, m) == finite(4)

    def test_gaussian_ramified(self):
        m = maximal_ideal_zi((1, 1))
        assert rings.residue_cardinality(ZI, m) == finite(2)
        assert gauss_residue_count_bruteforce((1, 1)) == 2

    def test_unknown_ideal(self):
        m = maximal_ideal_z(7)
        with pytest.raises(UnknownIdealError):
            rings.residue_cardinality(ZI, m)

    def test_gaussian_layer_bruteforce(self):
        # |(1+i)^2 Z[i] / (1+i)^3 Z[i]| counted directly
        pi = (1, 1)
        pi2 = gaussian.power(pi, 2)
        pi3 = gaussian.power(pi, 3)
        seen = []
        for a in range(-6, 7):
            for b in range(-6, 7):
                z = gaussian.mul(pi2, (a, b))
                if not any(gaussian.divides(pi3, gaussian.sub(z, w)) for w in seen):
                    seen.append(z)
        assert len(seen) == 2


class TestMinResidue:
    def test_examples(self):
        assert rings.min_residue_cardinality(Z) == finite(2)
        assert rings.min_residue_cardinality(ZI) == finite(2)
        assert rings.min_residue_cardinality(F5T) == finite(5)
        assert rings.min_residue_cardinality(rings.abstract_local(ALEPH0)) == ALEPH0

    def test_field_not_applicable(self):
        with pytest.raises(NotApplicableError):
            rings.min_residue_cardinality(rings.field_ring(finite(4)))

    def test_gaussian_minimum_attained_only_at_ramified(self):
        small = rings.maximal_ideals_with_residue_at_most(ZI, 4)
        assert [m.generator_str() for m in small] == ["1+i"]


class TestEnumeration:
    def test_integers(self):
        ids = rings.maximal_ideals_with_residue_at_most(Z, 4)
        assert [m.data for m in ids] == [2, 3]

    def test_poly_f2_bound4(self):
        ids = rings.maximal_ideals_with_residue_at_most(F2T, 4)
        expected = irreducibles_bruteforce(2, 2)
        assert [m.data for m in ids] == expected
        assert [m.generator_str() for m in ids] == ["t", "t+1", "t^2+t+1"]

    def test_gaussian_bound5(self):
        ids = rings.maximal_ideals_with_residue_at_most(ZI, 5)
        assert [m.generator_str() for m in ids] == ["1+i", "2+i", "2-i"]
        # exhaustive norm search over a box
        expected = set()
        for a in range(-5, 6):
            for b in range(-5, 6):
                z = (a, b)
                n = gaussian.norm(z)
                if 2 <= n <= 5:
                    try:
                        expected.add(maximal_ideal_zi(z).data)
                    except ValueError:
                        pass
        assert {m.data for m in ids} == expected

    def test_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            rings.maximal_ideals_with_residue_at_most(rings.abstract_local(finite(2)), 5)

    def test_dedekind_declared_only(self):
        ded = rings.abstract_dedekind([("a", finite(9)), ("b", finite(2))], finite(2))
        ids = rings.maximal_ideals_with_residue_at_most(ded, 8)
        assert [m.data for m in ids] == ["b"]

    @pytest.mark.parametrize("ring", [Z, ZI, F2T, F3T])
    def test_monotone_and_consistent(self, ring):
        prev = 0
        for n in range(2, 30):
            ids = rings.maximal_ideals_with_residue_at_most(ring, n)
            assert len(ids) >= prev
            prev = len(ids)
            for m in ids:
                assert rings.residue_cardinality(ring, m) <= finite(n)


ALL_KINDS = [
    Z, ZI, F2T, F3T,
    rings.field_ring(finite(4)), rings.field_ring(ALEPH0),
    rings.abstract_local(finite(5)), rings.abstract_local(ALEPH0, "p"),
    rings.abstract_dedekind([("m1", finite(3)), ("m2", ALEPH0)], finite(3)),
    rings.abstract_dedekind([("a", finite(4))], finite(2), False),
]


class TestProvenPrimesAreNotProvenAgain:
    """The sieve, the irreducible listing and factoring prove their primes;
    building the maximal ideals from them proves nothing again."""

    def test_parsing_makes_no_second_primality_proof(self, monkeypatch):
        calls = []
        for module, name in ((arith, "is_prime"), (fppoly, "is_irreducible")):
            def counting(*args, _original=getattr(module, name), _name=name):
                calls.append((_name, args))
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        _, d = parser.parse_spec("Z: primes(1000)")
        assert len(d.torsion) == 168
        _, d = parser.parse_spec("Fp[t] p=2: R/(t^5+t^2+1)^2")
        assert d.torsion[0][0].factors[0][0].residue_card == finite(32)
        assert calls == []


class TestRingKinds:
    def test_concrete_rings_are_interned(self):
        assert rings.integers() is Z
        assert rings.gaussian_integers() is ZI
        assert rings.poly_over_prime_field(2) is F2T
        assert F2T is not F3T and F2T != F3T
        for ring in (Z, ZI, F3T):
            assert parser.parse_ring(str(ring)) is ring
            assert pickle.loads(pickle.dumps(ring)) is ring
            assert copy.deepcopy(ring) is ring
        # ideals name their ring, so those of equal generators are equal
        assert rings.factor_ideal(F3T, (0, 1)).factors[0][0] == \
            maximal_ideal_poly(3, (0, 1))
        assert maximal_ideal_poly(2, (0, 1)) != \
            maximal_ideal_poly(3, (0, 1))

    @pytest.mark.parametrize("ring", ALL_KINDS, ids=str)
    def test_str_parses_back_to_an_equal_ring(self, ring):
        again = parser.parse_ring(str(ring))
        assert again == ring and hash(again) == hash(ring)
        assert type(again) is type(ring)

    def test_each_kind_holds_only_its_own_fields(self):
        fields = {type(r).__name__: sorted(vars(r)) for r in ALL_KINDS}
        assert fields == {
            "Integers": [], "GaussianIntegers": [], "PolyRing": ["p"],
            "Field": ["card"], "LocalRing": ["label", "residue"],
            "DedekindRing": ["infinite_spectrum", "min_residue", "primes"]}

    def test_abstract_ideals_carry_no_ring(self):
        ded = rings.abstract_dedekind([("m1", finite(3))], finite(3))
        m = rings.maximal_ideals_with_residue_at_most(ded, 3)[0]
        assert m.ring is None and m == rings.maximal_ideal_abstract("m1", finite(3))
        with pytest.raises(UnknownIdealError):
            rings.residue_cardinality(Z, m)
        with pytest.raises(UnknownIdealError):
            rings.residue_cardinality(ded, maximal_ideal_z(3))


def reference_reduce_code(ring, m, x) -> int:
    """The code of x mod m by a rule of each kind, independent of fppoly.mod:
    x mod p over Z; over Z[i], the r in 0..p-1 with pi | x - r when N(pi)
    = p is prime, else a + b*q for x = a + bi mod the inert q; over F_p[t],
    x reduced through the powers t^k mod f, each got from the last by
    multiplying by t and cancelling the leading term with f."""
    if ring is Z:
        return x % m.data
    if ring is ZI:
        u, v = m.data
        if v == 0:
            return x[0] % u + (x[1] % u) * u
        p = gaussian.norm(m.data)
        return next(r for r in range(p)
                    if gaussian.divides(m.data, gaussian.sub(x, (r, 0))))
    p, f = ring.p, m.data
    d = len(f) - 1
    power = [1] + [0] * (d - 1)          # t^0 mod f
    acc = [0] * d
    for c in x:
        acc = [(a + c * b) % p for a, b in zip(acc, power)]
        lead = power[-1]
        power = [0] + power[:-1]         # times t, then t^d = -(f_0 + ... )
        power = [(b - lead * fc) % p for b, fc in zip(power, f)]
    return sum(c * p ** k for k, c in enumerate(acc))


def residue_fields_up_to_81():
    for ring in (Z, ZI, F2T, F3T):
        for m in rings.maximal_ideals_with_residue_at_most(ring, 81):
            yield ring, m


def sample_elements(ring, rng):
    if ring is Z:
        return list(range(-200, 201))
    if ring is ZI:
        return [(a, b) for a in range(-9, 10) for b in range(-9, 10)] + \
            [(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-10 ** 6, 10 ** 6))
             for _ in range(50)]
    polys = [tuple(rng.randrange(-ring.p, 2 * ring.p) for _ in range(k))
             for k in range(10) for _ in range(30)]
    return polys + [(), (0,), (0, 0, 1)]


class TestResidueFieldReduce:
    @pytest.mark.parametrize("ring, m", list(residue_fields_up_to_81()),
                             ids=lambda v: str(v))
    def test_matches_the_per_kind_reference(self, ring, m):
        F = residues.residue_field(ring, m)
        assert F.q == m.residue_card.finite_value
        rng = random.Random(F.q)
        for x in sample_elements(ring, rng):
            assert F.reduce(x) == reference_reduce_code(ring, m, x), x

    def test_every_field_is_covered(self):
        counts = {}
        for ring, m in residue_fields_up_to_81():
            counts[str(ring)] = counts.get(str(ring), 0) + 1
        # the 22 primes <= 81; over Z[i], 1+i, two primes above each of
        # the 9 split p = 1 mod 4 below 81, and the inert 3 and 7; the
        # monic irreducibles of degree <= 6 over F_2 and <= 4 over F_3
        assert counts == {"Z": 22, "Zi": 21, "Fp[t] p=2": 23, "Fp[t] p=3": 32}


class TestCanonicalGaussian:
    def test_canonical_associates(self):
        assert gaussian.canonical_associate((2, -1)) == (2, -1)
        assert gaussian.canonical_associate((1, 2)) == (2, -1)
        assert gaussian.canonical_associate((-2, 1)) == (2, -1)
        assert gaussian.canonical_associate((-1, -2)) == (2, -1)
        assert gaussian.canonical_associate((1, -1)) == (1, 1)

    def test_every_nonzero_has_unique_canonical(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                if (a, b) == (0, 0):
                    continue
                cands = [gaussian.mul((a, b), u) for u in gaussian.UNITS]
                canon = [z for z in cands if z[0] >= 1 and -z[0] < z[1] <= z[0]]
                assert len(canon) == 1


class TestCardinal:
    def test_total_order(self):
        assert finite(3) < finite(5) < ALEPH0 < UNCOUNTABLE

    def test_min_attained(self):
        vals = [ALEPH0, finite(7), UNCOUNTABLE, finite(3)]
        assert min(vals) == finite(3)

    def test_successor(self):
        assert finite(4).successor() == finite(5)
        assert ALEPH0.successor() == ALEPH0

    def test_parse(self):
        assert cardinal.parse_cardinal("aleph0") == ALEPH0
        assert cardinal.parse_cardinal("12") == finite(12)
