"""Descriptors, normalization, NC sets, q values, and presentations."""

import random

import pytest

from covercalc import covering, modules, oracle, parser, rings
from covercalc.cardinal import finite
from covercalc.errors import NotApplicableError, SpecSemanticError

Z = rings.integers()
F2T = rings.poly_over_prime_field(2)


def parse(text):
    return parser.parse_spec(text)[1]


def blocks_as_dict(norm):
    return {m.generator_str(): [(e, str(mult)) for e, mult in exps]
            for m, exps in norm.blocks}


class TestNormalize:
    def test_z_12_18(self):
        norm = modules.normalize(parse("Z: R/(12) + R/(18)"))
        assert blocks_as_dict(norm) == {"2": [(2, "1"), (1, "1")],
                                        "3": [(2, "1"), (1, "1")]}

    def test_z_6_splits(self):
        norm = modules.normalize(parse("Z: R/(6)"))
        assert blocks_as_dict(norm) == {"2": [(1, "1")], "3": [(1, "1")]}

    def test_f2t_t3_plus_t(self):
        norm = modules.normalize(parse("Fp[t] p=2: R/(t^3+t)"))
        assert blocks_as_dict(norm) == {"t": [(1, "1")], "t+1": [(2, "1")]}
        # oracle isomorphism check: same size, both 8 elements
        m1 = oracle.materialize(parse("Fp[t] p=2: R/(t^3+t)"))
        m2 = oracle.materialize(norm)
        assert m1.size == m2.size == 8
        # and identical covering behaviour
        assert oracle.min_submodule_cover(m1)[0] == oracle.min_submodule_cover(m2)[0]

    def test_idempotent(self):
        d = parse("Z: R/(12) + R/(18) + R^2")
        once = modules.normalize(d)
        assert modules.normalize(once) == once

    def test_preserves_finite_order(self):
        rng = random.Random(5)
        for _ in range(30):
            ns = [rng.randint(2, 40) for _ in range(rng.randint(1, 3))]
            d = parse("Z: " + " + ".join(f"R/({n})" for n in ns))
            norm = modules.normalize(d)
            size = 1
            for ideal, mult in norm.torsion:
                size *= ideal.quotient_size().finite_value ** mult.finite_value
            expected = 1
            for n in ns:
                expected *= n
            assert size == expected

    def test_zero_module_passes(self):
        norm = modules.normalize(parse("Z: 0"))
        assert norm.blocks == ()


SPECS = [
    "Z: R/(12) + R/(18) + R^2",
    "Z: R/(30) + R/(6)^2",
    "Z: R/(4)^aleph0 + R/(6)",
    "Z: R/(6)^2 + Q + Pruefer(2)",
    "Z: primes(5, infinite) + R/(10)",
    "Z: R", "Z: Q", "Z: Pruefer(2)", "Z: 0",
    "Zi: R/(2) + R/(1+i) + R/(3+3i)",
    "Zi: R/(3+3i) + R",
    "Fp[t] p=2: R/(t^3+t) + R/(t^2+t)",
    "Fp[t] p=3: R/(t^2+2)^aleph0 + Q",
    "local residue=5: R/(m) + R/(m^2)^2",
    "dedekind {m1:3, m2:aleph0} min=3: R/(m1^2*m2) + R/(m1)",
    "dedekind {m1:3, m2:5} min=3: R/(m1*m2)^2 + R",
]


def outcome(f, d):
    """f(d), or the class of the error it raises."""
    try:
        return f(d)
    except Exception as exc:
        return type(exc)


class TestNormalFormIsADescriptor:
    @pytest.mark.parametrize("text", SPECS)
    def test_same_type_idempotent_same_blocks(self, text):
        d = parse(text)
        norm = modules.normalize(d)
        assert isinstance(norm, modules.ModuleDescriptor)
        assert modules.normalize(norm) == norm
        assert d.blocks == norm.blocks
        assert all(len(ideal.factors) == 1 for ideal, _ in norm.torsion)

    @pytest.mark.parametrize("text", SPECS)
    def test_answers_agree(self, text):
        d = parse(text)
        norm = modules.normalize(d)
        for f in (lambda x: covering.sigma(x).token(), covering.classify,
                  modules.nc_set, modules.q_value):
            assert outcome(f, d) == outcome(f, norm)
        assert parse(parser.render_descriptor(norm)) == norm
        assert modules.normalize(parse(parser.render_descriptor(d))) == norm

    @pytest.mark.parametrize("text", [
        "Z: R/(30) + R/(6)^2", "Zi: R/(2) + R/(1+i) + R/(3+3i)",
        "Fp[t] p=2: R/(t^3+t) + R/(t^2+t)"])
    def test_oracle_agrees_on_finite_specs(self, text):
        m1 = oracle.materialize(parse(text))
        m2 = oracle.materialize(modules.normalize(parse(text)))
        assert m1.size == m2.size
        assert oracle.min_submodule_cover(m1)[0] == oracle.min_submodule_cover(m2)[0]

    @pytest.mark.parametrize("text, expected", [
        ("Z: R/(4)^2", True), ("Z: 0", True), ("Z: R", False), ("Z: Q", False),
        ("Z: Pruefer(2)", False), ("Z: R/(2)^aleph0", False),
        ("Z: primes(5, infinite)", False)])
    def test_is_finite_torsion(self, text, expected):
        assert parse(text).is_finite_torsion is expected


class TestNCSet:
    def test_spec_example(self):
        nc = modules.nc_set(parse("Z: R/(5) + R/(9) + R^1"))
        assert [m.generator_str() for m in nc.ideals] == ["3", "5"]

    def test_free_square(self):
        assert modules.nc_set(parse("Z: R^2")).all_maximal

    def test_single_summand_empty(self):
        assert modules.nc_set(parse("Z: R/(4)")).is_empty

    def test_field_rejected(self):
        with pytest.raises(NotApplicableError):
            modules.nc_set(parse("F q=4: R^2"))

    def test_invariant_under_normalize(self):
        for text in ["Z: R/(12) + R/(18)", "Z: R/(6) + R/(10) + R/(15)",
                     "Fp[t] p=2: R/(t^2+t) + R/(t)", "Z: R/(4)^3 + R^1"]:
            d = parse(text)
            assert modules.nc_set(modules.normalize(d)) == modules.nc_set(d)

    def test_multiplicity_counts(self):
        assert not modules.nc_set(parse("Z: R/(4)^2")).is_empty
        assert not modules.nc_set(parse("Z: R/(4)^aleph0")).is_empty

    def test_divisible_summands_excluded(self):
        d = parse("Z: Q^2 + Pruefer(2)^2 + R/(3)")
        assert modules.nc_set(d).is_empty

    def test_rank_criterion_on_finite_modules(self):
        # p is in NC(d) exactly when the materialized module has a quotient
        # (Z/p)^2, i.e. rank of M/pM is at least 2
        rng = random.Random(11)
        for _ in range(25):
            ns = [rng.randint(2, 15) for _ in range(rng.randint(1, 3))]
            d = parse("Z: " + " + ".join(f"R/({n})" for n in ns))
            mod = oracle.materialize(d)
            nc_primes = {m.data for m in modules.nc_set(d).ideals}
            for p in {2, 3, 5, 7, 11, 13}:
                rank = sum(1 for o in mod.orders if o % p == 0)
                assert (p in nc_primes) == (rank >= 2)


def least_q_and_ideal(d):
    """The least residue over the NC set, then the least sort_key among
    the ideals that attain it (None when no ideal can be named)."""
    ring = d.ring
    nc = modules.nc_set(d)
    if nc.is_empty:
        return None, None
    if not nc.all_maximal:
        pool = list(nc.ideals)
        q = min(rings.residue_cardinality(ring, m) for m in pool)
    elif ring.kind == rings.LOCAL:
        pool = [rings.maximal_ideal_abstract(ring.label, ring.residue)]
        q = ring.residue
    elif ring.kind == rings.DEDEKIND:
        pool = [rings.maximal_ideal_abstract(lab, res) for lab, res in ring.primes]
        q = ring.min_residue
    else:
        pool = rings.maximal_ideals_with_residue_at_most(ring, 16)
        q = min(m.residue_card for m in pool)
    best = [m for m in pool if rings.residue_cardinality(ring, m) == q]
    return q, (min(best, key=lambda m: m.sort_key()) if best else None)


@pytest.mark.parametrize("text, q, ideal", [
    ("Z: R/(5) + R/(9) + R^1", "3", "(3)"),
    ("Z: R^2", "2", "(2)"),
    ("Z: R^aleph0 + R/(7)", "2", "(2)"),
    ("Z: Q + R/(3)^2 + Pruefer(2)^2", "3", "(3)"),
    ("Z: R/(4)", None, None),
    ("Z: 0", None, None),
    ("Z: primes(10, infinite) + R/(30)", "2", "(2)"),
    ("Z: primes(10, infinite) + R/(77)", "7", "(7)"),
    ("Z: primes(10, infinite) + R/(11)", "11", "(11)"),
    ("Zi: R^2", "2", "(1+i)"),
    ("Zi: R/(5) + R/(2+i)", "5", "(2+i)"),
    ("Zi: R/(5)^2", "5", "(2+i)"),
    ("Zi: R/(3)^2 + R/(5)^2", "5", "(2+i)"),
    ("Fp[t] p=3: R^3", "3", "(t)"),
    ("Fp[t] p=2: R/(t^2+t+1)^2 + R/(t^3+t+1)^2", "4", "(t^2+t+1)"),
    ("Fp[t] p=2: R/(t^3+t^2+1)^2 + R/(t^3+t+1)^2", "8", "(t^3+t+1)"),
    ("local residue=4: R/(m)^2", "4", "(m)"),
    ("local residue=aleph0: R^2", "aleph0", "(m)"),
    ("dedekind {m1:3, m2:5} min=3: R/(m1*m2)^2 + R", "3", "(m1)"),
    ("dedekind {m2:5, m1:5} min=5: R/(m2)^2 + R/(m1)^2", "5", "(m1)"),
    ("dedekind {m1:4, m2:9} min=4: R^2", "4", "(m1)"),
    ("dedekind {m1:4, m2:aleph0} min=2: R^2", "2", None),
    ("dedekind {m1:aleph0} min=aleph0: R/(m1)^2", "aleph0", "(m1)"),
])
def test_nc_set_carries_q_and_its_least_ideal(text, q, ideal):
    d = parse(text)
    nc = modules.nc_set(d)
    assert (nc.q, nc.ideal) == least_q_and_ideal(d)
    assert (None if nc.q is None else str(nc.q)) == q
    assert (None if nc.ideal is None else str(nc.ideal)) == ideal
    assert modules.q_value(d) == nc.q


class TestQValue:
    def test_spec_example(self):
        assert modules.q_value(parse("Z: R/(5) + R/(9) + R^1")) == finite(3)

    def test_free_square(self):
        assert modules.q_value(parse("Z: R^2")) == finite(2)

    def test_f4_plane(self):
        assert modules.q_value(
            parse("Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)")) == finite(4)

    def test_undefined(self):
        assert modules.q_value(parse("Z: R/(4)")) is None

    def test_monotone_under_submultisets(self):
        rng = random.Random(13)
        for _ in range(40):
            ns = [rng.randint(2, 60) for _ in range(rng.randint(2, 4))]
            d = parse("Z: " + " + ".join(f"R/({n})" for n in ns))
            q = modules.q_value(d)
            if q is None:
                continue
            for cut in range(len(ns)):
                sub = ns[:cut] + ns[cut + 1:]
                if not sub:
                    continue
                d2 = parse("Z: " + " + ".join(f"R/({n})" for n in sub))
                q2 = modules.q_value(d2)
                if q2 is not None:
                    assert q2 >= q


class TestDescriptorValidation:
    def test_unit_torsion_rejected(self):
        with pytest.raises(SpecSemanticError):
            modules.make_descriptor(Z, torsion=((rings.factor_ideal(Z, 1), finite(1)),))

    def test_field_folds_q_into_free(self):
        d = parse("F q=4: Q^2 + R")
        assert d.free_rank == finite(3) and d.field_copies == finite(0)

    def test_divisible_needs_pid(self):
        ded = "dedekind {m1:3} min=3"
        with pytest.raises(SpecSemanticError):
            parser.parse_spec(ded + ": Q^1")

    def test_tail_needs_pure_torsion(self):
        with pytest.raises(SpecSemanticError):
            parser.parse_spec("Z: primes(5, infinite) + R^1")


class TestPresentation:
    def test_diagonal(self):
        # invariant factors of diag(2, 3) are (1, 6); same module as Z/2 + Z/3
        d = modules.descriptor_from_presentation(Z, [[2, 0], [0, 3]])
        assert modules.normalize(d) == modules.normalize(parse("Z: R/(2) + R/(3)"))

    def test_snf_example_with_free(self):
        d = modules.descriptor_from_presentation(Z, [[2, 4], [6, 8]], ncols_free=1)
        assert d == parse("Z: R/(2) + R/(4) + R")

    def test_unit_factor_gives_zero_module(self):
        d = modules.descriptor_from_presentation(Z, [[1]])
        assert d.is_zero

    def test_zero_column_gives_free(self):
        d = modules.descriptor_from_presentation(Z, [[0, 0], [0, 3]])
        assert d == parse("Z: R/(3) + R")

    def test_more_rows_than_columns(self):
        d = modules.descriptor_from_presentation(Z, [[2], [0]])
        assert d == parse("Z: R/(2) + R")

    def test_poly_presentation(self):
        t = (0, 1)
        d = modules.descriptor_from_presentation(F2T, [[t, ()], [(), (0, 1, 1)]])
        assert d == parse("Fp[t] p=2: R/(t) + R/(t^2+t)")
