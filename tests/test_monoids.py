"""Cyclic-monoid sums: classification and the two-part partition."""

import itertools

import pytest

from covercalc import covering, monoids, parser
from covercalc.errors import EmptyDescriptorError
from covercalc.monoids import FREE_N, MonoidDescriptor, finite_cyclic


def md(*summands):
    return MonoidDescriptor(tuple(summands))


def truncated_elements(d, bound):
    return itertools.product(*(range(bound + 1) if s.free
                               else range(s.index + s.period)
                               for s in d.summands))


def truncated_add(d, bound, x, y):
    """Componentwise sum, or None where a free component exceeds the bound."""
    out = []
    for s, a, b in zip(d.summands, x, y):
        v = a + b
        if s.free:
            if v > bound:
                return None
        elif v >= s.index + s.period:
            v = s.index + (v - s.index) % s.period
        out.append(v)
    return tuple(out)


def verify_partition_pairwise(d, answer, bound):
    """The partition check of monoids.verify_monoid_partition, element by
    element and pair by pair over the truncation."""
    pivot = answer.partition.pivot
    zero = tuple(0 for _ in d.summands)

    def in_part_a(x):
        return x[pivot] == 0

    def in_part_b(x):
        return x == zero or x[pivot] > 0

    elements = list(truncated_elements(d, bound))
    for x in elements:
        if not (in_part_a(x) or in_part_b(x)):
            return False
        if in_part_a(x) and in_part_b(x) and x != zero:
            return False
    for x in elements:
        for y in elements:
            s = truncated_add(d, bound, x, y)
            if s is None:
                continue
            if in_part_a(x) and in_part_a(y) and not in_part_a(s):
                return False
            if in_part_b(x) and in_part_b(y) and not in_part_b(s):
                return False
    return True


class TestClassify:
    def test_two_free(self):
        ans = monoids.classify_monoid(md(FREE_N, FREE_N))
        assert ans.kind == monoids.TWO_SUBMONOIDS
        assert ans.partition.pivot == 0

    def test_single_cyclic_group(self):
        ans = monoids.classify_monoid(md(finite_cyclic(0, 6)))
        assert ans.kind == monoids.CYCLIC_MONOID

    def test_klein_delegation(self):
        ans = monoids.classify_monoid(md(finite_cyclic(0, 2), finite_cyclic(0, 2)))
        assert ans.kind == monoids.IS_GROUP
        assert covering.sigma_integer(ans.group_descriptor) == 3

    def test_coprime_group_is_cyclic_module(self):
        ans = monoids.classify_monoid(md(finite_cyclic(0, 2), finite_cyclic(0, 3)))
        assert ans.kind == monoids.IS_GROUP
        assert covering.sigma(ans.group_descriptor).token() == "no-cover"

    def test_delegation_matches_oracle(self):
        import math
        from covercalc import oracle
        for periods in [(2, 2), (2, 4), (3, 3), (2, 3), (6, 4), (2, 2, 2)]:
            d = md(*(finite_cyclic(0, n) for n in periods))
            ans = monoids.classify_monoid(d)
            assert ans.kind == monoids.IS_GROUP
            mod = oracle.materialize(ans.group_descriptor)
            size, _ = oracle.min_submodule_cover(mod)
            got = math.inf if size is None else size
            assert got == covering.sigma_integer(ans.group_descriptor)

    def test_trivial_summands_dropped(self):
        ans = monoids.classify_monoid(md(FREE_N, finite_cyclic(0, 1)))
        assert ans.kind == monoids.CYCLIC_MONOID

    def test_empty_rejected(self):
        with pytest.raises(EmptyDescriptorError):
            monoids.classify_monoid(md())

    def test_pivot_is_least_non_group(self):
        ans = monoids.classify_monoid(
            md(finite_cyclic(0, 4), finite_cyclic(2, 3), FREE_N))
        assert ans.kind == monoids.TWO_SUBMONOIDS
        assert ans.partition.pivot == 1


class TestVerifyPartition:
    def test_two_free_exhaustive(self):
        d = md(FREE_N, FREE_N)
        ans = monoids.classify_monoid(d)
        assert monoids.verify_monoid_partition(d, ans, bound=10)

    def test_mixed_ten_elements(self):
        d = md(finite_cyclic(2, 3), finite_cyclic(0, 2))
        ans = monoids.classify_monoid(d)
        assert monoids.verify_monoid_partition(d, ans)

    def test_swapped_parts_symmetric(self):
        # partition validity does not depend on the order of the two parts
        d = md(FREE_N, finite_cyclic(0, 4))
        ans = monoids.classify_monoid(d)
        assert monoids.verify_monoid_partition(d, ans)

    def test_wrong_pivot_fails(self):
        # using a group summand as pivot breaks closure of the second part
        d = md(finite_cyclic(1, 2), finite_cyclic(0, 4))
        bad = monoids.MonoidAnswer(monoids.TWO_SUBMONOIDS,
                                   partition=monoids.MonoidPartition(1))
        assert not monoids.verify_monoid_partition(d, bad)

    def test_all_bounds(self):
        d = md(FREE_N, finite_cyclic(1, 2))
        ans = monoids.classify_monoid(d)
        for bound in range(1, 13):
            assert monoids.verify_monoid_partition(d, ans, bound=bound)


class TestExhaustiveSmall:
    def summand_pool(self):
        pool = [FREE_N]
        for r in range(0, 3):
            for n in range(1, 4):
                pool.append(finite_cyclic(r, n))
        return pool

    def test_classification_total_and_exclusive(self):
        pool = self.summand_pool()
        for k in (1, 2, 3):
            for combo in itertools.product(pool, repeat=k):
                ans = monoids.classify_monoid(md(*combo))
                assert ans.kind in (monoids.CYCLIC_MONOID, monoids.IS_GROUP,
                                    monoids.TWO_SUBMONOIDS)
                if ans.kind == monoids.TWO_SUBMONOIDS:
                    assert ans.partition is not None
                    assert ans.group_descriptor is None
                if ans.kind == monoids.IS_GROUP:
                    assert ans.group_descriptor is not None

    def test_partitions_verify_at_bound_10(self):
        pool = self.summand_pool()
        for k in (2, 3):
            for combo in itertools.product(pool, repeat=k):
                d = md(*combo)
                ans = monoids.classify_monoid(d)
                if ans.kind == monoids.TWO_SUBMONOIDS:
                    assert monoids.verify_monoid_partition(d, ans, bound=10)

    def test_class_check_agrees_with_dense_loop(self):
        pool = self.summand_pool()
        rejected = 0
        for combo in itertools.product(pool, repeat=2):
            d = md(*combo)
            ans = monoids.classify_monoid(d)
            if ans.kind != monoids.TWO_SUBMONOIDS:
                continue
            for bound in (1, 2, 4):
                fast = monoids.verify_monoid_partition(d, ans, bound=bound)
                assert fast == verify_partition_pairwise(d, ans, bound)
            # and on deliberately wrong pivots
            for pivot in range(2):
                bad = monoids.MonoidAnswer(monoids.TWO_SUBMONOIDS,
                                           partition=monoids.MonoidPartition(pivot))
                fast = monoids.verify_monoid_partition(d, bad, bound=4)
                assert fast == verify_partition_pairwise(d, bad, 4)
                rejected += not fast
        # the wrong pivots include some that the checks reject
        assert rejected > 0


class TestParse:
    def test_monoid_grammar(self):
        d = parser.parse_monoid("N + C(2,3) + C(0,4)")
        assert d.summands == (FREE_N, finite_cyclic(2, 3), finite_cyclic(0, 4))
