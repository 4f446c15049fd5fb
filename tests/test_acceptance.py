"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import signal
import time

import pytest

from covercalc import (cosets, covering, monoids, oracle, parser, rings, snf)
from covercalc.cardinal import finite
from covercalc.modules import make_descriptor
from covercalc.rings import FactoredIdeal
from reference import matmul


def _report(number, label, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:>2}: PASS  {label}  ({elapsed:.2f}s)")


def partitions(n):
    def gen(n, maxp):
        if n == 0:
            yield []
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in gen(n - p, p):
                yield [p] + rest
    yield from gen(n, n)


def abelian_types(bound):
    """Cyclic prime-power orders of every abelian group of order 2..bound."""
    out = []
    for n in range(2, bound + 1):
        fac = {}
        m, d = n, 2
        while d * d <= m:
            while m % d == 0:
                fac[d] = fac.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            fac[m] = fac.get(m, 0) + 1
        types = [[]]
        for p, e in fac.items():
            types = [t + [p ** x for x in part]
                     for t in types for part in partitions(e)]
        out.extend(types)
    return out


def z_descriptor(orders):
    return parser.parse_spec("Z: " + " + ".join(f"R/({q})" for q in orders))[1]


def least_prime_factor(n):
    return min(p for p in range(2, n + 1) if n % p == 0)


def test_criterion_01_sigma_vs_oracle_up_to_100():
    started = time.perf_counter()
    types = abelian_types(100)
    assert len(types) >= 90
    for orders in types:
        d = z_descriptor(orders)
        mod = oracle.materialize(d)
        size, _ = oracle.min_submodule_cover(mod)
        got = math.inf if size is None else size
        formula = covering.sigma_integer(d)
        counts = {}
        for q in orders:
            p = least_prime_factor(q)
            counts[p] = counts.get(p, 0) + 1
        repeated = [p for p, c in counts.items() if c >= 2]
        expected = min(repeated) + 1 if repeated else math.inf
        assert got == formula == expected, (orders, got, formula, expected)
        assert (size is None) == (expected == math.inf)
    _report(1, f"sigma == oracle == q+1 on {len(types)} groups of order <= 100",
            started)


def test_criterion_02_known_constants():
    started = time.perf_counter()
    for p in (2, 3, 5):
        d = z_descriptor([p, p])
        assert covering.sigma_integer(d) == p + 1
    assert covering.sigma_integer(
        parser.parse_spec("Z: R/(5) + R/(9) + R^1")[1]) == 4
    for p, m in ((2, 3), (3, 2)):
        d = parser.parse_spec(f"Z: R/({p ** m}) + R^1")[1]
        assert covering.sigma_integer(d) == p + 1
        # lower bound on the plane quotient, oracle-checked
        plane = oracle.materialize(z_descriptor([p, p]))
        assert oracle.min_submodule_cover(plane)[0] == p + 1
    _report(2, "(Z/p)^2, Z/5+Z/9+Z, and Z/p^m + Z constants", started)


def test_criterion_03_witness_validity():
    started = time.perf_counter()
    corpus = [orders for orders in abelian_types(100)
              if covering.sigma_integer(z_descriptor(orders)) != math.inf]
    specs = ["Z: " + " + ".join(f"R/({q})" for q in orders)
             for orders in corpus]
    specs += ["Z: R/(64) + R/(64)", "Z: R/(2)^12", "Z: R/(3)^7",
              "Z: R/(12) + R/(18)", "Zi: R/(1+i) + R/(1+i)", "Zi: R/(3)^2",
              "Zi: R/(2i) + R/(1+i)", "Fp[t] p=2: R/(t^2+t+1)^2",
              "Fp[t] p=2: R/(t^4+t+1)^2", "Fp[t] p=3: R/(t^2+1)^2"]
    checked = 0
    for spec in specs:
        d = parser.parse_spec(spec)[1]
        w = covering.build_cover_witness(d)
        if w.kind != covering.LINES or not w.materializable:
            continue
        mod = oracle.materialize(d, max_size=4096)
        assert oracle.verify_cover_witness(mod, w), spec
        checked += 1
    assert checked >= len(corpus)
    _report(3, f"{checked} lines witnesses verified elementwise (<= 4096)",
            started)


def test_criterion_04_szegedy_reproduction_up_to_24():
    started = time.perf_counter()
    types = abelian_types(24)
    for orders in types:
        mod = oracle.materialize(z_descriptor(orders))
        size, _ = oracle.min_coset_cover_punctured(mod, 0, max_size=24)
        assert size == cosets.phi_finite_abelian(orders), orders
    _report(4, f"punctured oracle == sum n_i(p_i - 1) on {len(types)} groups",
            started)


def test_szegedy_sweep_up_to_64():
    # criterion 04 extended: every abelian type of order <= 64, puncture 0
    started = time.perf_counter()
    types = abelian_types(64)
    for orders in types:
        mod = oracle.materialize(z_descriptor(orders))
        size, _ = oracle.min_coset_cover_punctured(mod, 0, max_size=64)
        assert size == cosets.phi_finite_abelian(orders), orders
    elapsed = time.perf_counter() - started
    print(f"SZEGEDY SWEEP: {len(types)} groups of order <= 64 ({elapsed:.2f}s)")


class _Budget(Exception):
    pass


@pytest.mark.parametrize("spec, size, want", [("Z: R/(3)^4", 81, 8),
                                              ("Z: R/(7)^2", 49, 12)])
def test_szegedy_elementary_abelian_within_budget(spec, size, want):
    def expire(signum, frame):
        raise _Budget(f"{spec} ran past 10 s")

    mod = oracle.materialize(parser.parse_spec(spec)[1], max_size=size)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    started = time.perf_counter()
    try:
        got, witness = oracle.min_coset_cover_punctured(mod, 0, max_size=size)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert got == want == cosets.phi_finite_abelian(mod.orders)
    assert len(witness) == want
    print(f"SZEGEDY {spec}: {want} ({time.perf_counter() - started:.2f}s)")


def test_criterion_05_coset_construction_up_to_1000():
    started = time.perf_counter()
    Z = rings.integers()
    for n in range(2, 1001):
        expected = cosets.phi_cyclic(Z, n)
        for puncture in {0, 1 % n}:
            w = cosets.build_coset_cover(Z, n, puncture)
            assert w.count() == expected
            assert cosets.verify_coset_cover(w, max_size=n), (n, puncture)
    _report(5, "exact coset covers of Z/N minus a point, N <= 1000", started)


def test_criterion_06_non_z_rings():
    started = time.perf_counter()
    d = parser.parse_spec("Zi: R/(1+i) + R/(1+i)")[1]
    assert covering.sigma_integer(d) == 3
    assert oracle.min_submodule_cover(oracle.materialize(d))[0] == 3
    d = parser.parse_spec("Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)")[1]
    assert covering.sigma_integer(d) == 5
    assert oracle.min_submodule_cover(oracle.materialize(d))[0] == 5
    ZI = rings.gaussian_integers()
    assert cosets.phi_cyclic(ZI, (2, 1)) == 4
    mod = oracle.materialize(parser.parse_spec("Zi: R/(2+i)")[1])
    assert oracle.min_coset_cover_punctured(mod, 0)[0] == 4
    _report(6, "Z[i] and F_2[t] sigma and phi, oracle-verified", started)


def test_criterion_07_symbolic_infinite_cases():
    started = time.perf_counter()
    cases = [
        ("Z: Q", "threshold(aleph0)"),
        ("Z: primes(10, infinite)", "threshold(aleph0)"),
        ("Z: Q + R/(4) + R/(4)", "threshold(3)"),
        ("dedekind {m1:aleph0, m2:aleph0} min=aleph0: R/(m1) + R",
         "upper-bound-only(aleph0)"),
    ]
    for spec, expected in cases:
        d = parser.parse_spec(spec)[1]
        assert covering.sigma(d).token() == expected, spec
    # the finite-restriction companion: the reduced part of the third case
    d = parser.parse_spec("Z: R/(4) + R/(4)")[1]
    assert oracle.min_submodule_cover(oracle.materialize(d))[0] == 3
    _report(7, "infinite-case decision table (4 variants)", started)


def _block_multisets(ring, bound):
    prims = rings.maximal_ideals_with_residue_at_most(ring, bound)
    blocks = []
    for m in prims:
        r = m.residue_card.finite_value
        n = 1
        while r ** n <= bound:
            blocks.append((m, n, r ** n))
            n += 1
    out = []

    def rec(i, prod, chosen):
        if chosen:
            out.append(list(chosen))
        for j in range(i, len(blocks)):
            m, n, sz = blocks[j]
            if prod * sz <= bound:
                chosen.append((m, n))
                rec(j, prod * sz, chosen)
                chosen.pop()

    rec(0, 1, [])
    return out


def test_criterion_08_conjecture_exploration():
    started = time.perf_counter()
    findings = []
    tested = 0
    for ring in (rings.gaussian_integers(), rings.poly_over_prime_field(2)):
        for blocks in _block_multisets(ring, 32):
            torsion = [(FactoredIdeal.from_factors({m: n}), finite(1))
                       for m, n in blocks]
            d = make_descriptor(ring, torsion=torsion)
            mod = oracle.materialize(d, max_size=32)
            got, _ = oracle.min_coset_cover_punctured(mod, 0, max_size=32)
            want = sum(cosets.phi_prime(ring, m, n) for m, n in blocks)
            tested += 1
            if got != want:
                findings.append((str(ring), [(str(m), n) for m, n in blocks],
                                 got, want))
    # a mismatch is a reported counterexample, not a failure of this run
    for f in findings:
        print(f"COUNTEREXAMPLE CANDIDATE: {f}")
    assert tested >= 150
    _report(8, f"conjectured phi matched the oracle on {tested} modules; "
               f"{len(findings)} counterexample(s)", started)


def test_criterion_09_snf_random_matrices():
    started = time.perf_counter()
    Z = rings.integers()
    rng = random.Random(190)

    def det(A):
        n = len(A)
        if n == 1:
            return A[0][0]
        return sum((-1) ** j * A[0][j]
                   * det([row[:j] + row[j + 1:] for row in A[1:]])
                   for j in range(n))

    for trial in range(200):
        n = 3 if trial % 2 == 0 else 4
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag, U, V = snf.smith_normal_form(Z, A)
        UAV = matmul(Z, matmul(Z, U, A), V)
        for i in range(n):
            for j in range(n):
                assert UAV[i][j] == (diag[i] if i == j else 0)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        d = det(A)
        if d:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(d)
    _report(9, "200 random SNF instances re-multiplied exactly", started)


def test_criterion_10_monoid_partitions():
    started = time.perf_counter()
    pool = [monoids.FREE_N] + [monoids.finite_cyclic(r, n)
                               for r in range(3) for n in range(1, 4)]
    total = verified = 0
    for k in (1, 2, 3):
        for combo in itertools.product(pool, repeat=k):
            d = monoids.MonoidDescriptor(tuple(combo))
            ans = monoids.classify_monoid(d)
            total += 1
            assert ans.kind in (monoids.CYCLIC_MONOID, monoids.IS_GROUP,
                                monoids.TWO_SUBMONOIDS)
            if ans.kind == monoids.TWO_SUBMONOIDS:
                assert monoids.verify_monoid_partition(d, ans, bound=10)
                verified += 1
    _report(10, f"{total} monoid descriptors classified, "
                f"{verified} partitions verified at B=10", started)
