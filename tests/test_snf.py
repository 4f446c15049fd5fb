"""Smith normal form over Z and F_p[t]."""

import random

import pytest

from covercalc import fppoly, rings, snf
from reference import matmul

Z = rings.integers()
F2T = rings.poly_over_prime_field(2)


def det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * det(minor)
    return total


def check_int_snf(A):
    diag, U, V = snf.smith_normal_form(Z, A)
    UA = matmul(Z, U, A)
    UAV = matmul(Z, UA, V)
    m, n = len(A), len(A[0])
    for i in range(m):
        for j in range(n):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert UAV[i][j] == expected
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    return diag


class TestIntegerSNF:
    def test_example_2x2(self):
        # independent oracle: d1 = gcd of all entries, d1*d2 = |det|
        A = [[2, 4], [6, 8]]
        diag = check_int_snf(A)
        assert diag == [2, 4]
        import math
        g = math.gcd(math.gcd(2, 4), math.gcd(6, 8))
        assert diag[0] == g
        assert diag[0] * diag[1] == abs(det(A))

    def test_identity(self):
        assert check_int_snf([[1, 0], [0, 1]]) == [1, 1]

    def test_zero_matrix(self):
        assert check_int_snf([[0, 0], [0, 0]]) == [0, 0]

    def test_rectangular(self):
        assert check_int_snf([[2, 0, 0], [0, 3, 0]]) == [1, 6]
        assert check_int_snf([[4], [6]]) == [2]

    def test_random_3x3_and_4x4(self):
        rng = random.Random(20240817)
        for _ in range(100):
            n = rng.choice([3, 4])
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            diag = check_int_snf(A)
            d = det(A)
            if d:
                prod = 1
                for x in diag:
                    prod *= x
                assert prod == abs(d)

    def test_determinism(self):
        A = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert snf.smith_normal_form(Z, A) == snf.smith_normal_form(Z, A)


class TestPolySNF:
    def test_already_diagonal(self):
        t = (0, 1)
        t2t = (0, 1, 1)
        diag, U, V = snf.smith_normal_form(F2T, [[t, ()], [(), t2t]])
        assert diag == [t, t2t]

    def test_divisibility_forced(self):
        t = (0, 1)
        t1 = (1, 1)
        diag, U, V = snf.smith_normal_form(F2T, [[t, ()], [(), t1]])
        # gcd(t, t+1) = 1, lcm = t^2+t
        assert diag == [(1,), (0, 1, 1)]

    def test_product_check(self):
        rng = random.Random(7)
        for _ in range(40):
            A = [[fppoly.trim([rng.randint(0, 1) for _ in range(3)], 2)
                  for _ in range(2)] for _ in range(2)]
            diag, U, V = snf.smith_normal_form(F2T, A)
            UAV = matmul(F2T, matmul(F2T, U, A), V)
            for i in range(2):
                for j in range(2):
                    expected = diag[i] if i == j else ()
                    assert UAV[i][j] == expected
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert not fppoly.divmod_poly(b, a, 2)[1] or b == ()
            for d in diag:
                if d:
                    assert d[-1] == 1  # monic
            # unimodular transforms: 2x2 determinants are nonzero constants
            for M in (U, V):
                dm = fppoly.sub(fppoly.mul(M[0][0], M[1][1], 2),
                                fppoly.mul(M[0][1], M[1][0], 2), 2)
                assert fppoly.deg(dm) == 0

    def test_unsupported_ring(self):
        with pytest.raises(ValueError):
            snf.smith_normal_form(rings.gaussian_integers(), [[1]])
