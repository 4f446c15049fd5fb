"""Smith normal form over Z and over F_p[t].

Classical norm-descent elimination: the smallest-norm nonzero entry (ties
broken by row-major position) is moved to the pivot, row/column remainders
strictly shrink the norm, and a final pass forces the divisibility chain.
U and V are accumulated from the elementary operations, so U*A*V = D with
unit determinants.
"""

from __future__ import annotations

from .rings import INTEGERS, POLY, RingHandle


def smith_normal_form(ring: RingHandle, A):
    """Return (D, U, V) with U*A*V = D diagonal and d1 | d2 | ...

    D is the list of diagonal entries (length min(rows, cols)); entries are
    nonnegative over Z and monic over F_p[t].  Matrix entries over F_p[t]
    are coefficient tuples as in fppoly.
    """
    if ring.kind not in (INTEGERS, POLY):
        raise ValueError("Smith normal form supports Z and F_p[t] matrices only")
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not rectangular")
    D = [[ring.coerce(x) for x in row] for row in A]
    U = _identity(ring, m)
    V = _identity(ring, n)

    for k in range(min(m, n)):
        while True:
            piv = _smallest_entry(ring, D, k)
            if piv is None:
                break
            pi, pj = piv
            if pi != k:
                D[k], D[pi] = D[pi], D[k]
                U[k], U[pi] = U[pi], U[k]
            if pj != k:
                _swap_cols(D, k, pj)
                _swap_cols(V, k, pj)
            dirty = False
            for i in range(k + 1, m):
                if not ring.is_zero(D[i][k]):
                    q, r = ring.divmod(D[i][k], D[k][k])
                    _row_sub(ring, D, U, i, k, q)
                    dirty = dirty or not ring.is_zero(r)
            for j in range(k + 1, n):
                if not ring.is_zero(D[k][j]):
                    q, r = ring.divmod(D[k][j], D[k][k])
                    _col_sub(ring, D, V, j, k, q)
                    dirty = dirty or not ring.is_zero(r)
            if dirty:
                continue
            # pivot must divide the remaining submatrix for the chain
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not ring.is_zero(ring.divmod(D[i][j], D[k][k])[1]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_add(ring, D, U, k, offender)
        # normalize the pivot to its canonical associate
        if not ring.is_zero(D[k][k]):
            u = ring.canonical_unit(D[k][k])
            if u != ring.one:
                D[k] = [ring.mul(u, x) for x in D[k]]
                U[k] = [ring.mul(u, x) for x in U[k]]

    diag = [D[k][k] for k in range(min(m, n))]
    return diag, U, V


def _identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def _smallest_entry(ring, D, k):
    best = None
    best_norm = None
    for i in range(k, len(D)):
        for j in range(k, len(D[0])):
            if not ring.is_zero(D[i][j]):
                nm = ring.norm(D[i][j])
                if best_norm is None or nm < best_norm:
                    best, best_norm = (i, j), nm
    return best


def _swap_cols(M, a, b):
    for row in M:
        row[a], row[b] = row[b], row[a]


def _row_sub(ring, D, U, i, k, q):
    D[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(D[i], D[k])]
    U[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(U[i], U[k])]


def _row_add(ring, D, U, k, i):
    D[k] = [ring.add(x, y) for x, y in zip(D[k], D[i])]
    U[k] = [ring.add(x, y) for x, y in zip(U[k], U[i])]


def _col_sub(ring, D, V, j, k, q):
    for row in D:
        row[j] = ring.sub(row[j], ring.mul(q, row[k]))
    for row in V:
        row[j] = ring.sub(row[j], ring.mul(q, row[k]))
