"""Helpers that only the tests use, kept out of the covercalc package."""


def replace(obj, **changes):
    """A copy of a record with some fields changed (checked again), as
    dataclasses.replace makes one."""
    return type(obj)(**{**obj.__dict__, **changes})


def matmul(ring, A, B):
    """Exact matrix product over Z or F_p[t] (for checking U*A*V = D)."""
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[ring.zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = ring.zero
            for l in range(inner):
                acc = ring.add(acc, ring.mul(ring.coerce(A[i][l]), ring.coerce(B[l][j])))
            out[i][j] = acc
    return out
