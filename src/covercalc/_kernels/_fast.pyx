# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled group kernels; same contract as the functions of pure.py.

The exact-cover search (min_cover) lives in pure.py only.

Bitmasks cross the boundary as Python ints and are unpacked into C arrays
of 64-bit words internally.  Element counts are capped at 1 << 16, far
above the oracle's materialization bound.
"""

from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memcpy, memset

ctypedef unsigned long long u64

BACKEND = "c"

DEF MAXK = 16


cdef struct Group:
    int k
    int n
    long long orders[MAXK]
    long long strides[MAXK]


cdef int _init_group(Group* g, object orders) except -1:
    cdef int i
    cdef long long nn = 1
    g.k = len(orders)
    if g.k > MAXK:
        raise ValueError("too many cyclic coordinates")
    for i in range(g.k):
        g.orders[i] = orders[i]
        g.strides[i] = nn
        nn *= g.orders[i]
        if nn > (1 << 16):
            raise ValueError("module too large for the compiled kernel")
    g.n = <int>nn
    return 0


cdef inline void _dec(Group* g, long long x, long long* out):
    cdef int i
    for i in range(g.k):
        out[i] = x % g.orders[i]
        x //= g.orders[i]


cdef inline long long _enc(Group* g, long long* digits):
    cdef long long x = 0
    cdef long long d
    cdef int i
    for i in range(g.k):
        d = digits[i] % g.orders[i]
        if d < 0:
            d += g.orders[i]
        x += d * g.strides[i]
    return x


cdef inline int _words(int nbits):
    return (nbits + 63) >> 6


cdef void _from_pyint(object mask, u64* buf, int words):
    cdef int i
    for i in range(words):
        buf[i] = <u64>((mask >> (64 * i)) & 0xFFFFFFFFFFFFFFFF)


cdef object _to_pyint(u64* buf, int words):
    out = 0
    cdef int i
    for i in range(words - 1, -1, -1):
        out = (out << 64) | int(buf[i])
    return out


cdef inline bint _get(u64* buf, long long x):
    return (buf[x >> 6] >> (x & 63)) & 1


cdef inline void _setbit(u64* buf, long long x):
    buf[x >> 6] |= (<u64>1) << (x & 63)


def encode(orders, digits):
    cdef Group g
    cdef long long buf[MAXK]
    cdef int i
    _init_group(&g, orders)
    for i in range(g.k):
        buf[i] = digits[i]
    return _enc(&g, buf)


def decode(orders, x):
    cdef Group g
    cdef long long buf[MAXK]
    cdef int i
    _init_group(&g, orders)
    _dec(&g, x, buf)
    return tuple(buf[i] for i in range(g.k))


cdef void _load_matrix(Group* g, object mat, long long* out):
    cdef int i, j
    for i in range(g.k):
        row = mat[i]
        for j in range(g.k):
            out[i * g.k + j] = row[j]


cdef inline void _apply(Group* g, long long* m, long long* xd, long long* out):
    cdef int i, j
    cdef long long acc
    for i in range(g.k):
        acc = 0
        for j in range(g.k):
            acc += m[i * g.k + j] * xd[j]
        out[i] = acc % g.orders[i]
        if out[i] < 0:
            out[i] += g.orders[i]


def apply_matrix(orders, mat, x):
    cdef Group g
    cdef long long m[MAXK * MAXK]
    cdef long long xd[MAXK]
    cdef long long yd[MAXK]
    _init_group(&g, orders)
    _load_matrix(&g, mat, m)
    _dec(&g, x, xd)
    _apply(&g, m, xd, yd)
    return _enc(&g, yd)


cdef void _translate_c(Group* g, u64* src, u64* dst, long long elem, int words):
    cdef long long gd[MAXK]
    cdef long long xd[MAXK]
    cdef long long sd[MAXK]
    cdef long long x
    cdef int i
    _dec(g, elem, gd)
    memset(dst, 0, words * 8)
    for x in range(g.n):
        if _get(src, x):
            _dec(g, x, xd)
            for i in range(g.k):
                sd[i] = xd[i] + gd[i]
            _setbit(dst, _enc(g, sd))


def translate(orders, mask, g_elem):
    cdef Group g
    cdef int words
    cdef u64* src
    cdef u64* dst
    _init_group(&g, orders)
    words = _words(g.n)
    src = <u64*>calloc(words, 8)
    dst = <u64*>calloc(words, 8)
    if src == NULL or dst == NULL:
        if src != NULL:
            free(src)
        if dst != NULL:
            free(dst)
        raise MemoryError()
    try:
        _from_pyint(mask, src, words)
        _translate_c(&g, src, dst, g_elem, words)
        return _to_pyint(dst, words)
    finally:
        free(src)
        free(dst)


def closure(orders, actions, seeds):
    cdef Group g
    cdef int words, nact, i, w, changed
    cdef long long* mats = NULL
    cdef u64* members
    cdef u64* t
    cdef u64* t2
    cdef long long gd[MAXK]
    cdef long long yd[MAXK]
    cdef long long elem
    _init_group(&g, orders)
    words = _words(g.n)
    nact = len(actions)
    members = <u64*>calloc(words, 8)
    t = <u64*>calloc(words, 8)
    t2 = <u64*>calloc(words, 8)
    if members == NULL or t == NULL or t2 == NULL:
        raise MemoryError()
    if nact:
        mats = <long long*>malloc(nact * g.k * g.k * 8)
        if mats == NULL:
            raise MemoryError()
        for i in range(nact):
            _load_matrix(&g, actions[i], mats + i * g.k * g.k)
    pending = list(seeds)
    try:
        _setbit(members, 0)
        while pending:
            elem = pending.pop()
            if _get(members, elem):
                continue
            _translate_c(&g, members, t, elem, words)
            changed = 1
            while changed:
                changed = 0
                for w in range(words):
                    if t[w] & ~members[w]:
                        changed = 1
                        break
                if changed:
                    for w in range(words):
                        members[w] |= t[w]
                    _translate_c(&g, t, t2, elem, words)
                    memcpy(t, t2, words * 8)
            _dec(&g, elem, gd)
            for i in range(nact):
                _apply(&g, mats + i * g.k * g.k, gd, yd)
                pending.append(_enc(&g, yd))
        return _to_pyint(members, words)
    finally:
        free(members)
        free(t)
        free(t2)
        if mats != NULL:
            free(mats)


def invariant_core(orders, actions, mask):
    cdef Group g
    cdef int words, nact, i, stable
    cdef long long* mats
    cdef u64* cur
    cdef u64* keep
    cdef long long x
    cdef long long xd[MAXK]
    cdef long long yd[MAXK]
    _init_group(&g, orders)
    if not actions:
        return mask
    words = _words(g.n)
    nact = len(actions)
    mats = <long long*>malloc(nact * g.k * g.k * 8)
    cur = <u64*>calloc(words, 8)
    keep = <u64*>calloc(words, 8)
    if mats == NULL or cur == NULL or keep == NULL:
        raise MemoryError()
    for i in range(nact):
        _load_matrix(&g, actions[i], mats + i * g.k * g.k)
    try:
        _from_pyint(mask, cur, words)
        stable = 0
        while not stable:
            memcpy(keep, cur, words * 8)
            for x in range(g.n):
                if _get(cur, x):
                    _dec(&g, x, xd)
                    for i in range(nact):
                        _apply(&g, mats + i * g.k * g.k, xd, yd)
                        if not _get(cur, _enc(&g, yd)):
                            keep[x >> 6] &= ~((<u64>1) << (x & 63))
                            break
            stable = 1
            for i in range(words):
                if keep[i] != cur[i]:
                    stable = 0
                    break
            memcpy(cur, keep, words * 8)
        return _to_pyint(cur, words)
    finally:
        free(mats)
        free(cur)
        free(keep)
