"""Helpers that only the tests use, kept out of the covercalc package.

The unrestricted oracle references live here, apart from the code they
check: every subgroup from generator matrices, every submodule and
puncture-avoiding coset from those, and a lines witness's lines element
by element.  They take from covercalc only the mask kernels of
covercalc._kernels, never the character cores behind the oracle's own
candidate lists.
"""

import functools
import itertools

from covercalc import _kernels as kernels


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


@functools.cache
def all_subgroups(orders):
    """All subgroups of the abelian group with the given cyclic orders,
    ascending (memoized: a sweep meets each tuple of orders many times).

    Enumerates canonical upper-triangular generator matrices H with
    h_jj | d_j and reduced off-diagonals, pruned by the requirement that
    the spanned lattice contain diag(d); masks are deduplicated.
    """
    k = len(orders)
    if k == 0:
        return (1,)
    found = set()
    col_divisors = [_divisors(d) for d in orders]

    def feasible_prefix(cols, j):
        # solve H x = d_j e_j over Z using columns 0..j (upper triangular)
        x = [0] * (j + 1)
        target = [0] * (j + 1)
        target[j] = orders[j]
        for i in range(j, -1, -1):
            acc = target[i] - sum(cols[l][i] * x[l] for l in range(i + 1, j + 1))
            if acc % cols[i][i]:
                return False
            x[i] = acc // cols[i][i]
        return True

    def extend(cols):
        j = len(cols)
        if j == k:
            gens = [kernels.encode(orders, col) for col in cols]
            found.add(kernels.closure(orders, None, gens))
            return
        for hjj in col_divisors[j]:
            for off in itertools.product(*(range(cols[i][i]) for i in range(j))):
                col = [off[i] for i in range(j)] + [hjj] + [0] * (k - j - 1)
                cols.append(col)
                if feasible_prefix(cols, j):
                    extend(cols)
                cols.pop()

    extend([])
    return tuple(sorted(found))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def submodule_lattice(mod):
    """Every submodule of a materialized module, ascending: the subgroups
    that the action matrix maps into themselves, element by element."""
    if mod.action is None:
        return list(all_subgroups(mod.orders))
    image = [kernels.apply_matrix(mod.orders, mod.action, x)
             for x in range(mod.size)]
    return [m for m in all_subgroups(mod.orders)
            if all(m >> image[x] & 1 for x in range(mod.size) if m >> x & 1)]


def witness_lines(mod, witness, field, add, mul):
    """The lines of a lines witness as element masks, built element by
    element: every element reduced once to its images in R/m through
    summands i and j, over the mixed-radix index one coordinate at a
    time, and the elements grouped by that pair; line (lam, mu) holds the
    groups (x_i, x_j) with mu.x_i = lam.x_j.  field is R/m, add and mul
    its tables, and the points must lie in it."""
    images = []
    for info in (mod.summands[n] for n in witness.summand_pair):
        vals = [0]
        for k, d in enumerate(mod.orders):
            if info.start <= k < info.start + info.ncoords:
                r = field.reduce(info.basis[k - info.start])
                row = [mul[s % field.p][r] for s in range(d)]
                vals = [add[x][y] for y in row for x in vals]
            else:
                vals = vals * d
        images.append(vals)
    by_pair = {}
    for x, pair in enumerate(zip(*images)):
        by_pair[pair] = by_pair.get(pair, 0) | 1 << x
    lines = []
    for lam, mu in witness.line_points:
        line_mask = 0
        for (xi, xj), mask in by_pair.items():
            if mul[mu][xi] == mul[lam][xj]:
                line_mask |= mask
        lines.append(line_mask)
    return lines


def every_avoiding_coset(mod, puncture):
    """Every coset of every proper submodule that avoids the puncture, as
    (coset, submodule, least element), in the order of the oracle's
    candidates."""
    full, cands = mod.full_mask, []
    for sub in submodule_lattice(mod):
        if sub == full:
            continue
        rest = full & ~kernels.translate(mod.orders, sub, puncture)
        while rest:
            x = (rest & -rest).bit_length() - 1
            coset = kernels.translate(mod.orders, sub, x)
            rest &= ~coset
            cands.append((coset, sub, x))
    cands.sort(key=lambda t: (-t[0].bit_count(), t[0], t[1]))
    return cands


def fixing_map(mod, sigma, puncture):
    """x -> sigma(x - puncture) + puncture for each element x, by decoding,
    multiplying and encoding."""
    orders, p = mod.orders, kernels.decode(mod.orders, puncture)
    tau = []
    for x in range(mod.size):
        d = [a - b for a, b in zip(kernels.decode(orders, x), p)]
        tau.append(kernels.encode(orders, [
            sum(s * v for s, v in zip(row, d)) + p[r]
            for r, row in enumerate(sigma)]))
    return tau


def coset_symmetries(mod, puncture, masks, sigmas):
    """The matrices, conjugated to fix the puncture, as permutations of the
    mask indices: each element mapped by fixing_map, each mask bit by bit.
    A matrix whose map is not a bijection of the elements, moves a mask
    off the list, or moves none, is dropped."""
    index = {m: i for i, m in enumerate(masks)}
    out = []
    for sigma in sigmas:
        tau = fixing_map(mod, sigma, puncture)
        if sorted(tau) != list(range(mod.size)):
            continue
        perm = []
        for m in masks:
            image = 0
            while m:
                lsb = m & -m
                image |= 1 << tau[lsb.bit_length() - 1]
                m ^= lsb
            perm.append(index.get(image))
        if None not in perm and perm != list(range(len(masks))):
            out.append(tuple(perm))
    return out
