"""Exact integer linear algebra for kernel computations.

Everything here works on dense lists of Python ints; no floating point is
used anywhere.  The integer kernel routine returns a basis of the full
lattice {x in Z^n : M x = 0} (automatically saturated, being the integer
points of a rational subspace), obtained by tracking unimodular row
operations while reducing the transpose to row echelon form over Z.  The
rank modulo the prime 2^61 - 1 cross-checks it: that rank is never above
the rank over Q, so it plus the number of independent kernel vectors is at
most the number of columns, with equality only when they span the kernel.
"""

from __future__ import annotations

P = (1 << 61) - 1


def integer_kernel_basis(rows, ncols):
    """Basis of {x in Z^ncols : M x = 0} as a list of primitive int vectors.

    Row-reduce the transpose A = M^T over Z with unimodular operations
    mirrored on an identity matrix U; rows of U facing a zero row of the
    echelon form are a lattice basis of the kernel.
    """
    nrows = len(rows)
    a = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]  # transpose
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    n = ncols
    m = nrows
    top = 0
    for col in range(m):
        # Euclidean elimination in this column below `top`.
        while True:
            pivot = None
            for i in range(top, n):
                if a[i][col] != 0 and (pivot is None or abs(a[i][col]) < abs(a[pivot][col])):
                    pivot = i
            if pivot is None:
                break
            if pivot != top:
                a[top], a[pivot] = a[pivot], a[top]
                u[top], u[pivot] = u[pivot], u[top]
            done = True
            p = a[top][col]
            for i in range(top + 1, n):
                if a[i][col] != 0:
                    qq = a[i][col] // p
                    if qq:
                        a[i] = [x - qq * y for x, y in zip(a[i], a[top])]
                        u[i] = [x - qq * y for x, y in zip(u[i], u[top])]
                    if a[i][col] != 0:
                        done = False
            if done:
                top += 1
                break
    basis = []
    for i in range(top, n):
        if any(a[i][j] != 0 for j in range(m)):
            raise AssertionError("echelon residue below the pivot block")
        vec = u[i]
        basis.append(_normalize_sign(vec))
    basis.sort()
    return basis


def _normalize_sign(vec):
    for x in vec:
        if x != 0:
            if x < 0:
                return [-y for y in vec]
            break
    return list(vec)


def rank_mod_p(rows):
    """Rank over Z/P of a list of integer vectors, P = 2^61 - 1.

    Never above the rank over Q: a prime dividing a minor can only lower it.
    """
    m = [[x % P for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, P)
        top = [x * inv % P for x in m[rank]]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % P for x, y in zip(m[i], top)]
        rank += 1
    return rank
