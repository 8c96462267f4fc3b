"""Exact integer and rational linear algebra for kernel computations.

Everything here works on dense lists of Python ints or Fractions; no
floating point is used anywhere.  The integer kernel routine returns a basis
of the full lattice {x in Z^n : M x = 0} (automatically saturated, being the
integer points of a rational subspace), obtained by tracking unimodular row
operations while reducing the transpose to row echelon form over Z.  The
rank over Q, by Fraction elimination, cross-checks it: the rank plus the
lattice rank is the number of columns.
"""

from __future__ import annotations

from fractions import Fraction


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


def rational_rank(rows):
    """Rank over Q of a list of integer vectors."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_lattice_span(basis, vec):
    """Whether an integer vector lies in the saturated lattice with this basis.

    A kernel lattice equals the integer points of its rational span, so an
    integer vector belongs to it exactly when it lies in the rational span.
    """
    if not basis:
        return all(x == 0 for x in vec)
    base_rank = rational_rank(basis)
    return rational_rank(list(basis) + [list(vec)]) == base_rank
