"""Exact integer linear algebra for kernel computations.

The elimination is sparse: a matrix is a list of sparse rows, each a dict
from column to Python int (the kernel slices' sparse boundary rows, read as
given, zero entries skipped), and a per-column index of the rows that still
have an entry there replaces the scan down each column; no floating point is
used anywhere.  The integer kernel routine returns a basis of the full lattice
{x in Z^n : M x = 0} (automatically saturated, being the integer points of a
rational subspace), obtained by tracking unimodular row operations while
reducing the transpose to row echelon form over Z.  Its pivot order is the
dense textbook one (least |entry| in the column, first row on ties), and that
order, not the sparse storage, fixes which basis comes out.  The basis is
returned as sparse sign-normal vectors in dense lexicographic order, never
expanded to dense form.  The rank modulo the prime 2^61 - 1 cross-checks
it: that rank is never above the rank over Q, so it plus the number of
independent kernel vectors is at most the number of columns, with equality
only when they span the kernel.
"""

from __future__ import annotations

P = (1 << 61) - 1


def _subtract(target, q, source, tid=None, where=None, modulus=0):
    """target -= q * source in place on sparse rows; when ``modulus`` is
    nonzero, an entry is reduced modulo it only once it leaves (-modulus,
    modulus), so an entry is zero exactly when it is zero modulo it.
    ``where``, when given, is the column index to keep in step with row
    ``tid``'s entries."""
    get = target.get
    for c, y in source.items():
        v = get(c, 0) - q * y
        if modulus and not -modulus < v < modulus:
            v %= modulus
        if v:
            if where is not None and c not in target:
                where[c].add(tid)
            target[c] = v
        else:
            del target[c]
            if where is not None:
                where[c].discard(tid)


def integer_kernel_basis(rows, ncols):
    """Basis of {x in Z^ncols : M x = 0}, for M given as sparse rows over
    columns 0..ncols-1, as sparse sign-normal vectors in dense lexicographic
    order: {column: nonzero entry} dicts, each with a positive entry at its
    least column, sorted as their dense forms sort.

    Row-reduce the transpose A = M^T over Z with unimodular operations
    mirrored on an identity matrix U; rows of U facing a zero row of the
    echelon form are a lattice basis of the kernel.  Rows are sparse and
    keep their identity ``r``; ``order`` holds them by echelon position, so
    swaps, ties and the floor quotients follow the dense elimination step
    for step.
    """
    # A[r] is column r of M, as the sparse transpose of the given rows.
    a = [{} for _ in range(ncols)]
    where = [set() for _ in rows]
    for i, row in enumerate(rows):
        for r, x in row.items():
            if x:
                a[r][i] = x
                where[i].add(r)
    u = [{r: 1} for r in range(ncols)]
    order = list(range(ncols))
    pos = list(range(ncols))
    top = 0
    for col in range(len(rows)):
        live = where[col]
        # Euclidean elimination in this column below `top`; `live` holds the
        # rows at or below `top` with an entry here.
        while live:
            pivot = min(live, key=lambda r: (abs(a[r][col]), pos[r]))
            if pos[pivot] != top:
                other = order[top]
                order[top], order[pos[pivot]] = pivot, other
                pos[other], pos[pivot] = pos[pivot], top
            p = a[pivot][col]
            for r in [r for r in live if r != pivot]:
                qq = a[r][col] // p
                if qq:
                    _subtract(a[r], qq, a[pivot], r, where)
                    _subtract(u[r], qq, u[pivot])
            if len(live) == 1:
                for c in a[pivot]:
                    where[c].discard(pivot)
                top += 1
                break
    basis = []
    for r in order[top:]:
        if a[r]:
            raise AssertionError("echelon residue below the pivot block")
        vec = u[r]
        basis.append({c: -x for c, x in vec.items()} if vec[min(vec)] < 0 else vec)
    basis.sort(key=_dense_order)
    return basis


def _dense_order(vec):
    """Sort key under which sparse vectors order as their dense forms: by
    column, an entry below zero sorts before a later column or the end of
    the vector, and an entry above zero after them."""
    return [(1, -c, x) if x > 0 else (-1, c, x) for c, x in sorted(vec.items())] + [(0,)]


def rank_mod_p(rows):
    """Rank over Z/P of a matrix given as sparse integer rows, P = 2^61 - 1.

    Never above the rank over Q: a prime dividing a minor can only lower it.
    Each column is cleared with its sparsest live row as the pivot, since the
    rank does not depend on the pivot order.  Entries stay the small integers
    they are until one leaves (-P, P), and a pivot of +-1 is its own inverse.
    """
    m, where = [], {}
    for i, row in enumerate(rows):
        m.append({c: x if -P < x < P else x % P for c, x in row.items() if x % P})
        for c in m[i]:
            where.setdefault(c, set()).add(i)
    rank = 0
    for c in sorted(where):
        live = where[c]
        if not live:
            continue
        pivot = min(live, key=lambda i: (len(m[i]), i))
        top = m[pivot]
        for c2 in top:
            where[c2].discard(pivot)
        x = top[c]
        inv = x if x in (1, -1) else pow(x, -1, P)
        for i in list(live):
            q = m[i][c] * inv
            _subtract(m[i], q if -P < q < P else q % P, top, i, where, P)
        rank += 1
    return rank
