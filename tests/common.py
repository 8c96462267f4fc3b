"""Shared transcription fixtures used as independent oracles across tests,
a cycle-scan oracle written from the quandle table alone, one cached
search report per configuration and the key set of every cycle it reached."""

import functools
import itertools
from fractions import Fraction

from quandlehom.chains import Chain, ChainError
from quandlehom.cocycles import eta_octahedral, mochizuki
from quandlehom.quandles import make_dihedral, make_octahedral
from quandlehom.search import SearchConfig, _sign_normal_key, search_min_cycles

# Length-8 cycle over (R_7, Z x R_7) pairing to 6 with the mod-7 cocycle.
ZETA8_TERMS = (
    (+1, (0, 0, (0, 6, 1))),
    (-1, (1, 5, (5, 1, 4))),
    (-1, (0, 0, (1, 6, 0))),
    (+1, (1, 2, (6, 3, 0))),
    (+1, (0, 0, (0, 1, 6))),
    (-1, (1, 2, (2, 6, 3))),
    (-1, (0, 0, (6, 1, 0))),
    (+1, (1, 5, (1, 4, 0))),
)

# Length-8 cycle over (O_6, Z x O_6) pairing to 1 with the mod-3 cocycle.
ETA8_TERMS = (
    (-1, (0, 0, (0, 2, 1))),
    (+1, (0, 0, (1, 5, 0))),
    (-1, (0, 0, (0, 1, 5))),
    (+1, (0, 0, (5, 4, 0))),
    (-1, (0, 0, (0, 5, 4))),
    (+1, (0, 0, (4, 2, 0))),
    (-1, (0, 0, (0, 4, 2))),
    (+1, (0, 0, (2, 1, 0))),
)

# Length-7 single-degree cycle over (O_6, Z x O_6) pairing to 2 with the
# mod-3 cocycle: the README's "A finding" witness, shipped as `eta7`.
ETA7_TERMS = (
    (-1, (0, 0, (0, 1, 0))),
    (+1, (0, 0, (1, 0, 1))),
    (+1, (0, 5, (0, 1, 4))),
    (+1, (0, 5, (1, 5, 4))),
    (-1, (0, 5, (5, 0, 1))),
    (+1, (0, 5, (5, 0, 4))),
    (-1, (0, 5, (5, 1, 5))),
)

# Signed triple points of the two surface-knot colorings.
WEIGHT_TRIPLES_DIHEDRAL = (
    (+1, (0, 6, 1)),
    (-1, (5, 1, 4)),
    (-1, (1, 6, 0)),
    (+1, (6, 3, 0)),
    (+1, (0, 1, 6)),
    (-1, (2, 6, 3)),
    (-1, (6, 1, 0)),
    (+1, (1, 4, 0)),
)

WEIGHT_TRIPLES_OCTAHEDRAL = (
    (-1, (0, 2, 1)),
    (+1, (1, 5, 0)),
    (-1, (0, 1, 5)),
    (+1, (5, 4, 0)),
    (-1, (0, 5, 4)),
    (+1, (4, 2, 0)),
    (-1, (0, 4, 2)),
    (+1, (2, 1, 0)),
)


def zeta8_chain():
    return Chain.from_signed_terms(ZETA8_TERMS, arity=3, graded=True)


def eta8_chain():
    return Chain.from_signed_terms(ETA8_TERMS, arity=3, graded=True)


def degrees(chain):
    return sorted({t[0] for t in chain.terms})


def degree_bucket(chain, k):
    """The sub-chain of terms at degree k (graded chains only)."""
    if not chain.graded:
        raise ChainError("degree buckets need a graded chain")
    result = Chain(chain.arity, True)
    result.terms = {t: c for t, c in chain.terms.items() if t[0] == k}
    return result


def random_chain(rng, q, arity, graded=True, nterms=6, degree_span=3, coeff_span=3):
    """A random reduced chain with in-range colors and nonzero coefficients."""
    chain = Chain(arity, graded)
    for _ in range(nterms):
        colors = [rng.randrange(q.size)]
        while len(colors) < arity:
            nxt = rng.randrange(q.size)
            if nxt != colors[-1]:
                colors.append(nxt)
        if graded:
            t = (rng.randrange(-degree_span, degree_span + 1), rng.randrange(q.size), tuple(colors))
        else:
            t = (0, 0, tuple(colors))
        coeff = rng.choice([k for k in range(-coeff_span, coeff_span + 1) if k])
        chain.terms[t] = chain.terms.get(t, 0) + coeff
        if chain.terms[t] == 0:
            del chain.terms[t]
    return chain


# Exact linear algebra over Q by Fraction elimination, written here so that
# the kernel tests do not rest on quandlehom.intlinalg.


def _fraction_echelon(rows, reduced=False):
    """Row echelon form over Q (reduced when asked) and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)) if reduced else range(r + 1, len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def dense(rows, ncols):
    """The dense matrix of sparse {column: entry} rows over ncols columns."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def fraction_rank(rows):
    """Rank over Q of a list of integer vectors."""
    return len(_fraction_echelon(rows)[1])


def dense_kernel_basis(rows, ncols):
    """Basis of {x in Z^ncols : M x = 0} by the dense elimination the library
    replaced with a sparse one that must run the same row operations: reduce
    the transpose over Z, mirroring each step on an identity matrix U, with
    the least |entry| as pivot (first row on ties) and floor quotients."""
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


def in_lattice(basis, vec):
    """Whether vec is an integer combination of the independent vectors in
    basis: the combination is solved over Q from the reduced echelon form of
    the columns [basis | vec], and its coefficients must be integers."""
    m, pivots = _fraction_echelon([list(col) for col in zip(*basis, vec)], reduced=True)
    k = len(basis)
    return pivots == list(range(k)) and all(m[i][k].denominator == 1 for i in range(k))


@functools.lru_cache(maxsize=None)
def cached_search(quandle, max_length, window="single", profile="A"):
    """The report of one search, run once per test session: quandle "o6"
    pairs with eta, "r7" with the mod-7 cocycle.  Callers must not modify
    the report."""
    q, theta = {
        "o6": (make_octahedral(), eta_octahedral()),
        "r7": (make_dihedral(7), mochizuki(7)),
    }[quandle]
    return search_min_cycles(
        SearchConfig(q, theta, max_length=max_length, window=window, profile=profile)
    )


def reached_keys(report):
    """Every cycle a search reached, as sign-normal keys: the nonzero-pairing
    ones it lists and the zero-pairing ones it keeps."""
    return {_sign_normal_key(fc.chain.terms) for fc in report.found} | report.zero_cycles


# Oracles written from the definitions over q.table alone: they call no
# quandlehom function (no chains.boundary, f_map, g_map, automorphisms or
# cancel_search).  A chain is a dict {(degree, index, colors): coeff} over the
# coefficient set Z x X, on which a color a acts by (n, u)^a = (n + 1, u^a).


def _nondegenerate(colors):
    return all(x != y for x, y in zip(colors, colors[1:]))


def _oracle_boundary(terms, table):
    """Sum over positions i = 1..m of (-1)^i times the term with a_i deleted,
    minus (-1)^i times the term acted on by a_i: the index and the colors
    left of i go to x^{a_i}, the degree goes up by one.  Faces with two equal
    adjacent colors are dropped."""
    out = {}
    for (n, u, colors), coeff in terms.items():
        for i, a in enumerate(colors):
            sign = -1 if i % 2 == 0 else 1
            deleted = colors[:i] + colors[i + 1 :]
            acted = tuple(table[x][a] for x in colors[:i]) + colors[i + 1 :]
            for t, s in (((n, u, deleted), sign), ((n + 1, table[u][a], acted), -sign)):
                if _nondegenerate(t[2]):
                    out[t] = out.get(t, 0) + s * coeff
    return {t: c for t, c in out.items() if c}


def oracle_automorphisms(table):
    """Aut(Q) by brute force over S_n."""
    n = len(table)
    return [
        p
        for p in itertools.permutations(range(n))
        if all(p[table[a][b]] == table[p[a]][p[b]] for a in range(n) for b in range(n))
    ]


def _act(p, term):
    n, u, colors = term
    return n, p[u], tuple(p[x] for x in colors)


def _sign_normal(family):
    """A cycle up to global sign, as search._sign_normal_key keys it."""
    items = tuple(sorted(family.items()))
    neg = tuple((t, -c) for t, c in items)
    return min(items, neg)


def oracle_cycles(table, max_length, top=0, group=None, cap=None):
    """Sign-normal keys of every cycle of length (sum of |coeff|) at most
    max_length over the 3-terms of degrees 0..top that has a degree-0 term
    and, when `cap` is set, at most `cap` of them; closed under `group`
    (default Aut(Q)).

    One anchor per group orbit of degree-0 terms, its least term, with the
    terms of earlier orbits left out: a cycle is moved onto the anchor of
    the first orbit it meets.  Each step cancels the least face of the
    residual, pruned once it holds more faces than the remaining terms can
    (6 per term).  After each closure the scan goes on from a restart term
    no smaller than the last one, and every later term is no smaller than
    its restart term, so a cycle is met as its closed part through the
    anchor plus parts met from their least terms.  Every closure is then
    expanded over the group."""
    n = len(table)
    group = oracle_automorphisms(table) if group is None else group
    words = [w for w in itertools.product(range(n), repeat=3) if _nondegenerate(w)]
    terms = [(d, u, w) for d in range(top + 1) for u in range(n) for w in words]
    images = {t: _oracle_boundary({t: 1}, table) for t in terms}
    bound = max(sum(map(abs, image.values())) for image in images.values())
    cancel = {}
    for t in terms:
        for face, s in images[t].items():
            cancel.setdefault(face, []).append((t, s))
    orbits = {}
    for t in terms:
        if t[0] == 0:
            orbits.setdefault(min(_act(p, t) for p in group), []).append(t)
    closures, excluded = set(), set()

    def extend(family, res, size, bottom, floor):
        if not res:
            closures.add(_sign_normal(family))
            if size + 2 > max_length:  # one more term never closes
                return
            steps = [(sign, s, s) for s in terms if floor is None or s >= floor for sign in (1, -1)]
        elif sum(map(abs, res.values())) > bound * (max_length - size):
            return
        else:
            face = min(res)
            need = 1 if res[face] > 0 else -1
            steps = [(-need * s, t, floor) for t, s in cancel[face] if floor is None or t >= floor]
        for sign, t, low in steps:
            if t in excluded or family.get(t, 0) * sign < 0:
                continue
            if cap is not None and t[0] == 0 and bottom == cap:
                continue
            grown = dict(family)
            grown[t] = grown.get(t, 0) + sign
            moved = dict(res)
            for face, s in images[t].items():
                moved[face] = moved.get(face, 0) + sign * s
                if not moved[face]:
                    del moved[face]
            extend(grown, moved, size + 1, bottom + (t[0] == 0), low)

    for anchor in sorted(orbits):
        extend({anchor: 1}, dict(images[anchor]), 1, 1, None)
        excluded.update(orbits[anchor])

    out = set()
    for key in closures:
        if key not in out:
            out.update(_sign_normal({_act(p, t): c for t, c in key}) for p in group)
    return out
