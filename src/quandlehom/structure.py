"""Structural operations on 3-terms: symmetries and f-connected families.

The reverse of a graded chain lives over the dual quandle; the reflection is
a mirror symmetry specific to dihedral quandles.

A set of same-degree 3-terms is f-connected when its f-image vanishes and no
proper nonempty subset has vanishing f-image (g-connected likewise).  Since
f never consults the quandle operation, the f-connected families of a given
size admit a quandle-independent symbolic census; it is re-derived here over
four symbols, once per orbit under global sign and symbol renaming.  The
orbits read the renamings as maps on the signed symbolic words, built once
on first use, and the minimality test sums integer-coded f-images.  Up to
those and the two concrete shapes of a bigon term (a, b, a) ~ (b, a, b), its
classes are the catalogued templates and the shape-preserving symbol
identifications of them, which the census checks.  Over a quandle, every
family is the order-keeping renaming of a family on colors 0..m-1, or of its
negative, onto its own m colors, so one listing of those families gives the
concrete families and their counts.

The census and the cycle searches share two tools defined here: TermTable,
every 3-term at degree 0 with its f- and g-images and per-face cancel
indexes, and cancel_search, the one residual-guided cancellation search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, neg

from .quandles import QuandleError, TAU_O6, color_words
from .chains import Chain, ChainError, _accumulate, f_map, g_map


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chain symmetries


def relabel_chain(chain, perm):
    """Apply an element relabelling to every index and color."""
    pairs = [
        ((n, perm[u] if chain.graded else 0, tuple(perm[x] for x in colors)), coeff)
        for (n, u, colors), coeff in chain.terms.items()
    ]
    return Chain(chain.arity, chain.graded, pairs)


def reverse(chain, q):
    """The reverse of a graded chain; the result lives over dual(q).

    Term-wise: degree n becomes -n, the index is pushed through the whole
    color word, and color i is pushed through the colors to its right.
    """
    if not chain.graded:
        raise ChainError("reverse needs a graded chain")
    return Chain(chain.arity, True, [(reverse_term(t, q), coeff) for t, coeff in chain.terms.items()])


def reverse_term(term, q):
    """The term that `reverse` maps one term (n, u, colors) onto."""
    n, u, colors = term
    new_colors = tuple(q.act_word(colors[i], colors[i + 1 :]) for i in range(len(colors)))
    return -n, q.act_word(u, colors), new_colors


def reverse_o6(chain, q):
    """Reverse an octahedral chain and relabel it back into O_6 via the
    2 <-> 5 isomorphism with the dual."""
    return relabel_chain(reverse(chain, q), TAU_O6)


def _dihedral_check(q):
    n = q.size
    for a in range(n):
        for b in range(n):
            if q.table[a][b] != (2 * b - a) % n:
                raise QuandleError("reflection is defined for dihedral tables only")
    return n


def reflection(chain, q):
    """Mirror symmetry of dihedral chains: an involution commuting with both
    face maps.  Degree n is kept; the index w maps to (-1)^(n+1) w and color
    i to (-1)^n (x_{m+1-i} - w), everything mod the quandle size."""
    size = _dihedral_check(q)
    if not chain.graded:
        raise ChainError("reflection needs a graded chain")
    pairs = []
    for (n, w, colors), coeff in chain.terms.items():
        s = -1 if n % 2 else 1
        new_colors = tuple((s * (x - w)) % size for x in reversed(colors))
        pairs.append(((n, (-s * w) % size, new_colors), coeff))
    return Chain(chain.arity, True, pairs)


# ---------------------------------------------------------------------------
# the term table and the residual-guided cancellation search

_DIGIT_BITS = 6


def _code(pairs, digits):
    """The integer code of (face, coefficient) pairs: face i of `digits`
    (numbered as met) is the balanced base-2**_DIGIT_BITS digit at place i.
    Sums of codes are equal exactly when the summed images are, while every
    summed coefficient stays below 2**(_DIGIT_BITS-1) in size."""
    return sum(c << _DIGIT_BITS * digits.setdefault(face, len(digits)) for face, c in pairs)


class TermTable:
    """Every non-degenerate 3-term at degree 0, with its face images.

    Built once per quandle from chains.f_map and chains.g_map; the two-degree
    window reads its top layer, reversed, from dual(Q)'s table.  ``terms`` lists the
    terms by index, then color word; ``f[t]`` and ``g[t]`` hold the signed
    faces of t as ((face, sign), ...).  ``f_cancel[face]`` lists the (term,
    sign) pairs whose f-image contains the face; f keeps the index, so they
    all sit at the face's index.  g moves the index, so ``g_cancel[u][face]``
    lists only the terms at index u.  With q None the table is symbolic:
    `symbols` colors at index 0 and f only, which serves every quandle.
    ``bounds`` holds the most faces, with multiplicity, of one term's f- and
    g-image (None for g in a symbolic table), which cancel_search prunes by.
    """

    def __init__(self, q, symbols=None):
        size = symbols if q is None else q.size
        indices = (0,) if q is None else range(size)
        self.terms = [(0, u, w) for u in indices for w in color_words(size, 3)]
        self.f, self.g, self.f_cancel, self.g_cancel = {}, {}, {}, {}
        for t in self.terms:
            generator = Chain(3, True, {t: 1})
            self.f[t] = tuple(f_map(generator).terms.items())
            for face, s in self.f[t]:
                self.f_cancel.setdefault(face, []).append((t, s))
            if q is not None:
                self.g[t] = tuple(g_map(generator, q).terms.items())
                cancel = self.g_cancel.setdefault(t[1], {})
                for face, s in self.g[t]:
                    cancel.setdefault(face, []).append((t, s))
        self.bounds = (_faces_per_term(self.f), None if q is None else _faces_per_term(self.g))

    def image(self, family, images):
        """The image {face: coefficient} of a list of (sign, term) pairs
        under ``self.f`` or ``self.g``, summed from the table."""
        total = {}
        for sign, t in family:
            _accumulate(total, images[t], sign)
        return total

    def is_minimal_null(self, family):
        """True when the family's f-image vanishes and that of no proper
        nonempty subfamily does.  Once the whole image vanishes, a null
        subfamily S leaves F - S null too, so only subfamilies of up to half
        the family's size are tested, each as a sum of signed per-term
        f-image _codes: exact while bounds[0] faces a term times the
        family's size stays below 2**(_DIGIT_BITS-1), as asserted."""
        assert self.bounds[0] * len(family) < 2 ** (_DIGIT_BITS - 1), "family too long for exact f-codes"
        digits = {}
        codes = [sign * _code(self.f[t], digits) for sign, t in family]
        return not sum(codes) and all(
            sum(sub) for r in range(1, len(codes) // 2 + 1) for sub in itertools.combinations(codes, r)
        )


def cancel_search(table, size, on_close, anchors, *, g_cancel=None, seed=None, budget=None):
    """Residual-guided cancellation search over one TermTable's f-images.

    `table.f[t]` holds the signed faces ((face, sign), ...) of term t and
    `table.f_cancel[face]` the (term, sign) pairs whose image holds the face.
    `anchors` is a sequence of groups of terms, each group's least term
    first.  From that term taken positive it grows signed families of at
    most `size` terms: while the residual (the family's image) is nonzero it
    adds a term cancelling the least face of the first nonzero residual,
    with the sign that moves it toward zero, never a term with both signs;
    once it vanishes it calls on_close(family, g_residual) and goes no
    further.  It backtracks when a residual needs more faces per remaining
    term than any term has (table.bounds).

    After a group's scan the whole group is retired: no later scan adds any
    of its terms.  With one-term groups in sorted order, later terms are no
    smaller than the anchor, so a family is found from its least term, once
    per global sign.  With the orbits of a symmetry group that fixes the
    image tables, in order of their least terms, a family is found, moved by
    some element, from the least term of the first orbit it meets.
    `g_cancel`, one of table.g_cancel's maps: the g residual is tracked too,
    with table.g, and cancelled first (else it is None).  `seed` =
    (residual, g residual), with `g_cancel`: one scan from the empty family
    with these residuals, ahead of the anchors'; it closes only on a
    nonempty family.  `budget`: a probe a state.
    """
    images, cancel, g_img = table.f, table.f_cancel, table.g
    bound, g_bound = table.bounds
    retired = set()

    def extend(family, res, gres):
        if budget is not None:
            budget.spend()
        if not res and family:
            on_close(family, gres)
            return
        rem = size - len(family)
        if not rem or sum(map(abs, res.values())) > bound * rem:
            return
        if gres is not None and sum(map(abs, gres.values())) > g_bound * rem:
            return
        key_res, key_cancel = (gres, g_cancel) if gres else (res, cancel)
        key = min(key_res)
        need = 1 if key_res[key] > 0 else -1
        for t, s in key_cancel.get(key, ()):
            sign = -need * s
            if t not in retired and (-sign, t) not in family:
                step(family, res, gres, sign, t)

    def step(family, res, gres, sign, t):
        extend(
            family + [(sign, t)],
            _accumulate(dict(res), images[t], sign),
            None if gres is None else _accumulate(dict(gres), g_img[t], sign),
        )

    try:
        if seed is not None:
            extend([], dict(seed[0]), dict(seed[1]))
        for group in anchors:
            step([], {}, None if g_cancel is None else {}, 1, group[0])
            retired.update(group)
    finally:
        extend = step = None  # they refer to each other: free the search's state on return


def _faces_per_term(images):
    """The most faces, with multiplicity, in the image of one term."""
    return max(sum(abs(c) for _, c in faces) for faces in images.values())


# ---------------------------------------------------------------------------
# symbolic census of f-connected families

MAX_FAMILY_SIZE = 5
_SYMBOLS = 4  # four distinct labels suffice for families of up to five terms


@lru_cache(maxsize=None)
def _symbolic_table():
    return TermTable(None, symbols=_SYMBOLS)


def _is_minimal_null(family):
    """is_minimal_null for a family of (sign, colors) pairs."""
    return _symbolic_table().is_minimal_null([(sign, (0, 0, colors)) for sign, colors in family])


def _null_families(size):
    """Efficient symbolic families of `size` signed triples with vanishing
    f-image, sorted, by the cancellation search from +(0,1,0) and +(0,1,2).

    Every orbit under renaming and global sign is met.  A family with a bigon
    renames and signs it to +(0,1,0), the least word, so the anchor's rule
    that later terms are no smaller cuts nothing; a bigon-free family holds
    no (0,1,0) and renames a triangle to +(0,1,2).  Minimality is not tested."""
    table = _symbolic_table()
    results = set()

    def close(family, _):
        if len(family) == size:
            results.add(tuple(sorted((sign, t[2]) for sign, t in family)))

    cancel_search(table, size, close, anchors=[(t,) for t in table.terms[:2]])
    return sorted(results)


@lru_cache(maxsize=None)
def _word_renamings():
    """The 24 renamings of the four symbols with either global sign, as maps
    on the 72 signed words (sign, colors), tuples indexed by `ids`: each of
    `renamed` to the image (one shared pair per signed word), and each of
    `onto[syms]` to its bigon-normal entry, for the renamings that send the
    symbols syms onto 0..len(syms)-1.  Built on first use."""
    words = list(color_words(_SYMBOLS, 3))
    pairs = [(s, w) for s in (1, -1) for w in words]
    ids = {p: i for i, p in enumerate(pairs)}
    normal = [_bigon_normal_entry(*p) for p in pairs]
    renamed, onto = [], {}
    for perm in itertools.permutations(range(_SYMBOLS)):
        images = [tuple([perm[x] for x in w]) for w in words]
        for g in (1, -1):
            image_ids = [ids[g * s, w] for s in (1, -1) for w in images]
            renamed.append(tuple([pairs[i] for i in image_ids]))
            entries = tuple([normal[i] for i in image_ids])
            for m in range(1, _SYMBOLS + 1):
                onto.setdefault(frozenset(map(perm.index, range(m))), []).append(entries)
    return ids, renamed, onto


def _relabellings(family):
    """The set of images of a family on the four symbols under symbol
    renaming and global sign, one tuple read a term per image."""
    ids, renamed, _ = _word_renamings()
    family = list(map(ids.__getitem__, family))
    return {tuple(sorted(map(image.__getitem__, family))) for image in renamed}


def _bigon_normal_entry(sign, colors):
    a, b, c = colors
    if a == c:
        return (sign, "B", (min(a, b), max(a, b)))
    return (sign, "T", colors)


def _family_symbols(entries):
    syms = set()
    for _, _, colors in entries:
        syms.update(colors)
    return syms


def canonical_family(family):
    """Canonical form of a signed symbolic family on m <= 4 symbols: bigons
    collapsed to an unordered marker, then minimized over the bijections of
    its symbols onto 0..m-1 and global sign.  The candidates read the word
    renamings that send its symbols onto 0..m-1 straight to bigon-normal
    entries; a family with a symbol past 3 is first renamed in order onto
    0..m-1."""
    syms = {x for _, w in family for x in w}
    if len(syms) > _SYMBOLS:
        raise StructureError("a canonical form needs at most %d symbols" % _SYMBOLS)
    if max(syms) >= _SYMBOLS:
        order = dict(zip(sorted(syms), range(_SYMBOLS)))
        family, syms = [(s, tuple([order[x] for x in w])) for s, w in family], range(len(syms))
    ids, _, onto = _word_renamings()
    family = list(map(ids.__getitem__, family))
    return min(tuple(sorted(map(entries.__getitem__, family))) for entries in onto[frozenset(syms)])


def _expand_pattern(pattern):
    """All concrete families realizing a bigon-collapsed pattern."""
    slots = []
    for sign, kind, colors in pattern:
        if kind == "T":
            slots.append([(sign, colors)])
        else:
            x, y = colors
            slots.append([(sign, (x, y, x)), (sign, (y, x, y))])
    for combo in itertools.product(*slots):
        yield tuple(sorted(combo))


def _family_is_valid(family):
    """No word with both signs, and minimal f-null.  Every family comes from a
    shape-preserving glue, which keeps each word non-degenerate."""
    seen = set()
    for sign, colors in family:
        if (-sign, colors) in seen:
            return False
        seen.add((sign, colors))
    return _is_minimal_null(family)


def _glue(family, mapping):
    return tuple(sorted((sign, tuple(mapping[x] for x in colors)) for sign, colors in family))


def _shape_preserving(pattern, mapping):
    """A symbol identification that keeps triangles triangles and bigons
    non-degenerate."""
    for _, kind, colors in pattern:
        if kind == "B":
            x, y = colors
            if mapping[x] == mapping[y]:
                return False
        else:
            a, b, c = colors
            if mapping[a] == mapping[b] or mapping[b] == mapping[c] or mapping[a] == mapping[c]:
                return False
    return True


def _partitions_of(symbols):
    """All partitions of a symbol list into nonempty blocks."""
    symbols = list(symbols)
    if not symbols:
        yield ()
        return
    head, rest = symbols[0], symbols[1:]
    for part in _partitions_of(rest):
        yield ((head,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((head,) + block,) + part[i + 1 :]


def identifications(pattern):
    """Each shape-preserving identification of a bigon-collapsed pattern's
    symbols, the identity first, as (blocks, families): the partition into
    sorted blocks, every symbol glued to the least of its block, and the
    valid families that the pattern's concrete expansions glue to."""
    for part in _partitions_of(sorted(_family_symbols(pattern))):
        blocks = tuple(tuple(sorted(b)) for b in sorted(part))
        mapping = {s: b[0] for b in blocks for s in b}
        if _shape_preserving(pattern, mapping):
            glued = (_glue(f, mapping) for f in _expand_pattern(pattern))
            yield blocks, [f for f in glued if _family_is_valid(f)]


@dataclass(frozen=True)
class FamilyTemplate:
    """A symbolic pattern whose admissible instantiations are minimal
    families with vanishing f-image."""

    family_id: str
    symbols: int
    pattern: tuple  # canonical bigon-collapsed entries
    variants: tuple  # valid concrete families of the pattern and its identifications

    def render(self):
        names = "abcde"
        bits = []
        for sign, kind, colors in self.pattern:
            mark = "+" if sign > 0 else "-"
            if kind == "T":
                bits.append("%s(%s)" % (mark, ",".join(names[x] for x in colors)))
            else:
                bits.append("%s<%s>" % (mark, ",".join(names[x] for x in colors)))
        return " ".join(bits)


# The census templates in their published labelling: a pattern of each
# family, keyed by size and roman numeral.  Symbols a, b, c, d are 0, 1, 2,
# 3.  Golden index-pattern tables refer to these ids.
_T = lambda s, colors: (s, "T", colors)
_B = lambda s, colors: (s, "B", colors)
PATTERN_CATALOG = {
    2: {
        "i": (_B(1, (0, 1)), _B(-1, (0, 1))),
    },
    3: {
        "i": (_B(1, (0, 1)), _T(-1, (2, 0, 1)), _T(-1, (2, 1, 0))),
        "ii": (_B(1, (0, 1)), _T(-1, (0, 1, 2)), _T(-1, (1, 0, 2))),
    },
    4: {
        "i": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (2, 0, 1)), _B(-1, (1, 2))),
        "ii": (_T(1, (0, 1, 2)), _T(1, (0, 2, 3)), _T(-1, (0, 1, 3)), _T(-1, (1, 2, 3))),
        "iii": (_T(1, (0, 1, 2)), _T(1, (1, 0, 2)), _T(-1, (0, 1, 3)), _T(-1, (1, 0, 3))),
        "iv": (_T(1, (2, 0, 1)), _T(1, (2, 1, 0)), _T(-1, (3, 0, 1)), _T(-1, (3, 1, 0))),
        "v": (_T(1, (2, 0, 1)), _T(1, (2, 1, 0)), _T(-1, (0, 1, 3)), _T(-1, (1, 0, 3))),
    },
    5: {
        "i": (_B(1, (0, 2)), _B(1, (1, 2)), _B(-1, (0, 1)), _T(-1, (0, 2, 1)), _T(-1, (1, 2, 0))),
        "ii": (_T(1, (0, 1, 2)), _B(1, (1, 3)), _T(-1, (0, 1, 3)), _T(-1, (0, 3, 2)), _T(-1, (3, 1, 2))),
        "iii": (_T(1, (0, 1, 2)), _B(1, (0, 3)), _T(-1, (0, 3, 2)), _T(-1, (3, 0, 1)), _T(-1, (3, 1, 2))),
        "iv": (_T(1, (0, 1, 2)), _B(1, (2, 3)), _T(-1, (0, 3, 2)), _T(-1, (0, 1, 3)), _T(-1, (1, 2, 3))),
        "v": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (3, 0, 1)), _T(-1, (3, 1, 2)), _T(-1, (3, 2, 0))),
        "vi": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (0, 1, 3)), _T(-1, (1, 2, 3)), _T(-1, (2, 0, 3))),
        "vii": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (2, 0, 1)), _T(-1, (3, 1, 2)), _T(-1, (3, 2, 1))),
        "viii": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (0, 1, 3)), _T(-1, (1, 0, 3)), _T(-1, (1, 2, 0))),
        "ix": (_T(1, (0, 1, 2)), _B(1, (0, 2)), _T(-1, (1, 2, 0)), _T(-1, (3, 0, 1)), _T(-1, (3, 1, 0))),
        "x": (_T(1, (2, 1, 0)), _B(1, (0, 2)), _T(-1, (0, 1, 3)), _T(-1, (0, 2, 1)), _T(-1, (1, 0, 3))),
    },
}


@lru_cache(maxsize=None)
def _minimal_representatives(k):
    """One minimal f-null family of size k per orbit under symbol renaming
    and global sign, from _null_families on four symbols.  k = 1 yields
    nothing; sizes above MAX_FAMILY_SIZE are refused (the census cost grows
    steeply)."""
    if k < 1:
        raise StructureError("family size must be positive")
    if k > MAX_FAMILY_SIZE:
        raise StructureError(
            "size %d is above the supported census limit %d" % (k, MAX_FAMILY_SIZE)
        )
    seen, reps = set(), []
    for fam in _null_families(k):  # minimality is an orbit invariant
        if fam not in seen:
            seen.update(_relabellings(fam))
            if _is_minimal_null(fam):
                reps.append(fam)
    return tuple(reps)


@lru_cache(maxsize=None)
def enumerate_f_connected(k):
    """Census of size-k families with vanishing, subset-minimal f-image.

    One FamilyTemplate per catalogue entry, in catalogue order: its
    canonical pattern, and as variants the valid families of the pattern,
    then those of each other shape-preserving identification, grouped by
    the class they reach.  The catalogue is checked against the census
    classes of _minimal_representatives: the templates and their variants
    reach exactly those classes, no two templates share a pattern, and none
    is an identification of another.
    """
    classes = {canonical_family(fam) for fam in _minimal_representatives(k)}
    templates, identified = [], set()
    for rid, entry in PATTERN_CATALOG.get(k, {}).items():
        pattern = canonical_family(next(_expand_pattern(entry)))
        (_, variants), *others = identifications(pattern)  # the identity first
        degenerations = {}
        for _, families in others:
            if families:
                degenerations.setdefault(canonical_family(families[0]), []).extend(families)
        identified.update(degenerations)
        variants = tuple(itertools.chain(variants, *degenerations.values()))
        symbols = len(_family_symbols(pattern))
        templates.append(FamilyTemplate("%d-%s" % (k, rid), symbols, pattern, variants))
    patterns = {t.pattern for t in templates}
    reached = patterns | {canonical_family(v) for t in templates for v in t.variants}
    if reached != classes or patterns & identified or len(patterns) < len(templates):
        raise StructureError("the size-%d catalogue does not match the census" % k)
    return tuple(templates)


# ---------------------------------------------------------------------------
# concrete families over a quandle


@lru_cache(maxsize=None)
def _placed_families(k):
    """Every minimal f-null family of size k whose colors are exactly 0..m-1
    for some m and whose term of least color word is positive, sorted, as
    (m, family, its negative) triples, the negative sorted too.  A renaming
    that keeps the order of the colors keeps a family's words in order, so
    every concrete family is the image of exactly one of these, or of its
    negative, on its own color set.  The families and their negatives share
    one pair per sign and word."""
    placed, pairs = set(), {}
    share = lambda fam: tuple(sorted([pairs.setdefault(t, t) for t in fam]))
    for rep in _minimal_representatives(k):
        for fam in _relabellings(rep):
            colors = {x for _, w in fam for x in w}
            if colors == set(range(len(colors))) and min(fam, key=itemgetter(1))[0] > 0:
                placed.add((len(colors), share(fam)))
    return tuple((m, fam, share([(-s, w) for s, w in fam])) for m, fam in sorted(placed))


def concrete_families(q, k, codes=None):
    """Every minimal f-null color family of size k over q (k <=
    MAX_FAMILY_SIZE), each once, as a sorted tuple of (sign, color word):
    each placed family renamed in order onto every m-set of q's colors, and
    its negative, m-set by m-set.  f never consults the index, so each is
    such a family at degree 0 and any one index its words are given.

    The renaming works a column at a time: the column of a sign, a word on
    0..m-1 and m holds that (sign, word) pair renamed onto each m-set in
    turn, and a placed family's columns read across give its families at
    every m-set.  Families read from one column share its pairs.  An
    order-keeping renaming keeps the words in order, so the negative of a
    placed family reads its columns in one fixed order too.

    codes = (word_code, wanted) keeps only the families whose code, the sum
    of sign * word_code[w] over their terms, lies in `wanted`, in the same
    order: one column of word_code values per word and m, summed over a
    placed family's terms, gives its code at every m-set at once, and a
    family is built only where it or its negative (the code negated) is
    kept.
    """
    word_code, wanted = codes or (None, None)
    placed = _placed_families(k)
    pair_cols, code_cols = {}, {}  # m -> {(sign, word on 0..m-1): column}
    for m in {m for m, _, _ in placed}:
        m_sets = list(itertools.combinations(range(q.size), m))
        pairs, signed_codes = pair_cols[m], code_cols[m] = {}, {}
        for w in color_words(m, 3):
            renamed = list(map(itemgetter(*w), m_sets))
            for s in (1, -1):
                pairs[s, w] = [(s, x) for x in renamed]
            if word_code is not None:
                signed_codes[1, w] = list(map(word_code.__getitem__, renamed))
                signed_codes[-1, w] = list(map(neg, signed_codes[1, w]))
    if word_code is not None:
        negated = {-code for code in wanted}  # the codes whose negative is wanted
        either = wanted | negated
    out = []
    for m, fam, negative in placed:
        if word_code is not None:
            family_codes = list(map(sum, zip(*map(code_cols[m].__getitem__, fam))))
            if either.isdisjoint(family_codes):
                continue
        plus, minus = list(map(pair_cols[m].__getitem__, fam)), list(map(pair_cols[m].__getitem__, negative))
        if word_code is None:
            out.extend(itertools.chain.from_iterable(zip(zip(*plus), zip(*minus))))
            continue
        for j, code in enumerate(family_codes):
            if code in wanted:
                out.append(tuple([column[j] for column in plus]))
            if code in negated:
                out.append(tuple([column[j] for column in minus]))
    return out


def family_count(n, k):
    """len(concrete_families(q, k)) for every quandle q of n elements: each
    placed family on m colors gives two families per m-set."""
    return sum(2 * math.comb(n, m) for m, _, _ in _placed_families(k))
