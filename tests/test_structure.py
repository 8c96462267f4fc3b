import hashlib
import itertools
import random

import pytest

from quandlehom.chains import Chain, ChainError, f_map, g_map, length, sigma_shift
from quandlehom.quandles import QuandleError, dual, make_dihedral, make_octahedral
from quandlehom import search
from quandlehom.search import _DIGIT_BITS, _g_codes
from quandlehom.structure import (
    MAX_FAMILY_SIZE,
    PATTERN_CATALOG,
    StructureError,
    TermTable,
    _minimal_representatives,
    _null_families,
    _placed_families,
    _relabellings,
    cancel_search,
    canonical_family,
    concrete_families,
    enumerate_f_connected,
    family_count,
    identifications,
    reflection,
    relabel_chain,
    reverse,
    reverse_o6,
)

from common import degree_bucket, random_chain, zeta8_chain

R7 = make_dihedral(7)
O6 = make_octahedral()


def _families_at(q, k, index):
    """The census families of size k stamped at one degree-0 index, sorted."""
    return [tuple((sign, (0, index, w)) for sign, w in fam) for fam in sorted(concrete_families(q, k))]


def _closes_lands(t, q):
    """(a == c, a^b == c) for the arity-3 term t = (n, u; a, b, c).  The pair
    decides which faces of f and g degenerate; the tests name it the term's
    type: 0 for (True, True), 1 for (True, False), 2 for (False, True), 3 for
    (False, False)."""
    a, b, c = t[2]
    return a == c, q.apply(a, b) == c


def _is_minimal_null(signed_terms, image):
    """True when the same-degree signed 3-terms have zero image under the face
    map `image` (f_map, or g_map bound to a quandle) and no proper nonempty
    subset does."""

    def null(subset):
        return not image(Chain.from_signed_terms(subset, arity=3, graded=True))

    return null(signed_terms) and not any(
        null(sub)
        for r in range(1, len(signed_terms))
        for sub in itertools.combinations(signed_terms, r)
    )


# -- which faces close and land ---------------------------------------------


def test_type_of_dihedral_bigon_is_one():
    for a in range(7):
        for b in range(7):
            if a != b:
                assert _closes_lands((0, 0, (a, b, a)), R7) == (True, False)


def test_type_zero_exactly_at_antipodal_bigons():
    for a in range(6):
        for b in range(6):
            if a != b:
                assert _closes_lands((0, 0, (a, b, a)), O6) == (True, b == (a + 3) % 6)


def test_type_of_open_triple():
    # 0^1 = 5 != 2 and 0 != 2, so (0,1,2) neither closes nor lands.
    assert O6.apply(0, 1) == 5
    assert _closes_lands((0, 0, (0, 1, 2)), O6) == (False, False)
    assert _closes_lands((0, 0, (0, 1, O6.apply(0, 1))), O6) == (False, True)


def test_no_dihedral_type_zero():
    # In R_7, a^b = a only for b = a, so no term both closes and lands.
    for a in range(7):
        for b in range(7):
            for c in range(7):
                if a != b != c:
                    assert _closes_lands((0, 0, (a, b, c)), R7) != (True, True)


# -- reverse ---------------------------------------------------------------


def test_reverse_single_term():
    c = Chain.single(1, 2, 3, (0, 6, 1))
    out = reverse(c, R7)
    # index 3^{0 6 1}: 3^0=4, 4^6=1, 1^1=1; colors (0^{6 1}, 6^1, 1).
    expected_index = R7.act_word(3, (0, 6, 1))
    assert expected_index == 1
    ((n, u, colors),) = list(out.terms)
    assert n == -2
    assert u == 1
    assert colors == (R7.act_word(0, (6, 1)), R7.apply(6, 1), 1)


def test_reverse_is_involution():
    rng = random.Random(31)
    for q in (R7, O6):
        dq = dual(q)
        for _ in range(50):
            c = random_chain(rng, q, arity=3)
            assert reverse(reverse(c, q), dq) == c


def test_reverse_swaps_types_one_and_two():
    # A term that closes reverses to one that lands over the dual, and back.
    rng = random.Random(32)
    for q in (R7, O6):
        dq = dual(q)
        for _ in range(200):
            c = random_chain(rng, q, arity=3, nterms=1)
            if not c:
                continue
            (t,) = list(c.terms)
            rt = list(reverse(c, q).terms)[0]
            assert _closes_lands(rt, dq) == _closes_lands(t, q)[::-1]


def test_reverse_intertwines_face_maps():
    # Degree bookkeeping forces the inverse shift here: reversing a chain at
    # degree n lands at -n, and only g o sigma^{-1} comes back to -n.
    rng = random.Random(33)
    for q in (R7, O6):
        dq = dual(q)
        for _ in range(100):
            c = random_chain(rng, q, arity=3)
            assert f_map(reverse(c, q)) == -reverse(g_map(sigma_shift(c, -1), q), q)
            assert g_map(reverse(c, q), dq) == -reverse(f_map(sigma_shift(c, -1)), q)


def test_reverse_o6_lands_in_o6():
    rng = random.Random(34)
    c = random_chain(rng, O6, arity=3)
    pulled = reverse_o6(c, O6)
    # Pullback composed with double reverse over the relabelled dual restores c.
    assert relabel_chain(pulled, (0, 1, 5, 3, 4, 2)) == reverse(c, O6)


def test_reverse_requires_graded():
    with pytest.raises(ChainError):
        reverse(Chain.single(1, 0, 0, (0, 1, 2), graded=False), O6)


# -- reflection ------------------------------------------------------------


def test_reflection_rejects_non_dihedral():
    with pytest.raises(QuandleError):
        reflection(Chain.single(1, 0, 0, (0, 1, 2)), O6)


def test_reflection_is_involution_and_preserves_type():
    rng = random.Random(35)
    for _ in range(100):
        c = random_chain(rng, R7, arity=3)
        assert reflection(reflection(c, R7), R7) == c
    for _ in range(200):
        c = random_chain(rng, R7, arity=3, nterms=1)
        if not c:
            continue
        (t,) = list(c.terms)
        (rt,) = list(reflection(c, R7).terms)
        assert _closes_lands(rt, R7) == _closes_lands(t, R7)


def test_reflection_commutes_with_face_maps():
    rng = random.Random(36)
    for _ in range(100):
        c = random_chain(rng, R7, arity=3)
        assert f_map(reflection(c, R7)) == reflection(f_map(c), R7)
        assert g_map(reflection(c, R7), R7) == reflection(g_map(c, R7), R7)


def test_reflection_preserves_f_connectedness():
    rng = random.Random(37)
    fams = _families_at(R7, 3, 2)
    for fam in rng.sample(fams, 40):
        chain = Chain.from_signed_terms(fam, arity=3, graded=True)
        mirrored = reflection(chain, R7)
        terms = [(c, t) for t, c in mirrored.items_sorted()]
        assert _is_minimal_null(terms, f_map)


# -- minimal null families ---------------------------------------------------


def test_components_of_bigon_pair():
    terms = [(1, (0, 0, (0, 1, 0))), (-1, (0, 0, (1, 0, 1)))]
    assert _is_minimal_null(terms, f_map)


def test_components_split_disjoint_pairs():
    terms = [
        (1, (0, 0, (0, 1, 0))),
        (-1, (0, 0, (1, 0, 1))),
        (1, (0, 2, (3, 4, 3))),
        (-1, (0, 2, (4, 3, 4))),
    ]
    assert not f_map(Chain.from_signed_terms(terms, arity=3, graded=True))
    assert not _is_minimal_null(terms, f_map)
    assert _is_minimal_null(terms[:2], f_map) and _is_minimal_null(terms[2:], f_map)


def test_components_report_residual():
    terms = [(1, (0, 0, (0, 1, 2)))]
    assert f_map(Chain.from_signed_terms(terms, arity=3, graded=True))
    assert not _is_minimal_null(terms, f_map)


def test_zeta8_bottom_layer_is_f_null():
    assert not f_map(degree_bucket(zeta8_chain(), 0))


def test_g_connected_iff_reverses_f_connected():
    rng = random.Random(38)
    for q in (R7, O6):
        dq = dual(q)
        fams = _families_at(dq, 3, 1)
        for fam in rng.sample(fams, 25):
            # Reverse each dual-quandle term back over q; the reversed family
            # must be g-connected there.
            chain = Chain.from_signed_terms(fam, arity=3, graded=True)
            rev = reverse(chain, dq)
            terms = [(coeff, t) for t, coeff in rev.items_sorted()]
            assert _is_minimal_null(terms, lambda c: g_map(c, q))


def test_f_connected_families_share_index():
    for k in (2, 3):
        for fam in _families_at(O6, k, 4)[:50]:
            assert {t[1] for _, t in fam} == {4}


# -- census ----------------------------------------------------------------


def test_census_counts():
    assert [len(enumerate_f_connected(k)) for k in range(1, 6)] == [0, 1, 2, 5, 10]


@pytest.mark.parametrize("n", range(3, 9))
def test_family_count_is_the_number_of_concrete_families(n):
    q = make_dihedral(n)
    assert [family_count(n, k) for k in range(2, 6)] == [len(concrete_families(q, k)) for k in range(2, 6)]


@pytest.mark.parametrize("q", [O6, R7, make_dihedral(5)], ids=["o6", "r7", "r5"])
def test_code_first_instantiation_keeps_the_wanted_codes(q):
    # Filtered by codes, concrete_families lists exactly the families of the
    # unfiltered listing whose code is wanted, in the same order.
    _, word_code, _ = _g_codes(TermTable(q))
    rng = random.Random(q.size)
    for k in range(2, 6):
        every = concrete_families(q, k)
        code = {fam: sum(sign * word_code[w] for sign, w in fam) for fam in every}
        codes = sorted(set(code.values()))
        wanted = {0} | set(rng.sample(codes, len(codes) // 3))
        kept = concrete_families(q, k, (word_code, wanted))
        assert kept == [fam for fam in every if code[fam] in wanted], k


@pytest.mark.parametrize("q", [O6, R7], ids=["o6", "r7"])
def test_column_wise_code_filter_matches_the_unfiltered_listing(q, monkeypatch):
    # The wanted sets are the ones the searches at L = 7 and 8 build for
    # their lookup-only sizes, recorded as the search hands them over, plus
    # a seeded one that holds some codes together with their negatives.
    # Each keeps, in the unfiltered order, a family whose code is wanted and
    # the negative of one whose negated code is.
    table = TermTable(q)
    _, word_code, _ = _g_codes(table)
    asked = []

    def recording(q, k, codes=None):
        if codes is not None:
            asked.append(codes[1])
        return concrete_families(q, k, codes)

    monkeypatch.setattr(search, "concrete_families", recording)
    for max_length in (7, 8):
        search._family_indexes(table, q, max_length)
    monkeypatch.undo()
    assert len(asked) == 3  # sizes 4 and 5 at L = 7, size 5 at L = 8
    every = {k: concrete_families(q, k) for k in range(2, 6)}
    code = {fam: sum(s * word_code[w] for s, w in fam) for listing in every.values() for fam in listing}
    picked = random.Random(7).sample(sorted(set(code.values())), len(set(code.values())) // 10)
    paired = set(picked) | {-c for c in picked[::2]}
    assert any(c and -c in paired for c in paired)
    for wanted in asked + [paired]:
        for k, listing in every.items():
            kept = concrete_families(q, k, (word_code, wanted))
            assert kept == [fam for fam in listing if code[fam] in wanted], k
            kept = set(kept)
            for fam in listing:
                negative = tuple(sorted((-s, w) for s, w in fam))
                assert (negative in kept) == (-code[fam] in wanted)
    assert any(concrete_families(q, 5, (word_code, wanted)) for wanted in asked)


def _null_by_every_subset(table, family):
    """The oracle for is_minimal_null: the f-image of every nonempty
    subfamily, summed term by term; null for the whole family only."""
    images = [{face: sign * c for face, c in table.f[t]} for sign, t in family]
    for r in range(1, len(family) + 1):
        for sub in itertools.combinations(images, r):
            total = {}
            for image in sub:
                for face, c in image.items():
                    total[face] = total.get(face, 0) + c
            if not any(total.values()) and r < len(family):
                return False
            if r == len(family):
                return not any(total.values())


def test_minimality_test_agrees_with_every_subset():
    # is_minimal_null tests subfamilies of up to half the family's size: a
    # null subfamily leaves a null complement once the whole image vanishes.
    # It sums integer f-codes, exact while every summed coefficient stays
    # below 2**(_DIGIT_BITS-1): each term has 3 faces, and the unions of two
    # families below reach 10 terms, 3 * 10 < 2**5.
    terms = lambda fam: [(s, (0, 0, w)) for s, w in fam]
    symbolic = [fam for k in range(2, 6) for _, plus, minus in _placed_families(k) for fam in (plus, minus)]
    for table, families in (
        (TermTable(O6), [fam for k in range(2, 6) for fam in concrete_families(O6, k)]),
        (TermTable(R7), [fam for k in range(2, 6) for fam in concrete_families(R7, k)][::3]),
        (TermTable(None, symbols=4), symbolic),
    ):
        _check_minimality_test(table, [terms(fam) for fam in families])
    # The census the minimality test feeds is unchanged.
    assert [len(_minimal_representatives(k)) for k in range(2, 6)] == [1, 2, 9, 24]
    assert [len(_placed_families(k)) for k in range(2, 6)] == [1, 12, 75, 468]


def _check_minimality_test(table, minimal):
    for family in minimal:
        assert table.is_minimal_null(family) and _null_by_every_subset(table, family), family
    # Unions of two families with disjoint terms are null but not minimal.
    rng = random.Random(5)
    unions = longest = 0
    while unions < 300:
        a, b = rng.sample(minimal, 2)
        if {t for _, t in a} & {t for _, t in b}:
            continue
        union = a + b
        assert not table.is_minimal_null(union) and not _null_by_every_subset(table, union), union
        assert not table.image(union, table.f)
        unions, longest = unions + 1, max(longest, len(union))
    assert longest == 10 and 3 * longest < 2 ** (_DIGIT_BITS - 1)
    # One term dropped: not null, for either test.
    for family in minimal[::7]:
        assert not table.is_minimal_null(family[1:]) and not _null_by_every_subset(table, family[1:])


def test_census_bytes_are_pinned():
    # Templates, variants and their order: the catalogue the index-pattern
    # tables refer to and the census `enumerate families` prints.  The
    # searches take their families from the placed listing, not from these.
    census = repr([enumerate_f_connected(k) for k in range(1, 6)]).encode()
    assert (
        hashlib.sha256(census).hexdigest()
        == "8ee40c57e042ea18bcacbef3d1c65dc0169ec99262878fa46a68347d97236ec7"
    )


def test_census_listings_are_pinned():
    # The orbit representatives and the placed families the searches rename
    # onto a quandle's colors, byte for byte.
    reps = repr([_minimal_representatives(k) for k in range(1, 6)]).encode()
    placed = repr([_placed_families(k) for k in range(2, 6)]).encode()
    assert hashlib.sha256(reps).hexdigest() == "403bce3c3c7ade8ca21c042bc8fbda13d12e44b13a52f188df7f909d6777eae8"
    assert hashlib.sha256(placed).hexdigest() == "efd8ac914cd586948ca7eb146c81fba4b257e8249203628539dfa7d25f00cf2a"


def _relabellings_by_term(family):
    """The oracle for _relabellings: each renaming of the four symbols and
    global sign, applied color by color to every term."""
    return {
        tuple(sorted((g * s, tuple(perm[x] for x in w)) for s, w in family))
        for perm in itertools.permutations(range(4))
        for g in (1, -1)
    }


def _canonical_by_every_bijection(family):
    """The oracle for canonical_family: bigons collapsed to an unordered
    marker, then the least image over every bijection of the family's
    symbols onto 0..m-1 and global sign."""
    entries = [(s, "B", tuple(sorted(w[:2]))) if w[0] == w[2] else (s, "T", w) for s, w in family]
    syms = sorted({x for _, _, w in entries for x in w})
    best = None
    for perm in itertools.permutations(range(len(syms))):
        relab = dict(zip(syms, perm))
        for g in (1, -1):
            cand = []
            for s, kind, w in entries:
                w = tuple(relab[x] for x in w)
                cand.append((g * s, kind, tuple(sorted(w)) if kind == "B" else w))
            cand = tuple(sorted(cand))
            if best is None or cand < best:
                best = cand
    return best


def test_word_renamings_match_the_per_term_oracles():
    # _relabellings and canonical_family read precomputed renamings of the
    # symbolic words; the oracles rename color by color.
    closures = [fam for k in range(2, 6) for fam in _null_families(k)]
    variants = [v for k in range(2, 6) for t in enumerate_f_connected(k) for v in t.variants]
    assert len(closures) == 205 and len(variants) == 45
    for fam in closures + variants:
        assert set(_relabellings(fam)) == _relabellings_by_term(fam)
        assert canonical_family(fam) == _canonical_by_every_bijection(fam)
    # Five distinct symbols have no canonical form over the four-symbol words.
    with pytest.raises(StructureError):
        canonical_family([(1, (0, 1, 2)), (-1, (2, 3, 4))])


def test_census_matches_five_symbol_search_from_every_anchor():
    # The census searches four symbols from two anchors, once per orbit.
    # Reference: five symbols, every term an anchor, every family tested.
    table = TermTable(None, symbols=5)
    for k in range(2, 6):
        found = set()

        def close(family, _):
            if len(family) == k:
                found.add(tuple(sorted((s, t[2]) for s, t in family)))

        cancel_search(table, k, close, anchors=[(t,) for t in table.terms])
        minimal = [
            fam for fam in found if table.is_minimal_null([(s, (0, 0, w)) for s, w in fam])
        ]
        assert all(len({x for _, w in fam for x in w}) <= 4 for fam in minimal)
        classes = {canonical_family(fam) for fam in minimal}
        assert all(canonical_family(fam) == _canonical_by_every_bijection(fam) for fam in minimal)
        assert len(classes) == [1, 2, 6, 11][k - 2]
        assert classes == {canonical_family(v) for t in enumerate_f_connected(k) for v in t.variants}
        # Over five colors, every family of the listing once, as a sorted
        # tuple (the join's stamping keeps the order): each minimal family
        # found from its least term, and its negative.
        listed = concrete_families(make_dihedral(5), k)
        negatives = {tuple(sorted((-s, w) for s, w in fam)) for fam in minimal}
        assert set(listed) == set(minimal) | negatives
        assert len(listed) == len(set(listed)) == [20, 240, 1020, 5040][k - 2]
        assert all(fam == tuple(sorted(fam)) for fam in listed)


def test_census_rejects_large_k():
    with pytest.raises(StructureError):
        enumerate_f_connected(MAX_FAMILY_SIZE + 1)


def test_census_matches_catalog_pattern_for_pattern():
    # Oracle: the census classes less every class that a shape-preserving
    # identification of some class, other than the identity, reaches.
    for k in range(2, 6):
        classes = {canonical_family(fam) for fam in _minimal_representatives(k)}
        reached = set()
        for pattern in classes:
            found = identifications(pattern)
            next(found)
            reached.update(canonical_family(fam) for _, fams in found for fam in fams)
        assert sorted(t.pattern for t in enumerate_f_connected(k)) == sorted(classes - reached)


@pytest.mark.parametrize(
    "change",
    [
        lambda entries: entries.pop("v"),
        # a size-4 class that identifying two symbols of a template reaches
        lambda entries: entries.setdefault(
            "vi", ((-1, "T", (0, 1, 2)), (-1, "T", (0, 2, 1)), (1, "T", (1, 2, 0)), (1, "T", (2, 1, 0)))
        ),
    ],
    ids=["drop-v", "add-folded"],
)
def test_census_refuses_a_mismatched_catalog(monkeypatch, change):
    entries = dict(PATTERN_CATALOG[4])
    change(entries)
    monkeypatch.setitem(PATTERN_CATALOG, 4, entries)
    enumerate_f_connected.cache_clear()
    try:
        with pytest.raises(StructureError):
            enumerate_f_connected(4)
    finally:
        enumerate_f_connected.cache_clear()


def test_quoted_size_four_template_is_present():
    # +(a,b,c) +<a,c> -(c,a,b) -<b,c> up to canonical form.
    fam = [(1, (0, 1, 2)), (1, (0, 2, 0)), (-1, (2, 0, 1)), (-1, (1, 2, 1))]
    want = canonical_family(fam)
    assert want in {t.pattern for t in enumerate_f_connected(4)}


def test_instances_are_minimal_f_null_over_both_quandles():
    rng = random.Random(39)
    for q in (R7, O6):
        for k in (2, 3, 4, 5):
            fams = _families_at(q, k, 0)
            assert fams
            for fam in rng.sample(fams, min(30, len(fams))):
                chain = Chain.from_signed_terms(fam, arity=3, graded=True)
                assert length(chain) == k
                assert not f_map(chain)
                terms = [(coeff, t) for t, coeff in chain.items_sorted()]
                assert _is_minimal_null(terms, f_map)


def test_census_instances_match_direct_search():
    # Independent cross-check at small size: scan all efficient signed pairs
    # and triples at one index of O_6 for vanishing minimal f-image.
    from quandlehom.chains import f_map as f

    def all_terms(q, index):
        return [
            (0, index, (a, b, c))
            for a in range(q.size)
            for b in range(q.size)
            if b != a
            for c in range(q.size)
            if c != b
        ]

    def sign_normal(fam):
        flipped = tuple(sorted((-s, t) for s, t in fam))
        return min(fam, flipped)

    terms = all_terms(O6, 2)
    direct2 = set()
    for i, t1 in enumerate(terms):
        for t2 in terms[i:]:
            for s1, s2 in ((1, 1), (1, -1)):
                if t1 == t2 and s2 == -1:
                    continue
                chain = Chain.from_signed_terms([(s1, t1), (s2, t2)], 3, graded=True)
                if length(chain) == 2 and not f(chain):
                    direct2.add(sign_normal(tuple(sorted([(s1, t1), (s2, t2)]))))
    census2 = {sign_normal(fam) for fam in _families_at(O6, 2, 2)}
    assert direct2 == census2


@pytest.mark.parametrize("q", [O6, R7], ids=["o6", "r7"])
def test_seeded_scan_finds_the_families_that_cancel_its_seed(q):
    # Seeded with -g(F) as its g residual and an empty f residual, the scan
    # from the empty family meets every minimal f-null family at F's index
    # with the g-image of F, and closes on no empty family.
    table = TermTable(q)
    census = {}
    for fam in _families_at(q, 3, 0):
        census.setdefault(tuple(sorted(table.image(fam, table.g).items())), set()).add(tuple(sorted(fam)))
    for image, families in list(census.items())[::7]:
        closed = set()

        def close(family, gres):
            assert family
            if not gres and table.is_minimal_null(family):
                closed.add(tuple(sorted(family)))

        seed = ({}, {face: -c for face, c in image})
        cancel_search(table, 3, close, (), g_cancel=table.g_cancel[0], seed=seed)
        assert closed == families
