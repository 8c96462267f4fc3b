import gc
import hashlib
from array import array

import pytest

from quandlehom import search as search_module
from quandlehom.chains import Chain, boundary, g_map, length, sigma_shift
from quandlehom.cocycles import ThreeCocycle, eta_octahedral, evaluate, mochizuki
from quandlehom.kernels import named_cycle
from quandlehom.quandles import (
    FiniteQuandle,
    automorphisms,
    make_dihedral,
    make_octahedral,
    resolve_quandle,
)
from quandlehom.search import (
    _DIGIT_BITS,
    MAX_SEARCH_LENGTH,
    ProbeBudget,
    SearchConfig,
    SearchError,
    SearchReport,
    _Cycles,
    _FamilyIndex,
    _family_indexes,
    _g_codes,
    _join_partition,
    _orbit_components,
    _partitions_into_parts,
    _sign_normal_key,
    search_min_cycles,
)
from quandlehom.structure import TermTable, relabel_chain, reverse_o6

from common import (
    ETA7_TERMS,
    _oracle_boundary,
    _sign_normal,
    cached_search,
    degree_bucket,
    degrees,
    oracle_cycles,
    reached_keys,
)

O6 = make_octahedral()
R7 = make_dihedral(7)
ETA = eta_octahedral()
ZETA = mochizuki(7)
# R3 plus a point 3 that every element fixes and that fixes every element:
# Aut(Q) has order 6 and two orbits of indices, {0, 1, 2} and {3}.
R3_PLUS_POINT = FiniteQuandle([[0, 2, 1, 0], [2, 1, 0, 1], [1, 0, 2, 2], [3, 3, 3, 3]])


def test_partitions_into_parts():
    assert set(_partitions_into_parts(7, 5)) == {(5, 2), (3, 2, 2), (4, 3)}
    assert set(_partitions_into_parts(6, 5)) == {(4, 2), (3, 3), (2, 2, 2)}
    assert set(_partitions_into_parts(2, 5)) == {(2,)}
    assert _partitions_into_parts(3, 2) == []


def test_config_validation():
    with pytest.raises(SearchError):
        search_min_cycles(SearchConfig(O6, ETA, max_length=9))
    with pytest.raises(SearchError):
        search_min_cycles(SearchConfig(O6, ETA, window="triple"))
    with pytest.raises(SearchError):
        search_min_cycles(SearchConfig(O6, ETA, window="single", profile="B"))
    with pytest.raises(SearchError):
        search_min_cycles(SearchConfig(O6, ETA, window="double", profile="A"))
    with pytest.raises(SearchError):  # the window holds lengths 6 and up only
        search_min_cycles(SearchConfig(O6, ETA, max_length=5, window="double", profile="BC"))


# The join against oracle_cycles (tests/common.py), a scan written from the
# quandle table alone: equal key sets, not just equal counts.


def _join_keys(q, theta, max_length):
    return reached_keys(search_min_cycles(SearchConfig(q, theta, max_length=max_length)))


def test_join_matches_direct_scan_small():
    oracle = oracle_cycles(O6.table, 5)
    assert _join_keys(O6, ETA, 5) == oracle
    assert len(oracle) == 120


def test_join_matches_direct_scan_at_six():
    # At length 6 the size 4 is only ever the largest part, looked up through
    # its projected codes under [4, 2]; one family of 4, 5 or 6 terms alone
    # comes from the component scan.
    oracle = oracle_cycles(O6.table, 6)
    assert reached_keys(cached_search("o6", 6)) == oracle
    assert len(oracle) == 1010


def test_join_matches_direct_scan_on_r3():
    # A second quandle with single-degree cycles below length 8 (R7 has none).
    r3 = make_dihedral(3)
    oracle = oracle_cycles(r3.table, 7)
    assert _join_keys(r3, mochizuki(3), 7) == oracle
    assert len(oracle) == 18


def test_join_matches_the_oracle_at_seven():
    # The headline length: every single-degree cycle of O6 up to length 7,
    # of which eta pairs nonzero with 96, the transcribed eta7 among them.
    oracle = oracle_cycles(O6.table, 7)
    assert reached_keys(cached_search("o6", 7)) == oracle
    assert len(oracle) == 2258
    nonzero = {key for key in oracle if sum(c * ETA.value(*t[2]) for t, c in key) % ETA.modulus}
    assert len(nonzero) == 96
    assert _sign_normal({t: c for c, t in ETA7_TERMS}) in nonzero


def test_join_matches_the_oracle_with_two_index_orbits():
    # The single families of every size are scanned at indices 0 and 3 only
    # and expanded over Aut(Q); a zero cocycle keeps every cycle.
    zero = ThreeCocycle(R3_PLUS_POINT, 3, {}, name="zero")
    for max_length, cycles in ((6, 1438), (7, 4828)):
        rep = search_min_cycles(SearchConfig(R3_PLUS_POINT, zero, max_length=max_length))
        oracle = oracle_cycles(R3_PLUS_POINT.table, max_length)
        assert reached_keys(rep) == oracle
        assert not rep.found and rep.zero_value_cycles == cycles
        assert len(oracle) == cycles
        for size, count in zip(range(2, max_length + 1), (6, 18, 27, 24, 50, 150)):
            assert "length %d as one family (index scan, %d hits)" % (size, count) in rep.covered


@pytest.fixture(scope="module")
def full_indexes():
    """q -> (its degree-0 TermTable, every family size 2..5 unfiltered),
    built once per quandle and freed with the module: the R7 size-5 store
    alone stamps 229,320 families."""
    built = {}

    def get(q):
        key = tuple(map(tuple, q.table))
        if key not in built:
            table = TermTable(q)
            columns, pcode = _g_codes(table)
            built[key] = table, {size: _FamilyIndex(table, q, size, columns, pcode) for size in range(2, 6)}
        return built[key]

    yield get
    built.clear()


def _join_partitions(max_length):
    """Every partition a join lists up to max_length: two parts or more,
    each of a census size 2..5."""
    return [p for l in range(2, max_length + 1) for p in _partitions_into_parts(l, min(5, l - 2))]


@pytest.mark.parametrize(
    "q, max_length", [(O6, 6), (R7, 6), (make_dihedral(3), 7)], ids=["o6", "r7", "r3"]
)
def test_join_lists_each_cycle_once_per_partition(q, max_length, full_indexes):
    # A cycle and its negative are listed by one join, from the sign whose
    # least family of the smallest part size is below the negative of every
    # family of that size: each partition lists a cycle at most once, and
    # together with the one-family cycles of the component scan they list
    # every cycle the oracle finds.
    table, index = full_indexes(q)
    budget = ProbeBudget(10**9, "test")
    union = set()
    for partition in _join_partitions(max_length):
        listed = []
        _join_partition(partition, index, budget, lambda counter: listed.append(Chain(3, True, counter)))
        keys = [_sign_normal_key(chain.terms) for chain in listed]
        assert len(set(keys)) == len(keys), partition
        union.update(keys)
    for fams in _orbit_components(table, max_length, automorphisms(q), budget).values():
        union.update(_sign_normal_key(Chain.from_signed_terms(fam, arity=3, graded=True).terms) for fam in fams)
    assert union == oracle_cycles(q.table, max_length)
    # one family alone is the component scan's, never a join's
    with pytest.raises(AssertionError, match="two parts or more"):
        _join_partition((5,), index, budget, union.add)


@pytest.mark.parametrize("n", [6, 7, 5, 3], ids=["o6", "r7", "r5", "r3"])
def test_lookup_only_sizes_hold_the_full_buckets_of_their_codes(n, full_indexes):
    # The join's part sizes are 2..min(5, L - 2).  A size h with 2h > L
    # holds exactly the g-codes its lookups ask for: -gcode(F) for every
    # family F of the signed listings of the sizes 2..L-h.  Each holds
    # exactly the full index's families of that code.
    q = O6 if n == 6 else make_dihedral(n)
    table, full = full_indexes(q)
    for max_length in range(2, 9):
        indexes = _family_indexes(table, q, max_length)
        assert list(indexes) == list(range(2, min(5, max_length - 2) + 1))
        for size, sized in indexes.items():
            assert (sized.codes is None) == (2 * size <= max_length)
            if sized.codes is None:
                assert sized.store == full[size].store, (max_length, size)
                continue
            asked = {-gkey for s in range(2, max_length - size + 1) for _, gkey in full[s].signed()[1]}
            assert sized.codes == asked == sized.store.keys()
            for gkey in asked:
                assert list(sized.get(gkey)) == list(full[size].get(gkey)), (max_length, size)


@pytest.mark.parametrize("q", [O6, R7], ids=["o6", "r7"])
def test_join_listings_are_the_same_with_lookup_only_indexes(q, full_indexes):
    # Every partition lists the same cycles in the same order, for the same
    # probes, from the search's indexes as from full ones.  At L = 8 only
    # the partitions whose largest part is lookup-only are listed: (5, 2)
    # and (5, 3).
    table, full = full_indexes(q)

    def listing(partition, index):
        budget, listed = ProbeBudget(10**9, "test"), []
        _join_partition(partition, index, budget, listed.append)
        return listed, budget.probes

    expected = {}
    for max_length in range(2, 9):
        index = _family_indexes(table, q, max_length)
        for partition in _join_partitions(max_length):
            if max_length == 8 and 2 * partition[0] <= max_length:
                continue
            if partition not in expected:
                expected[partition] = listing(partition, full)
            assert listing(partition, index) == expected[partition], (max_length, partition)
    assert {(5, 2), (5, 3)} <= expected.keys()


def test_lookup_only_index_refuses_other_codes(full_indexes):
    table, full = full_indexes(O6)
    sized, full = _family_indexes(table, O6, 7)[5], full[5]
    assert any(full.get(gkey) for gkey in sized.codes)
    for gkey in sized.codes:
        assert list(sized.get(gkey)) == list(full.get(gkey))
    # a g-code that holds families in the full index, and one that holds none
    outside = [
        next(gkey for gkey in sorted(full.store) if gkey not in sized.codes),
        next(gkey for gkey in range(1, 10**6) if gkey not in sized.codes and gkey not in full.store),
    ]
    for gkey in outside:
        with pytest.raises(AssertionError, match="outside the index's codes"):
            sized.get(gkey)
    with pytest.raises(AssertionError, match="lookup-only"):
        sized.families()


@pytest.mark.parametrize(
    "q, max_length",
    [(O6, 7), (R7, 7), (O6, 8), (R7, 8), (R3_PLUS_POINT, 8)],
    ids=["o6", "r7", "o6-8", "r7-8", "r3+point"],
)
def test_orbit_components_are_the_scan_at_every_index(q, max_length):
    # The trivial group scans every index from every term: the reference
    # for the scan at one index per Aut(Q)-orbit, once per orbit of that
    # index's stabiliser, expanded over Aut(Q).
    table = TermTable(q)

    def scan(max_length, group=automorphisms(q)):
        return _orbit_components(table, max_length, group, ProbeBudget(10**9, "test"))

    hits = scan(max_length)
    assert sorted(hits) == list(range(2, max_length + 1))
    every = scan(max_length, [tuple(range(q.size))])
    assert hits == every
    # one scan of size L files the hits of each smaller size's own scan
    for size in range(2, max_length):
        assert hits[size] == scan(size)[size], size


def _oracle_window(keys, table, sizes, max_length):
    """The two-degree window among oracle keys: degrees exactly {0, 1}, a
    bottom layer T0 of `sizes` terms with g(T0) != 0 (the degree-1 part of
    its boundary), length 6..max_length."""
    kept = set()
    for key in keys:
        bottom = {t: c for t, c in key if t[0] == 0}
        if (
            {t[0] for t, _ in key} == {0, 1}
            and sum(map(abs, bottom.values())) in sizes
            and 6 <= sum(abs(c) for _, c in key) <= max_length
            and any(face[0] == 1 for face in _oracle_boundary(bottom, table))
        ):
            kept.add(key)
    return kept


def test_double_window_matches_the_oracle_at_six():
    rep = cached_search("o6", 6, "double", "B")
    oracle = _oracle_window(oracle_cycles(O6.table, 6, top=1, cap=2), O6.table, (2,), 6)
    assert reached_keys(rep) == oracle
    assert len(oracle) == 480


@pytest.mark.parametrize("q", [O6, R7], ids=["o6", "r7"])
def test_g_codes_are_exact(q, full_indexes):
    # The codes are exact while every coefficient stays below 2**(D-1):
    # each term has at most 3 g-faces, each with coefficient +-1.
    assert 3 * MAX_SEARCH_LENGTH < 2 ** (_DIGIT_BITS - 1)
    table, full = full_indexes(q)
    assert all(len(faces) <= 3 and all(abs(c) == 1 for _, c in faces) for faces in table.g.values())
    assert table.terms == sorted(table.terms)  # so term ids sort as the terms do
    _, pcode = _g_codes(table)
    # Each term's g-faces as (face number, color word number, coefficient),
    # numbered as met; an image is kept as the bytes of its sorted nonzero
    # (number, coefficient) pairs, one per family of every size.
    face_no, word_no = {}, {}
    faces = [
        [(face_no.setdefault(f, len(face_no)), word_no.setdefault(f[2], len(word_no)), c) for f, c in g]
        for g in map(table.g.get, table.terms)
    ]
    images, projections = {}, {}  # code -> image
    for size in range(2, 6):
        for fam, gkey in full[size].families():
            image, projected = {}, {}
            for sign, i in fam:
                for face, word, c in faces[i]:
                    image[face] = image.get(face, 0) + sign * c
                    projected[word] = projected.get(word, 0) + sign * c
            pkey = sum([sign * pcode[table.terms[i][2]] for sign, i in fam])
            for by_code, code, found in ((images, gkey, image), (projections, pkey, projected)):
                found = array("h", [x for item in sorted(found.items()) if item[1] for x in item]).tobytes()
                assert by_code.setdefault(code, found) == found  # equal codes => equal images
    for by_code in (images, projections):
        assert len(set(by_code.values())) == len(by_code)  # equal images => equal codes
        # a g-null family, if any, has code 0, the code of the empty image
        assert all((code == 0) == (not image) for code, image in by_code.items())


def _digest(report):
    return hashlib.sha256(report.certificate_text().encode()).hexdigest()


# The certificate digests below pin the census, the join, the one-family
# component search and the two-degree boundary scan, and through the probes
# line of each certificate the probe counts of the whole run.  A change that
# alters probe counts or coverage text must update them and say why.


def test_o6_single_degree_clean_below_seven():
    rep = cached_search("o6", 6)
    assert rep.exhausted
    assert rep.zero_value_cycles > 0
    assert "EXHAUSTED" in rep.certificate_text()
    assert _digest(rep) == "fc90e705096f9413b88b53a07ba717d7bf2bb01c60eb1a3a61185e1f5e44fb9e"


def test_o6_single_degree_witnesses_at_seven():
    # The published case analysis claims none of these exist; the search
    # finds 96 of them (up to global sign), all of length exactly 7.
    rep = cached_search("o6", 7)
    assert len(rep.found) == 96
    for fc in rep.found:
        assert length(fc.chain) == 7
        assert not boundary(fc.chain, O6)
        assert evaluate(ETA, fc.chain) == fc.value != 0
    witness, _, _, value, _ = named_cycle("eta7")
    keys = {_sign_normal_key(fc.chain.terms) for fc in rep.found}
    assert _sign_normal_key(witness.terms) in keys
    assert value == 2
    assert _digest(rep) == "33fdfffadad3d1fed0394ead60bd5effd8636bfa3b5748166590043c5cb326e4"


def test_r7_single_degree_is_empty_to_seven():
    rep = cached_search("r7", 7)
    assert rep.exhausted
    assert rep.zero_value_cycles == 0
    assert len(rep.found) == 0
    assert _digest(rep) == "719e21ace95f7de6b3cae3e3102c607664145b7f1c402a1b1a022bc1588f15fe"


def _digest_apart_from_probes(report):
    text = report.certificate_text()
    kept = "".join(line for line in text.splitlines(True) if not line.startswith("probes "))
    return hashlib.sha256(kept.encode()).hexdigest()


def test_o6_double_window_clean_at_six():
    rep = cached_search("o6", 6, "double", "B")
    assert rep.exhausted
    assert rep.zero_value_cycles == 480
    assert _digest_apart_from_probes(rep) == "f0da21da6cd5ef75fad0167ce5a4c3355d1000340e228f7c75bcf3ee945b3e49"
    # the closures scan and the single window's run at length 4
    assert rep.probes == 7666


# The two-degree window's closures scan alone: its probes line less those of
# the single window's run at L - 2, which it also counts.  The scan starts
# once per Aut(Q)-orbit of degree-0 terms, and no later scan uses an orbit
# once it has been scanned from.
@pytest.mark.parametrize(
    "quandle, max_length, probes",
    [
        pytest.param(quandle, max_length, probes, id="%s-%d" % (quandle, max_length))
        for quandle, max_length, probes in [
            ("o6", 6, 28193),
            ("o6", 7, 135755),
            ("o6", 8, 789527),
            ("r7", 7, 95091),
            ("r7", 8, 928429),
        ]
    ],
)
def test_double_window_closures_scan_probes(quandle, max_length, probes):
    rep = cached_search(quandle, max_length, "double", "BC")
    assert rep.probes - cached_search(quandle, max_length - 2).probes == probes


# The single window's probes: the joins of two parts or more, then the scan
# of one family of every size 2..L at one index per Aut(Q)-orbit (O6 and R7
# have one orbit each), once per orbit of that index's stabiliser.
@pytest.mark.parametrize(
    "quandle, max_length, probes",
    [
        pytest.param(quandle, max_length, probes, id="%s-%d" % (quandle, max_length))
        for quandle, max_length, probes in [
            ("o6", 6, 6345),
            ("o6", 7, 8710),
            ("o6", 8, 81120),
            ("r7", 6, 6486),
            ("r7", 7, 6678),
            ("r7", 8, 66168),
        ]
    ],
)
def test_single_degree_probes(quandle, max_length, probes):
    assert cached_search(quandle, max_length).probes == probes


def test_r7_single_degree_at_eight_is_incomplete():
    # The report the probe count above already paid for: no witness, but
    # the 6+2 split lies outside the certified window, so nothing is claimed.
    rep = cached_search("r7", 8)
    assert len(rep.found) == 0
    assert rep.zero_value_cycles == 294
    assert rep.gaps == ["length 8 split 6+2 (outside the certified window)"]
    assert not rep.exhausted
    assert rep.certificate_text().splitlines()[-1].startswith("INCOMPLETE")


# The single-window certificates without their probes line.  They were
# last re-recorded when the one-family cycles of sizes 2..5 moved from the
# join to the component scan, which changed those sizes' covered lines.
@pytest.mark.parametrize(
    "quandle, max_length, digest",
    [
        pytest.param(quandle, max_length, digest, id="%s-%d" % (quandle, max_length))
        for quandle, max_length, digest in [
            ("o6", 5, "0e5202ab312df3d4a8a25ad9a1d539f5cc5237ae5123c81b6009f730d3a01957"),
            ("o6", 6, "c0d39e549a700e2c1f45d3def843af525415c9bace3d703e488836b4c62afa2d"),
            ("o6", 7, "8add4fefbd9f278e33fd135fe6b4c94e336a2cf46e06c4f0cb5c45d76078f65b"),
            ("o6", 8, "93e043ccf43a990e6a76a0e87575753cb22c4ab3d990d899714b488a1e137870"),
            ("r7", 5, "78ca7be50a42a7040c575454c6b81711b3a867a6926fa366c4cf9761d96456c7"),
            ("r7", 6, "15a52c47ff8d15786b1960290be42b32a03deb9ebabccd2df05bb6580608d770"),
            ("r7", 7, "2089b1f06b266b122cead691f108a67f7262440c4afd3b681ffe4eea136a2050"),
            ("r7", 8, "dbbaf2a5c18e6d65a3569824bc5835437682b859fe8cd02e0d725c4a9047fcf6"),
        ]
    ],
)
def test_single_degree_certificates_apart_from_probes(quandle, max_length, digest):
    assert _digest_apart_from_probes(cached_search(quandle, max_length)) == digest


# Single-window certificates at L = 2..5.  A family size s with 2s > L is
# only ever looked up as the largest part of the join, never listed as a
# smaller one; these are the lengths at which sizes cross that line.
@pytest.mark.parametrize(
    "quandle, max_length, digest",
    [
        pytest.param(quandle, max_length, digest, id="%s-%d" % (quandle, max_length))
        for quandle, max_length, digest in [
            ("o6", 2, "9cf919f1e54946d15a8ee6233197b575b14bfaa42a68bf4692338e3e61498add"),
            ("o6", 3, "212240e64e08e608eb4fa78915c30f23c7df6a08060b962ce0758eff58e7b99a"),
            ("o6", 4, "ae9574ca47b00daa723003b3c1ebec255e835828ead8b6109483e535996e19e0"),
            ("o6", 5, "4ac04788ce9c3b17176fb52953a19d15e8e350372ed10d5d7ae2a464daefaa2f"),
            ("r7", 2, "2884bb6dd0d50211dc9555da6627e5749904a3b138c9f70a5943c8b03a9c9568"),
            ("r7", 3, "c4d691af7f9b34b1639d2b08191a9951d76fadb0d531d3ce6c63469fe7d7a663"),
            ("r7", 4, "a40402251da1879162223b2535268b9a3f9d6c6ac852d6d03d067eed8299668f"),
            ("r7", 5, "ed41895acb2c26c333612862e61d532e4003619263cb27ac63215cb78b3760e5"),
        ]
    ],
)
def test_single_degree_certificates_at_the_lookup_edges(quandle, max_length, digest):
    assert _digest(cached_search(quandle, max_length)) == digest


def test_double_window_budget_bounds_the_whole_run():
    # The budget bounds the probes of the whole run: P complete, P - 1 are refused.
    total = cached_search("o6", 6, "double", "B").probes
    for budget, refused in ((total, False), (total - 1, True)):
        rep = search_min_cycles(
            SearchConfig(O6, ETA, max_length=6, window="double", profile="B", budget=budget)
        )
        assert bool(rep.refused) == refused
        assert ("after %d probes" % total in rep.refused) if refused else rep.probes == total
        if refused:  # a refused run reports no probes and no cycles
            assert (rep.probes, rep.zero_value_cycles, rep.found) == (0, 0, [])


def _key_set_digest(rep, theta):
    """The sha256 of the sorted (key, value) list of every cycle a report
    reached: each in its sign-normal form, paired with the cocycle in that
    form."""
    pairs = sorted((key, evaluate(theta, Chain(3, True, dict(key)))) for key in reached_keys(rep))
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


# The full key sets (both pairings) of the two-degree window, pinned from the engine
# it replaced (a top-layer cancellation search per 2- or 3-term bottom layer,
# with null families appended): the boundary scan must list the same cycles.
@pytest.mark.parametrize(
    "quandle, max_length, profile, cycles, digest",
    [
        ("o6", 6, "B", 480, "aab8eef135595ba1fa1f43d2234f3d53e4a2711155daaacf0bfc9dfe410a69fc"),
        ("o6", 7, "BC", 3504, "bb7183aaa6a9470569522d732fe07ebd61269ef29930952b3c068e520fcfb218"),
        ("r7", 7, "BC", 3234, "754c1b681cb67c8aeabaf31087fa7b2fc51caace0e005d7899b5e6fe8a3794e5"),
    ],
)
def test_double_window_key_sets_match_the_top_layer_engine(quandle, max_length, profile, cycles, digest):
    rep = cached_search(quandle, max_length, "double", profile)
    theta = ETA if quandle == "o6" else ZETA
    assert len(rep.found) + rep.zero_value_cycles == cycles
    assert _key_set_digest(rep, theta) == digest


@pytest.mark.parametrize(
    "quandle, max_length, cycles",
    [("dihedral:5", 6, 300), ("dihedral:5", 7, 700), ("dihedral:3", 8, 612)],
    ids=["r5-6", "r5-7", "r3-8"],
)
def test_double_window_scan_is_the_same_under_the_trivial_group(quandle, max_length, cycles):
    # The library's window on a third quandle against the oracle's, reduced
    # by Aut(Q) and unreduced.  Each longer length lets longer degree-1
    # cycles follow a closure.
    q = resolve_quandle(quandle)
    cfg = SearchConfig(q, mochizuki(q.size), max_length=max_length, window="double", profile="BC")
    rep = search_min_cycles(cfg)
    keys = reached_keys(rep)
    assert len(keys) == cycles
    if q.size == 5:  # every one pairs to zero, so the window is exhausted and says so
        assert rep.zero_value_cycles == cycles and not rep.found
        assert rep.exhausted and "EXHAUSTED" in rep.certificate_text()
    for group in (None, [tuple(range(q.size))]):
        oracle = oracle_cycles(q.table, max_length, top=1, group=group, cap=3)
        assert _oracle_window(oracle, q.table, (2, 3), max_length) == keys


# The two-degree window's certificates without their probes line: the
# covered lines, every printed chain, value and shape, and the count of
# cycles left to the single-degree window, which the window counts from the
# single window's cycles by length rather than lists.
@pytest.mark.parametrize(
    "quandle, profile, max_length, handed, digest",
    [
        pytest.param(*case, id="%s-%s-%d" % case[:3])
        for case in [
            ("o6", "B", 6, 792, "f0da21da6cd5ef75fad0167ce5a4c3355d1000340e228f7c75bcf3ee945b3e49"),
            ("o6", "BC", 7, 1368, "d5febf9a74fb61f2928c8be31a27d4a677fa8fc7c7073c692f81d6d44dc1eda3"),
            ("o6", "BC", 8, 12048, "1063925b241296ae6207fae9d51f979547c8e3574e6fe19681de7640655f0a2b"),
            ("r7", "BC", 7, 0, "47dd4a8b8e6ac8ad4a890391a82fcd26068d61f895a8409c8c411ebe8549582b"),
            ("r7", "BC", 8, 0, "1ce4cccfdfc3eba81b0fea62225cde606e2930d3106e06f94dd537afe98f7fe0"),
            ("dihedral:3", "BC", 7, 0, "7b4f349b5f657f1c88486a43beafa066678fd6e4d6ca8f973b1ef1c0c1453c5f"),
            ("dihedral:3", "BC", 8, 0, "5b8f152d97a088ddc5df374111d813b6feea7334026185462063c51533cab019"),
            ("dihedral:5", "BC", 6, 0, "a349944473c8a386e72423bf4705741f220d326863f004c8d0b41c858b25b99e"),
            ("dihedral:5", "BC", 8, 0, "a1335a8c51958b78581fd7f0c00371a1bd40838a40f7aef271f9003ae7215582"),
        ]
    ],
)
def test_double_window_certificates_apart_from_probes(quandle, profile, max_length, handed, digest):
    if quandle in ("o6", "r7"):
        rep = cached_search(quandle, max_length, "double", profile)
    else:
        q = resolve_quandle(quandle)
        rep = search_min_cycles(
            SearchConfig(q, mochizuki(q.size), max_length=max_length, window="double", profile=profile)
        )
    assert "left to the single-degree window: %d\n" % handed in rep.certificate_text()
    assert _digest_apart_from_probes(rep) == digest


def test_double_window_closures_without_a_degree_one_term_are_short_single_cycles(monkeypatch):
    # The scan cancels the least face first and degree-0 faces sort first,
    # so a closure's degree-0 layer T0 is f-null before any degree-1 term
    # joins it.  Hence a closure has no degree-1 term exactly when
    # g(T0) = 0, and such a closure is a single-window cycle of length 2
    # or 3: what lets the window count its g(T0) = 0 cycles.
    closures, scan = [], search_module.cancel_search

    def recording(images, cancel, size, on_close, anchors, **options):
        if options.get("cap") is not None:
            join = on_close

            def on_close(family, gres):
                closures.append(list(family))
                join(family, gres)

        scan(images, cancel, size, on_close, anchors, **options)

    monkeypatch.setattr(search_module, "cancel_search", recording)
    search_min_cycles(SearchConfig(O6, ETA, max_length=6, window="double", profile="B"))
    short = reached_keys(cached_search("o6", 3))
    alone = 0
    for family in closures:
        layer = Chain.from_signed_terms([(s, t) for s, t in family if t[0] == 0], arity=3, graded=True)
        flat = all(t[0] == 0 for _, t in family)
        assert flat == (not g_map(layer, O6).terms)
        if flat:
            alone += 1
            assert length(layer) in (2, 3) and _sign_normal_key(layer.terms) in short
    assert 0 < alone < len(closures)


def test_o6_double_window_has_no_gap_at_eight():
    # The top-layer engine left covers with four terms to spare unsearched at
    # L = 8, a gap; the scan has none, and finds the (2,6) and (3,5) cycles too.
    rep = cached_search("o6", 8, "double", "BC")
    assert not rep.gaps and rep.refused is None
    assert "gap" not in rep.certificate_text()
    split = {}
    for fc in rep.found:
        layers = tuple(length(degree_bucket(fc.chain, d)) for d in (0, 1))
        split[layers] = split.get(layers, 0) + 1
        assert not boundary(fc.chain, O6) and fc.value
    assert split == {(2, 5): 48, (2, 6): 192, (3, 5): 96}


def test_report_with_gap_is_not_exhausted():
    cfg = SearchConfig(O6, ETA, max_length=8, window="double", profile="B")
    rep = SearchReport(cfg, gaps=["top layer: 1 cover"])
    assert not rep.found and rep.refused is None
    assert not rep.exhausted
    text = rep.certificate_text()
    assert "gap top layer: 1 cover" in text
    assert "EXHAUSTED" not in text


def test_cocycle_must_live_on_the_searched_quandle():
    with pytest.raises(SearchError, match="does not live on the chosen quandle"):
        search_min_cycles(SearchConfig(make_dihedral(5), mochizuki(7)))


def _phase_probes(q, max_length):
    """The probes of the single window's two phases, run apart: every join
    of two parts or more on the search's indexes, then the component scan
    of one family of every size."""
    table = TermTable(q)
    index = _family_indexes(table, q, max_length)
    budget = ProbeBudget(10**9, "test")
    for partition in _join_partitions(max_length):
        _join_partition(partition, index, budget, lambda terms: None)
    joined = budget.probes
    _orbit_components(table, max_length, automorphisms(q), budget)
    return joined, budget.probes - joined


@pytest.mark.parametrize(
    "quandle, max_length", [("o6", 4), ("o6", 7), ("r7", 5), ("r7", 7)], ids=["o6-4", "o6-7", "r7-5", "r7-7"]
)
def test_single_window_probes_are_its_joins_and_its_scan(quandle, max_length):
    # Every probe of a run is a join state or a scan state: no phase
    # charges a count for work it does not do.
    q = O6 if quandle == "o6" else R7
    joined, scanned = _phase_probes(q, max_length)
    assert joined and scanned
    assert cached_search(quandle, max_length).probes == joined + scanned


@pytest.mark.parametrize("q, theta", [(O6, ETA), (R7, ZETA)], ids=["o6", "r7"])
def test_single_window_budget_is_exact(q, theta):
    # Every probe of the join and of the component scan counts against the
    # budget, one at a time: a run of P probes completes under budget P,
    # and every budget b < P is refused at probe b + 1, in the phase that
    # probe belongs to.  The scan runs last, so P - 1 is refused there.
    refusal = "%s exceeded the probe budget (after %d probes)"
    for max_length in range(2, 6):
        p = search_min_cycles(SearchConfig(q, theta, max_length=max_length)).probes
        rep = search_min_cycles(SearchConfig(q, theta, max_length=max_length, budget=p))
        assert rep.refused is None and rep.probes == p
        rep = search_min_cycles(SearchConfig(q, theta, max_length=max_length, budget=p - 1))
        assert rep.refused == refusal % ("component search", p)
    joined, scanned = _phase_probes(q, 5)
    assert joined + scanned == p
    for b in sorted({1, joined - 1, joined, joined + 1, *range(1, p, p // 7)}):
        rep = search_min_cycles(SearchConfig(q, theta, max_length=5, budget=b))
        phase = "single-degree join" if b < joined else "component search"
        assert rep.refused == refusal % (phase, b + 1), b


def test_cycle_recheck_rejects_a_non_cycle():
    # The re-check sums per-term boundary images, each taken once by
    # chains.boundary on the one-term chain; one flipped sign breaks a cycle.
    cycles = _Cycles(O6, ETA)
    witness = named_cycle("eta7")[0]
    terms = witness.items_sorted()
    broken = Chain(3, True, [(terms[0][0], -terms[0][1])] + terms[1:])
    with pytest.raises(AssertionError, match="search produced a non-cycle"):
        cycles.add(broken, "test")
    assert not cycles.found and not cycles.zero
    cycles.add(witness, "test")
    assert list(cycles.found) == [_sign_normal_key(witness.terms)]


@pytest.mark.parametrize("quandle, max_length", [("o6", 7), ("r7", 8)])
def test_cycle_pairing_sums_per_term_values(quandle, max_length):
    # The join hands _Cycles {term: coefficient}, no Chain: the key comes
    # from the dict's sorted items and the pairing from per-term values,
    # each taken once by evaluate on the one-term chain.  Every reached
    # cycle is fed back, the zero-pairing ones rebuilt from their keys.
    q, theta = (O6, ETA) if quandle == "o6" else (R7, ZETA)
    rep = cached_search(quandle, max_length)
    chains = [fc.chain for fc in rep.found] + [Chain(3, True, dict(key)) for key in sorted(rep.zero_cycles)]
    cycles = _Cycles(q, theta)
    for chain in chains:
        terms = dict(chain.terms)
        flipped = next(iter(terms))
        with pytest.raises(AssertionError, match="search produced a non-cycle"):
            cycles.add_terms({**terms, flipped: -terms[flipped]}, "test")
        cycles.add_terms(terms, "test")
        key, value = _sign_normal_key(chain.terms), evaluate(theta, chain)
        assert sum(c * cycles.values[t] for t, c in terms.items()) % theta.modulus == value
        if value:
            assert cycles.found[key].value == value and cycles.found[key].chain.terms == terms
        else:
            assert key in cycles.zero
    assert set(cycles.found) == {_sign_normal_key(fc.chain.terms) for fc in rep.found}
    assert cycles.zero == rep.zero_cycles
    assert len(rep.found) + len(rep.zero_cycles) == len(chains) > 0
    assert cycles.values.keys() == cycles.images.keys()
    for t, value in cycles.values.items():
        assert value == evaluate(theta, Chain(3, True, {t: 1}))


def _decoded(code, face_of):
    """{face: coefficient} of an image _code: its balanced base-2**_DIGIT_BITS
    digits, digit i the coefficient of face_of[i]."""
    image, place, half = {}, 0, 1 << (_DIGIT_BITS - 1)
    while code:
        digit = (code + half) % (1 << _DIGIT_BITS) - half
        if digit:
            image[face_of[place]] = digit
        code, place = (code - digit) >> _DIGIT_BITS, place + 1
    return image


def test_cycle_recheck_images_are_the_boundaries_of_the_terms():
    # Each term's boundary image is kept as one integer code.  Decoded, it
    # is chains.boundary on the one-term chain, with coefficients +-1 and at
    # most 3 faces at each of the term's two degrees: so a sum over at most
    # MAX_SEARCH_LENGTH terms keeps every face below 2**(_DIGIT_BITS-1) in
    # size, and the re-check's integer sum is exact.
    cycles = _Cycles(O6, ETA)
    for fc in cached_search("o6", 7).found:
        cycles.add(fc.chain, fc.shape)
    face_of = {number: face for face, number in cycles.faces.items()}
    assert len(face_of) == len(cycles.faces)
    assert cycles.images
    assert MAX_SEARCH_LENGTH < 2 ** (_DIGIT_BITS - 1)
    for t, code in cycles.images.items():
        image = _decoded(code, face_of)
        assert image == boundary(Chain(3, True, {t: 1}), O6).terms
        assert all(abs(c) == 1 for c in image.values())
        degrees = [face[0] for face in image]
        assert set(degrees) <= {t[0], t[0] + 1}
        assert max(degrees.count(t[0]), degrees.count(t[0] + 1)) <= 3


def test_searches_leave_no_cyclic_garbage():
    # A search's working set (indexes, tables, residual search state) is
    # freed when it returns, not at the next gc run: with the collector off,
    # a collection afterwards finds nothing unreachable.
    configs = [
        SearchConfig(O6, ETA, max_length=7),
        SearchConfig(O6, ETA, max_length=6, window="double", profile="B"),
        SearchConfig(O6, ETA, max_length=7, budget=5_000),  # refused in the join
        SearchConfig(O6, ETA, max_length=7, budget=10_000),  # refused in the component scan
    ]
    cached_search("o6", 7), cached_search("o6", 6, "double", "B")  # fill the per-process caches
    gc.collect()
    gc.disable()
    try:
        for cfg in configs:
            search_min_cycles(cfg)
            assert gc.collect() == 0, cfg
    finally:
        gc.enable()


def test_single_window_is_invariant_under_relabelling():
    # Relabelling the elements changes the sorted order, so the probes line
    # and which sign of a cycle is printed may change; the key sets, counts
    # and pairings of the cycles, mapped back, do not.
    perm = [3, 0, 5, 1, 4, 2]
    assert tuple(perm) not in {tuple(p) for p in automorphisms(O6)}
    inv = [perm.index(x) for x in range(6)]
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[perm[a]][perm[b]] = perm[O6.table[a][b]]
    q = FiniteQuandle(table, name="o6")
    theta = ThreeCocycle(q, ETA.modulus, {tuple(perm[x] for x in t): v for t, v in ETA.values.items()})
    rep = search_min_cycles(SearchConfig(q, theta, max_length=7))
    expected = cached_search("o6", 7)
    back = [relabel_chain(fc.chain, inv) for fc in rep.found]
    keys = {_sign_normal_key(fc.chain.terms) for fc in expected.found}
    assert {_sign_normal_key(c.terms) for c in back} == keys
    assert all(fc.value == evaluate(ETA, c) for fc, c in zip(rep.found, back))
    zero = {_sign_normal_key(relabel_chain(Chain(3, True, key), inv).terms) for key in rep.zero_cycles}
    assert zero == expected.zero_cycles
    assert rep.component_counts == expected.component_counts
    assert rep.covered == expected.covered


def test_budget_refusal():
    rep = search_min_cycles(SearchConfig(O6, ETA, max_length=7, window="single", budget=50))
    assert rep.refused
    assert not rep.found
    assert "REFUSED" in rep.certificate_text()


def test_certificate_mentions_coverage():
    rep = search_min_cycles(SearchConfig(R7, ZETA, max_length=4, window="single"))
    text = rep.certificate_text()
    assert "length 4 as [2, 2]" in text
    assert "probes" in text
    assert text == rep.certificate_text()


def test_found_cycles_are_two_layered_in_double_window():
    rep = cached_search("o6", 7, "double", "B")
    assert len(rep.found) == 48
    for fc in rep.found:
        assert degrees(fc.chain) == [0, 1]
        assert length(degree_bucket(fc.chain, 0)) == 2
        assert length(degree_bucket(fc.chain, 1)) == 5
        assert not boundary(fc.chain, O6)
        assert fc.value != 0


def test_double_window_witness_reverses_lie_outside_the_window():
    # Reversing a two-degree witness of O6 swaps its layers: each of the 48
    # becomes a distinct witness whose 5-term layer lies below its 2-term
    # layer, so the double window (2- or 3-term bottom layer) never lists it.
    rep = cached_search("o6", 7, "double", "BC")
    assert len(rep.found) == 48
    keys = {_sign_normal_key(fc.chain.terms) for fc in rep.found}
    reverses = [reverse_o6(fc.chain, O6) for fc in rep.found]
    assert len({_sign_normal_key(c.terms) for c in reverses}) == 48
    for c in reverses:
        assert degrees(c) == [-1, 0]
        assert [length(degree_bucket(c, d)) for d in (-1, 0)] == [5, 2]
        assert not boundary(c, O6)
        assert evaluate(ETA, c) != 0
        shifted = sigma_shift(c, 1)
        assert not boundary(shifted, O6)
        assert _sign_normal_key(shifted.terms) not in keys
