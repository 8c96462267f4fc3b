"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All arithmetic is exact, so value comparisons carry zero
tolerance; the only tolerances are the stated time budgets.

Criterion 11 is split.  11a checks the attainable clauses.  11b checks the
two published exhaustion clauses for the octahedral cocycle eta at length 7
(the single-degree window and the two-degree window with profile BC) over
the complex C^Q_3(X; Z x X) that `quandlehom.chains` defines, and asserts
the verdict the evidence supports: both windows hold length-7 cycles that
pair nonzero with eta.  It re-checks every witness with face maps written
here from the quandle table, and shows by mod-3 elimination that
H_3^Q(O_6; F_3) is one-dimensional and that every witness projects to a
nonzero class in it, so the verdict does not depend on how eta's seeds were
transcribed (see README "A finding").  `PAPER.md` holds only the abstract,
so it cannot show that the paper measures length over this same complex.
"""

import itertools
import random
import time
from contextlib import contextmanager

from quandlehom.chains import boundary, f_map, g_map, sigma_shift
from quandlehom.cocycles import (
    eta_octahedral,
    evaluate,
    mochizuki,
    triple_points_from_file,
    verify_cocycle_condition,
    weight_sum,
)
from quandlehom.kernels import (
    build_slice,
    chain_to_vector,
    kernel_fg,
    verify_catalog_identity,
    verify_named_cycle,
)
from quandlehom.quandles import (
    TAU_O6,
    check_axioms,
    check_isomorphism,
    dual,
    make_dihedral,
    make_octahedral,
    triple_action_table,
)
from quandlehom.search import _sign_normal_key
from quandlehom.structure import canonical_family, enumerate_f_connected, reflection, reverse
from quandlehom.tables import index_pattern_rows

from common import ETA7_TERMS, _nondegenerate, _oracle_boundary, cached_search, in_lattice, random_chain

FIX = "fixtures"


@contextmanager
def criterion(number, budget_seconds, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print("FAIL criterion %-3s (%6.2fs): %s" % (number, elapsed, label))
        raise
    elapsed = time.monotonic() - start
    print("PASS criterion %-3s (%6.2fs): %s" % (number, elapsed, label))
    assert elapsed < budget_seconds, "criterion %s exceeded %ss" % (number, budget_seconds)


def test_criterion_01_axioms():
    with criterion(1, 1.0, "quandle axioms hold exhaustively"):
        for n in (3, 5, 7, 11):
            assert check_axioms(make_dihedral(n)).ok
        assert check_axioms(make_octahedral()).ok


def test_criterion_02_octahedral_construction():
    with criterion(2, 1.0, "octahedral table census, fixed points, duality"):
        q = make_octahedral()
        table = triple_action_table(q)
        golden = {}
        with open(FIX + "/o6_triple_action.txt") as fh:
            for line in fh:
                a, b, c, _, v = line.split()
                golden[(int(a), int(b), int(c))] = int(v)
        assert table == golden
        assert len(table) == 150
        for a in range(6):
            for b in range(6):
                assert (q.apply(a, b) == a) == (b in (a, (a + 3) % 6))
        assert check_isomorphism(TAU_O6, q, dual(q))


def test_criterion_03_cocycle_conditions():
    with criterion(3, 5.0, "cocycle condition on all 4-generators"):
        report = verify_cocycle_condition(mochizuki(7))
        assert report.ok and report.checked == 1512
        report = verify_cocycle_condition(eta_octahedral())
        assert report.ok and report.checked == 750
        for n in (3, 5, 11):
            assert verify_cocycle_condition(mochizuki(n)).ok


def test_criterion_04_explicit_cycles():
    with criterion(4, 1.0, "length-8 witness cycles pair to 6 and 1"):
        rep = verify_named_cycle("zeta8")
        assert rep.ok and rep.length == 8 and rep.value == 6
        rep = verify_named_cycle("eta8")
        assert rep.ok and rep.length == 8 and rep.value == 1


def test_criterion_05_weight_sums():
    with criterion(5, 1.0, "triple-point weights evaluate to 6 and 1"):
        recs = triple_points_from_file(FIX + "/twistspun_52_2.tp")
        assert weight_sum(mochizuki(7), recs) == 6
        recs = triple_points_from_file(FIX + "/twistspun_trefoil_4.tp")
        assert weight_sum(eta_octahedral(), recs) == 1


# Independent transcription of the published family patterns (symbols
# a,b,c,d as 0..3; <x,y> marks a bigon).
def _pat(*entries):
    out = []
    for sign, kind, colors in entries:
        if kind == "B":
            x, y = colors
            out.append((sign, (x, y, x)))
        else:
            out.append((sign, colors))
    return canonical_family(out)


ACCEPT_PATTERNS = {
    2: [
        _pat((1, "B", (0, 1)), (-1, "B", (0, 1))),
    ],
    3: [
        _pat((1, "B", (0, 1)), (-1, "T", (2, 0, 1)), (-1, "T", (2, 1, 0))),
        _pat((1, "B", (0, 1)), (-1, "T", (0, 1, 2)), (-1, "T", (1, 0, 2))),
    ],
    4: [
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (2, 0, 1)), (-1, "B", (1, 2))),
        _pat((1, "T", (0, 1, 2)), (1, "T", (0, 2, 3)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 2, 3))),
        _pat((1, "T", (0, 1, 2)), (1, "T", (1, 0, 2)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 0, 3))),
        _pat((1, "T", (2, 0, 1)), (1, "T", (2, 1, 0)), (-1, "T", (3, 0, 1)), (-1, "T", (3, 1, 0))),
        _pat((1, "T", (2, 0, 1)), (1, "T", (2, 1, 0)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 0, 3))),
    ],
    5: [
        _pat((1, "B", (0, 2)), (1, "B", (1, 2)), (-1, "B", (0, 1)), (-1, "T", (0, 2, 1)), (-1, "T", (1, 2, 0))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (1, 3)), (-1, "T", (0, 1, 3)), (-1, "T", (0, 3, 2)), (-1, "T", (3, 1, 2))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 3)), (-1, "T", (0, 3, 2)), (-1, "T", (3, 0, 1)), (-1, "T", (3, 1, 2))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (2, 3)), (-1, "T", (0, 3, 2)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 2, 3))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (3, 0, 1)), (-1, "T", (3, 1, 2)), (-1, "T", (3, 2, 0))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 2, 3)), (-1, "T", (2, 0, 3))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (2, 0, 1)), (-1, "T", (3, 1, 2)), (-1, "T", (3, 2, 1))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (0, 1, 3)), (-1, "T", (1, 0, 3)), (-1, "T", (1, 2, 0))),
        _pat((1, "T", (0, 1, 2)), (1, "B", (0, 2)), (-1, "T", (1, 2, 0)), (-1, "T", (3, 0, 1)), (-1, "T", (3, 1, 0))),
        _pat((1, "T", (2, 1, 0)), (1, "B", (0, 2)), (-1, "T", (0, 1, 3)), (-1, "T", (0, 2, 1)), (-1, "T", (1, 0, 3))),
    ],
}


def test_criterion_06_family_census():
    with criterion(6, 30.0, "family census counts 0/1/2/5/10, pattern for pattern"):
        assert enumerate_f_connected(1) == ()
        for k in (2, 3, 4, 5):
            templates = enumerate_f_connected(k)
            assert {t.pattern for t in templates} == set(ACCEPT_PATTERNS[k])
        assert [len(enumerate_f_connected(k)) for k in (1, 2, 3, 4, 5)] == [0, 1, 2, 5, 10]


def test_criterion_07_kernel_structure():
    with criterion(7, 30.0, "slice kernels: dihedral rank 2 / support 16, octahedral vanishing"):
        sl = build_slice(make_dihedral(7), index=0, cell=0)
        ker = kernel_fg(sl)
        assert ker.rank == 2
        basis = [chain_to_vector(sl, chain) for chain in ker.lattice_basis]
        supports = set()
        best = None
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == 0 and b == 0:
                    continue
                vec = [a * x + b * y for x, y in zip(*basis)]
                support = sum(1 for v in vec if v)
                supports.add(support)
                best = support if best is None else min(best, support)
        assert best == 16 and supports == {16, 24}
        # the three 8-term blocks are kernel members with the (a,b,a+b) weights
        from test_kernels import r7_member

        for alpha, beta in ((1, 0), (0, 1), (2, 3)):
            member = r7_member(alpha, beta)
            assert not f_map(member) and not g_map(member, make_dihedral(7))
            assert in_lattice(basis, chain_to_vector(sl, member))
        q6 = make_octahedral()
        eta = eta_octahedral()
        ranks = {}
        for cell in range(6):
            kr = kernel_fg(build_slice(q6, index=0, cell=cell))
            ranks[cell] = kr.rank
            for chain in kr.lattice_basis:
                assert evaluate(eta, chain) == 0
        assert ranks == {0: 6, 1: 3, 2: 3, 3: 0, 4: 3, 5: 3}


def test_criterion_08_index_pattern_tables():
    with criterion(8, 120.0, "index-pattern tables match the published row sets"):
        from test_tables import CASES, normalize_expected, normalize_generated

        for k, shape, expected in CASES:
            if shape in ("5",):
                continue  # the published claim for this bucket is refuted; below
            got = {normalize_generated(r) for r in index_pattern_rows(k, shape)}
            want = {normalize_expected(r) for r in expected}
            assert got == want, (k, shape)
        counts = [
            len(index_pattern_rows(4, "2+2")),
            len(index_pattern_rows(4, "3+1")),
            len(index_pattern_rows(4, "4")),
            len(index_pattern_rows(5, "3+2")),
            len(index_pattern_rows(5, "4+1")),
        ]
        assert counts == [16, 3, 4, 22, 4]


def test_criterion_09_boundary_identities():
    with criterion(9, 1.0, "explicit four-term boundary identities"):
        for name in ("r7-3plus3", "r7-3plus4", "o6-2plus4", "o6-3plus3"):
            assert verify_catalog_identity(name), name


def test_criterion_10_symmetry_identities():
    with criterion(10, 10.0, "reverse/reflection identities on 1000 random chains each"):
        rng = random.Random(2026)
        R7, O6 = make_dihedral(7), make_octahedral()
        for _ in range(1000):
            q = O6 if rng.random() < 0.5 else R7
            dq = dual(q)
            c = random_chain(rng, q, arity=3)
            assert reverse(reverse(c, q), dq) == c
            assert f_map(reverse(c, q)) == -reverse(g_map(sigma_shift(c, -1), q), q)
            assert g_map(reverse(c, q), dq) == -reverse(f_map(sigma_shift(c, -1)), q)
        for _ in range(1000):
            c = random_chain(rng, R7, arity=3)
            assert reflection(reflection(c, R7), R7) == c
            assert f_map(reflection(c, R7)) == reflection(f_map(c), R7)
            assert g_map(reflection(c, R7), R7) == reflection(g_map(c, R7), R7)


def test_criterion_11_searches_attainable_clauses():
    with criterion("11a", 1800.0, "searches: dihedral exhaustion, octahedral finds, coverage"):
        # dihedral: single-degree exhaustion at length 7
        rep = cached_search("r7", 7)
        assert rep.exhausted and not rep.found
        assert "EXHAUSTED" in rep.certificate_text()
        # dihedral: two-degree windows complete with an exhaustion certificate
        rep = cached_search("r7", 7, "double", "BC")
        assert rep.refused is None and rep.exhausted
        assert any("bottom layer size" in line for line in rep.covered)
        # octahedral: a nonzero-pairing cycle is found at max length 8,
        # including the embedded length-8 witness itself
        rep = cached_search("o6", 8)
        assert rep.found
        from quandlehom.kernels import named_cycle

        keys = {_sign_normal_key(fc.chain.terms) for fc in rep.found}
        assert _sign_normal_key(named_cycle("eta8")[0].terms) in keys
        # octahedral two-degree window completes (coverage stated), no refusal
        rep = cached_search("o6", 7, "double", "BC")
        assert rep.refused is None
        assert any("bottom layer size" in line for line in rep.covered)


# Oracles for criterion 11b, written from the definitions over q.table alone
# (no chains.boundary, f_map or g_map); the boundary is the shared one in
# tests/common.py.


def _project_mod(terms, p):
    """Forget degree and index (the trivial coefficient set), reduce mod p."""
    out = {}
    for (_, _, colors), coeff in terms.items():
        out[colors] = (out.get(colors, 0) + coeff) % p
    return {w: c for w, c in out.items() if c}


def _reduce_mod(pivots, vector, p):
    """The remainder of a sparse vector against an echelon basis mod p."""
    v = dict(vector)
    while True:
        hits = [w for w in v if w in pivots]
        if not hits:
            return v
        lead = min(hits)
        c = v[lead]
        for w, d in pivots[lead].items():
            x = (v.get(w, 0) - c * d) % p
            if x:
                v[w] = x
            else:
                del v[w]


def _echelon_mod(vectors, p):
    """Echelon basis mod p of the span, keyed by each vector's leading word."""
    pivots = {}
    for vector in vectors:
        r = _reduce_mod(pivots, vector, p)
        if r:
            lead = min(r)
            inv = pow(r[lead], -1, p)
            pivots[lead] = {w: c * inv % p for w, c in r.items()}
    return pivots


def _words(q, m):
    return [w for w in itertools.product(range(q.size), repeat=m) if _nondegenerate(w)]


def _boundary_image_mod(q, m, p):
    """Echelon basis mod p of the boundary's image on the trivial-coefficient m-chains."""
    images = (_project_mod(_oracle_boundary({(0, 0, w): 1}, q.table), p) for w in _words(q, m))
    return _echelon_mod(images, p)


def test_criterion_11_published_exhaustion_claims():
    """The published exhaustion claims for (O6, eta, length 7), in the
    single-degree window and the two-degree window with profile BC, checked
    over the complex C^Q_3(X; Z x X) that chains.py defines.  Both windows
    hold witnesses that refute them (README "A finding"); each witness is
    re-checked here by oracles independent of the library.
    """
    with criterion("11b", 1800.0, "published length-7 exhaustion claims for the octahedral cocycle are refuted"):
        O6, eta = make_octahedral(), eta_octahedral()
        single = cached_search("o6", 7)
        double = cached_search("o6", 7, "double", "BC")
        p = eta.modulus
        image4 = _boundary_image_mod(O6, 4, p)
        dim_h3 = len(_words(O6, 3)) - len(_boundary_image_mod(O6, 3, p)) - len(image4)
        assert dim_h3 == 1  # H_3^Q(O6; F_3)
        for rep in (single, double):
            assert rep.refused is None, "%s window refused: %s" % (rep.config.window, rep.refused)
            assert rep.found, "%s window found no cycle pairing nonzero with eta" % rep.config.window
            for fc in rep.found:
                terms = fc.chain.terms
                assert sum(abs(c) for c in terms.values()) <= 7, fc.chain
                assert not _oracle_boundary(terms, O6.table), fc.chain
                pairing = sum(c * eta.value(*t[2]) for t, c in terms.items()) % p
                assert pairing == fc.value != 0, fc.chain
                assert _reduce_mod(image4, _project_mod(terms, p), p), (
                    "%r is a boundary mod %d" % (fc.chain, p)
                )

        eta7 = {t: c for c, t in ETA7_TERMS}
        found = {frozenset(fc.chain.terms.items()) for fc in single.found}
        assert frozenset(eta7.items()) in found or (
            frozenset((t, -c) for t, c in eta7.items()) in found
        )


def test_criterion_12_two_term_cycle_check():
    with criterion(12, 1.0, "two-term trivial-coefficient chain: boundary 0, pairing 2"):
        q3 = make_dihedral(3)
        from quandlehom.chains import chain_from_file

        chain = chain_from_file(FIX + "/r3_len2_cycle.chain")
        assert not boundary(chain, q3)
        assert evaluate(mochizuki(3), chain) == 2
