import itertools
import random

import pytest

from quandlehom.chains import (
    Chain,
    ChainError,
    boundary,
    chain_from_text,
    chain_to_text,
    f_map,
    g_map,
    length,
    project_pi,
    sigma_shift,
)
from quandlehom.quandles import FiniteQuandle, check_axioms, make_dihedral, make_octahedral

from common import _oracle_boundary, degree_bucket, degrees, eta8_chain, random_chain, zeta8_chain

R7 = make_dihedral(7)
O6 = make_octahedral()


def single(coeff, n, u, colors, graded=True):
    return Chain.single(coeff, n, u, colors, graded=graded)


def test_term_rejects_adjacent_equal_colors():
    with pytest.raises(ChainError, match="degenerate colors"):
        Chain.single(1, 0, 0, (1, 1, 2))


@pytest.mark.parametrize(
    "signed_terms, graded, match",
    [
        ([(1, (0, 0, (1, 1, 2)))], True, "degenerate colors"),
        ([(1, (0, 0, (0, 1, 2))), (-1, (0, 0, (0, 2, 2)))], True, "degenerate colors"),
        ([(1, (0, 0, (1, 2)))], True, "wrong arity"),
        ([(1, (1, 0, (0, 1, 2)))], False, "trivial coefficients"),
    ],
    ids=["degenerate", "degenerate-second", "arity", "trivial-degree"],
)
def test_from_signed_terms_checks_each_term(signed_terms, graded, match):
    with pytest.raises(ChainError, match=match):
        Chain.from_signed_terms(signed_terms, arity=3, graded=graded)


def test_f_of_bigon_term():
    # Hand expansion: dropping the middle position leaves equal neighbours,
    # so only the two outer deletions survive, both negative.
    c = single(1, 0, 0, (0, 1, 0))
    expected = single(-1, 0, 0, (1, 0)) + single(-1, 0, 0, (0, 1))
    assert f_map(c) == expected


def test_f_of_bigon_pair_vanishes():
    c = single(1, 0, 0, (0, 1, 0)) - single(1, 0, 0, (1, 0, 1))
    assert not f_map(c)


def test_f_of_single_term_never_vanishes():
    for q in (R7, O6):
        for a in range(q.size):
            for b in range(q.size):
                if b == a:
                    continue
                for c in range(q.size):
                    if c == b:
                        continue
                    assert f_map(single(1, 0, 0, (a, b, c)))


def test_g_drops_middle_term_at_antipodal_bigon():
    # Over O_6 with colors (0, 3, 0): 0^3 = 0 makes the middle image
    # degenerate; index 1 moves to 1^0 = 2 on the surviving pieces.
    c = single(1, 0, 1, (0, 3, 0))
    out = g_map(c, O6)
    expected = single(1, 1, 2, (3, 0)) + single(1, 1, 2, (0, 3))
    assert out == expected


def test_g_of_antipodal_bigon_pair_matches_four_term_expansion():
    c = single(1, 0, 1, (0, 3, 0)) - single(1, 0, 1, (3, 0, 3))
    out = g_map(c, O6)
    expected = (
        single(1, 1, 2, (3, 0))
        + single(1, 1, 2, (0, 3))
        - single(1, 1, 5, (0, 3))
        - single(1, 1, 5, (3, 0))
    )
    assert out == expected


def test_g_of_dihedral_bigon_pair_has_six_terms():
    # Hand expansion with u=0, a=0, b=1 over R_7:
    #   g(+(0,0;0,1,0)) = +(1,0;1,0) - (1,2;2,0) + (1,0;0,6)
    #   g(-(0,0;1,0,1)) = -(1,2;0,1) + (1,0;6,1) - (1,2;1,2)
    c = single(1, 0, 0, (0, 1, 0)) - single(1, 0, 0, (1, 0, 1))
    out = g_map(c, R7)
    expected = (
        single(1, 1, 0, (1, 0))
        - single(1, 1, 2, (2, 0))
        + single(1, 1, 0, (0, 6))
        - single(1, 1, 2, (0, 1))
        + single(1, 1, 0, (6, 1))
        - single(1, 1, 2, (1, 2))
    )
    assert out == expected
    assert length(out) == 6


def test_f_preserves_degree_g_raises_by_one():
    rng = random.Random(11)
    for _ in range(50):
        c = random_chain(rng, O6, arity=3)
        if not c:
            continue
        for t in f_map(c).terms:
            assert t[0] in degrees(c)
        lo, hi = degrees(c)[0], degrees(c)[-1]
        for t in g_map(c, O6).terms:
            assert lo + 1 <= t[0] <= hi + 1


def test_f_output_never_degenerate():
    rng = random.Random(12)
    for _ in range(100):
        c = random_chain(rng, R7, arity=4)
        for (_, _, colors) in f_map(c).terms:
            assert all(colors[i] != colors[i + 1] for i in range(len(colors) - 1))


@pytest.mark.parametrize("q", [R7, O6], ids=["R7", "O6"])
@pytest.mark.parametrize("arity", [3, 4])
def test_boundary_squares_to_zero_on_generators(q, arity):
    def colors_of(ar):
        if ar == 0:
            yield ()
            return
        for prefix in colors_of(ar - 1):
            for x in range(q.size):
                if not prefix or prefix[-1] != x:
                    yield prefix + (x,)

    for colors in colors_of(arity):
        gen = single(1, 0, 0, colors)
        assert not boundary(boundary(gen, q), q)


def test_boundary_of_four_term_matches_six_term_expansion():
    # Hand expansion of the square-colored 4-generator over O_6 at index 0:
    # f drops two degenerate faces, g twists the index to 0^0 = 0 and 0^1 = 5.
    c = single(1, 0, 0, (0, 1, 0, 1))
    expected = (
        single(1, 0, 0, (0, 1, 0))
        - single(1, 0, 0, (1, 0, 1))
        + single(1, 1, 0, (0, 2, 1))
        + single(1, 1, 0, (1, 0, 1))
        - single(1, 1, 5, (5, 0, 1))
        - single(1, 1, 5, (5, 1, 5))
    )
    assert boundary(c, O6) == expected


def test_boundary_of_empty_chain():
    assert not boundary(Chain(3, True), O6)


def test_project_pi_accumulates():
    c = single(1, 0, 0, (0, 6, 1)) + single(1, 1, 5, (0, 6, 1))
    out = project_pi(c)
    assert out == 2 * single(1, 0, 0, (0, 6, 1), graded=False)


TERM = (0, 0, (0, 6, 1))


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: chain_from_text("arity 3 graded\n1 0 0 0 6 1\n-1 0 0 0 6 1\n"), {}),
        (lambda: chain_from_text("arity 3 graded\n0 0 0 0 6 1\n"), {}),
        (lambda: chain_from_text("arity 3 graded\n1 0 0 0 6 1\n1 0 0 0 6 1\n"), {TERM: 2}),
        (lambda: Chain.from_signed_terms([(1, TERM), (-1, TERM)], 3), {}),
        (lambda: Chain(3, True, [(TERM, 1), (TERM, -1)]), {}),
        (lambda: single(1, *TERM) - single(1, *TERM), {}),
        (lambda: project_pi(single(1, *TERM) - single(1, 1, 5, TERM[2])), {}),
    ],
    ids=["text-cancel", "text-zero", "text-repeat", "signed", "init", "sub", "project-pi"],
)
def test_no_zero_coefficient_is_stored(build, expected):
    assert build().terms == expected


def test_project_pi_kills_degree_shift_differences():
    rng = random.Random(13)
    c = random_chain(rng, O6, arity=3)
    assert not project_pi(c - sigma_shift(c, 1))


def test_project_pi_of_eta8_has_eight_distinct_terms():
    out = project_pi(eta8_chain())
    assert len(out) == 8
    assert length(out) == 8


def test_length_counts_multiplicity():
    c = 2 * single(1, 0, 0, (0, 1, 2))
    assert length(c) == 2


def test_length_subadditive():
    rng = random.Random(14)
    for _ in range(200):
        c1 = random_chain(rng, R7, arity=3)
        c2 = random_chain(rng, R7, arity=3)
        assert length(c1 + c2) <= length(c1) + length(c2)


def test_zeta8_length_and_degree_buckets():
    c = zeta8_chain()
    assert length(c) == 8
    assert degrees(c) == [0, 1]
    assert length(degree_bucket(c, 0)) == 4
    assert length(degree_bucket(c, 1)) == 4


def test_degree_bucket_requires_graded():
    with pytest.raises(ChainError):
        degree_bucket(project_pi(zeta8_chain()), 0)


def test_sigma_shift_roundtrip_and_f_commutation():
    rng = random.Random(15)
    c = random_chain(rng, O6, arity=3)
    assert sigma_shift(c, 0) == c
    assert sigma_shift(sigma_shift(c, 1), -1) == c
    assert f_map(sigma_shift(c, 1)) == sigma_shift(f_map(c), 1)


def test_named_cycles_are_cycles():
    assert not boundary(zeta8_chain(), R7)
    assert not boundary(eta8_chain(), O6)


def test_single_term_is_never_a_cycle():
    assert boundary(single(1, 0, 0, (0, 1, 2)), O6)


def test_chain_text_roundtrip():
    c = zeta8_chain()
    again = chain_from_text(chain_to_text(c))
    assert again == c
    trivial = project_pi(c)
    assert chain_from_text(chain_to_text(trivial)) == trivial


def test_chain_text_rejects_garbage():
    with pytest.raises(ChainError):
        chain_from_text("arity x graded")
    with pytest.raises(ChainError):
        chain_from_text("arity 3 graded\n1 0 0 1 1 2")


# The face pass checks a face for equal neighbours only where dropping a color
# can make them meet.  These tests compare it with the oracle written from the
# operation table alone, over every generator, seeded random chains and a
# table whose columns are not permutations.

R3, R5 = make_dihedral(3), make_dihedral(5)
# a^b = b: every column is constant, so no column is a permutation.
CONSTANT = FiniteQuandle([[b for b in range(4)] for _ in range(4)], name="constant")


def _oracle_faces(chain, q):
    """The oracle's boundary; over trivial coefficients, degree and index are
    dropped and the coefficients summed."""
    out = _oracle_boundary(chain.terms, q.table)
    if chain.graded:
        return out
    flat = {}
    for (_, _, colors), c in out.items():
        flat[0, 0, colors] = flat.get((0, 0, colors), 0) + c
    return {t: c for t, c in flat.items() if c}


def assert_faces_match_oracle(chain, q):
    want = _oracle_faces(chain, q)
    assert boundary(chain, q).terms == want, chain
    assert (f_map(chain) + g_map(chain, q)).terms == want, chain


def test_constant_table_has_no_permutation_column():
    assert check_axioms(CONSTANT).bijectivity == [0, 1, 2, 3]


@pytest.mark.parametrize("q", [R3, R5, R7, O6, CONSTANT], ids=["R3", "R5", "R7", "O6", "constant"])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_faces_of_every_generator_match_the_oracle(q, arity):
    for word in itertools.product(range(q.size), repeat=arity):
        if any(a == b for a, b in zip(word, word[1:])):
            continue
        assert_faces_match_oracle(single(1, 0, 0, word, graded=False), q)
        for u in range(q.size):
            assert_faces_match_oracle(single(1, 2, u, word), q)


@pytest.mark.parametrize("q", [R3, O6, CONSTANT], ids=["R3", "O6", "constant"])
def test_faces_of_every_buildable_term_match_the_oracle(q):
    # Degenerate words included: each constructor refuses one or builds a
    # chain whose faces the oracle confirms.
    builders = (
        lambda w: Chain.single(1, 0, 1, w),
        lambda w: Chain(3, False, {(0, 0, w): 1}),
        lambda w: Chain.from_signed_terms([(1, (0, 1, w)), (1, (0, 0, (0, 1, 0)))], arity=3),
        lambda w: chain_from_text("arity 3 graded\n-1 0 1 %s\n" % " ".join(map(str, w))),
    )
    for word in itertools.product(range(q.size), repeat=3):
        for build in builders:
            try:
                chain = build(word)
            except ChainError:
                continue
            assert_faces_match_oracle(chain, q)


def test_faces_of_random_chains_match_the_oracle():
    # Terms are drawn from a pool of four words on three colors, so terms
    # repeat, coefficients cancel and faces of different terms meet.
    rng = random.Random(2026)
    quandles = (R3, R5, R7, O6, CONSTANT)
    for _ in range(2000):
        q = rng.choice(quandles)
        arity = rng.randint(1, 4)
        graded = rng.random() < 0.7
        words = [w for w in itertools.product(range(3), repeat=arity) if all(a != b for a, b in zip(w, w[1:]))]
        pool = [
            (rng.randint(0, 1), rng.randrange(q.size), w) if graded else (0, 0, w)
            for w in rng.sample(words, min(len(words), 4))
        ]
        picks = [(rng.choice((1, -1)), rng.choice(pool)) for _ in range(rng.randint(1, 10))]
        assert_faces_match_oracle(Chain.from_signed_terms(picks, arity, graded), q)
