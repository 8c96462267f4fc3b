import hashlib
import itertools

import pytest

from quandlehom.structure import PATTERN_CATALOG, StructureError
from quandlehom.tables import SHAPES, _assignments, _case_variants, index_pattern_rows, rows_to_text

# Transcribed rows: (case, b, c, d-values, u-values or "any", blocks).
# Words use letters a..d; blocks are space-separated words.

ANY = "any"

K4_22 = [
    ("i", 1, 5, None, ANY, ["abc aca cac", "cab bcb cbc"]),
    ("i", 3, 1, None, (2, 5), ["abc cab", "aca cac bcb cbc"]),
    ("ii", 1, 2, (3,), (0, 3), ["abc acd", "abd bcd"]),
    ("ii", 1, 5, (3,), (2, 5), ["abc acd", "abd bcd"]),
    ("iii", 3, 1, (2, 5), ANY, ["abc bac", "abd bad"]),
    ("iii", 3, 1, (4,), (0, 2, 3, 5), ["abc bac", "abd bad"]),
    ("iv", 1, 2, (5,), (2, 5), ["cab dab", "cba dba"]),
    ("iv", 1, 5, (2,), (2, 5), ["cab dab", "cba dba"]),
    ("iv", 3, 1, (2, 5), ANY, ["cab cba", "dab dba"]),
    ("iv", 3, 1, (4,), (0, 2, 3, 5), ["cab cba", "dab dba"]),
    ("v", 1, 2, (5,), (1, 4), ["cab bad", "cba abd"]),
    ("v", 1, 3, (3,), (2, 5), ["cab bad", "cba abd"]),
    ("v", 1, 4, (4,), (2, 5), ["cab bad", "cba abd"]),
    ("v", 1, 5, (2,), (0, 3), ["cab bad", "cba abd"]),
    ("v", 3, 1, (2, 5), ANY, ["cab cba", "abd bad"]),
    ("v", 3, 1, (4,), (0, 2, 3, 5), ["cab cba", "abd bad"]),
]

K4_31 = [
    ("ii", 1, 2, (5,), (0, 3), ["abc abd bcd", "acd"]),
    ("ii", 1, 5, (2,), (0, 3), ["abc abd bcd", "acd"]),
    ("ii", 3, 1, (2, 5), (0, 3), ["abc acd bcd", "abd"]),
]

K4_4 = [
    ("iii", 3, 1, (4,), (1, 4), ["abc bac abd bad"]),
    ("iv", 3, 1, (4,), (1, 4), ["cab cba dab dba"]),
    ("v", 3, 1, (1,), ANY, ["cab cba abd bad"]),
    ("v", 3, 1, (4,), (1, 4), ["cab cba abd bad"]),
]

K5_32 = [
    ("ii", 1, 5, (3,), (0, 3), ["abc dbc", "bdb dbd abd adc"]),
    ("iii", 1, 5, (2,), (1, 4), ["abc ada dad", "adc dab dbc"]),
    ("iv", 1, 5, (3,), (1, 4), ["abc cdc dcd", "adc abd bcd"]),
    ("v", 1, 2, (3,), (0, 3), ["abc dab dbc", "aca cac dca"]),
    ("v", 1, 2, (3,), (1, 4), ["abc dab dca", "aca cac dbc"]),
    ("v", 1, 2, (3,), (2, 5), ["abc aca cac dab", "dbc dca"]),
    ("v", 1, 5, (2, 4), ANY, ["abc aca cac", "dab dbc dca"]),
    ("v", 1, 5, (3,), (1, 2, 4, 5), ["abc aca cac", "dab dbc dca"]),
    ("vi", 1, 2, (5,), (0, 3), ["abc abd bcd", "aca cac cad"]),
    ("vi", 1, 2, (5,), (1, 4), ["abc bcd cad", "aca cac abd"]),
    ("vi", 1, 2, (5,), (2, 5), ["abc aca cac bcd", "abd cad"]),
    ("vi", 1, 5, (2,), (1, 2, 4, 5), ["abc aca cac", "abd bcd cad"]),
    ("vi", 1, 5, (3, 4), ANY, ["abc aca cac", "abd bcd cad"]),
    ("vii", 1, 4, (3,), (0, 3), ["abc dbc dcb", "aca cac cab"]),
    ("viii", 1, 2, (3,), (2, 5), ["abc aca cac bad", "abd bca"]),
    ("ix", 1, 2, (3,), (2, 5), ["abc aca cac dab", "bca dba"]),
    ("ix", 1, 4, (4,), (0, 3), ["abc bca dba", "aca cac dab"]),
    ("ix", 1, 5, (3,), (0, 3), ["abc aca cac dab", "bca dba"]),
    ("ix", 3, 1, (1,), (0, 3), ["abc dab dba", "aca cac bca"]),
    ("x", 1, 4, (4,), (1, 4), ["cba abd acb", "aca cac bad"]),
    ("x", 1, 5, (3,), (0, 3), ["cba aca cac bad", "abd acb"]),
    ("x", 3, 1, (1, 4), (1, 4), ["cba abd bad", "aca cac acb"]),
]

K5_41 = [
    ("vii", 1, 4, (5,), (0, 3), ["aca cac cab dbc dcb", "abc"]),
    ("viii", 3, 1, (2,), (0, 3), ["aca cac abd bad bca", "abc"]),
    ("ix", 3, 1, (2,), (0, 3), ["aca cac bca dab dba", "abc"]),
    ("x", 3, 1, (5,), (1, 4), ["aca cac abd acb bad", "cba"]),
]

# The paper's case analysis asserts the all-equal size-5 bucket is empty;
# direct enumeration finds these two rows (cf. README "A finding"), and their
# u-values are exactly the ones missing from the published d=omega_3 rows.
K5_5 = [
    ("v", 1, 5, (3,), (0, 3), ["abc aca cac dab dbc dca"]),
    ("vi", 1, 5, (2,), (0, 3), ["abc aca cac abd bcd cad"]),
]


def normalize_expected(row):
    case, b, c, d, u, blocks = row
    dset = frozenset(d) if d is not None else frozenset()
    uset = frozenset(range(6)) if u == ANY else frozenset(u)
    part = frozenset(frozenset(block.split()) for block in blocks)
    return (case, b, c, dset, uset, part)


def normalize_generated(row):
    names = "abcd"
    part = frozenset(
        frozenset("".join(names[s] for s in word) for word in block)
        for block in row.partition
    )
    return (
        row.case_id,
        row.b,
        row.c,
        frozenset(row.d_values),
        frozenset(row.u_values),
        part,
    )


CASES = [
    (4, "2+2", K4_22),
    (4, "3+1", K4_31),
    (4, "4", K4_4),
    (5, "3+2", K5_32),
    (5, "4+1", K5_41),
    (5, "5", K5_5),
]


@pytest.mark.parametrize("k,shape,expected", CASES, ids=["k4-22", "k4-31", "k4-4", "k5-32", "k5-41", "k5-5"])
def test_index_pattern_rows_match_transcription(k, shape, expected):
    got = {normalize_generated(r) for r in index_pattern_rows(k, shape)}
    want = {normalize_expected(r) for r in expected}
    assert got == want
    assert len(got) == len(expected)


def test_row_counts():
    assert len(index_pattern_rows(4, "2+2")) == 16
    assert len(index_pattern_rows(4, "3+1")) == 3
    assert len(index_pattern_rows(4, "4")) == 4
    assert len(index_pattern_rows(5, "3+2")) == 22
    assert len(index_pattern_rows(5, "4+1")) == 4


def test_rows_render_deterministically():
    a = rows_to_text(index_pattern_rows(4, "2+2"))
    b = rows_to_text(index_pattern_rows(4, "2+2"))
    assert a == b
    assert a.count("\n") == 16
    assert "case=i b=w1 c=w5 d=- u=any" in a


# sha256 of each table's text (fixtures/index_patterns_k*.txt hold the same
# bytes).  Rows sort on a key with ties, so the order rows are made in shows.
TEXT_SHA256 = {
    (4, "2+2"): "ee66b1c768483e587113a9ce5dde54d80f44d9c5e061bef67586fd13535ece8f",
    (4, "3+1"): "55e469d4e50af1a775d12259a8d0c8dbb480998c9bf15a98657cd174ee17f382",
    (4, "4"): "22be4ca1dafa7a1928c372d0fa764424e3b89e10d6f4062d2a79cda86a71d52f",
    (5, "3+2"): "bb84430966732758860f6bd5b95fc9cb5ddae7d786ae2f27d59f93a9de93d0ed",
    (5, "4+1"): "2af1b2d6994d1a11cf6cdc063ae1016f863248cb7e9b234932ecfb6a33cc89d9",
    (5, "5"): "017cf387f1afa0f0983475f96c29a13fffeeaa1564e212dc5927f8acec312d8c",
}


@pytest.mark.parametrize("k,shape", sorted(TEXT_SHA256))
def test_rows_text_is_pinned(k, shape):
    text = rows_to_text(index_pattern_rows(k, shape))
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[k, shape]


def _filtered_assignments(symbols, mapping, b_val):
    """Every injective placement of the blocks, kept when it pins a -> 0,
    b -> b_val and, when b is antipodal, c -> 1."""
    reps = sorted({mapping[s] for s in symbols})
    pinned = [(0, 0), (1, b_val)] + ([(2, 1)] if b_val == 3 and 2 in mapping else [])
    for values in itertools.permutations(range(6), len(reps)):
        assign = dict(zip(reps, values))
        if all(assign[mapping[s]] == v for s, v in pinned):
            yield assign


def test_assignments_are_the_filtered_permutations():
    for k in SHAPES:
        for case_id, pattern in PATTERN_CATALOG[k].items():
            symbols = sorted({s for _, _, colors in pattern for s in colors})
            for mapping in _case_variants(k, case_id):
                for b_val in (1, 3):
                    got = list(_assignments(symbols, mapping, b_val))
                    assert got == list(_filtered_assignments(symbols, mapping, b_val)), (k, case_id, b_val)


def test_bad_parameters_rejected():
    with pytest.raises(StructureError):
        index_pattern_rows(3, "2+2")
    with pytest.raises(StructureError):
        index_pattern_rows(4, "9")
