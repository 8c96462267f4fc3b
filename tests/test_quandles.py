import itertools

import pytest

from quandlehom.quandles import (
    TAU_O6,
    FiniteQuandle,
    QuandleError,
    _is_degenerate,
    automorphisms,
    check_axioms,
    check_isomorphism,
    color_words,
    dual,
    make_dihedral,
    make_octahedral,
    quandle_from_file,
    quandle_to_text,
    resolve_quandle,
    triple_action_table,
)

from common import oracle_automorphisms


def test_dihedral_formula():
    q = make_dihedral(7)
    assert q.apply(1, 0) == 6  # (2*0 - 1) mod 7
    q3 = make_dihedral(3)
    for a in range(3):
        assert q3.apply(a, a) == a


def test_dihedral_column_zero_is_involution():
    q = make_dihedral(7)
    col = q.column(0)
    for a in range(7):
        assert col[col[a]] == a
        assert col[a] == (-a) % 7


def test_dihedral_rejects_small_n():
    with pytest.raises(QuandleError):
        make_dihedral(2)


def test_octahedral_basic_values():
    q = make_octahedral()
    assert q.apply(1, 0) == 2
    assert q.apply(0, 3) == 0


def test_octahedron_model_coordinates():
    from quandlehom.quandles import _OCT_COORDS

    for a in range(6):
        assert _OCT_COORDS[a] == tuple(-x for x in _OCT_COORDS[(a + 3) % 6])


def test_octahedral_fixed_points_are_axis_and_antipode():
    q = make_octahedral()
    for a in range(6):
        for b in range(6):
            fixed = q.apply(a, b) == a
            assert fixed == (b == a or b == (a + 3) % 6)


def test_octahedral_columns_are_four_cycles_off_axis():
    q = make_octahedral()
    for b in range(6):
        moved = [a for a in range(6) if q.apply(a, b) != a]
        assert len(moved) == 4
        a = moved[0]
        orbit = [a]
        for _ in range(3):
            orbit.append(q.apply(orbit[-1], b))
        assert sorted(orbit) == sorted(moved)
        assert q.apply(orbit[-1], b) == a


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_dihedral_axioms(n):
    assert check_axioms(make_dihedral(n)).ok


def test_octahedral_axioms():
    assert check_axioms(make_octahedral()).ok


def test_broken_table_is_reported():
    rows = [list(r) for r in make_octahedral().table]
    rows[0][1] = rows[2][1]  # break bijectivity of column 1
    report = check_axioms(FiniteQuandle(rows))
    assert not report.ok
    assert 1 in report.bijectivity


def test_dihedral_is_self_dual():
    q = make_dihedral(7)
    assert dual(q).table == q.table


def test_octahedral_dual_differs_but_double_dual_restores():
    q = make_octahedral()
    qd = dual(q)
    assert qd.table != q.table
    assert dual(qd).table == q.table


def test_dual_names_the_first_column_that_is_not_a_permutation():
    rows = [list(row) for row in make_dihedral(5).table]
    for b in (4, 3):  # columns 3 and 4 each repeat an image
        rows[0][b] = rows[1][b]
    with pytest.raises(QuandleError, match="^column 3 is not a permutation$"):
        dual(FiniteQuandle(rows))


def test_tau_is_isomorphism_onto_dual():
    q = make_octahedral()
    assert check_isomorphism(TAU_O6, q, dual(q))
    assert check_isomorphism(tuple(range(6)), q, q)
    # scan for a disagreeing pair: the identity is not an isomorphism q -> dual(q)
    assert not check_isomorphism(tuple(range(6)), q, dual(q))
    qd = dual(q)
    assert any(q.apply(a, b) != qd.apply(a, b) for a in range(6) for b in range(6))


def test_isomorphism_validates_input():
    q = make_octahedral()
    with pytest.raises(QuandleError):
        check_isomorphism((0, 0, 1, 2, 3, 4), q, q)
    with pytest.raises(QuandleError):
        check_isomorphism((0, 1, 2), q, make_dihedral(3))


def _order(perm):
    """The order of a permutation tuple."""
    identity = tuple(range(len(perm)))
    p, k = perm, 1
    while p != identity:
        p, k = tuple(perm[x] for x in p), k + 1
    return k


def test_inner_subgroup_orders():
    q6 = make_octahedral()
    for g in range(6):
        assert _order(q6.column(g)) == 4
    for n in (3, 5, 7, 11):
        qn = make_dihedral(n)
        for g in range(n):
            assert _order(qn.column(g)) == 2


def test_inner_subgroup_orbit_hits_rotated_triple():
    q = make_octahedral()
    h = q.column(0)
    triple = (0, 1, 2)
    assert tuple(h[x] for x in triple) == (0, 2, 4)
    perms = [p for p in automorphisms(q) if p[0] == 0]
    assert len(perms) == 4 and h in perms
    orbit = {tuple(p[x] for x in triple) for p in perms}
    assert (0, 2, 4) in orbit


@pytest.mark.parametrize(
    "spec, order", [("o6", 24), ("r7", 42), ("dihedral:11", 110)]
)
def test_automorphisms(spec, order):
    q = resolve_quandle(spec)
    group = automorphisms(q)
    assert len(group) == len(set(group)) == order
    assert tuple(range(q.size)) in group
    for p in group:
        assert sorted(p) == list(range(q.size))
        assert all(
            p[q.table[a][b]] == q.table[p[a]][p[b]] for a in range(q.size) for b in range(q.size)
        )
    if q.size <= 7:  # against brute force over S_n
        assert group == oracle_automorphisms(q.table)


def test_triple_action_table_shape_and_group_sizes():
    q = make_octahedral()
    table = triple_action_table(q)
    assert len(table) == 150
    assert table[(0, 1, 4)] == 0
    assert table[(1, 0, 2)] == 3
    sizes = {}
    for v in table.values():
        sizes[v] = sizes.get(v, 0) + 1
    assert sizes == {0: 34, 3: 16, 1: 25, 2: 25, 4: 25, 5: 25}


def test_quandle_file_roundtrip(tmp_path):
    q = make_octahedral()
    path = tmp_path / "oct.tbl"
    path.write_text(quandle_to_text(q))
    q2 = quandle_from_file(str(path))
    assert q2.table == q.table


def test_quandle_file_rejects_non_quandle(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n0 0\n0 1\n")
    with pytest.raises(QuandleError):
        quandle_from_file(str(path))


def test_is_degenerate_matches_adjacent_pair_definition():
    # Words of length 0 and 1 occur: f of an arity-1 chain deletes to ().
    for n in range(5):
        for word in itertools.product(range(4), repeat=n):
            expected = any(word[i] == word[i + 1] for i in range(len(word) - 1))
            assert _is_degenerate(word) is expected
            assert _is_degenerate(list(word)) is expected


def test_color_words_are_the_filtered_product_in_order():
    # Length 0 is one empty word; n = 1 has no word of length 2 or more.
    for n in range(1, 8):
        for length in range(5):
            expected = [w for w in itertools.product(range(n), repeat=length) if not _is_degenerate(w)]
            assert list(color_words(n, length)) == expected


def test_automorphisms_hands_each_caller_a_fresh_list():
    q = make_octahedral()
    first = automorphisms(q)
    first.clear()
    again = automorphisms(make_octahedral())
    assert again == oracle_automorphisms(q.table)
    again.append((0, 0, 0, 0, 0, 0))
    assert len(automorphisms(q)) == 24
