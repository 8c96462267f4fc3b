import hashlib
import random

import pytest

from quandlehom import intlinalg
from quandlehom.chains import Chain, ChainError, boundary, f_map, g_map, project_pi
from quandlehom.cocycles import eta_octahedral, evaluate
from quandlehom.kernels import (
    boundary_identity_catalog,
    build_slice,
    chain_to_vector,
    kernel_fg,
    kernel_to_text,
    named_cycle,
    verify_boundary_identity,
    verify_catalog_identity,
    verify_named_cycle,
)
from quandlehom.quandles import make_dihedral, make_octahedral
from quandlehom.structure import relabel_chain

from common import dense, dense_kernel_basis, eta8_chain, fraction_rank, in_lattice, zeta8_chain

R7 = make_dihedral(7)
O6 = make_octahedral()

P2 = {1: 2, 2: 4, 4: 5, 5: 1}
P4 = {1: 4, 2: 5, 4: 1, 5: 2}


def chain3(pairs, index=0):
    return Chain.from_signed_terms([(s, (0, index, c)) for s, c in pairs], 3, graded=True)


BLOCK_A = chain3(
    [
        (+1, (1, 3, 2)),
        (+1, (1, 6, 5)),
        (-1, (2, 1, 6)),
        (-1, (2, 3, 1)),
        (-1, (5, 4, 6)),
        (-1, (5, 6, 1)),
        (+1, (6, 1, 2)),
        (+1, (6, 4, 5)),
    ]
)
BLOCK_B = chain3(
    [
        (+1, (2, 5, 3)),
        (+1, (2, 6, 4)),
        (-1, (3, 1, 5)),
        (-1, (3, 5, 2)),
        (-1, (4, 2, 5)),
        (-1, (4, 6, 2)),
        (+1, (5, 1, 3)),
        (+1, (5, 2, 4)),
    ]
)
BLOCK_AB = chain3(
    [
        (+1, (1, 4, 3)),
        (+1, (1, 5, 4)),
        (-1, (3, 2, 6)),
        (-1, (3, 4, 1)),
        (-1, (4, 3, 6)),
        (-1, (4, 5, 1)),
        (+1, (6, 2, 3)),
        (+1, (6, 3, 4)),
    ]
)


def r7_member(alpha, beta):
    return alpha * BLOCK_A + beta * BLOCK_B + (alpha + beta) * BLOCK_AB


def dense_lattice(ker):
    """The kernel's lattice basis chains as dense vectors over its slice."""
    return [chain_to_vector(ker.slice, chain) for chain in ker.lattice_basis]


def test_r7_cell_kernel_rank_two_with_block_basis():
    sl = build_slice(R7, index=0, cell=0)
    assert len(sl.generators) == 36
    ker = kernel_fg(sl)
    assert ker.rank == 2
    basis = dense_lattice(ker)
    for alpha, beta in ((1, 0), (0, 1)):
        vec = chain_to_vector(sl, r7_member(alpha, beta))
        assert in_lattice(basis, vec)
    # conversely both lattice basis vectors lie in the block span
    block_vecs = [chain_to_vector(sl, r7_member(1, 0)), chain_to_vector(sl, r7_member(0, 1))]
    for v in basis:
        assert fraction_rank(block_vecs + [v]) == 2


def test_r7_kernel_members_are_exact_cycles():
    for alpha, beta in ((1, 0), (0, 1), (2, -3), (1, 1)):
        c = r7_member(alpha, beta)
        assert not f_map(c)
        assert not g_map(c, R7)


def test_r7_support_census_sixteen_or_twentyfour():
    supports = set()
    for alpha in range(-3, 4):
        for beta in range(-3, 4):
            if alpha == 0 and beta == 0:
                continue
            supports.add(len(r7_member(alpha, beta)))
            # no two of alpha, beta, alpha+beta vanish together
            assert [alpha, beta, alpha + beta].count(0) <= 1
    assert supports == {16, 24}


def test_r7_minimal_support_is_sixteen():
    sl = build_slice(R7, index=0, cell=0)
    ker = kernel_fg(sl)
    best = None
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            vec = [a * x + b * y for x, y in zip(*dense_lattice(ker))]
            support = sum(1 for v in vec if v)
            best = support if best is None else min(best, support)
    assert best == 16


O6_CELL_RANKS = {0: 6, 1: 3, 2: 3, 3: 0, 4: 3, 5: 3}


@pytest.mark.parametrize("cell", sorted(O6_CELL_RANKS))
def test_o6_cell_kernels_and_eta_vanishing(cell):
    sl = build_slice(O6, index=0, cell=cell)
    ker = kernel_fg(sl)
    assert ker.rank == O6_CELL_RANKS[cell]
    eta = eta_octahedral()
    for c in ker.lattice_basis:
        assert evaluate(eta, c) == 0
        assert not f_map(c) and not g_map(c, O6)


def o6_listed_cell0():
    return [
        chain3([(+1, (0, 3, 0)), (-1, (3, 0, 3))]),
        chain3([(+1, (0, 1, 4)), (+1, (0, 4, 1)), (-1, (3, 1, 4)), (-1, (3, 4, 1))]),
        chain3([(+1, (0, 2, 5)), (+1, (0, 5, 2)), (-1, (3, 2, 5)), (-1, (3, 5, 2))]),
        chain3([(+1, (1, 4, 0)), (+1, (4, 1, 0)), (-1, (1, 4, 3)), (-1, (4, 1, 3))]),
        chain3(
            [
                (+1, (1, 4, 0)),
                (+1, (4, 1, 0)),
                (+1, (2, 5, 3)),
                (+1, (5, 2, 3)),
                (-1, (3, 1, 4)),
                (-1, (3, 4, 1)),
                (-1, (3, 2, 5)),
                (-1, (3, 5, 2)),
            ]
        ),
        chain3(
            [
                (+1, (1, 4, 0)),
                (+1, (4, 1, 0)),
                (+1, (2, 5, 0)),
                (+1, (5, 2, 0)),
                (-1, (3, 1, 4)),
                (-1, (3, 4, 1)),
                (-1, (3, 2, 5)),
                (-1, (3, 5, 2)),
            ]
        ),
    ]


def o6_listed_cellp(p):
    p1, p2, p4 = p, P2[p], P4[p]
    return [
        chain3(
            [
                (+1, (0, 3, p2)),
                (+1, (0, p2, p4)),
                (+1, (0, p4, 3)),
                (-1, (3, p2, p4)),
                (-1, (3, p4, 3)),
            ]
        ),
        chain3(
            [
                (+1, (3, 0, p2)),
                (+1, (3, p1, 0)),
                (+1, (3, p2, p1)),
                (-1, (0, p1, 0)),
                (-1, (0, p2, p1)),
            ]
        ),
        chain3(
            [
                (+1, (p2, 0, 3)),
                (+1, (p2, 3, 0)),
                (+1, (p2, p1, p4)),
                (+1, (p2, p4, p1)),
                (+1, (0, p2, p4)),
                (+1, (0, p4, 3)),
                (+1, (3, p1, 0)),
                (+1, (3, p2, p1)),
                (-1, (0, p1, 0)),
                (-1, (0, p2, p1)),
                (-1, (p1, p4, p2)),
                (-1, (p4, p1, p2)),
                (-1, (3, p2, p4)),
                (-1, (3, p4, 3)),
            ]
        ),
    ]


def test_o6_listed_chains_span_their_cells():
    sl0 = build_slice(O6, index=0, cell=0)
    ker0 = kernel_fg(sl0)
    vecs = [chain_to_vector(sl0, c) for c in o6_listed_cell0()]
    assert fraction_rank(vecs) == 6 == ker0.rank
    for v in vecs:
        assert in_lattice(dense_lattice(ker0), v)
    for p in (1, 2, 4, 5):
        sl = build_slice(O6, index=0, cell=p)
        ker = kernel_fg(sl)
        vecs = [chain_to_vector(sl, c) for c in o6_listed_cellp(p)]
        assert fraction_rank(vecs) == 3 == ker.rank
        for v in vecs:
            assert in_lattice(dense_lattice(ker), v)


def test_kernel_serialization_is_deterministic():
    sl = build_slice(O6, index=0, cell=3)
    txt1 = kernel_to_text(kernel_fg(sl))
    txt2 = kernel_to_text(kernel_fg(build_slice(O6, index=0, cell=3)))
    assert txt1 == txt2
    assert "rank=0" in txt1


def test_vector_chain_roundtrip():
    sl = build_slice(O6, index=0, cell=0)
    ncols = len(sl.generators)
    ker = kernel_fg(sl)
    basis = dense_lattice(ker)
    assert basis == dense(intlinalg.integer_kernel_basis(sl.rows, ncols), ncols)
    for chain, vec in zip(ker.lattice_basis, basis):
        assert chain.terms == {gen: x for gen, x in zip(sl.generators, vec) if x}
    with pytest.raises(ChainError):
        chain_to_vector(sl, Chain.single(1, 0, 1, (0, 1, 2)))


# -- the rank modulo p and kernel_fg's two checks -----------------------------


RANK_SLICES = (
    [(O6, u, c) for u in range(6) for c in range(6)]
    + [(R7, 0, c) for c in range(7)]
    + [(O6, 0, None)]
)
on_rank_slices = pytest.mark.parametrize(
    "q, index, cell", RANK_SLICES, ids=["%s-%s-%s" % (q.name, u, c) for q, u, c in RANK_SLICES]
)


def test_slice_rows_are_f_rows_then_g_rows():
    # Built here from the two face maps apart: the f-faces (degree 0), then
    # the g-faces (degree 1), each group sorted, nonzero entries only.
    sl = build_slice(R7, index=0, cell=0)
    expected = []
    for image in (f_map, lambda chain: g_map(chain, R7)):
        faces = {}
        for col, gen in enumerate(sl.generators):
            for face, c in image(Chain(3, True, {gen: 1})).terms.items():
                faces.setdefault(face, {})[col] = c
        expected += [faces[face] for face in sorted(faces)]
    assert sl.rows == expected
    assert all(all(row.values()) for row in sl.rows)


@on_rank_slices
def test_rank_mod_p_matches_fraction_rank(q, index, cell):
    sl = build_slice(q, index=index, cell=cell)
    assert intlinalg.rank_mod_p(sl.rows) == fraction_rank(dense(sl.rows, len(sl.generators)))


@on_rank_slices
def test_kernel_basis_matches_dense_elimination(q, index, cell):
    sl = build_slice(q, index=index, cell=cell)
    ncols = len(sl.generators)
    basis = intlinalg.integer_kernel_basis(sl.rows, ncols)
    assert dense(basis, ncols) == dense_kernel_basis(dense(sl.rows, ncols), ncols)
    assert all(all(vec.values()) for vec in basis)


def test_kernel_basis_matches_dense_elimination_on_random_matrices():
    # Slice entries are small, so their pivots are mostly +-1; entries up to 6
    # make the floor quotients, swaps and ties of the elimination matter.
    rng = random.Random(22)
    for _ in range(300):
        ncols = rng.randrange(7)
        entries = (0, 0, 0, 1, -1, 2, -3, 4, 6)
        rows = [
            {c: x for c, x in enumerate([rng.choice(entries) for _ in range(ncols)]) if x}
            for _ in range(rng.randrange(6))
        ]
        matrix = dense(rows, ncols)
        basis = intlinalg.integer_kernel_basis(rows, ncols)
        assert dense(basis, ncols) == dense_kernel_basis(matrix, ncols)
        assert all(all(vec.values()) for vec in basis)
        assert intlinalg.rank_mod_p(rows) == fraction_rank(matrix)


def test_dense_order_sorts_sparse_vectors_as_their_dense_forms():
    rng = random.Random(24)
    negative_first = 0
    for _ in range(2000):
        ncols = rng.randrange(1, 6)
        entries = (0, 0, 1, -1, 2, -3)
        matrix = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randrange(8))]
        vecs = [{c: x for c, x in enumerate(row) if x} for row in matrix]
        negative_first += sum(1 for vec in vecs if vec and vec[min(vec)] < 0)
        assert dense(sorted(vecs, key=intlinalg._dense_order), ncols) == sorted(matrix)
    assert negative_first > 1000


@pytest.mark.parametrize("rows, ncols", [([], 3), ([], 0), ([{0: 0, 1: 0, 2: 0}], 3)])
def test_kernel_basis_edge_cases_match_dense_elimination(rows, ncols):
    basis = dense(intlinalg.integer_kernel_basis(rows, ncols), ncols)
    assert basis == dense_kernel_basis(dense(rows, ncols), ncols)
    assert basis == [[int(i + j == ncols - 1) for j in range(ncols)] for i in range(ncols)]


def test_rank_mod_p_can_only_fall_short():
    p = 2**61 - 1
    assert intlinalg.rank_mod_p([{0: p}]) == 0
    singular_mod_p = [{0: 1, 1: 1}, {0: 1, 1: 1 + p}]
    assert fraction_rank(dense(singular_mod_p, 2)) == 2
    assert intlinalg.rank_mod_p(singular_mod_p) == 1


def dense_rank_mod(matrix, p):
    """Rank over Z/p of a dense integer matrix, each entry reduced mod p
    before the elimination starts and after every step."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] * inv % p
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_mod_p_on_entries_at_and_past_p():
    # rank_mod_p reduces an entry only once it leaves (-P, P): entries next
    # to and past multiples of P, and pivots other than +-1, must give the
    # rank that reducing every entry at every step gives.
    p = intlinalg.P
    rng = random.Random(26)
    entries = (0, 0, 1, -1, 2, -3, p - 1, 1 - p, p + 1, 2 * p, -p - 2, p * p + 3, 3**70)
    falls_short = 0
    for _ in range(400):
        ncols = rng.randrange(1, 6)
        matrix = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randrange(1, 7))]
        rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
        rank = dense_rank_mod(matrix, p)
        assert intlinalg.rank_mod_p(rows) == rank
        falls_short += rank < fraction_rank(matrix)
    assert falls_short >= 5


def test_rank_mod_p_of_empty_and_zero_rows():
    assert intlinalg.rank_mod_p([]) == 0
    assert intlinalg.rank_mod_p([{0: 0, 1: 0}]) == 0


def test_o6_full_slice_kernel_is_pinned():
    sl = build_slice(O6)
    ker = kernel_fg(sl)
    assert ker.rank == 625
    assert intlinalg.rank_mod_p(sl.rows) == 275
    assert hashlib.sha256(kernel_to_text(ker).encode()).hexdigest() == (
        "7b0962b610f5cec4c6adfb8f43cdd4ec8576aef8fc385f42858424bb677c7066"
    )


def test_r7_full_slice_kernel_is_pinned():
    sl = build_slice(R7)
    ker = kernel_fg(sl)
    assert ker.rank == 1296
    assert intlinalg.rank_mod_p(sl.rows) == 468
    assert hashlib.sha256(kernel_to_text(ker).encode()).hexdigest() == (
        "7c29410477776f841256570d89af75c62ff85e132a83c6a2f092b0eef2d34b82"
    )


def _with_lattice(monkeypatch, alter):
    real = intlinalg.integer_kernel_basis
    monkeypatch.setattr(
        intlinalg, "integer_kernel_basis", lambda rows, ncols: alter(real(rows, ncols), ncols)
    )


def test_kernel_fg_rank_check_fires_on_a_short_lattice(monkeypatch):
    _with_lattice(monkeypatch, lambda basis, ncols: basis[1:])
    with pytest.raises(AssertionError, match="ranks disagree"):
        kernel_fg(build_slice(R7, index=0, cell=0))


def test_kernel_fg_recheck_fires_on_a_vector_outside_the_kernel(monkeypatch):
    _with_lattice(monkeypatch, lambda basis, ncols: basis[:-1] + [{0: 1}])
    with pytest.raises(AssertionError, match="chain-map re-check"):
        kernel_fg(build_slice(R7, index=0, cell=0))


# -- named cycles -----------------------------------------------------------


def test_named_cycles_match_transcription():
    chain, q, theta, expected, exp_len = named_cycle("zeta8")
    assert chain == zeta8_chain()
    assert (q.name, theta.name, expected) == ("R7", "zeta7", 6)
    chain, q, theta, expected, exp_len = named_cycle("eta8")
    assert chain == eta8_chain()
    assert (q.name, theta.name, expected) == ("O6", "eta", 1)


def test_verify_named_cycles():
    rep = verify_named_cycle("zeta8")
    assert rep.ok and rep.length == 8 and rep.value == 6
    rep = verify_named_cycle("eta8")
    assert rep.ok and rep.length == 8 and rep.value == 1


def test_named_cycle_unknown():
    with pytest.raises(ChainError):
        named_cycle("nope")


def test_perturbed_eta8_is_not_a_cycle():
    chain, q, theta, _, _ = named_cycle("eta8")
    flipped = chain + 2 * Chain.single(1, 0, 0, (0, 2, 1))  # flip the first sign
    assert boundary(flipped, q)


# -- boundary identities ----------------------------------------------------


def test_catalog_identities_all_verify():
    for name in sorted(boundary_identity_catalog()):
        assert verify_catalog_identity(name), name


def test_boundary_identity_direct_use():
    c = Chain.single(1, 0, 0, (0, 1, 0, 1))
    expected = boundary(c, O6)
    assert verify_boundary_identity((0, 0, (0, 1, 0, 1)), expected, +1, O6)
    assert not verify_boundary_identity((0, 0, (0, 1, 0, 1)), expected, -1, O6)
    with pytest.raises(ChainError):
        verify_boundary_identity((0, 0, (0, 1, 0)), expected, 1, O6)


# -- inner translations -----------------------------------------------------


def test_inner_translations_keep_cycles_and_eta_pairing():
    # Each right translation x -> x^b is an automorphism of O_6, so moving
    # every color of the trivial-coefficient eta8 by it keeps a cycle that eta
    # pairs with as before.
    base = project_pi(eta8_chain())
    eta = eta_octahedral()
    assert evaluate(eta, base) == 1
    for b in range(6):
        moved = relabel_chain(base, O6.column(b))
        assert not boundary(moved, O6)
        assert evaluate(eta, moved) == 1
