import itertools
import random

import pytest

from quandlehom.chains import Chain, boundary, project_pi
from quandlehom.cocycles import (
    CocycleError,
    ThreeCocycle,
    TriplePointRecord,
    dihedral_cocycle_value,
    eta_octahedral,
    evaluate,
    is_odd_prime,
    mochizuki,
    resolve_cocycle,
    triple_points_from_text,
    verify_cocycle_condition,
    weight_sum,
)
from quandlehom.quandles import make_dihedral

from common import (
    WEIGHT_TRIPLES_DIHEDRAL,
    WEIGHT_TRIPLES_OCTAHEDRAL,
    eta8_chain,
    random_chain,
    zeta8_chain,
)


def records(pairs):
    return [TriplePointRecord(s, t) for s, t in pairs]


def test_odd_prime_filter():
    assert [n for n in range(2, 14) if is_odd_prime(n)] == [3, 5, 7, 11, 13]


def test_mochizuki_rejects_bad_n():
    for bad in (2, 4, 9, 15):
        with pytest.raises(CocycleError):
            mochizuki(bad)


def test_dihedral_cocycle_vanishes_on_equal_middle():
    for n in (3, 5, 7):
        for a in range(n):
            for b in range(n):
                assert dihedral_cocycle_value(n, a, b, b) == 0


def test_dihedral_cocycle_representative_independence():
    rng = random.Random(21)
    for n in (3, 5, 7, 11):
        for _ in range(50):
            a, b, c = (rng.randrange(n) for _ in range(3))
            base = dihedral_cocycle_value(n, a, b, c)
            lifted = dihedral_cocycle_value(
                n,
                a + n * rng.randrange(1, 4),
                b + n * rng.randrange(1, 4),
                c + n * rng.randrange(1, 4),
            )
            assert base == lifted


def test_zeta3_values_from_hand_computation():
    # (2,0,2): 2 * (0 + 64 - 16)/3 = 32 ~ 2 mod 3; (2,1,0): 1 * (1 - 1 - 0)/3 = 0.
    assert dihedral_cocycle_value(3, 2, 0, 2) == 2
    assert dihedral_cocycle_value(3, 2, 1, 0) == 0
    assert (dihedral_cocycle_value(3, 2, 0, 2) + dihedral_cocycle_value(3, 2, 1, 0)) % 3 == 2


def test_two_term_r3_chain_is_a_cycle_with_value_two():
    q3 = make_dihedral(3)
    chain = Chain.single(1, 0, 0, (2, 0, 2), graded=False) + Chain.single(
        1, 0, 0, (2, 1, 0), graded=False
    )
    assert not boundary(chain, q3)
    assert evaluate(mochizuki(3), chain) == 2


def test_eta_seed_values():
    eta = eta_octahedral()
    assert eta.value(0, 1, 2) == 1
    assert eta.value(0, 2, 4) == 1  # seed (0,1,2) moved once by x -> x^0
    assert eta.value(1, 0, 1) == 2


def test_eta_table_counts():
    eta = eta_octahedral()
    ones = sum(1 for v in eta.values.values() if v == 1)
    twos = sum(1 for v in eta.values.values() if v == 2)
    assert (ones, twos) == (20, 44)


def test_eta_is_rotation_invariant():
    eta = eta_octahedral()
    # The four quarter turns about vertex 0: the powers of x -> x^0.
    h = eta.quandle.column(0)
    perms = [tuple(range(6))]
    for _ in range(3):
        perms.append(tuple(h[x] for x in perms[-1]))
    assert len(set(perms)) == 4
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for h in perms:
                    assert eta.value(a, b, c) == eta.value(h[a], h[b], h[c])


@pytest.mark.parametrize("n,count", [(3, 3 * 2 * 2 * 2), (5, 5 * 4**3), (7, 7 * 6**3), (11, 11 * 10**3)])
def test_dihedral_cocycle_condition(n, count):
    report = verify_cocycle_condition(mochizuki(n))
    assert report.ok
    assert report.checked == count


def test_octahedral_cocycle_condition():
    report = verify_cocycle_condition(eta_octahedral())
    assert report.ok
    assert report.checked == 750


def test_perturbed_table_fails_with_witness():
    eta = eta_octahedral()
    values = dict(eta.values)
    values[(0, 1, 4)] = (values.get((0, 1, 4), 0) + 1) % 3
    broken = ThreeCocycle(eta.quandle, 3, values, name="broken")
    report = verify_cocycle_condition(broken)
    assert not report.ok
    assert report.failures


def _perturbed(theta, triple):
    values = dict(theta.values)
    values[triple] = values.get(triple, 0) + 1
    return ThreeCocycle(theta.quandle, theta.modulus, values, name="broken")


@pytest.mark.parametrize(
    "theta", [_perturbed(eta_octahedral(), (0, 1, 4)), _perturbed(mochizuki(5), (2, 0, 3))], ids=["eta", "zeta5"]
)
def test_cocycle_condition_matches_the_boundary_of_each_word(theta):
    # The oracle pairs theta with each 4-generator's boundary as a chain.
    q = theta.quandle
    words = [w for w in itertools.product(range(q.size), repeat=4) if all(x != y for x, y in zip(w, w[1:]))]
    failures = [w for w in words if evaluate(theta, boundary(Chain.single(1, 0, 0, w, graded=False), q))]
    report = verify_cocycle_condition(theta)
    assert report.checked == len(words)
    assert report.failures == failures
    assert failures


def test_evaluate_on_named_cycles():
    assert evaluate(mochizuki(7), zeta8_chain()) == 6
    assert evaluate(eta_octahedral(), eta8_chain()) == 1


def test_evaluate_zero_chain_and_mismatch():
    assert evaluate(mochizuki(7), Chain(3, True)) == 0
    with pytest.raises(CocycleError):
        evaluate(mochizuki(3), zeta8_chain())  # colors 6 etc. out of range for R_3


def test_evaluate_vanishes_on_boundaries():
    rng = random.Random(22)
    eta = eta_octahedral()
    zeta = mochizuki(7)
    q6, q7 = eta.quandle, zeta.quandle
    for _ in range(50):
        c6 = random_chain(rng, q6, arity=4, graded=False)
        c7 = random_chain(rng, q7, arity=4, graded=False)
        assert evaluate(eta, boundary(c6, q6)) == 0
        assert evaluate(zeta, boundary(c7, q7)) == 0


def test_weight_sums_from_transcribed_triples():
    assert weight_sum(mochizuki(7), records(WEIGHT_TRIPLES_DIHEDRAL)) == 6
    assert weight_sum(eta_octahedral(), records(WEIGHT_TRIPLES_OCTAHEDRAL)) == 1


def test_weight_sum_cancels_negated_copy():
    recs = records(WEIGHT_TRIPLES_OCTAHEDRAL)
    mirrored = recs + [TriplePointRecord(-r.sign, r.colors) for r in recs]
    assert weight_sum(eta_octahedral(), mirrored) == 0


def test_triple_point_record_validates():
    with pytest.raises(CocycleError):
        TriplePointRecord(1, (2, 2, 0))
    with pytest.raises(CocycleError):
        TriplePointRecord(2, (0, 1, 2))


def test_triple_point_parsing():
    text = "# comment\n+ 0 6 1\n- 5 1 4\n"
    recs = triple_points_from_text(text)
    assert recs == records([(1, (0, 6, 1)), (-1, (5, 1, 4))])
    with pytest.raises(CocycleError):
        triple_points_from_text("* 1 2 3")


def test_resolve_cocycle_names():
    assert resolve_cocycle("eta").name == "eta"
    assert resolve_cocycle("mochizuki", 7).name == "zeta7"
    assert resolve_cocycle("zeta5").name == "zeta5"
    with pytest.raises(CocycleError):
        resolve_cocycle("mochizuki")
    with pytest.raises(CocycleError):
        resolve_cocycle("nope")


def test_weights_match_projected_cycles():
    # The two triple-point lists are exactly the projections of the two
    # named cycles, so the weight sums and cycle pairings must agree.
    assert evaluate(mochizuki(7), project_pi(zeta8_chain())) == weight_sum(
        mochizuki(7), records(WEIGHT_TRIPLES_DIHEDRAL)
    )
    assert evaluate(eta_octahedral(), project_pi(eta8_chain())) == weight_sum(
        eta_octahedral(), records(WEIGHT_TRIPLES_OCTAHEDRAL)
    )
