"""Shared transcription fixtures used as independent oracles across tests,
and one cached search report per configuration."""

import functools

from quandlehom.chains import Chain
from quandlehom.cocycles import eta_octahedral, mochizuki
from quandlehom.quandles import make_dihedral, make_octahedral
from quandlehom.search import SearchConfig, search_min_cycles

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


@functools.lru_cache(maxsize=None)
def cached_search(quandle, max_length, window="single", profile="A", collect_all=False):
    """The report of one search, run once per test session: quandle "o6"
    pairs with eta, "r7" with the mod-7 cocycle.  Callers must not modify
    the report."""
    q, theta = {
        "o6": (make_octahedral(), eta_octahedral()),
        "r7": (make_dihedral(7), mochizuki(7)),
    }[quandle]
    return search_min_cycles(
        SearchConfig(
            q, theta, max_length=max_length, window=window, profile=profile, collect_all=collect_all
        )
    )
