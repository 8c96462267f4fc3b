"""Three-cocycles of finite quandles and weight sums over triple points.

A 3-cocycle with values in Z/m is stored as a total table on non-degenerate
triples (a, b, c) (a != b, b != c); it must kill the boundary of every
4-generator over the trivial coefficient set.  Two concrete cocycles are
provided: the divided-power cocycle of the dihedral quandle R_n for odd prime
n, and the mod-3 cocycle of the octahedral quandle built from two orbit seeds
under the order-four rotation subgroup fixing vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quandles import (
    automorphisms,
    color_words,
    make_dihedral,
    make_octahedral,
    parse_ints,
)
from . import chains
from .chains import Chain


class CocycleError(ValueError):
    pass


class InternalError(AssertionError):
    """A guaranteed-impossible condition fired; indicates a bug."""


class ThreeCocycle:
    """A Z/modulus valued function on non-degenerate color triples."""

    __slots__ = ("quandle", "modulus", "values", "name")

    def __init__(self, quandle, modulus, values, name=None):
        if modulus < 1:
            raise CocycleError("modulus must be positive")
        self.quandle = quandle
        self.modulus = modulus
        self.values = {t: v % modulus for t, v in values.items() if v % modulus}
        self.name = name

    def value(self, a, b, c):
        if a == b or b == c:
            return 0
        return self.values.get((a, b, c), 0)

    def __repr__(self):
        return "<cocycle %s mod %d on %r>" % (self.name or "?", self.modulus, self.quandle)


def is_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def dihedral_cocycle_value(n, a, b, c):
    """(a - b)(b^n + (2c - b)^n - 2c^n)/n mod n, computed with exact integers.

    Well defined on Z/nZ representatives: changing a, b or c by multiples of
    n moves the numerator by multiples of n^2 (binomial expansion), so the
    quotient's residue is unchanged.
    """
    t = 2 * c - b
    num = b**n + t**n - 2 * c**n
    if num % n != 0:
        raise InternalError("divisibility failed for n=%d, triple (%d,%d,%d)" % (n, a, b, c))
    return ((a - b) * (num // n)) % n


def mochizuki(n):
    """The mod-n 3-cocycle of the dihedral quandle R_n, n an odd prime."""
    if not is_odd_prime(n):
        raise CocycleError("need an odd prime, got %r" % (n,))
    q = make_dihedral(n)
    values = {word: dihedral_cocycle_value(n, *word) for word in color_words(n, 3)}
    return ThreeCocycle(q, n, values, name="zeta%d" % n)


# Orbit seeds for the octahedral cocycle: every image under the four
# automorphisms fixing vertex 0 (the powers of the translation x -> x^0)
# receives the seed's value.
_ETA_SEEDS_1 = ((0, 1, 2), (0, 3, 1), (1, 2, 0), (1, 4, 2), (3, 1, 5))
_ETA_SEEDS_2 = (
    (0, 1, 5),
    (1, 0, 1),
    (1, 0, 5),
    (1, 2, 1),
    (1, 3, 1),
    (1, 3, 2),
    (1, 4, 5),
    (1, 5, 1),
    (3, 0, 1),
    (3, 1, 0),
    (3, 1, 2),
)


def eta_octahedral():
    """The mod-3 cocycle of O_6 generated from the two hard-coded seed lists."""
    q = make_octahedral()
    h0 = [p for p in automorphisms(q) if p[0] == 0]
    if len(h0) != 4:
        raise InternalError("rotation subgroup at 0 must have order 4")
    values = {}

    def put(triple, v):
        if values.get(triple, v) != v:
            raise InternalError("orbit collision with conflicting values at %r" % (triple,))
        values[triple] = v

    for seeds, v in ((_ETA_SEEDS_1, 1), (_ETA_SEEDS_2, 2)):
        for (a, b, c) in seeds:
            for h in h0:
                put((h[a], h[b], h[c]), v)
    ones = sum(1 for v in values.values() if v == 1)
    twos = sum(1 for v in values.values() if v == 2)
    if (ones, twos) != (20, 44):
        raise InternalError("seed expansion produced %d/%d nonzero values" % (ones, twos))
    return ThreeCocycle(q, 3, values, name="eta")


@dataclass
class CocycleReport:
    checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def verify_cocycle_condition(theta):
    """Evaluate theta on the boundary of every non-degenerate 4-generator
    over the trivial coefficient set; all values must vanish mod modulus."""
    q = theta.quandle
    failures = []
    checked = 0
    for word in color_words(q.size, 4):
        checked += 1
        gen = Chain.single(1, 0, 0, word, graded=False)
        if evaluate(theta, chains.boundary(gen, q)) != 0:
            failures.append(word)
    return CocycleReport(checked=checked, failures=failures)


def evaluate(theta, chain):
    """Pair a 3-chain with the cocycle, projecting away degree and index."""
    if chain.arity != 3:
        raise CocycleError("cocycle evaluation needs a 3-chain")
    n = theta.quandle.size
    total = 0
    for (_, _, colors), coeff in chain.terms.items():
        if any(not 0 <= x < n for x in colors):
            raise CocycleError("chain colors %r out of range for the cocycle's quandle" % (colors,))
        total += coeff * theta.value(*colors)
    return total % theta.modulus


@dataclass(frozen=True)
class TriplePointRecord:
    """A signed colored triple point: sign in {+1, -1}, colors (a, b, c)."""

    sign: int
    colors: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise CocycleError("sign must be +1 or -1")
        if len(self.colors) != 3:
            raise CocycleError("need exactly three colors")
        if self.colors[0] == self.colors[1]:
            raise CocycleError("bottom and middle colors must differ in %r" % (self.colors,))


def weight_sum(theta, records):
    """Signed sum of cocycle values over the triple points, mod modulus."""
    n = theta.quandle.size
    total = 0
    for rec in records:
        if any(not 0 <= x < n for x in rec.colors):
            raise CocycleError("colors %r out of range" % (rec.colors,))
        total += rec.sign * theta.value(*rec.colors)
    return total % theta.modulus


def triple_points_from_text(text):
    """Parse lines `+|- a b c` into records; blank lines and # comments ok."""
    records = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in ("+", "-"):
            raise CocycleError("bad triple-point line %r" % ln)
        sign = 1 if parts[0] == "+" else -1
        colors = parse_ints(parts[1:], CocycleError, "triple-point line %r" % ln)
        records.append(TriplePointRecord(sign, tuple(colors)))
    return records


def triple_points_from_file(path):
    with open(path) as fh:
        return triple_points_from_text(fh.read())


def resolve_cocycle(name, n=None):
    """Build a cocycle from a CLI-style name: 'mochizuki' (+n) or 'eta'."""
    key = name.lower()
    if key in ("eta", "octahedral"):
        return eta_octahedral()
    if key in ("mochizuki", "zeta"):
        if n is None:
            raise CocycleError("the dihedral cocycle needs --n")
        return mochizuki(n)
    if key.startswith("zeta") and key[4:].isdigit():
        return mochizuki(int(key[4:]))
    raise CocycleError("unknown cocycle %r" % name)
