"""Exact kernels of the face-map pair on finite slices, and named checks.

A slice collects the arity-3 generators at one degree, optionally filtered
by index and by the value of u^{a b c} (the index every g-image of the
generator's full word reaches; g-null families are constrained to a single
such class), and is stored as sparse boundary rows from one boundary image
per generator: g raises the degree that f keeps, so these are the rows of f
and g together.  The kernel of (f, g) on a slice is computed exactly: an
integer lattice basis by unimodular reduction, cross-checked against the
rank modulo the prime 2^61 - 1 and through the chain maps themselves.

Also houses the three named cycles (two of length 8, one of length 7) and
the explicit boundary identities used as regression anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .chains import Chain, ChainError, _accumulate, boundary, length
from .cocycles import evaluate, resolve_cocycle
from .quandles import FiniteQuandle, QuandleError, color_words, resolve_quandle


@dataclass
class SliceBasis:
    """Generators of one degree slice plus its sparse boundary rows.

    ``rows`` holds one {column: nonzero entry} dict per arity-2 face of the
    generators' boundary images, in sorted face order, so every f-face
    (the slice's degree) comes before every g-face (one degree up); columns
    follow ``generators``.  ``images`` keeps each generator's boundary
    image, keyed by the generator, for the kernel's chain-map re-check, as
    {face number: coefficient} with the faces numbered in row order: face
    tuples held per generator would outlive the build several times over.
    """

    quandle: FiniteQuandle
    degree: int
    index: int | None
    cell: int | None
    generators: list
    rows: list
    images: dict


def build_slice(q, degree=0, index=None, cell=None):
    """Collect arity-3 generators at one degree and their boundary rows.

    ``index`` restricts to one index; ``cell`` restricts to generators whose
    full color word sends their index to the given element (the class every
    same-cell g-connected family must share).
    """
    for name, value in (("index", index), ("cell", cell)):
        if value is not None and not 0 <= value < q.size:
            raise QuandleError(
                "%s %d is not an element of a quandle of size %d" % (name, value, q.size)
            )
    gens = []
    indices = range(q.size) if index is None else (index,)
    for u in indices:
        for word in color_words(q.size, 3):
            if cell is None or q.act_word(u, word) == cell:
                gens.append((degree, u, word))
    gens.sort()
    faces, images = {}, {}
    for col, gen in enumerate(gens):
        images[gen] = boundary(Chain(3, True, {gen: 1}), q).terms
        for face, c in images[gen].items():
            faces.setdefault(face, {})[col] = c
    order = sorted(faces)
    number = {face: r for r, face in enumerate(order)}
    images = {gen: {number[face]: c for face, c in image.items()} for gen, image in images.items()}
    return SliceBasis(q, degree, index, cell, gens, [faces[face] for face in order], images)


@dataclass
class KernelResult:
    """The kernel of f and g on one slice.

    ``lattice_basis`` holds the lattice basis as chains over the slice's
    generators, in the order ``intlinalg.integer_kernel_basis`` gives its
    sparse vectors.
    """

    slice: SliceBasis
    lattice_basis: list

    @property
    def rank(self):
        return len(self.lattice_basis)


def chain_to_vector(slice_basis, chain):
    pos = {gen: i for i, gen in enumerate(slice_basis.generators)}
    vec = [0] * len(slice_basis.generators)
    for t, coeff in chain.terms.items():
        if t not in pos:
            raise ChainError("term %r is outside the slice" % (t,))
        vec[pos[t]] = coeff
    return vec


def kernel_fg(slice_basis):
    """Exact kernel of f and g together on the slice's boundary rows.

    The lattice rank plus the rank modulo a prime must be the number of
    generators.  Each sparse lattice vector becomes one chain over the
    generators, and every such chain is re-verified through the chain maps,
    not the rows, as the sum of its generators' boundary images (the ones
    build_slice took, keyed by term in ``images``).  The sum is zero
    exactly when its f- and g-parts are, since they lie at different
    degrees.
    """
    rows = slice_basis.rows
    gens = slice_basis.generators
    lattice = intlinalg.integer_kernel_basis(rows, len(gens))
    if intlinalg.rank_mod_p(rows) + len(lattice) != len(gens):
        raise AssertionError("modular and integer kernel ranks disagree")
    images = slice_basis.images
    result = KernelResult(
        slice_basis, [Chain(3, True, {gens[c]: x for c, x in vec.items()}) for vec in lattice]
    )
    for chain in result.lattice_basis:
        total = {}
        for gen, c in chain.terms.items():
            _accumulate(total, images[gen].items(), c)
        if total:
            raise AssertionError("kernel vector fails the chain-map re-check")
    return result


def kernel_to_text(result):
    lines = [
        "slice quandle=%s degree=%d index=%s cell=%s generators=%d rank=%d"
        % (
            result.slice.quandle.name or "?",
            result.slice.degree,
            result.slice.index,
            result.slice.cell,
            len(result.slice.generators),
            result.rank,
        )
    ]
    for chain in result.lattice_basis:
        lines.append("vector " + " ".join(
            "%+d*(%d,%d;%s)" % (c, t[0], t[1], ",".join(map(str, t[2])))
            for t, c in chain.items_sorted()
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named cycles


_NAMED_CYCLES = {
    "zeta8": (
        "r7",
        (
            (+1, (0, 0, (0, 6, 1))),
            (-1, (1, 5, (5, 1, 4))),
            (-1, (0, 0, (1, 6, 0))),
            (+1, (1, 2, (6, 3, 0))),
            (+1, (0, 0, (0, 1, 6))),
            (-1, (1, 2, (2, 6, 3))),
            (-1, (0, 0, (6, 1, 0))),
            (+1, (1, 5, (1, 4, 0))),
        ),
        ("zeta", 7, 6, 8),
    ),
    "eta8": (
        "o6",
        (
            (-1, (0, 0, (0, 2, 1))),
            (+1, (0, 0, (1, 5, 0))),
            (-1, (0, 0, (0, 1, 5))),
            (+1, (0, 0, (5, 4, 0))),
            (-1, (0, 0, (0, 5, 4))),
            (+1, (0, 0, (4, 2, 0))),
            (-1, (0, 0, (0, 4, 2))),
            (+1, (0, 0, (2, 1, 0))),
        ),
        ("eta", None, 1, 8),
    ),
    # Shorter than the length-8 witnesses above: a single-degree 7-term cycle
    # with nonzero pairing, found by the exhaustive search.  Its five-term
    # family at index 5 sends every color word to the same element, the
    # configuration the published case analysis ruled out.
    "eta7": (
        "o6",
        (
            (-1, (0, 0, (0, 1, 0))),
            (+1, (0, 0, (1, 0, 1))),
            (+1, (0, 5, (0, 1, 4))),
            (+1, (0, 5, (1, 5, 4))),
            (-1, (0, 5, (5, 0, 1))),
            (+1, (0, 5, (5, 0, 4))),
            (-1, (0, 5, (5, 1, 5))),
        ),
        ("eta", None, 2, 7),
    ),
}


def named_cycles():
    """The names of the embedded witness cycles, in their listed order."""
    return list(_NAMED_CYCLES)


def named_cycle(name):
    """An embedded witness cycle, as (chain, quandle, cocycle, expected
    pairing, expected length)."""
    if name not in _NAMED_CYCLES:
        raise ChainError("unknown cycle %r (have: %s)" % (name, ", ".join(sorted(_NAMED_CYCLES))))
    qname, terms, (cname, cn, expected, expected_length) = _NAMED_CYCLES[name]
    chain = Chain.from_signed_terms(terms, arity=3, graded=True)
    return chain, resolve_quandle(qname), resolve_cocycle(cname, cn), expected, expected_length


@dataclass
class CycleReport:
    name: str
    is_cycle: bool
    length: int
    value: int
    expected_value: int
    expected_length: int
    residual: Chain | None

    @property
    def ok(self):
        return (
            self.is_cycle
            and self.length == self.expected_length
            and self.value == self.expected_value
        )

    def summary(self):
        if self.ok:
            return "%s: cycle ok, length %d, pairing %d" % (self.name, self.length, self.value)
        bits = []
        if not self.is_cycle:
            bits.append("boundary residual %r" % self.residual)
        if self.length != self.expected_length:
            bits.append("length %d != %d" % (self.length, self.expected_length))
        if self.value != self.expected_value:
            bits.append("pairing %d != %d" % (self.value, self.expected_value))
        return "%s: FAIL (%s)" % (self.name, "; ".join(bits))


def verify_named_cycle(name):
    chain, q, theta, expected, expected_length = named_cycle(name)
    res = boundary(chain, q)
    return CycleReport(
        name=name,
        is_cycle=not res,
        length=length(chain),
        value=evaluate(theta, chain),
        expected_value=expected,
        expected_length=expected_length,
        residual=res if res else None,
    )


# ---------------------------------------------------------------------------
# boundary identities


def verify_boundary_identity(four_term, expected, sign, q):
    """Check sign * boundary(four_term) == expected after reduction."""
    if len(four_term[2]) != 4:
        raise ChainError("need an arity-4 term")
    chain = Chain(4, True, {four_term: 1})
    return sign * boundary(chain, q) == expected


# The explicit six- and seven-term chains that are boundaries of a single
# arity-4 generator, instantiated at degree 0, index 0, with the standard
# generators (dihedral: a_i = i; octahedral: vertex labels): name ->
# (quandle, arity-4 generator, sign, signed terms of sign * its boundary).
_BOUNDARY_IDENTITIES = {
    # R_7, length 6, layer sizes 2+4: chain = +boundary(0,0; 0,1,0,1).
    "r7-2plus4": (
        "r7",
        (0, 0, (0, 1, 0, 1)),
        +1,
        (
            (+1, (0, 0, (0, 1, 0))),
            (-1, (0, 0, (1, 0, 1))),
            (+1, (1, 0, (1, 0, 1))),
            (+1, (1, 0, (0, 6, 1))),
            (-1, (1, 2, (2, 1, 2))),
            (-1, (1, 2, (2, 0, 1))),
        ),
    ),
    # R_7, length 6, layer sizes 3+3: chain = -boundary(0,0; 6,0,1,0).
    "r7-3plus3": (
        "r7",
        (0, 0, (6, 0, 1, 0)),
        -1,
        (
            (+1, (0, 0, (0, 1, 0))),
            (-1, (0, 0, (6, 0, 1))),
            (-1, (0, 0, (6, 1, 0))),
            (+1, (1, 0, (1, 0, 6))),
            (-1, (1, 2, (3, 2, 0))),
            (-1, (1, 5, (0, 1, 0))),
        ),
    ),
    # R_7, length 7, layer sizes 3+4: chain = -boundary(0,0; 2,0,1,0).
    "r7-3plus4": (
        "r7",
        (0, 0, (2, 0, 1, 0)),
        -1,
        (
            (+1, (0, 0, (0, 1, 0))),
            (-1, (0, 0, (2, 0, 1))),
            (-1, (0, 0, (2, 1, 0))),
            (+1, (1, 0, (5, 1, 0))),
            (+1, (1, 0, (5, 0, 6))),
            (-1, (1, 2, (0, 2, 0))),
            (-1, (1, 4, (0, 1, 0))),
        ),
    ),
    # O_6, length 6, layer sizes 2+4: chain = +boundary(0,0; 0,1,0,1).
    "o6-2plus4": (
        "o6",
        (0, 0, (0, 1, 0, 1)),
        +1,
        (
            (+1, (0, 0, (0, 1, 0))),
            (-1, (0, 0, (1, 0, 1))),
            (+1, (1, 0, (0, 2, 1))),
            (+1, (1, 0, (1, 0, 1))),
            (-1, (1, 5, (5, 0, 1))),
            (-1, (1, 5, (5, 1, 5))),
        ),
    ),
    # O_6, length 6, layer sizes 3+3: chain = -boundary(0,0; 5,0,1,0).
    "o6-3plus3": (
        "o6",
        (0, 0, (5, 0, 1, 0)),
        -1,
        (
            (+1, (0, 0, (0, 1, 0))),
            (-1, (0, 0, (5, 0, 1))),
            (-1, (0, 0, (5, 1, 0))),
            (+1, (1, 0, (1, 0, 2))),
            (-1, (1, 5, (3, 5, 0))),
            (-1, (1, 4, (0, 1, 0))),
        ),
    ),
}


def boundary_identity_catalog():
    """The names of the explicit boundary identities, sorted."""
    return sorted(_BOUNDARY_IDENTITIES)


def verify_catalog_identity(name):
    if name not in _BOUNDARY_IDENTITIES:
        raise ChainError(
            "unknown identity %r (have: %s)" % (name, ", ".join(boundary_identity_catalog()))
        )
    qname, four_term, sign, terms = _BOUNDARY_IDENTITIES[name]
    expected = Chain.from_signed_terms(terms, arity=3, graded=True)
    return verify_boundary_identity(four_term, expected, sign, resolve_quandle(qname))
