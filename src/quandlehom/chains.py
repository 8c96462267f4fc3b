"""Sparse integer chains over a quandle, and the two face maps.

An m-term is a signed generator (n, u; a_1, ..., a_m): degree n, index u,
and a color tuple with adjacent entries distinct.  Chains are sparse integer
combinations of such generators.  Two coefficient sets are supported: the
trivial one (a single point; degree and index are a fixed 0 sentinel) and the
graded one Z x X on which a generator acts by (n, u)^a = (n + 1, u^a).

The color-deletion map f and the action-twisted deletion map g both drop any
output term whose colors have two equal adjacent entries.  Their sum is the
boundary; boundary o boundary = 0.  One face pass computes all three and
compares only the two colors a dropped one brings together.  That relies on
terms with no equal adjacent colors, which `Chain.__init__` and
`Chain.from_signed_terms` check (a caller writing `terms` directly must keep
it, as it keeps coefficients nonzero), and on permutation columns, which
`FiniteQuandle` records: over any other table each g-face is checked whole.

A stored coefficient is never zero: `Chain.__bool__`, `__eq__` and `length`
rely on it.  Every sum of coefficients into a term dict, here and in the
modules above, goes through the one writer `_accumulate`, but for two that
write their own: `_face_pass` sums each face where it makes it, and the
single-degree join's `search._merged` stops at the first cancellation.
"""

from __future__ import annotations

from .quandles import FiniteQuandle, QuandleError, _is_degenerate, parse_ints


class ChainError(ValueError):
    pass


def _accumulate(store, pairs, sign=1):
    """store += sign * pairs in place, for (key, nonzero coefficient) pairs;
    a key whose coefficient reaches 0 is deleted.  Returns store."""
    for key, c in pairs:
        v = store.get(key, 0) + sign * c
        if v:
            store[key] = v
        else:
            del store[key]
    return store


class Chain:
    """A sparse integer combination of same-arity terms.

    ``terms`` maps (degree, index, colors) -> nonzero int.  For a trivial
    coefficient set every stored degree and index is 0.
    """

    __slots__ = ("arity", "graded", "terms")

    def __init__(self, arity, graded, terms=None):
        self.arity = arity
        self.graded = graded
        self.terms = {}
        if terms:
            # Every given term is checked, a zero coefficient's too.
            pairs = list(terms.items() if isinstance(terms, dict) else terms)
            for t, _ in pairs:
                degree, index, colors = t
                if len(colors) != arity:
                    raise ChainError("term %r has wrong arity, expected %d" % (t, arity))
                if _is_degenerate(colors):
                    raise ChainError("degenerate colors in %r" % (t,))
                if not graded and (degree != 0 or index != 0):
                    raise ChainError("trivial coefficients require degree=index=0")
            _accumulate(self.terms, [(t, c) for t, c in pairs if c])

    @classmethod
    def single(cls, coeff, degree, index, colors, graded=True):
        colors = tuple(colors)
        return cls(len(colors), graded, {(degree, index, colors): coeff})

    @classmethod
    def from_signed_terms(cls, signed_terms, arity, graded=True):
        """Build from an iterable of (sign, term) pairs, each term checked as
        the constructor checks it."""
        return cls(arity, graded, [(t, sign) for sign, t in signed_terms])

    def _check_compatible(self, other):
        if self.arity != other.arity or self.graded != other.graded:
            raise ChainError("incompatible chains")

    def __add__(self, other):
        self._check_compatible(other)
        result = Chain(self.arity, self.graded)
        result.terms = _accumulate(dict(self.terms), other.terms.items())
        return result

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        result = Chain(self.arity, self.graded)
        result.terms = {t: -c for t, c in self.terms.items()}
        return result

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        result = Chain(self.arity, self.graded)
        if k != 0:
            result.terms = {t: k * c for t, c in self.terms.items()}
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.arity == other.arity
            and self.graded == other.graded
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items_sorted(self):
        """Deterministic (term, coeff) listing: by degree, index, colors."""
        return sorted(self.terms.items())

    def key(self):
        """Hashable canonical form."""
        return (self.arity, self.graded, tuple(self.items_sorted()))

    def __repr__(self):
        if not self.terms:
            return "<zero %d-chain>" % self.arity
        bits = []
        for (n, u, colors), c in self.items_sorted():
            head = "%+d" % c
            if self.graded:
                bits.append("%s(%d,%d;%s)" % (head, n, u, ",".join(map(str, colors))))
            else:
                bits.append("%s(%s)" % (head, ",".join(map(str, colors))))
        return " ".join(bits)


def length(chain):
    """Sum of absolute coefficients of the reduced form."""
    return sum(abs(c) for c in chain.terms.values())


def _face_pass(chain, q, f=True, g=True):
    """The f- and g-faces of every term, summed straight into one dict.  The
    parts left and right of a dropped color keep distinct neighbours (acted
    on by a permutation column for g), so only where they meet is compared."""
    if chain.arity < 1:
        raise ChainError("%s needs arity >= 1" % ("f" if f else "g"))
    if g and not isinstance(q, FiniteQuandle):
        raise QuandleError("g needs a quandle")
    columns, whole = (q._columns, not q._bijective) if g else (None, False)
    graded = chain.graded
    faces = {}
    for (n, u, colors), coeff in chain.terms.items():
        sign = -coeff
        for i, ai in enumerate(colors):
            left, right = colors[:i], colors[i + 1 :]
            if f and not (left and right and left[-1] == right[0]):
                key = (n, u, left + right)
                c = faces[key] = faces.get(key, 0) + sign
                if not c:
                    del faces[key]
            if g:
                col = columns[ai]
                left = tuple(map(col.__getitem__, left))
                if not (_is_degenerate(left + right) if whole else left and right and left[-1] == right[0]):
                    key = (n + 1, col[u], left + right) if graded else (0, 0, left + right)
                    c = faces[key] = faces.get(key, 0) - sign
                    if not c:
                        del faces[key]
            sign = -sign
    result = Chain(chain.arity - 1, graded)
    result.terms = faces
    return result


def f_map(chain):
    """Color deletion: alternating sum over dropped positions, first sign
    negative; output terms with adjacent equal colors are discarded.
    Preserves degree and index, and never consults the quandle operation."""
    return _face_pass(chain, None, g=False)


def g_map(chain, q):
    """Action-twisted deletion: dropping position i acts by a_i on the index
    and on the colors left of i, with alternating sign starting positive.
    Raises the degree by one on graded chains."""
    return _face_pass(chain, q, f=False)


def boundary(chain, q):
    """f_map(chain) + g_map(chain, q), in one pass over the terms."""
    return _face_pass(chain, q)


def project_pi(chain):
    """Forget degree and index, accumulating coefficients."""
    return Chain(chain.arity, False, (((0, 0, t[2]), c) for t, c in chain.terms.items()))


def sigma_shift(chain, delta=1):
    """Shift every degree by delta (graded chains only)."""
    if not chain.graded:
        raise ChainError("sigma shift needs a graded chain")
    result = Chain(chain.arity, True)
    result.terms = {(n + delta, u, colors): c for (n, u, colors), c in chain.terms.items()}
    return result


def chain_to_text(chain):
    """Serialize: header `arity m graded|trivial`, then sorted term lines."""
    lines = ["arity %d %s" % (chain.arity, "graded" if chain.graded else "trivial")]
    for (n, u, colors), coeff in chain.items_sorted():
        lines.append("%d %d %d %s" % (coeff, n, u, " ".join(map(str, colors))))
    return "\n".join(lines) + "\n"


def chain_from_text(text):
    rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ChainError("empty chain text")
    head = rows[0].split()
    if (
        len(head) != 3
        or head[0] != "arity"
        or not head[1].isdigit()
        or head[2] not in ("graded", "trivial")
    ):
        raise ChainError("bad chain header %r" % rows[0])
    arity = int(head[1])
    graded = head[2] == "graded"
    pairs = []
    for ln in rows[1:]:
        parts = parse_ints(ln.split(), ChainError, "chain line %r" % ln)
        if len(parts) != 3 + arity:
            raise ChainError("bad chain line %r" % ln)
        coeff, n, u = parts[0], parts[1], parts[2]
        colors = tuple(parts[3:])
        if not graded:
            n, u = 0, 0
        pairs.append(((n, u, colors), coeff))
    return Chain(arity, graded, pairs)


def chain_from_file(path):
    with open(path) as fh:
        return chain_from_text(fh.read())

