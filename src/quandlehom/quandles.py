"""Finite quandles given by operation tables.

A quandle is a set X with a binary operation (a, b) -> a^b such that every
element is idempotent (a^a = a), every right translation x -> x^b is a
bijection, and the operation is right self-distributive:
(a^b)^c = (a^c)^(b^c).

Two concrete families matter here: the dihedral quandle R_n on Z/nZ with
a^b = 2b - a, and the octahedral quandle O_6 whose elements are the six
vertices of a regular octahedron, with a^b the image of a under the
quarter-turn about the axis through b (counterclockwise as seen from b
looking at the centre).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field


class QuandleError(ValueError):
    """Raised for malformed tables, bad parameters or failed axioms."""


class AxiomError(QuandleError):
    """A well-formed table file that fails an axiom; ``report`` says where."""

    def __init__(self, path, report):
        super().__init__("table in %s is not a quandle: %s" % (path, report.summary()))
        self.report = report


@dataclass
class AxiomReport:
    """Outcome of an exhaustive axiom check.

    ``idempotence`` lists elements a with a^a != a, ``bijectivity`` lists
    columns b whose right translation is not a permutation, and
    ``distributivity`` lists triples (a, b, c) with (a^b)^c != (a^c)^(b^c).
    """

    idempotence: list = field(default_factory=list)
    bijectivity: list = field(default_factory=list)
    distributivity: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.idempotence or self.bijectivity or self.distributivity)

    def summary(self) -> str:
        if self.ok:
            return "pass"
        parts = []
        if self.idempotence:
            parts.append("idempotence fails at %s" % self.idempotence)
        if self.bijectivity:
            parts.append("columns not bijective: %s" % self.bijectivity)
        if self.distributivity:
            head = self.distributivity[:10]
            parts.append(
                "self-distributivity fails at %d triples, first %s"
                % (len(self.distributivity), head)
            )
        return "; ".join(parts)


class FiniteQuandle:
    """A finite quandle with elements 0..size-1 and table[a][b] = a^b."""

    __slots__ = ("size", "table", "name", "_columns", "_bijective")

    def __init__(self, table, name=None):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        if n == 0:
            raise QuandleError("empty table")
        for row in rows:
            if len(row) != n:
                raise QuandleError("table is not square")
            for x in row:
                if not isinstance(x, int) or not 0 <= x < n:
                    raise QuandleError("table entry %r out of range 0..%d" % (x, n - 1))
        self.size = n
        self.table = rows
        self.name = name
        self._columns = tuple(
            tuple(rows[a][b] for a in range(n)) for b in range(n)
        )
        self._bijective = all(len(set(col)) == n for col in self._columns)  # every column a permutation

    def apply(self, a, b):
        """Return a^b."""
        return self.table[a][b]

    def act_word(self, x, word):
        """Apply x -> x^{w_1 w_2 ... w_k} for a word of elements."""
        for w in word:
            x = self.table[x][w]
        return x

    def column(self, b):
        """The permutation a -> a^b as a tuple."""
        return self._columns[b]

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        label = self.name or "quandle"
        return "<%s of size %d>" % (label, self.size)


def make_dihedral(n):
    """The dihedral quandle R_n on Z/nZ with a^b = 2b - a."""
    if n < 3:
        raise QuandleError("dihedral quandle needs n >= 3, got %r" % n)
    table = [[(2 * b - a) % n for b in range(n)] for a in range(n)]
    return FiniteQuandle(table, name="R%d" % n)


# Octahedron vertices: 0 = +z, 1 = +x, 2 = +y, 3 = -z, 4 = -x, 5 = -y.
# Antipodes differ by 3, and the quarter turn about vertex 0 sends 1 to 2.
_OCT_COORDS = (
    (0, 0, 1),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, -1),
    (-1, 0, 0),
    (0, -1, 0),
)


def _quarter_turn(a, b):
    """The vertex that the right-handed quarter turn about the unit vector n
    through vertex b carries vertex a to: R v = n (n.v) + n x v, exact over
    Z for coordinate axes."""
    n, v = _OCT_COORDS[b], _OCT_COORDS[a]
    dot = n[0] * v[0] + n[1] * v[1] + n[2] * v[2]
    cross = (
        n[1] * v[2] - n[2] * v[1],
        n[2] * v[0] - n[0] * v[2],
        n[0] * v[1] - n[1] * v[0],
    )
    return _OCT_COORDS.index(tuple(n[i] * dot + cross[i] for i in range(3)))


def make_octahedral():
    """The octahedral quandle O_6 built from quarter turns of the octahedron.

    a^b is the image of vertex a under the counterclockwise quarter turn
    about the axis through vertex b, viewed from b toward the centre; with
    the vertex labelling above this is the right-hand-rule turn, and 1^0 = 2.
    """
    table = [[_quarter_turn(a, b) for b in range(6)] for a in range(6)]
    return FiniteQuandle(table, name="O6")


def check_axioms(q):
    """Exhaustively check idempotence, column bijectivity and
    right self-distributivity; the report lists every violation."""
    report = AxiomReport()
    n = q.size
    t = q.table
    for a in range(n):
        if t[a][a] != a:
            report.idempotence.append(a)
    for b in range(n):
        if len(set(q.column(b))) != n:
            report.bijectivity.append(b)
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    report.distributivity.append((a, b, c))
    return report


def dual(q):
    """The dual quandle, with every right translation inverted; a column
    that is not a permutation raises QuandleError."""
    n = q.size
    table = [[None] * n for _ in range(n)]
    for b in range(n):
        col = q.column(b)
        if len(set(col)) != n:
            raise QuandleError("column %d is not a permutation" % b)
        for a, image in enumerate(col):
            table[image][b] = a
    name = None
    if q.name:
        name = q.name + "-dual"
    return FiniteQuandle(table, name=name)


def check_isomorphism(mapping, q1, q2):
    """True iff mapping is a quandle isomorphism q1 -> q2."""
    if q1.size != q2.size:
        raise QuandleError("size mismatch: %d vs %d" % (q1.size, q2.size))
    m = tuple(mapping)
    if len(m) != q1.size or sorted(m) != list(range(q1.size)):
        raise QuandleError("mapping is not a bijection on 0..%d" % (q1.size - 1))
    for a in range(q1.size):
        for b in range(q1.size):
            if m[q1.apply(a, b)] != q2.apply(m[a], m[b]):
                return False
    return True


# The relabelling 2 <-> 5 identifies O_6 with its dual.
TAU_O6 = (0, 1, 5, 3, 4, 2)


def automorphisms(q):
    """Every automorphism of q, as sorted permutation tuples in a fresh list."""
    return list(_automorphisms(q.table))


@functools.lru_cache(maxsize=32)
def _automorphisms(table):
    """Cached per operation table.  Backtracks over the image of the least
    unplaced element; each placement is closed under phi(a^b) = phi(a)^phi(b),
    and a clash with the table or a repeated image prunes the branch.  Past a
    generating set every image is forced, so S_n is never enumerated."""
    n = len(table)

    def grow(phi, todo):
        while todo:
            a, image = todo.pop()
            if phi.get(a, image) != image or a not in phi and image in phi.values():
                return []
            if a not in phi:
                phi[a] = image
                for b, pb in list(phi.items()):
                    todo += [(table[a][b], table[image][pb]), (table[b][a], table[pb][image])]
        if len(phi) == n:
            return [tuple(phi[a] for a in range(n))]
        a = min(set(range(n)) - set(phi))
        return [p for image in range(n) for p in grow(dict(phi), [(a, image)])]

    return tuple(sorted(grow({}, [])))


def _is_degenerate(colors):
    """True when two adjacent colors are equal (never for 0 or 1 colors)."""
    return any(map(operator.eq, colors, colors[1:]))


def color_words(n, length):
    """Every word of `length` colors from 0..n-1 with adjacent colors
    distinct, in lexicographic order.  Words grow a letter at a time, the
    last letter added as they are taken."""
    if not length:
        return iter([()])
    nexts = [[(x,) for x in range(n) if x != y] for y in range(n + 1)]  # nexts[n] starts a word
    prefixes = [()]
    for _ in range(length - 1):
        prefixes = [w + x for w in prefixes for x in nexts[w[-1] if w else n]]
    return (w + x for w in prefixes for x in nexts[w[-1] if w else n])


def parse_ints(tokens, error, where):
    """The integers written by `tokens`; a malformed token raises `error`."""
    out = []
    for token in tokens:
        try:
            out.append(int(token))
        except ValueError:
            raise error("%s: %r is not an integer" % (where, token)) from None
    return out


def triple_action_table(q, base=0):
    """Map (a, b, c) -> base^{a b c} over all triples with b != a and b != c."""
    if not 0 <= base < q.size:
        raise QuandleError("base %d is not an element of a quandle of size %d" % (base, q.size))
    return {word: q.act_word(base, word) for word in color_words(q.size, 3)}


def quandle_from_file(path):
    """Load a quandle table; a failed axiom raises AxiomError with its report.

    Format: first line n, then n lines of n integers (row a lists a^0..a^{n-1}).
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise QuandleError("empty quandle file %s" % path)
    values = parse_ints(tokens, QuandleError, path)
    n, body = values[0], values[1:]
    if len(body) != n * n:
        raise QuandleError(
            "expected %d entries after the size line, found %d" % (n * n, len(body))
        )
    table = [body[a * n : (a + 1) * n] for a in range(n)]
    q = FiniteQuandle(table, name=path)
    report = check_axioms(q)
    if not report.ok:
        raise AxiomError(path, report)
    return q


def quandle_to_text(q):
    lines = [str(q.size)]
    for row in q.table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def resolve_quandle(spec_str):
    """Parse a quandle spec such as 'r7', 'dihedral:9', 'o6' or a file path."""
    s = spec_str.lower()
    if s in ("o6", "octahedral"):
        return make_octahedral()
    if s.startswith("r") and s[1:].isdigit():
        return make_dihedral(int(s[1:]))
    if s.startswith("dihedral:"):
        return make_dihedral(parse_ints([s.split(":", 1)[1]], QuandleError, spec_str)[0])
    return quandle_from_file(spec_str)
