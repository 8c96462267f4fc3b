"""Bounded search for shortest cycles pairing nontrivially with a cocycle.

Two windows are covered, mirroring the case split used to bound cycle
lengths from below.  Both run one join over structure.TermTable (every
3-term at degree 0 with its f- and g-images) and, where a part lies past
the census, the one residual-guided cancellation search,
structure.cancel_search, that also derives the family census:

* single degree: every cycle supported at one degree splits its terms, per
  index, into minimal families with vanishing f-image.  A cycle of several
  such families has parts of sizes 2 to 5 below length 8; those come from
  the symbolic census and are joined across indices by the exact integer
  codes of their g-images (_FamilyIndex, _join_partition): the smaller
  parts are listed and the largest is looked up by the g-code that cancels
  them.  The join lists each cycle with one global sign, the first in the
  sorted order, which follows the element labels: relabelling the quandle
  may change the probes line and which sign of a cycle is printed, but not
  the key sets or the counts.  A cycle of one family, of any size, comes
  from the one-family scan _index_scan (cancel_search, g residual first)
  at the least index of each orbit of Aut(Q), from the orbits of its
  stabiliser on its terms (_index_orbits), expanded over Aut(Q).

* two adjacent degrees: a cycle T0 + T1 over degrees 0 and 1 with 2
  (profile B) or 3 (profile C) terms T0 at degree 0, g(T0) != 0 and length
  6 or more comes from the same join over dual(Q), T0 its first part and
  the reverse of T1 its other parts, or from _index_scan over dual(Q)
  seeded with -reverse(g(T0)) for a top layer past the census.  The
  cycles with g(T0) = 0 are counted from the single window's run at L - 2.

Each window hands every cycle, as {term: coefficient}, to _Cycles.add_terms:
it is re-verified through the boundary map and paired with the cocycle from
per-term memos independent of the search's tables and codes.  A report
lists the cycles with nonzero pairing and keeps the keys of the zero-pairing
ones.  Searches are deterministic and run in one process; reports record
exactly what was covered and, as gaps, what was not.  A probe budget on the
summed probes refuses oversized runs rather than truncating silently.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import filterfalse, islice
from operator import mul

from .chains import Chain, boundary, chain_to_text, length
from .cocycles import ThreeCocycle, evaluate
from .quandles import FiniteQuandle, automorphisms, dual
from .structure import (
    _DIGIT_BITS,
    MAX_FAMILY_SIZE,
    TermTable,
    _code,
    cancel_search,
    concrete_families,
    family_count,
    reverse_term,
)


class SearchError(ValueError):
    pass


class BudgetExceeded(SearchError):
    def __init__(self, message, probes=0):
        super().__init__(message)
        self.probes = probes


class ProbeBudget:
    """The probe count of one search run; spend(n) counts n probes and
    refuses once the count passes the limit."""

    __slots__ = ("probes", "limit", "phase")

    def __init__(self, limit, phase):
        self.probes = 0
        self.limit = limit
        self.phase = phase

    def spend(self, n=1):
        self.probes += n
        if self.probes > self.limit:
            raise BudgetExceeded("%s exceeded the probe budget" % self.phase, self.probes)


MAX_SEARCH_LENGTH = 8
# A term has at most 3 g-faces, each with coefficient +-1, so the g-image of
# at most MAX_SEARCH_LENGTH terms has coefficients below 2**(_DIGIT_BITS-1)
# in size, the bound under which structure._code is exact.
assert 3 * MAX_SEARCH_LENGTH < 2 ** (_DIGIT_BITS - 1)
# A family size h with 2h > L is never a prefix part of a join, only the
# looked-up largest part, so its prefix holds at most L - h < 4 terms for
# every h > L/2 while L < 9: one listed part F, as two take 2 + 2, after the
# two-degree window's bottom layer if any.  Its lookups ask for -gcode(F).
assert MAX_SEARCH_LENGTH - (MAX_SEARCH_LENGTH // 2 + 1) < 2 + 2
# The two-degree window's top layer holds at most L - 2 terms: census parts,
# or one minimal family of one size past the census, its seeded scan's.
assert MAX_SEARCH_LENGTH - 2 <= MAX_FAMILY_SIZE + 1


@dataclass
class SearchConfig:
    """What to search: every field changes the report.  The window and its
    profile fix the shape, max_length the lengths, budget the refusal point."""

    quandle: FiniteQuandle
    cocycle: ThreeCocycle
    max_length: int = 7
    window: str = "single"  # single | double
    profile: str = "A"  # A | B | C | BC
    budget: int = 10**9

    def validate(self):
        if self.cocycle.quandle.table != self.quandle.table:
            raise SearchError("cocycle %s does not live on the chosen quandle" % self.cocycle.name)
        if not 2 <= self.max_length <= MAX_SEARCH_LENGTH:
            raise SearchError("max_length must be between 2 and %d" % MAX_SEARCH_LENGTH)
        if self.window not in ("single", "double"):
            raise SearchError("window must be 'single' or 'double'")
        if self.window == "single" and self.profile != "A":
            raise SearchError("the single-degree window is profile A")
        if self.window == "double" and self.profile not in ("B", "C", "BC"):
            raise SearchError("two-degree windows use profile B, C or BC")
        if self.window == "double" and self.max_length < 6:
            raise SearchError("the two-degree window needs max_length 6 or more")
        if self.budget < 1:
            raise SearchError("budget must be positive")


@dataclass
class FoundCycle:
    chain: Chain
    value: int
    shape: str

    def key(self):
        return self.chain.key()


@dataclass
class SearchReport:
    config: SearchConfig
    covered: list = field(default_factory=list)
    component_counts: dict = field(default_factory=dict)
    probes: int = 0
    zero_cycles: set = field(default_factory=set)  # sign-normal keys of zero-pairing cycles
    found: list = field(default_factory=list)
    refused: str | None = None
    gaps: list = field(default_factory=list)  # parts of the window left unsearched

    @property
    def zero_value_cycles(self):
        return len(self.zero_cycles)

    @property
    def exhausted(self):
        return self.refused is None and not self.found and not self.gaps

    def certificate_text(self):
        cfg = self.config
        lines = [
            "search quandle=%s cocycle=%s mod=%d window=%s profile=%s max_length=%d"
            % (
                cfg.quandle.name or "?",
                cfg.cocycle.name or "?",
                cfg.cocycle.modulus,
                cfg.window,
                cfg.profile,
                cfg.max_length,
            )
        ]
        for note in self.covered:
            lines.append("covered " + note)
        for note in self.gaps:
            lines.append("gap " + note)
        for size, count in sorted(self.component_counts.items()):
            lines.append("components size=%s count=%d" % (size, count))
        lines.append("probes %d" % self.probes)
        lines.append("cycles with zero pairing seen: %d" % self.zero_value_cycles)
        if self.refused:
            lines.append("REFUSED: %s" % self.refused)
        elif self.found:
            lines.append("FOUND %d cycles with nonzero pairing:" % len(self.found))
            for fc in self.found:
                lines.append(
                    "cycle value=%d length=%d shape=%s" % (fc.value, length(fc.chain), fc.shape)
                )
                lines.append(chain_to_text(fc.chain).rstrip("\n"))
        elif self.gaps:
            lines.append(
                "INCOMPLETE: no cycle with nonzero pairing in the covered window,"
                " %d gaps left" % len(self.gaps)
            )
        else:
            lines.append(
                "EXHAUSTED: no cycle with nonzero pairing in the covered window"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared helpers


def _sign_normal_key(terms):
    """A cycle {term: coefficient} up to global sign: its sorted items, or
    those of its negative, whichever is less."""
    items = tuple(sorted(terms.items()))
    neg = tuple([(t, -c) for t, c in items])
    return items if items <= neg else neg


def _partitions_into_parts(total, largest):
    """Multiset partitions of `total` into parts between 2 and largest,
    emitted in non-increasing order."""
    if total == 0:
        return [()]
    out = []
    for part in range(min(largest, total), 1, -1):
        remainder = total - part
        if remainder == 0 or remainder >= 2:
            out.extend((part,) + rest for rest in _partitions_into_parts(remainder, part))
    return out


def _merged(counter, parts):
    """counter plus the (sign, term id) pairs, as a new dict; None at the
    first term that cancels."""
    out = dict(counter)
    for sign, term in parts:
        new = out.get(term, 0) + sign
        if not new:
            return None
        out[term] = new
    return out


def _move(p, term):
    """The term moved by the automorphism p."""
    d, u, w = term
    return d, p[u], tuple([p[x] for x in w])


def _index_orbits(group):
    """(u, its stabiliser) for the least index u of each orbit of `group`, in order."""
    least = sorted({min(p[v] for p in group) for v in range(len(group[0]))})
    return [(u, [p for p in group if p[u] == u]) for u in least]


def _index_scan(table, u, size, budget, anchors=(), seed=None):
    """The g-null minimal f-null families of at most `size` terms at index u
    of `table`, as (sign, term) lists, maybe repeated: one g-first
    cancel_search from the groups of terms `anchors`, or from its `seed`."""
    hits = []

    def close(family, gres):
        if not gres and table.is_minimal_null(family):
            hits.append(family)

    cancel_search(table, size, close, anchors, g_cancel=table.g_cancel[u], seed=seed, budget=budget)
    return hits


class _Cycles:
    """The cycles a search reaches, each once up to global sign: every one
    is re-checked through the boundary map, paired with the cocycle and
    filed by its pairing alone: nonzero into found, zero into the key set
    zero.

    Both come from per-term memos taken once per search from the one-term
    chain, not from a TermTable or the join's codes: its boundary image by
    chains.boundary, kept in ``images`` as an integer _code with the faces
    numbered as met (``faces``), and its pairing by cocycles.evaluate, in
    ``values``.  Both are linear, so a cycle's are sums.  A term's image
    has each face at most once, with coefficient +-1, so the summed code of
    at most MAX_SEARCH_LENGTH terms, with multiplicity, is 0 exactly when
    the summed image is.  add_terms, the one way in for the joins and the
    one-family scans alike, takes the cycle as {term: coefficient} and
    builds a checked Chain only for a new cycle with nonzero pairing;
    ``key in cycles`` asks whether a sign-normal key was reached.
    """

    def __init__(self, q, theta):
        self.q, self.theta = q, theta
        self.zero, self.found = set(), {}
        self.images, self.faces, self.values = {}, {}, {}

    def _take(self, t):
        one = Chain(3, True, {t: 1})
        self.images[t] = _code(boundary(one, self.q).terms.items(), self.faces)
        self.values[t] = evaluate(self.theta, one)

    def __contains__(self, key):
        return key in self.zero or key in self.found

    def add_terms(self, terms, shape):
        key = _sign_normal_key(terms)
        if key in self:
            return
        for t in filterfalse(self.images.__contains__, terms):
            self._take(t)
        if sum(map(mul, terms.values(), map(self.images.__getitem__, terms))):
            raise AssertionError("search produced a non-cycle")
        value = sum(map(mul, terms.values(), map(self.values.__getitem__, terms))) % self.theta.modulus
        if value:
            self.found[key] = FoundCycle(Chain(3, True, terms), value, shape)
        else:
            self.zero.add(key)


# ---------------------------------------------------------------------------
# single-degree window


def _g_codes(table):
    """columns, pcode and code for a degree-0 table.  columns = (stamps,
    gcodes): per pair (sign, color word w), the column of its stamp (sign,
    id) at every index u, id the position of the term (0, u, w) in
    table.terms, and the column of its g-code there, sign times the code of
    g(0, u, w).  pcode[w] is the code of g(0, u, w) with each face's index
    dropped, the same at every index u.  code(faces): the g-code and the
    projected code of any (g-face, coefficient) pairs."""
    gdigits, pdigits, ids = {}, {}, {}
    for i, (_, _, w) in enumerate(table.terms):  # sorted: by index, then word
        ids.setdefault(w, []).append(i)
    gcode = [_code(table.g[t], gdigits) for t in table.terms]
    stamps = {(s, w): [(s, i) for i in col] for w, col in ids.items() for s in (1, -1)}
    gcodes = {(s, w): [s * gcode[i] for i in col] for w, col in ids.items() for s in (1, -1)}
    pcode = {
        t[2]: _code(((f[2], c) for f, c in table.g[t]), pdigits) for t in table.terms if t[1] == 0
    }

    def code(faces):
        return _code(faces, gdigits), _code([(f[2], c) for f, c in faces], pdigits)

    return (stamps, gcodes), pcode, code


class _FamilyIndex:
    """The minimal f-null families of one size at degree 0, over every index,
    looked up by g-code.

    The census color families of concrete_families are stamped at every
    index when the index is built, read across the ``columns`` of _g_codes
    (each (sign, word) pair's stamp and g-code at every index; summed, the
    family's g-code there); ``store`` maps each g-code to its stamped
    families, sorted.  A stamped family is a sorted tuple of (sign, id)
    pairs, id the term's position in the sorted ``terms``, so families sort
    as the (sign, term) tuples they stand for while the join hashes small
    ints.  A size built whole also records ``negated``, -F for each stamped
    family F, read across the columns of the color family's negative
    (sorted, since at one index the ids keep the words' order).

    A size that is only looked up is built with ``asked``, the (g-code,
    projected code) pairs its lookups ask for, and holds exactly those
    g-codes (``codes``), each in the store even when empty; it raises on a
    lookup of any other, or on families().  Equal g-codes have equal
    projected codes (``pcode``: the g-faces with their index dropped), so
    only the color families of the asked projected codes are listed, each
    stamped only at the indices where its g-code is asked for.
    """

    def __init__(self, table, q, size, columns, pcode, asked=None):
        self.terms = table.terms  # id -> term
        stamps, gcodes = columns
        self.codes = wanted = self.negated = None
        store = {}
        if asked is not None:
            self.codes = {gkey for gkey, _ in asked}
            store = {gkey: [] for gkey in self.codes}
            wanted = {pkey for _, pkey in asked}
        else:
            self.negated = {}
        for fam in concrete_families(q, size, None if wanted is None else (pcode, wanted)):
            keys = map(sum, zip(*map(gcodes.__getitem__, fam)))
            if self.codes is None:
                stamped = list(zip(*map(stamps.__getitem__, fam)))
                negative = sorted([(-sign, w) for sign, w in fam])
                self.negated.update(zip(stamped, zip(*map(stamps.__getitem__, negative))))
                for gkey, stamp in zip(keys, stamped):
                    store.setdefault(gkey, []).append(stamp)
                continue
            for u, gkey in enumerate(keys):
                if gkey in store:
                    store[gkey].append(tuple([stamps[pair][u] for pair in fam]))
        for fams in store.values():
            fams.sort()  # fixes which sign of a cycle is stored first, and so the certificate
        self.store = store
        self.absent = () if self.codes is None else None  # what get() finds for an unstored g-code
        self.listing = None
        self.signs = None

    def get(self, gkey):
        """The sorted families with g-code gkey."""
        fams = self.store.get(gkey, self.absent)
        if fams is None:
            raise AssertionError("lookup of g-code %d outside the index's codes" % gkey)
        return fams

    def families(self):
        """Every (family, g-code) pair, sorted."""
        if self.codes is not None:
            raise AssertionError("a lookup-only index holds only some families")
        if self.listing is None:
            self.listing = sorted((fam, gkey) for gkey, fams in self.store.items() for fam in fams)
        return self.listing

    def signed(self):
        """``negated``, -F for every listed family F, and the listing of the
        families with F < -F: what a join needs of its smallest part size,
        built on the first such join."""
        if self.signs is None:
            negated = self.negated
            self.signs = negated, [entry for entry in self.families() if entry[0] < negated[entry[0]]]
        return self.signs


def _join_partition(partition, index, budget, on_cycle, bottom=None):
    """Enumerate unions of minimal families over one size partition with
    vanishing total g-image, each with one global sign.

    Parts are chosen in ascending size order from `index`, size ->
    _FamilyIndex: prefix parts from its sorted listing, the largest part
    looked up, at the last prefix level before that level's merge, by the
    g-code that cancels the prefix (neg_g): an empty lookup costs no merge
    and no probe.  Equal-size parts are kept non-decreasing, each such
    level starting by bisection at the previous level's family.  on_cycle
    gets {term: coefficient}, mapped back from term ids only when a cycle
    closes.

    `bottom` is the g-code of a first part fixed outside `index`, the
    two-degree window's bottom layer, which fixes the sign; a partition may
    then be one part.  Without it a partition has two parts or more, and of
    a cycle and its negative only the one whose least family F1 of the
    smallest part size is below -F for every F of that size is listed
    (McKay's orbit argument for the global sign), the first in sorted order.
    """
    parts = sorted(partition)  # ascending; look up the largest size
    hash_size = parts[-1]
    prefix_sizes = parts[:-1]
    if bottom is None and not prefix_sizes:
        raise AssertionError("a join needs two parts or more; one family alone is the component scan's")
    largest = index[hash_size]
    terms = largest.terms
    small = negated = None
    listings = [index[size].families() for size in prefix_sizes]
    if bottom is None:
        small = prefix_sizes[0]
        negated, listings[0] = index[small].signed()
    same_size, one_size = prefix_sizes[-1:] == [hash_size], small == hash_size
    last = len(prefix_sizes) - 1
    get = largest.get

    # hits: the looked-up families that can close the full prefix.  first:
    # the family chosen at level 0 (F1); last_fam: the latest one.
    def close(counter, first, last_fam, hits):
        budget.spend()
        for fam in hits:
            if same_size and fam < last_fam or one_size and negated[fam] < first:
                continue
            budget.spend()
            cycle = _merged(counter, fam)
            if cycle is not None:
                on_cycle({terms[i]: c for i, c in cycle.items()})

    def rec(counter, level, first, last_fam, neg_g):
        budget.spend()
        lower = last_fam if (level and prefix_sizes[level - 1] == prefix_sizes[level]) else None
        signed = level and prefix_sizes[level] == small
        final = level == last
        listing = listings[level]
        start = 0 if lower is None else bisect_left(listing, (lower,))
        for fam, gkey in islice(listing, start, None):
            if signed and negated[fam] < first:
                continue
            if final:
                hits = get(neg_g - gkey)
                if not hits:
                    continue
            merged = _merged(counter, fam)
            if merged is None:
                continue
            if final:
                close(merged, first or fam, fam, hits)
            else:
                rec(merged, level + 1, first or fam, fam, neg_g - gkey)

    try:
        if prefix_sizes:
            rec({}, 0, (), (), -(bottom or 0))
        elif get(-bottom):
            close({}, (), (), get(-bottom))
    finally:
        rec = None  # rec refers to itself: free the search's working set now, not at a gc run


def _orbit_components(table, max_length, group, budget):
    """Minimal f-null families at one index that are also g-null: the single
    components that alone form a one-degree cycle, as sorted tuples with the
    least term positive, by size, for every size 2..max_length; sorted.

    One _index_scan of size max_length runs at each u of _index_orbits,
    from the orbits of u's stabiliser on the terms at u, in order, each
    retired after its scan.  A closure returns without extending and the
    residual prune only loosens as the size grows, so it passes every state
    of each smaller size's scan.  f and g commute with automorphisms, so a
    family at u is moved by the stabiliser onto one holding the least term
    of the first orbit it meets and no earlier orbit's term; the families
    at p(u) are p of those at u.  Each hit is expanded over `group`."""
    hits = {size: set() for size in range(2, max_length + 1)}
    for u, stabiliser in _index_orbits(group):
        orbits = {tuple(sorted({_move(p, t) for p in stabiliser})) for t in table.terms if t[1] == u}
        for family in _index_scan(table, u, max_length, budget, sorted(orbits)):
            for p in group:
                image = [(s, _move(p, t)) for s, t in family]
                flip = min((t, s) for s, t in image)[1]
                hits[len(family)].add(tuple(sorted([(flip * s, t) for s, t in image])))
    return {size: sorted(fams) for size, fams in hits.items()}


def _family_indexes(table, q, max_length, bottoms=None, codes=None):
    """size -> _FamilyIndex for the census part sizes of the joins up to
    max_length, codes = _g_codes(table).  The single window (bottoms None)
    joins two parts or more, the first from a signed listing; the two-degree
    window one part or more to each bottom layer, given as (the lengths its
    parts may sum to, g-code, projected code).  A size h with 2h within the
    parts' room is built whole; any other is only looked up, after the
    bottom and at most one listed part (see the assertion on
    MAX_SEARCH_LENGTH), and built for exactly the g-codes those ask for."""
    columns, pcode, _ = codes or _g_codes(table)
    single = bottoms is None
    if single:
        bottoms = [(range(4, max_length + 1), 0, 0)]
    room = max(lengths.stop for lengths, _, _ in bottoms) - 1
    index = {}
    for size in range(2, min(MAX_FAMILY_SIZE, room - 2 * single) + 1):
        asked = None
        if 2 * size > room:
            asked = set()
            for lengths, gkey, pkey in bottoms:
                if size in lengths and not single:
                    asked.add((-gkey, -pkey))
                for s in filter(lambda s: s + size in lengths, range(2, size)):
                    for fam, fkey in index[s].signed()[1] if single else index[s].families():
                        fpkey = sum([sign * pcode[table.terms[i][2]] for sign, i in fam])
                        asked.add((-gkey - fkey, -pkey - fpkey))
        index[size] = _FamilyIndex(table, q, size, columns, pcode, asked)
    return index


def _search_single_degree(cfg, report, table):
    q, max_length = cfg.quandle, cfg.max_length
    budget = ProbeBudget(cfg.budget, "single-degree join")
    index = _family_indexes(table, q, max_length)
    for size in range(2, min(MAX_FAMILY_SIZE, max_length) + 1):
        report.component_counts[size] = q.size * family_count(q.size, size)
    cycles = _Cycles(q, cfg.cocycle)
    # Every partition of a length into census sizes: one of two parts or
    # more is a join, one part the one-family cycles of the scan below.
    partitions = sorted(
        (l, p) for l in range(2, max_length + 1) for p in _partitions_into_parts(l, min(MAX_FAMILY_SIZE, l))
    )
    for l, partition in partitions:
        if len(partition) > 1:
            shape = "degree0 parts %s" % (list(partition),)
            _join_partition(partition, index, budget, lambda terms, shape=shape: cycles.add_terms(terms, shape))

    # One family alone, of every size 2..max_length.  A family of 6 or more
    # plus any other part needs length >= 6 + 2 > 7, so below length 8 the
    # joins and this scan close the census.  At length 8 the split 6+2 is
    # left open: a gap.
    budget.phase = "component search"
    scanned = {}
    for size, fams in _orbit_components(table, max_length, automorphisms(q), budget).items():
        for fam in fams:
            cycles.add_terms(_merged({}, fam), "degree0 single family of %d" % size)
        scanned[size] = "length %d as one family (index scan, %d hits)" % (size, len(fams))
    # The covered lines keep their order: a length's one-family line follows
    # its joins, where its one-part partition sorts, and the sizes past the
    # census come last.
    report.covered = [
        "length %d as %s" % (l, list(p)) if len(p) > 1 else scanned[l] for l, p in partitions
    ] + [scanned[size] for size in range(MAX_FAMILY_SIZE + 1, max_length + 1)]
    if cfg.max_length >= MAX_FAMILY_SIZE + 3:
        report.gaps.append("length %d split 6+2 (outside the certified window)" % cfg.max_length)

    return cycles, budget


# ---------------------------------------------------------------------------
# two-degree window (profiles B and C)


def _bottom_layers(table, q, sizes, group):
    """One census family T0 with g(T0) != 0, of each of `sizes`, at degree 0
    per orbit of Aut(Q) and global sign, as sorted (term, coefficient)
    pairs: the least member whose least term, the orbit's, is positive, met
    at the least index u of an index orbit through u's stabiliser."""
    bottoms = set()
    for u, stabiliser in _index_orbits(group):
        for size in sizes:
            for fam in concrete_families(q, size):
                members = [
                    tuple(sorted([(_move(p, (0, u, w)), sign * s) for s, w in fam]))
                    for p in stabiliser
                    for sign in (1, -1)
                ]
                bottoms.add(min(m for m in members if m[0][1] > 0))
    return sorted(b for b in bottoms if table.image([(c, t) for t, c in b], table.g))


def _search_double_window(cfg, report, table):
    """Every cycle T0 + T1 over degrees 0 and 1 with |T0| in the profile,
    g(T0) != 0 and length 6..L, up to Aut(Q).  T0 is f-null with 2 or 3
    terms, one census family; T1 is g-null with f(T1) = -g(T0).  As
    reverse(f(t)) = -g_dual(reverse(t)) and reverse(g(t)) =
    -f_dual(reverse(t)), degrees apart, reverse(T1) is a sum of the single
    window's parts over dual(Q) with g-image reverse(g(T0)).  Where an
    automorphism negates T0, the sign whose top layer sorts first is
    printed.  With g(T0) = 0, T0 and T1 are single-window cycles."""
    q, max_length = cfg.quandle, cfg.max_length
    sizes = {"B": (2,), "C": (3,), "BC": (2, 3)}[cfg.profile]
    group = automorphisms(q)
    lower, budget = _search_single_degree(replace(cfg, max_length=max_length - 2), SearchReport(cfg), table)
    budget.phase = "two-degree window"  # the single window's run at L - 2 spends from it too
    n = Counter(sum(abs(c) for _, c in key) for key in lower.zero | lower.found.keys())  # n_l, up to sign
    handed = sum(n.get(a, 0) * 2 * sum(n.get(b, 0) for b in range(6 - a, max_length - a + 1)) for a in sizes)

    dq = dual(q)
    top = table if dq.table == q.table else TermTable(dq)
    back = {t: (1,) + reverse_term(t, dq)[1:] for t in top.terms}  # top's term -> the degree-1 term it reverses
    codes = _g_codes(top)
    bottoms, seeds, firsts = _bottom_layers(table, q, sizes, group), [], []
    for t0 in bottoms:
        faces = top.image([(c, reverse_term(t, q)) for t, c in t0], top.f)  # f_dual(reverse(T0))
        seeds.append({(1, u, w): c for (_, u, w), c in faces.items()})  # = -reverse(g(T0)), as g-faces
        gkey, pkey = codes[2](seeds[-1].items())
        firsts.append((range(6 - len(t0), max_length - len(t0) + 1), gkey, pkey))
    index = _family_indexes(top, dq, max_length, firsts, codes)
    cycles = _Cycles(q, cfg.cocycle)
    for t0, seed, (lengths, gkey, _) in zip(bottoms, seeds, firsts):
        layers = []
        add = lambda terms: layers.append(tuple(sorted([(back[t], c) for t, c in terms.items()])))
        for l in lengths:
            for partition in _partitions_into_parts(l, MAX_FAMILY_SIZE):
                _join_partition(partition, index, budget, add, gkey)
            if l > MAX_FAMILY_SIZE:  # one family past the census, at each index
                for u in range(q.size):
                    for fam in _index_scan(top, u, l, budget, seed=({}, seed)):
                        if len(fam) == l:
                            add(_merged({}, fam))
        for t1 in sorted(layers):
            terms, length = dict(t0 + t1), sum(abs(c) for _, c in t1)
            # A merge may take a term's coefficient from 2 back to 1: a top layer shorter than its parts.
            if length in lengths and _sign_normal_key(terms) not in cycles:
                shape = "degrees 0+1 split %d+%d" % (len(t0), length)
                for p in group:
                    cycles.add_terms({_move(p, t): c for t, c in terms.items()}, shape)

    report.covered += [
        "every cycle of length 6..%d with degrees exactly {0, 1}, bottom layer size"
        " |T0| = %s at degree 0 and g(T0) != 0, up to sign" % (cfg.max_length, " or ".join(map(str, sizes))),
        "by a join of each of the %d census bottom layers T0 up to Aut(Q) and sign with reversed minimal f-null"
        " families of dual(Q) by the code of reverse(g(T0)), or one past the census by a seeded scan, each"
        " cycle expanded over Aut(Q) (order %d); the single window's run at length %d is in the probes line"
        % (len(bottoms), len(group), max_length - 2),
        "cycles of that shape with g(T0) = 0, left to the single-degree window: %d" % handed,
    ]
    return cycles, budget


def search_min_cycles(cfg):
    """Run the configured search; returns a SearchReport.  On budget
    overrun the report carries a refusal note instead of results.

    The searches walk terms in the order of the element labels, so under a
    relabelled quandle the probes line, and which sign of a cycle is
    printed, may differ; the sign-normal key sets of the found and
    zero-pairing cycles, mapped back, and their counts do not."""
    cfg.validate()
    report = SearchReport(cfg)
    window = _search_single_degree if cfg.window == "single" else _search_double_window
    try:
        cycles, budget = window(cfg, report, TermTable(cfg.quandle))
    except BudgetExceeded as exc:
        report.refused = "%s (after %d probes)" % (exc, exc.probes)
        return report
    report.probes = budget.probes
    report.zero_cycles = cycles.zero
    report.found = sorted(cycles.found.values(), key=lambda fc: fc.key())
    return report

