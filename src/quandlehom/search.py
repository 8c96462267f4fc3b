"""Bounded search for shortest cycles pairing nontrivially with a cocycle.

Two windows are covered, mirroring the case split used to bound cycle
lengths from below.  Both read face images from one structure.TermTable per
degree (every 3-term with its f- and g-images), and where they search they
use the one residual-guided cancellation search, structure.cancel_search,
that also derives the family census:

* single degree: every cycle supported at one degree splits its terms, per
  index, into minimal families with vanishing f-image.  A cycle of several
  such families has parts of sizes 2 to 5 (a part of 6 or more with a
  cofactor is impossible below length 8); those come from the symbolic
  census and are joined across indices by the exact integer codes of their
  g-images, each the sum over its terms of a per-term code with one
  balanced base-2**6 digit per g-face: the smaller parts are listed and the
  largest part is looked up by the g-code that cancels them.  One store per
  size maps each g-code to its families, built whole when the size's index
  is: every census color family, stamped at every index.  Stamps and
  g-codes come a column at a time: one column per (sign, color word) holds
  that pair's stamp and g-code at every index, and a family's columns, read
  across and summed, give its stamps and g-codes at every index at once.  A
  stamped family names its terms by their positions in the sorted term
  table, so the join merges and compares small ints in the terms' own order
  and maps them back to terms only when a cycle closes.  A size that is
  only looked up is built for exactly the g-codes its lookups ask for (the
  negated codes of the listed families it can follow): concrete_families
  keeps the color families whose projected code is asked for, summed
  column-wise over the m-sets of colors, and each is stamped only at the
  indices whose g-code is asked for.  The family counts a certificate
  prints come from the census at four colors, not from listing every
  family.  At the last prefix level the lookup comes first: a prefix whose
  lookup is empty is neither merged nor counted as a probe, and a level of
  the same size as the one before starts, by bisection, at that level's
  family.  The join lists
  each cycle with one global sign: the one whose least family of the
  smallest part size is below the negative of every family of that size.
  The sorted order meets that sign first, so the chains a report prints are
  the ones it kept when both signs were listed.  That order follows the
  element labels: relabelling the quandle may change the probes line and
  which sign of a cycle is printed, but not the key sets or the counts.  A
  cycle consisting of one family, of any size, is found by the cancellation
  search, g residual first, at the least index of each Aut(Q)-orbit, and
  expanded over Aut(Q): one scan of size max_length files the closures of
  every size 2..max_length by size.

* two adjacent degrees: a cycle over degrees 0 and 1 with at most 2
  (profile B) or 3 terms at degree 0 is a closure of cancel_search on f + g
  from an Aut(Q)-orbit of degree-0 terms plus a single-window cycle of
  length L - 2 or less shifted up one degree.  A fixed filter keeps the
  window, a 2-term (profile B) or 3-term (profile C) bottom layer T0 with
  g(T0) != 0 and length 6 or more; every kept cycle is expanded over Aut(Q).

Every candidate is re-verified through the boundary map, as the sum of its
terms' boundary images, and paired with the cocycle, as the sum of its
terms' values; each image and value is taken once per search, by
chains.boundary and cocycles.evaluate on the one-term chain, independent of
the tables and codes the search used.  An image is kept as one integer
code, a balanced base-2**6 digit per face, so the re-check is an integer
sum, exact for cycles of up to MAX_SEARCH_LENGTH terms.  A report lists the cycles with
nonzero pairing and keeps the keys of the zero-pairing ones.  Searches are
deterministic and run in one process; reports record exactly what was
covered and, as gaps, what was not.  A probe budget on the summed probes
aborts oversized runs with a refusal report rather than truncating
silently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import filterfalse, islice
from operator import mul

from .chains import Chain, boundary, chain_to_text, length, sigma_shift
from .cocycles import ThreeCocycle, evaluate
from .quandles import FiniteQuandle, automorphisms
from .structure import (
    MAX_FAMILY_SIZE,
    TermTable,
    cancel_search,
    concrete_families,
    family_count,
    relabel_chain,
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
# in size, the bound under which _code is exact.
_DIGIT_BITS = 6
assert 3 * MAX_SEARCH_LENGTH < 2 ** (_DIGIT_BITS - 1)
# A family size h with 2h > L is never a prefix part of a join, only the
# looked-up largest part, so its prefix holds at most L - h terms.  Two parts
# take at least 2 + 2, and L - h < 4 for every h > L/2 while L < 9: the
# prefix of a join, which has two parts or more, is exactly one part, and
# the g-codes a lookup of size h can ask for are -gcode(F) for the listed
# families F of sizes 2..L-h.
assert MAX_SEARCH_LENGTH - (MAX_SEARCH_LENGTH // 2 + 1) < 2 + 2
# The two-degree window joins its closures with the single window's cycles
# of length L - 2, below that window's one gap, the split 6+2 at length 8.
assert MAX_SEARCH_LENGTH - 2 < MAX_FAMILY_SIZE + 3


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


def _code(pairs, digits):
    """The integer code of (face, coefficient) pairs: face i of `digits`
    (numbered as met) is the balanced base-2**_DIGIT_BITS digit at place i.
    Sums of codes are equal exactly when the summed images are, while every
    summed coefficient stays below 2**(_DIGIT_BITS-1) in size."""
    return sum(c << _DIGIT_BITS * digits.setdefault(face, len(digits)) for face, c in pairs)


def _sign_normal_key(terms):
    """A cycle {term: coefficient} up to global sign: its sorted items, or
    those of its negative, whichever is less."""
    items = tuple(sorted(terms.items()))
    neg = tuple([(t, -c) for t, c in items])
    return items if items <= neg else neg


def _negated(fam):
    """-F for a family F, a sorted tuple of (sign, term id) pairs."""
    return tuple(sorted([(-sign, t) for sign, t in fam]))


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


class _Cycles:
    """The cycles a search reaches, each once up to global sign: every one
    is re-checked through the boundary map, paired with the cocycle and
    filed by its pairing alone: nonzero into found, zero into the key set
    zero.

    Both come from per-term memos, each taken once per search from the
    one-term chain, not from a TermTable or the join's codes: the term's
    boundary image by chains.boundary, kept in ``images`` as its integer
    _code with the faces numbered as met (``faces``; face tuples held per
    term would outlive the search several times over), and its pairing by
    cocycles.evaluate, kept in ``values``.  The re-check sums the codes,
    the pairing sums the values (both are linear).  The summed code is 0
    exactly when the summed image is: a term's image has each face at
    most once, with coefficient +-1, so a cycle of at most
    MAX_SEARCH_LENGTH terms, counted with multiplicity, sums every face
    below 2**(_DIGIT_BITS-1) in size.  add_terms takes the cycle as {term:
    coefficient}, the join's form, and builds a checked Chain only for a
    new cycle with nonzero pairing; add takes a Chain.
    """

    def __init__(self, q, theta):
        self.q, self.theta = q, theta
        self.zero, self.found = set(), {}
        self.images, self.faces, self.values = {}, {}, {}

    def _take(self, t):
        one = Chain(3, True, {t: 1})
        self.images[t] = _code(boundary(one, self.q).terms.items(), self.faces)
        self.values[t] = evaluate(self.theta, one)

    def add(self, chain, shape):
        self.add_terms(chain.terms, shape, chain)

    def add_terms(self, terms, shape, chain=None):
        key = _sign_normal_key(terms)
        if key in self.zero or key in self.found:
            return
        for t in filterfalse(self.images.__contains__, terms):
            self._take(t)
        if sum(map(mul, terms.values(), map(self.images.__getitem__, terms))):
            raise AssertionError("search produced a non-cycle")
        value = sum(map(mul, terms.values(), map(self.values.__getitem__, terms))) % self.theta.modulus
        if value:
            if chain is None:
                chain = Chain(3, True, terms)
            self.found[key] = FoundCycle(chain, value, shape)
        else:
            self.zero.add(key)


# ---------------------------------------------------------------------------
# single-degree window


def _g_codes(table):
    """columns and pcode for a degree-0 table.  columns = (stamps, gcodes):
    per pair (sign, color word w), the column of its stamp (sign, id) at
    every index u, id the position of the term (0, u, w) in table.terms,
    and the column of its g-code there, sign times the code of g(0, u, w).
    pcode[w] is the code of g(0, u, w) with each face's index dropped, the
    same at every index u."""
    gdigits, pdigits, ids = {}, {}, {}
    for i, (_, _, w) in enumerate(table.terms):  # sorted: by index, then word
        ids.setdefault(w, []).append(i)
    gcode = [_code(table.g[t], gdigits) for t in table.terms]
    stamps = {(s, w): [(s, i) for i in col] for w, col in ids.items() for s in (1, -1)}
    gcodes = {(s, w): [s * gcode[i] for i in col] for w, col in ids.items() for s in (1, -1)}
    pcode = {
        t[2]: _code(((f[2], c) for f, c in table.g[t]), pdigits) for t in table.terms if t[1] == 0
    }
    return (stamps, gcodes), pcode


class _FamilyIndex:
    """The minimal f-null families of one size at degree 0, over every index,
    looked up by g-code.

    The census color families, (sign, color word) tuples from
    concrete_families, are stamped at every index when the index is built;
    ``store`` maps each g-code to its stamped families, sorted.  The
    ``columns`` of _g_codes give each (sign, word) pair's stamp and g-code
    at every index, so a family's columns read across stamp it at every
    index, and summed give its g-code there.  A stamped
    family is a sorted tuple of (sign, id) pairs, id the term's position in
    ``terms`` (the table's terms, which are sorted), so families compare
    and sort as the (sign, term) tuples they stand for while the join
    hashes small ints.

    A size that is only looked up is built with ``prefixes``, the listed
    (family, g-code) pairs its lookups follow.  It holds exactly the g-codes
    they ask for (``codes``: each negated g-code), each in the store even
    when empty, and raises on a lookup of any other, or on families().
    Equal g-codes have equal projected codes (``pcode``: the g-faces with
    their index dropped, the same at every index), so only the color
    families of the asked projected codes are listed, and each is stamped
    only at the indices where its g-code is asked for.
    """

    def __init__(self, table, q, size, columns, pcode, prefixes=None):
        terms = self.terms = table.terms  # id -> term
        stamps, gcodes = columns
        self.codes = wanted = None
        store = {}
        if prefixes is not None:
            self.codes = {-gkey for _, gkey in prefixes}
            store = {gkey: [] for gkey in self.codes}
            wanted = {-sum([sign * pcode[terms[i][2]] for sign, i in fam]) for fam, _ in prefixes}
        for fam in concrete_families(q, size, None if wanted is None else (pcode, wanted)):
            keys = map(sum, zip(*map(gcodes.__getitem__, fam)))
            if self.codes is None:
                for gkey, stamp in zip(keys, zip(*map(stamps.__getitem__, fam))):
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
        """-F for every listed family F, and the listing of the families
        with F < -F: what a join needs of its smallest part size, built on
        the first such join."""
        if self.signs is None:
            listing = self.families()
            negated = {fam: _negated(fam) for fam, _ in listing}
            self.signs = negated, [entry for entry in listing if entry[0] < negated[entry[0]]]
        return self.signs


def _join_partition(partition, index, budget, on_cycle):
    """Enumerate unions of minimal families over one size partition of two
    parts or more with vanishing total g-image, each with one global sign.

    Parts are chosen in ascending size order from `index`, size ->
    _FamilyIndex: prefix parts from its sorted listing, the largest part
    looked up by the g-code that cancels the prefix, carried down as the
    integer neg_g.  The lookup is made at the last prefix level, before
    that level's family is merged: a prefix whose lookup is empty costs no
    merge and no probe, and the listing order does not change.  Equal-size
    parts are kept non-decreasing to list each multiset of families once:
    such a level starts at the previous level's family, found by bisection
    in the sorted listing (the entries before it were skipped without a
    probe, so the probe count is the same).
    The families hold term ids; on_cycle gets {term: coefficient}, mapped
    back only when a cycle closes.

    A cycle and its negative split into negated families, so of the two
    only the one whose least family F1 of the smallest part size is below
    -F for every family F of that size is listed (McKay's orbit argument
    for the global sign).  In the sorted order that sign comes first, so
    the chain a report keeps for each cycle is the same as when both were
    listed.
    """
    if len(partition) < 2:
        raise AssertionError("a join needs two parts or more; one family alone is the component scan's")
    parts = sorted(partition)  # ascending; look up the largest size
    hash_size = parts[-1]
    prefix_sizes = parts[:-1]
    largest = index[hash_size]
    terms = largest.terms
    small = prefix_sizes[0]
    negated, positive = index[small].signed()
    listings = [positive] + [index[size].families() for size in prefix_sizes[1:]]
    same_size, one_size = prefix_sizes[-1] == hash_size, small == hash_size
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
        rec({}, 0, (), (), 0)
    finally:
        rec = None  # rec refers to itself: free the search's working set now, not at a gc run


def _orbit_components(table, max_length, group, budget):
    """Minimal f-null families at one index that are also g-null: the single
    components that alone form a one-degree cycle, as sorted tuples with the
    least term positive, by size, for every size 2..max_length; sorted.

    One cancellation scan of size max_length runs from the terms at the
    least index of each orbit of `group` (the trivial group scans every
    index): a closure returns without extending and the residual prune only
    loosens as the size grows, so that scan passes every state of each
    smaller size's.  f and g commute with automorphisms, so the families at
    index p(u) are p of those at u, each put back in the scan's form."""
    hits = {size: set() for size in range(2, max_length + 1)}

    def close(family, gres):
        if not gres and len(family) in hits and table.is_minimal_null(family):
            for p in group:
                image = [(s, (d, p[v], tuple([p[x] for x in w]))) for s, (d, v, w) in family]
                flip = min((t, s) for s, t in image)[1]
                hits[len(family)].add(tuple(sorted([(flip * s, t) for s, t in image])))

    for u in sorted({min(p[v] for p in group) for v in range(len(group[0]))}):
        cancel_search(
            table.f, table.f_cancel, max_length, close, [t for t in table.terms if t[1] == u],
            g=(table.g, table.g_cancel[u]), budget=budget,
        )
    return {size: sorted(fams) for size, fams in hits.items()}


def _family_indexes(table, q, max_length):
    """size -> _FamilyIndex for the part sizes of the joins up to
    max_length: 2..max_length-2, at most the census's largest.  A size h
    with 2h > max_length is only looked up, after one listed part (see the
    assertion on MAX_SEARCH_LENGTH): a family of the signed listing of a
    size 2..max_length-h.  It is built for exactly the g-codes those
    lookups ask for."""
    columns, pcode = _g_codes(table)
    index = {}
    for size in range(2, min(MAX_FAMILY_SIZE, max_length - 2) + 1):
        prefixes = None
        if 2 * size > max_length:
            prefixes = [entry for s in range(2, max_length - size + 1) for entry in index[s].signed()[1]]
        index[size] = _FamilyIndex(table, q, size, columns, pcode, prefixes)
    return index


def _search_single_degree(cfg, report):
    q, max_length = cfg.quandle, cfg.max_length
    budget = ProbeBudget(cfg.budget, "single-degree join")
    table = TermTable(q, 0)
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
            cycles.add(Chain.from_signed_terms(fam, arity=3, graded=True), "degree0 single family of %d" % size)
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


def _search_double_window(cfg, report):
    """Every cycle over degrees 0 and 1, reduced by Aut(Q) and filtered to
    the window's shape: each closure C of one boundary scan plus each D of
    either sign, 0 or a degree-1 cycle, that fits and has no term of sign
    opposite to C's.  A part past C that closes alone needs 2 degree-0 terms
    beyond C's 2 of at most 3, so the parts sum to such a D: a single-window
    cycle (sums and coefficients of 2 included) shifted up one degree."""
    q, max_length = cfg.quandle, cfg.max_length
    sizes = {"B": (2,), "C": (3,), "BC": (2, 3)}[cfg.profile]
    group = automorphisms(q)
    lower, budget = _search_single_degree(replace(cfg, max_length=max_length - 2), SearchReport(cfg))
    budget.phase = "two-degree window"  # the single window's run at L - 2 spends from it too
    tops = [([], set())]  # D = 0, then each D as (sign, term) pairs with multiplicity and the pairs of -D
    for key in sorted(lower.zero | lower.found.keys()):
        d = sigma_shift(Chain(3, True, dict(key))).items_sorted()
        for sign in (1, -1):
            pairs = [(sign * c // abs(c), t) for t, c in d for _ in range(abs(c))]
            tops.append((pairs, {(-s, t) for s, t in pairs}))
    bottom, top = TermTable(q, 0), TermTable(q, 1)
    # The boundary f + g of each term: f keeps the degree, g raises it by one.
    images = {t: table.f[t] + table.g[t] for table in (bottom, top) for t in table.terms}
    cancel = {}
    for t, faces in images.items():
        for face, s in faces:
            cancel.setdefault(face, []).append((t, s))
    orbits = {}
    for t in bottom.terms:
        rep = min((0, p[t[1]], tuple(p[x] for x in t[2])) for p in group)
        orbits.setdefault(rep, []).append(t)

    cycles = _Cycles(q, cfg.cocycle)
    handed = set()  # the window's shape but g(T0) = 0, so T0 and T1 are cycles each

    def close(family):
        layer = [(s, t) for s, t in family if t[0] == 0]
        if len(family) < 6 or len(layer) not in sizes or len(layer) == len(family):
            return
        chain = Chain.from_signed_terms(family, arity=3, graded=True)
        key = _sign_normal_key(chain.terms)
        if key in cycles.zero or key in cycles.found or key in handed:
            return  # its orbit is in already
        shape = "degrees 0+1 split %d+%d" % (len(layer), len(family) - len(layer))
        orbit = [relabel_chain(chain, p) for p in group]
        if bottom.image(layer, bottom.g):
            for image in orbit:
                cycles.add(image, shape)
        else:
            handed.update(_sign_normal_key(image.terms) for image in orbit)

    def join(family, _):
        for d, opposite in tops:
            if len(family) + len(d) <= max_length and opposite.isdisjoint(family):
                close(family + d)

    # A cycle is met from an anchor in the first orbit its degree-0 terms
    # reach, moved onto that orbit's least term by an automorphism (McKay's
    # orbit argument); the earlier orbits' terms are then left out, so the
    # anchor is the least term left.
    for rep in sorted(orbits):
        cancel_search(images, cancel, max_length, join, [rep], cap=(0, max(sizes)), budget=budget)
        for t in orbits[rep]:
            for face, s in images[t]:
                cancel[face].remove((t, s))

    bottoms = " or ".join(map(str, sizes))
    report.covered += [
        "every cycle of length 6..%d with degrees exactly {0, 1}, bottom layer size"
        " |T0| = %s at degree 0 and g(T0) != 0, up to sign" % (cfg.max_length, bottoms),
        "by one boundary scan over degrees 0..1 with |T0| <= %d, anchored at the %d"
        " Aut(Q)-orbits of degree-0 terms, each cycle expanded over Aut(Q) (order %d)"
        % (max(sizes), len(orbits), len(group)),
        "cycles of that shape with g(T0) = 0, left to the single-degree window: %d"
        % len(handed),
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
        cycles, budget = window(cfg, report)
    except BudgetExceeded as exc:
        report.refused = "%s (after %d probes)" % (exc, exc.probes)
        return report
    report.probes = budget.probes
    report.zero_cycles = cycles.zero
    report.found = sorted(cycles.found.values(), key=lambda fc: fc.key())
    return report

