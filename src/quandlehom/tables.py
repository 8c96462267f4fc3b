"""Index-pattern census of f-connected families over the octahedral quandle.

Every g-connected family of 3-terms shares the value u^{a b c} of its full
color words on the common index u, so the way an f-connected family's words
partition {u^{a_i b_i c_i}} controls how it can sit inside a cycle.  This
module tabulates, for the size-4 and size-5 families, every normalized
instantiation over O_6 whose word values fall into a prescribed partition
shape (two pairs, a triple and a singleton, all equal, and so on).

Normalization: the inner rotation group is transitive on ordered vertex
pairs at a quarter turn and on antipodal pairs, so template symbol `a` is
pinned to vertex 0, `b` to vertex 1 or 3, and, in the antipodal case, `c`
to vertex 1 (the residual rotations about the 0-3 axis act transitively on
the equator).  Instances are enumerated raw under this normalization; rows
with identical case, b, c, u-set and partition are merged over d, matching
the published layout.  Bigon entries contribute both their concrete word
forms, and an instance is tabulated only when the two forms agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .quandles import make_octahedral
from .structure import PATTERN_CATALOG, StructureError, identifications

_SYMBOL_NAMES = "abcd"

SHAPES = {
    4: {"2+2": (2, 2), "3+1": (1, 3), "4": (4,)},
    5: {"3+2": (2, 3), "4+1": (1, 4), "5": (5,)},
}


def _expressions(pattern):
    """Word list of a pattern: one word per triangle, two per bigon."""
    out = []
    for slot, (sign, kind, colors) in enumerate(pattern):
        if kind == "T":
            out.append((slot, 0, colors))
        else:
            x, y = colors
            out.append((slot, 0, (x, y, x)))
            out.append((slot, 1, (y, x, y)))
    return out


@lru_cache(maxsize=None)
def _case_variants(k, case_id):
    """Symbol identifications of a catalogued pattern with a valid glued
    family, as mappings from each symbol to the least of its block."""
    return tuple(
        {s: block[0] for block in blocks for s in block}
        for blocks, families in identifications(PATTERN_CATALOG[k][case_id])
        if families
    )


@dataclass(frozen=True)
class IndexPatternRow:
    case_id: str
    b: int
    c: int | None
    d_values: tuple  # () when the template has no d symbol
    u_values: tuple
    partition: tuple  # sorted blocks of expression words

    def render(self):
        def omega(vals):
            if vals == tuple(range(6)):
                return "any"
            return ",".join("w%d" % v for v in vals)

        cbit = "c=w%d" % self.c if self.c is not None else "c=-"
        dbit = "d=" + (omega(self.d_values) if self.d_values else "-")
        blocks = "".join(
            "[%s]" % " ".join("".join(_SYMBOL_NAMES[s] for s in word) for word in block)
            for block in self.partition
        )
        return "case=%s b=w%d %s %s u=%s %s" % (
            self.case_id,
            self.b,
            cbit,
            dbit,
            omega(self.u_values),
            blocks,
        )


def _assignments(symbols, mapping, b_val):
    """Injective placements of the merged symbol blocks into O_6 respecting
    the normalization a -> 0, b -> b_val, and c -> 1 when b is antipodal."""
    reps = sorted({mapping[s] for s in symbols})
    pinned = [(0, 0), (1, b_val)] + ([(2, 1)] if b_val == 3 and 2 in mapping else [])
    for values in itertools.permutations(range(6), len(reps)):
        assign = dict(zip(reps, values))
        if all(assign[mapping[s]] == v for s, v in pinned):
            yield assign


def index_pattern_rows(k, shape):
    """Rows of the size-k census whose word values realize the shape."""
    if k not in SHAPES:
        raise StructureError("index tables exist for sizes 4 and 5 only")
    if shape not in SHAPES[k]:
        raise StructureError(
            "unknown shape %r for size %d (have %s)" % (shape, k, sorted(SHAPES[k]))
        )
    target = SHAPES[k][shape]
    q = make_octahedral()
    atoms = {}
    for case_id, pattern in PATTERN_CATALOG[k].items():
        symbols = sorted({s for _, _, colors in pattern for s in colors})
        has_d = 3 in symbols
        exprs = _expressions(pattern)
        nslots = len(pattern)
        for mapping in _case_variants(k, case_id):
            for b_val in (1, 3):
                for assign in _assignments(symbols, mapping, b_val):
                    elem = {s: assign[mapping[s]] for s in symbols}
                    for u in range(6):
                        slot_vals = [None] * nslots
                        ok = True
                        for slot, form, word in exprs:
                            val = q.act_word(u, tuple(elem[s] for s in word))
                            if slot_vals[slot] is None:
                                slot_vals[slot] = val
                            elif slot_vals[slot] != val:
                                ok = False  # the two bigon forms disagree
                                break
                        if not ok:
                            continue
                        sizes = {}
                        for v in slot_vals:
                            sizes[v] = sizes.get(v, 0) + 1
                        if tuple(sorted(sizes.values())) != target:
                            continue
                        blocks = {}
                        for slot, form, word in exprs:
                            blocks.setdefault(slot_vals[slot], []).append(word)
                        partition = tuple(sorted(tuple(b) for b in blocks.values()))
                        key = (
                            case_id,
                            b_val,
                            elem.get(2),
                            elem.get(3) if has_d else None,
                            partition,
                        )
                        atoms.setdefault(key, set()).add(u)

    # Merge rows over d when case, b, c, u-set and partition coincide.
    merged = {}
    for (case_id, b_val, c_val, d_val, partition), us in atoms.items():
        mkey = (case_id, b_val, c_val, partition, tuple(sorted(us)))
        merged.setdefault(mkey, set()).add(d_val)
    rows = []
    for (case_id, b_val, c_val, partition, us), d_vals in merged.items():
        rows.append(
            IndexPatternRow(
                case_id=case_id,
                b=b_val,
                c=c_val,
                d_values=tuple(sorted(v for v in d_vals if v is not None)),
                u_values=us,
                partition=partition,
            )
        )
    rows.sort(key=lambda r: (_case_order(k, r.case_id), r.b, r.c if r.c is not None else -1, r.d_values, r.u_values))
    return rows


def _case_order(k, case_id):
    return list(PATTERN_CATALOG[k]).index(case_id)


def rows_to_text(rows):
    return "".join(row.render() + "\n" for row in rows)
