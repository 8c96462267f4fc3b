"""The benchmark workloads: seeded inputs, one timed pass, output summaries.

Seed 0 is the paper's labelling.  Any other seed relabels O6 and R7 by a
seed-chosen permutation p, conjugating the operation table and the cocycle
values; the program only ever sees the relabelled inputs.  Every result is
mapped back through p^-1 before it is summarised, so the summaries (and the
expected values they are checked against) do not depend on the seed, except
for the few byte-level digests marked seed-0-only.

A workload pass is a list of calls.  Each call is one user-level request
(a search, one kernel slice, one CLI command); its summary is compared with
the values recorded from the seed commit in expected.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
MODULES = ("quandles", "chains", "cocycles", "structure", "tables", "kernels", "search", "intlinalg", "cli")


def fresh_import():
    """Drop every loaded quandlehom module and import the package anew, so
    that module-level caches (the family census) start empty."""
    for name in [m for m in sys.modules if m == "quandlehom" or m.startswith("quandlehom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module("quandlehom." + m) for m in MODULES})


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def permutation(seed, label, n):
    """Identity for seed 0, otherwise a permutation drawn from the seed."""
    perm = list(range(n))
    if seed:
        random.Random("%d/%s" % (seed, label)).shuffle(perm)
    return tuple(perm)


def invert(perm):
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return tuple(inv)


def relabel_quandle(mods, q, perm):
    n = q.size
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[q.table[a][b]]
    return mods.quandles.FiniteQuandle(table, name=q.name)


def relabel_cocycle(mods, theta, q, perm):
    values = {tuple(perm[x] for x in t): v for t, v in theta.values.items()}
    return mods.cocycles.ThreeCocycle(q, theta.modulus, values, name=theta.name)


def sign_normal(chain):
    items = tuple(sorted(chain.terms.items()))
    neg = tuple((t, -c) for t, c in items)
    return min(items, neg)


class Workload:
    name = ""
    warm_census = False

    def setup(self, seed, tracer=None):
        """Import the package and build the seeded inputs.  With a tracer,
        the census warm-up is traced as its own run."""
        mods = fresh_import()
        state = SimpleNamespace(mods=mods, seed=seed)
        self.build(state)
        if self.warm_census:
            if tracer:
                tracer.install("%s/seed%d/setup" % (self.name, seed))
            try:
                for k in range(2, 6):
                    mods.structure.enumerate_f_connected(k)
            finally:
                if tracer:
                    tracer.uninstall()
        return state

    def build(self, state):
        raise NotImplementedError

    def prepare(self, state):
        """Untimed work before each pass."""

    def calls(self, state):
        """Yield (call name, zero-argument function) for one pass."""
        raise NotImplementedError

    def summarise(self, state, name, result):
        """Return ({key: value} checked at every seed, {key: value} checked
        at seed 0 only, {count: int} recorded but not checked)."""
        raise NotImplementedError


class SingleO6Workload(Workload):
    """search_min_cycles on O6/eta, single window, L <= 7."""

    name = "single-o6"
    warm_census = True

    def build(self, state):
        mods = state.mods
        state.q = mods.quandles.make_octahedral()
        state.theta = mods.cocycles.eta_octahedral()
        state.perm = permutation(state.seed, "o6", state.q.size)
        state.q_in = relabel_quandle(mods, state.q, state.perm)
        state.theta_in = relabel_cocycle(mods, state.theta, state.q_in, state.perm)

    def calls(self, state):
        search = state.mods.search
        cfg = search.SearchConfig(
            quandle=state.q_in,
            cocycle=state.theta_in,
            max_length=7,
            window="single",
        )
        yield "search", lambda: search.search_min_cycles(cfg)

    def summarise(self, state, name, report):
        mods = state.mods
        inv = invert(state.perm)
        keys, lengths, pairing_ok = [], set(), True
        for fc in report.found:
            chain = mods.structure.relabel_chain(fc.chain, inv)
            keys.append(sign_normal(chain))
            lengths.add(mods.chains.length(chain))
            pairing_ok &= fc.value != 0 and mods.cocycles.evaluate(state.theta, chain) == fc.value
        checked = {
            "refused": report.refused,
            "nonzero": len(report.found),
            "zero": report.zero_value_cycles,
            "lengths": sorted(lengths),
            "pairing_preserved": pairing_ok,
            "found_sha256": sha256(repr(sorted(keys))),
        }
        counts = {
            "search.probes": report.probes,
            "search.components": sum(report.component_counts.values()),
            "search.cycles_seen": len(report.found) + report.zero_value_cycles,
        }
        return checked, {}, counts


class KernelWorkload(Workload):
    """Every slice of every pass gets its own relabelling, drawn from the
    seed, the pass and the slice.  The elimination's work depends on the
    column order the labels give it, so many independent draws keep a run's
    figure from resting on a few of them."""

    name = "kernel-slices"
    SLICES = (
        [("o6", u, c) for u in range(6) for c in range(6)]
        + [("o6", u, None) for u in range(6)]
        + [("r7", 0, c) for c in range(7)]
    )

    def build(self, state):
        state.quandles = {"o6": state.mods.quandles.make_octahedral(), "r7": state.mods.quandles.make_dihedral(7)}
        state.draw = 0

    def prepare(self, state):
        state.slices = []
        for label, u, c in self.SLICES:
            q = state.quandles[label]
            perm = permutation(state.seed, "%d/%s/%s/%s" % (state.draw, label, u, c), q.size)
            state.slices.append(
                (
                    "%s index=%s cell=%s" % (label, u, c),
                    relabel_quandle(state.mods, q, perm),
                    perm[u],
                    None if c is None else perm[c],
                )
            )
        state.draw += 1

    def calls(self, state):
        kernels = state.mods.kernels
        for name, q, u, c in state.slices:

            def one(q=q, u=u, c=c):
                result = kernels.kernel_fg(kernels.build_slice(q, degree=0, index=u, cell=c))
                return result, kernels.kernel_to_text(result)

            yield name, one

    def summarise(self, state, name, result):
        kernel, text = result
        counts = {"kernels.generators": len(kernel.slice.generators), "intlinalg.rank": kernel.rank}
        return {"rank": kernel.rank}, {"text_sha256": sha256(text)}, counts


# The README's commands, less the two searches (single-o6 times one of them).
README_COMMANDS = (
    "quandle print-table --family dihedral --n 7",
    "quandle check --quandle o6",
    "quandle dual --quandle o6",
    "quandle table1 --family octahedral",
    "cocycle verify --name mochizuki --n 7",
    "cocycle eval --cocycle eta --chain {fixtures}/eta8.chain",
    "enumerate families --size 4",
    "enumerate index-tables --size 5 --shape 4+1",
    "kernel --quandle r7 --index 0 --cell 0",
    "verify cycles --name eta8",
    "verify boundary",
    "weight --cocycle eta --modulus 3 {fixtures}/twistspun_trefoil_4.tp",
)


class CliWorkload(Workload):
    name = "cli-readme"

    def build(self, state):
        order = list(README_COMMANDS)
        random.Random(state.seed).shuffle(order)
        state.commands = order

    def prepare(self, state):
        state.mods = fresh_import()

    def calls(self, state):
        for command in state.commands:
            argv = command.format(fixtures=FIXTURES).split()

            def one(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = state.mods.cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the command
                        code = exc.code
                return code, out.getvalue(), err.getvalue()

            yield command, one

    def summarise(self, state, name, result):
        code, out, err = result
        return {"exit": code, "stderr": err, "stdout_sha256": sha256(out)}, {}, {}


WORKLOADS = {
    wl.name: wl
    for wl in (
        SingleO6Workload(),
        KernelWorkload(),
        CliWorkload(),
    )
}


if __name__ == "__main__":
    # Set one workload up in this fresh process and print the time it took,
    # raw and at reference speed: the benchmark's setup_s.
    import time

    from speed import SpeedProbe

    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "setup_s": probe.normalise(wall)}))
