"""Benchmark of the quandlehom library: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload single-o6 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Runs from the root of a source checkout (it imports src/quandlehom).  With
--trace 0 it repeats the workload for about --seconds, checks every output
and reports the end-to-end metrics, with times rescaled to a fixed reference
speed (see speed.py).  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead; the spans
go to .perfbench/spans-<workload>-seed<seed>.json.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every check passed, 1 when one failed, and 2
when the checkout holds no library.

--workload all runs each workload in its own process and ends with a table.
--record-expected rewrites expected.json from the current code at seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
STATE_DIR = ROOT / ".perfbench"
# Set-up is timed in this many fresh processes, spread over the run.
SETUP_PROBES = 9
# An end-to-end run times at least this many passes.
MIN_PASSES = 2

# Counts that must repeat exactly for the same code and seed, besides every
# "<span>.calls" count of the traced pass.
REPEATABLE = (
    "search.probes",
    "search.components",
    "search.cycles_seen",
    "kernels.generators",
    "intlinalg.rank",
    "structure.families.out",
    "chains.g_map.terms_in",
    "chains.f_map.terms_in",
    "intlinalg.entries",
)


def one_pass(wl, state, tracer=None, probe=None):
    """Run the workload once.  Returns the pass's wall time and, per call,
    (name, error or None, summary or None)."""
    wl.prepare(state)
    gc.collect()
    if tracer:
        tracer.install("%s/seed%d/pass%d" % (wl.name, state.seed, len(tracer.runs)))
    results = []
    t0 = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            for name, call in wl.calls(state):
                try:
                    results.append((name, call(), None))
                except Exception as exc:  # counted as a failed call
                    results.append((name, None, "%s: %s" % (type(exc).__name__, exc)))
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            tracer.runs[-1].wall = wall
    summaries = [(name, error, None if error else wl.summarise(state, name, value)) for name, value, error in results]
    return wall, summaries


def time_left(start, seconds, durations, minimum):
    """Whether another step of about the median of `durations` still fits
    in `seconds` from `start`, or fewer than `minimum` steps were made."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def pass_counts(summaries):
    counts = {}
    for _name, _error, summary in summaries:
        for k, v in (summary[2] if summary else {}).items():
            counts[k] = counts.get(k, 0) + v
    return counts


def check(passes, expected, seed):
    """Compare call summaries with the expected values; returns (attempted,
    failed, messages).  The seed-0-only values are compared at seed 0."""
    attempted, failed, messages = 0, 0, []
    for summaries in passes:
        for name, error, summary in summaries:
            attempted += 1
            want = expected.get(name)
            if error:
                problems = [error]
            elif want is None:
                problems = ["no expected values recorded"]
            else:
                observed, wanted = dict(summary[0]), dict(want["checked"])
                if seed == 0:
                    observed.update(summary[1])
                    wanted.update(want["seed0"])
                problems = [
                    "%s: got %r, expected %r" % (k, observed.get(k), v)
                    for k, v in sorted(wanted.items())
                    if observed.get(k) != v
                ]
            if problems:
                failed += 1
                messages.append("%s: %s" % (name, "; ".join(problems)))
    return attempted, failed, messages


def altered(expected):
    """The expected values with one value changed: the self-check requires
    the comparison to report it."""
    bad = copy.deepcopy(expected)
    entry = bad[min(bad)]["checked"]
    key = min(entry)
    entry[key] = [entry[key], "altered"]
    return bad


def code_digest():
    """Digest of the library and of the benchmark, which defines the counts."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quandlehom").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def repeatability(workload, seed, counts_per_pass):
    """Messages for every count that differs between passes of this run, or
    from an earlier run of the same code and seed (kept in .perfbench/)."""
    messages, merged = [], {}
    for counts in counts_per_pass:
        for k, v in counts.items():
            if k not in REPEATABLE and not k.endswith(".calls"):
                continue
            if merged.setdefault(k, v) != v:
                messages.append("%s differs between passes: %r vs %r" % (k, merged[k], v))
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "counts.json"
    memory = json.loads(path.read_text()) if path.exists() else {}
    earlier = memory.setdefault("%s|seed=%d|code=%s" % (workload, seed, code_digest()), {})
    for k, v in merged.items():
        if earlier.setdefault(k, v) != v:
            messages.append("%s differs from an earlier run: %r vs %r" % (k, earlier[k], v))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(memory, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return messages


def setup_probe(workload, seed):
    """Set-up time of the workload in a fresh process (import of the
    package, inputs and, for the search, the census), at reference speed,
    as the process timed it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed)], check=True, stdout=subprocess.PIPE, text=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(wl, state, seconds):
    """Untraced passes for about `seconds`, each timed at reference speed,
    with the set-up probes spread between them."""
    walls, norms, setup, passes = [], [], [], []
    start = time.perf_counter()
    while time_left(start, seconds, walls, MIN_PASSES):
        probe = SpeedProbe()
        wall, summaries = one_pass(wl, state, probe=probe)
        walls.append(wall)
        norms.append(probe.normalise(wall))
        passes.append(summaries)
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= (len(setup) + 1) * seconds / SETUP_PROBES:
            setup.append(setup_probe(wl.name, state.seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(wl.name, state.seed))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": (statistics.median(norms), "s", len(norms), "median pass at reference speed"),
        "setup_s": (statistics.median(setup), "s", len(setup), "median fresh-process set-up at reference speed"),
        "peak_rss_mb": (rss, "MB", 1, "high-water RSS of the benchmark process"),
    }
    print("raw wall time of a pass: median %.3f s over %d passes (not normalised)" % (statistics.median(walls), len(walls)))
    return metrics, passes, [pass_counts(p) for p in passes]


def per_layer(wl, state, tracer, seconds, spec):
    """Untraced and traced passes in turn for about `seconds`; per-layer
    metrics named in `spec`, from the traced passes and, for the census
    warmed in set-up, from the traced set-up."""
    pairs, passes, traced = [], [], []
    start = time.perf_counter()
    while time_left(start, seconds, [a + b for a, b in pairs], 1):
        wall, summaries = one_pass(wl, state)
        passes.append(summaries)
        traced_wall, summaries = one_pass(wl, state, tracer)
        traced.append(summaries)
        pairs.append((wall, traced_wall))
    setup = [r for r in tracer.runs if r.run_id.endswith("/setup")]
    census = {"structure.census.s": setup[0].metrics()["structure.census.s"]} if setup else {}
    layers = []
    for run, one in zip([r for r in tracer.runs if r not in setup], traced):
        m = run.metrics()
        m.update(pass_counts(one))
        m.update(census)
        if m.get("search.probes"):
            m["search.yield"] = m["search.cycles_seen"] / m["search.probes"]
        if m.get("search.s"):
            m["search.layer_share"] = (
                sum(m.get(k + ".self_s", 0.0) for k in ("search", "structure", "chains", "cocycles")) / m["search.s"]
            )
        layers.append(m)
    n = len(layers)
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name == "trace.overhead":
            continue
        called = any(name in x for x in layers)
        note = "" if called else "not called by this workload"
        metrics[name] = (statistics.median(x.get(name, 0) for x in layers), entry["unit"], n, note)
    metrics["trace.overhead"] = (
        statistics.median(t / u for u, t in pairs),
        "ratio",
        n,
        "median over %d (untraced, traced) pass pairs of traced / untraced wall time" % len(pairs),
    )
    STATE_DIR.mkdir(exist_ok=True)
    dump = STATE_DIR / ("spans-%s-seed%d.json" % (wl.name, state.seed))
    dump.write_text(
        json.dumps({"workload": wl.name, "seed": state.seed, "runs": [r.to_json() for r in tracer.runs]})
    )
    print("spans written to %s" % dump.relative_to(ROOT))
    counts = [pass_counts(p) for p in passes] + [{k: v for k, v in x.items() if isinstance(v, int)} for x in layers]
    return metrics, passes + traced, counts


def benchmark(args, spec, expected):
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    state = wl.setup(args.seed, tracer)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    print("workload %s seed %d: %s" % (wl.name, args.seed, why))
    if args.trace:
        metrics, passes, counts = per_layer(wl, state, tracer, args.seconds, spec["per_layer"])
    else:
        metrics, passes, counts = end_to_end(wl, state, args.seconds)

    attempted, failed, messages = check(passes, expected[wl.name], args.seed)
    selfcheck = check(passes[-1:], altered(expected[wl.name]), args.seed)[1] > 0
    nondeterminism = repeatability(wl.name, args.seed, counts)
    for m in messages[:20]:
        print("FAIL %s" % m)
    for m in nondeterminism:
        print("NONDETERMINISM %s" % m)
    if not selfcheck:
        print("FAIL self-check: an altered expected value went unreported")
    for name, (value, unit, n, note) in sorted(metrics.items()):
        print("%-28s %18.6f %-6s n=%-3d %s" % (name, value, unit, n, note))
    print("%-28s %18.6f %-6s %d failed of %d calls" % ("fail_frac", failed / attempted, "ratio", failed, attempted))
    for k, v in sorted(counts[-1].items()):
        if k in REPEATABLE:
            print("count %s = %d" % (k, v))

    correct = not messages and not nondeterminism and selfcheck
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n, _note) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, then one line per metric."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            rows.append("%-14s no result (exit %d)" % (name, proc.returncode))
            continue
        for metric, m in result["metrics"].items():
            rows.append("%-14s %-28s %18.6f %s" % (name, metric, m["value"], m["unit"]))
        rows.append("%-14s %-28s %18d/%d correct=%s" % (name, "failed/attempted", result["failed"],
                                                          result["attempted"], result["correct"]))
    print("\n".join(rows))
    return status


def record_expected():
    """Summaries of one seed-0 pass of every workload, as expected values."""
    out = {}
    for name, wl in WORKLOADS.items():
        _, summaries = one_pass(wl, wl.setup(0))
        out[name] = {}
        for call, error, summary in summaries:
            if error:
                raise SystemExit("%s / %s failed: %s" % (name, call, error))
            out[name][call] = {"checked": summary[0], "seed0": summary[1]}
        print("recorded %s: %d calls" % (name, len(out[name])), file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "quandlehom" / "__init__.py").is_file():
        print("error: no library at %s; run from a quandlehom checkout" % SRC, file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return benchmark(args, json.loads((ROOT / "BENCHMARK.json").read_text()), json.loads(EXPECTED.read_text()))


if __name__ == "__main__":
    sys.exit(main())
