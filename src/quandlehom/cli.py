"""Command-line interface.

Exit codes: 0 on success or a passing verification, 1 on a verification
failure (a diff or witness is printed), 2 on usage or input errors.  All
numeric output is exact.  Reports are byte-deterministic for a fixed
command line; --format json is available on report-producing commands.

Each ``main`` call builds the parser afresh, and only as much of it as its
command line reaches: the top level with one empty parser per command, then
the subcommands and options of the command it names (``_Parser``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chains, cocycles, kernels, quandles, search, structure, tables


class UsageError(Exception):
    pass


def _quandle_from_args(args):
    if getattr(args, "table", None):
        return quandles.quandle_from_file(args.table)
    spec = getattr(args, "family", None) or getattr(args, "quandle", None)
    if spec is None:
        raise UsageError("give --family/--quandle or --table FILE")
    if spec == "dihedral":
        if args.n is None:
            raise UsageError("--family dihedral needs --n")
        spec = "dihedral:%d" % args.n
    return quandles.resolve_quandle(spec)


def _cocycle_from_args(args):
    theta = cocycles.resolve_cocycle(args.cocycle, getattr(args, "n", None))
    modulus = getattr(args, "modulus", None)
    if modulus is not None and modulus != theta.modulus:
        raise UsageError(
            "--modulus %d does not match the %s cocycle (mod %d)"
            % (modulus, theta.name, theta.modulus)
        )
    return theta


def _emit(args, payload, text):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# -- quandle ----------------------------------------------------------------


def cmd_quandle_print_table(args):
    q = _quandle_from_args(args)
    sys.stdout.write(quandles.quandle_to_text(q))
    return 0


def cmd_quandle_check(args):
    # A table file that fails an axiom is reported on here, not refused.
    try:
        report = quandles.check_axioms(_quandle_from_args(args))
    except quandles.AxiomError as exc:
        report = exc.report
    payload = {
        "ok": report.ok,
        "idempotence": report.idempotence,
        "bijectivity": report.bijectivity,
        "distributivity": [list(t) for t in report.distributivity[:50]],
    }
    _emit(args, payload, report.summary())
    return 0 if report.ok else 1


def cmd_quandle_dual(args):
    q = _quandle_from_args(args)
    sys.stdout.write(quandles.quandle_to_text(quandles.dual(q)))
    return 0


def cmd_quandle_table1(args):
    q = _quandle_from_args(args)
    table = quandles.triple_action_table(q, base=args.base)
    for (a, b, c) in sorted(table):
        print("%d %d %d -> %d" % (a, b, c, table[(a, b, c)]))
    return 0


# -- cocycle ----------------------------------------------------------------


def cmd_cocycle_verify(args):
    theta = _cocycle_from_args(args)
    report = cocycles.verify_cocycle_condition(theta)
    payload = {
        "cocycle": theta.name,
        "modulus": theta.modulus,
        "checked": report.checked,
        "failures": [list(t) for t in report.failures[:50]],
        "ok": report.ok,
    }
    text = "%s mod %d: checked %d generators: %s" % (
        theta.name,
        theta.modulus,
        report.checked,
        "pass" if report.ok else "FAIL at %s..." % (report.failures[:5],),
    )
    _emit(args, payload, text)
    return 0 if report.ok else 1


def cmd_cocycle_eval(args):
    theta = _cocycle_from_args(args)
    chain = chains.chain_from_file(args.chain)
    value = cocycles.evaluate(theta, chains.project_pi(chain) if chain.graded else chain)
    _emit(args, {"value": value, "modulus": theta.modulus}, "%d" % value)
    return 0


# -- enumerate ---------------------------------------------------------------


def cmd_enumerate_families(args):
    templates = structure.enumerate_f_connected(args.size)
    payload = [
        {
            "id": t.family_id,
            "pattern": t.render(),
            "symbols": t.symbols,
            "variants": len(t.variants),
        }
        for t in templates
    ]
    text = "\n".join(
        "%s  %s  (symbols %d, variants %d)"
        % (t.family_id, t.render(), t.symbols, len(t.variants))
        for t in templates
    )
    _emit(args, payload, text if text else "none")
    return 0


def cmd_enumerate_index_tables(args):
    rows = tables.index_pattern_rows(args.size, args.shape)
    sys.stdout.write(tables.rows_to_text(rows))
    return 0


# -- kernel ------------------------------------------------------------------


def cmd_kernel(args):
    q = _quandle_from_args(args)
    sl = kernels.build_slice(q, degree=args.degree, index=args.index, cell=args.cell)
    result = kernels.kernel_fg(sl)
    sys.stdout.write(kernels.kernel_to_text(result))
    return 0


# -- search ------------------------------------------------------------------


def cmd_search(args):
    q = _quandle_from_args(args)
    theta = _cocycle_from_args(args)
    cfg = search.SearchConfig(
        quandle=q,
        cocycle=theta,
        max_length=args.max_length,
        window=args.window,
        profile=args.profile,
        budget=args.budget,
    )
    report = search.search_min_cycles(cfg)
    text = report.certificate_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    payload = {
        "found": len(report.found),
        "zero_value_cycles": report.zero_value_cycles,
        "probes": report.probes,
        "refused": report.refused,
        "exhausted": report.exhausted,
        "covered": report.covered,
        "gaps": report.gaps,
    }
    _emit(args, payload, text)
    return 1 if report.refused else 0


# -- verify ------------------------------------------------------------------


def cmd_verify_cycles(args):
    names = [args.name] if args.name != "all" else kernels.named_cycles()
    ok = True
    lines = []
    payload = []
    for name in names:
        report = kernels.verify_named_cycle(name)
        ok &= report.ok
        lines.append(report.summary())
        payload.append(
            {
                "name": name,
                "ok": report.ok,
                "length": report.length,
                "value": report.value,
            }
        )
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def cmd_verify_boundary(args):
    names = [args.name] if args.name != "all" else kernels.boundary_identity_catalog()
    ok = True
    lines = []
    payload = []
    for name in names:
        good = kernels.verify_catalog_identity(name)
        ok &= good
        lines.append("%s: %s" % (name, "ok" if good else "FAIL"))
        payload.append({"name": name, "ok": good})
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


# -- weight ------------------------------------------------------------------


def cmd_weight(args):
    theta = _cocycle_from_args(args)
    records = cocycles.triple_points_from_file(args.file)
    value = cocycles.weight_sum(theta, records)
    _emit(
        args,
        {"weight": value, "modulus": theta.modulus, "points": len(records)},
        "%d" % value,
    )
    return 0


# -- parser ------------------------------------------------------------------


def _add_quandle_options(p, with_base=False):
    p.add_argument("--family", choices=["dihedral", "octahedral"], help="built-in family")
    p.add_argument("--n", type=int, help="size parameter for the dihedral family")
    p.add_argument("--quandle", help="shorthand such as r7 or o6, or a table file")
    p.add_argument("--table", help="quandle table file")
    if with_base:
        p.add_argument("--base", type=int, default=0, help="base element for the word table")


def _add_cocycle_options(p):
    p.add_argument(
        "--cocycle",
        "--name",
        dest="cocycle",
        required=True,
        help="eta, mochizuki (with --n), or zetaN",
    )
    p.add_argument("--n", type=int, help="modulus for the dihedral cocycle")
    p.add_argument("--modulus", type=int, help="expected modulus (checked)")


def _add_format(p):
    p.add_argument("--format", choices=["text", "json"], default="text")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose arguments are added when it first parses.

    The ``fill`` function it is given adds them.  A command line so builds
    the top level with one empty parser per command, and fills only the
    parsers it reaches: the command it names, whose fill adds its (empty)
    subcommand parsers, and the subcommand it runs.  --help and every usage
    error are printed by a parser while it parses, after its fill, so they
    read as those of a tree built in full.
    """

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def fill(self):
        """Add this parser's arguments if they are not yet added."""
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self.fill()
        return super().parse_known_args(args, namespace)


def _quandle_commands(q):
    def print_table(p):
        _add_quandle_options(p)
        p.set_defaults(func=cmd_quandle_print_table)

    def check(p):
        _add_quandle_options(p)
        _add_format(p)
        p.set_defaults(func=cmd_quandle_check)

    def dual(p):
        _add_quandle_options(p)
        p.set_defaults(func=cmd_quandle_dual)

    def table1(p):
        _add_quandle_options(p, with_base=True)
        p.set_defaults(func=cmd_quandle_table1)

    qsub = q.add_subparsers(dest="subcommand", required=True)
    qsub.add_parser("print-table", fill=print_table)
    qsub.add_parser("check", fill=check)
    qsub.add_parser("dual", fill=dual)
    qsub.add_parser("table1", help="the 150-row census of base^{a b c}", fill=table1)


def _cocycle_commands(c):
    def verify(p):
        _add_cocycle_options(p)
        _add_format(p)
        p.set_defaults(func=cmd_cocycle_verify)

    def evaluate(p):
        _add_cocycle_options(p)
        p.add_argument("--chain", required=True, help="chain file to pair with")
        _add_format(p)
        p.set_defaults(func=cmd_cocycle_eval)

    csub = c.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("verify", fill=verify)
    csub.add_parser("eval", fill=evaluate)


def _enumerate_commands(e):
    def families(p):
        p.add_argument("--size", type=int, required=True)
        _add_format(p)
        p.set_defaults(func=cmd_enumerate_families)

    def index_tables(p):
        p.add_argument("--size", type=int, required=True, choices=[4, 5])
        p.add_argument("--shape", required=True, help="partition shape, e.g. 2+2 or 4+1")
        p.set_defaults(func=cmd_enumerate_index_tables)

    esub = e.add_subparsers(dest="subcommand", required=True)
    esub.add_parser("families", fill=families)
    esub.add_parser("index-tables", fill=index_tables)


def _kernel_options(p):
    _add_quandle_options(p)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--cell", type=int, default=None, help="restrict to one word-image class")
    p.set_defaults(func=cmd_kernel)


def _search_options(p):
    _add_quandle_options(p)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--max-length", type=int, default=7, dest="max_length")
    p.add_argument("--window", choices=["single", "double"], default="single")
    p.add_argument("--profile", choices=["A", "B", "C", "BC"], default=None)
    p.add_argument("--budget", type=int, default=10**9, help="probe budget before refusal")
    p.add_argument("--out", help="also write the certificate to this file")
    _add_format(p)
    p.set_defaults(func=cmd_search)


def _verify_commands(v):
    def cycles(p):
        p.add_argument("--name", default="all", help="zeta8, eta8, eta7 or all")
        _add_format(p)
        p.set_defaults(func=cmd_verify_cycles)

    def boundary(p):
        p.add_argument("--name", default="all")
        _add_format(p)
        p.set_defaults(func=cmd_verify_boundary)

    vsub = v.add_subparsers(dest="subcommand", required=True)
    vsub.add_parser("cycles", fill=cycles)
    vsub.add_parser("boundary", fill=boundary)


def _weight_options(p):
    p.add_argument("--cocycle", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--modulus", type=int)
    p.add_argument("file", help="triple-point file: lines of +|- a b c")
    _add_format(p)
    p.set_defaults(func=cmd_weight)


def build_parser():
    """The command tree, each parser below the top level still to be filled
    (see ``_Parser``)."""
    parser = _Parser(
        prog="quandlehom",
        description="Exact homological computations for finite quandles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("quandle", help="build, check and transform quandle tables", fill=_quandle_commands)
    sub.add_parser("cocycle", help="verify and evaluate 3-cocycles", fill=_cocycle_commands)
    sub.add_parser("enumerate", help="family census and index-pattern tables", fill=_enumerate_commands)
    sub.add_parser("kernel", help="exact kernel of the face-map pair on a slice", fill=_kernel_options)
    sub.add_parser("search", help="bounded shortest-cycle search", fill=_search_options)
    sub.add_parser("verify", help="named cycles and boundary identities", fill=_verify_commands)
    sub.add_parser("weight", help="signed cocycle weight of a triple-point list", fill=_weight_options)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", "set") is None:
        args.profile = "A" if args.window == "single" else "BC"
    try:
        return args.func(args)
    except (
        UsageError,
        quandles.QuandleError,
        chains.ChainError,
        cocycles.CocycleError,
        structure.StructureError,
        search.SearchError,
        OSError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
