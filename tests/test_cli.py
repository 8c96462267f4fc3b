import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quandlehom.cli import build_parser, main

FIX = "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weight_fixtures(capsys):
    code, out, _ = run(capsys, "weight", "--cocycle", "eta", "--modulus", "3", FIX + "/twistspun_trefoil_4.tp")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "weight", "--cocycle", "mochizuki", "--n", "7", FIX + "/twistspun_52_2.tp")
    assert code == 0 and out.strip() == "6"


def test_weight_modulus_mismatch(capsys):
    code, _, err = run(capsys, "weight", "--cocycle", "eta", "--modulus", "5", FIX + "/twistspun_trefoil_4.tp")
    assert code == 2
    assert "modulus" in err


def test_quandle_check_and_table(capsys):
    code, out, _ = run(capsys, "quandle", "check", "--family", "octahedral")
    assert code == 0 and out.strip() == "pass"
    code, out, _ = run(capsys, "quandle", "check", "--family", "dihedral", "--n", "7", "--format", "json")
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "quandle", "print-table", "--quandle", "r3")
    assert code == 0 and out.splitlines()[0] == "3"


def test_quandle_table1_matches_golden(capsys):
    code, out, _ = run(capsys, "quandle", "table1", "--family", "octahedral")
    assert code == 0
    with open(FIX + "/o6_triple_action.txt") as fh:
        assert out == fh.read()


def test_quandle_dual_of_r7_is_itself(capsys):
    code, out, _ = run(capsys, "quandle", "dual", "--quandle", "r7")
    _, table, _ = run(capsys, "quandle", "print-table", "--quandle", "r7")
    assert code == 0 and out == table


def test_cocycle_verify(capsys):
    code, out, _ = run(capsys, "cocycle", "verify", "--cocycle", "eta")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "cocycle", "verify", "--name", "mochizuki", "--n", "7")
    assert code == 0 and "pass" in out and "1512" in out
    code, out, _ = run(capsys, "cocycle", "verify", "--cocycle", "mochizuki", "--n", "5", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["checked"] == 5 * 4**3


def test_cocycle_eval_chain_files(capsys):
    code, out, _ = run(capsys, "cocycle", "eval", "--cocycle", "zeta7", "--chain", FIX + "/zeta8.chain")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "cocycle", "eval", "--cocycle", "eta", "--chain", FIX + "/eta7.chain")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "cocycle", "eval", "--cocycle", "zeta3", "--chain", FIX + "/r3_len2_cycle.chain")
    assert code == 0 and out.strip() == "2"


def test_enumerate_families(capsys):
    code, out, _ = run(capsys, "enumerate", "families", "--size", "4")
    assert code == 0 and len(out.strip().splitlines()) == 5
    code, out, _ = run(capsys, "enumerate", "families", "--size", "1")
    assert code == 0 and out.strip() == "none"
    code, _, err = run(capsys, "enumerate", "families", "--size", "6")
    assert code == 2 and "census" in err


def test_enumerate_families_output_is_pinned(capsys):
    # Exit code, stdout and stderr of every size 0..6, in text and json.
    runs = [
        (fmt, k) + run(capsys, "enumerate", "families", "--size", str(k), "--format", fmt)
        for fmt in ("text", "json")
        for k in range(7)
    ]
    assert (
        hashlib.sha256(repr(runs).encode()).hexdigest()
        == "1bd54f95fa84cd58f1fdc08e939c0cb0bc07f7915a559f9dfd9878ea5ac114f6"
    )


def test_enumerate_index_tables_match_goldens(capsys):
    for size, shape, tag in (
        (4, "2+2", "k4_22"),
        (4, "3+1", "k4_31"),
        (4, "4", "k4_4"),
        (5, "3+2", "k5_32"),
        (5, "4+1", "k5_41"),
        (5, "5", "k5_5"),
    ):
        code, out, _ = run(capsys, "enumerate", "index-tables", "--size", str(size), "--shape", shape)
        assert code == 0
        with open(FIX + "/index_patterns_%s.txt" % tag) as fh:
            assert out == fh.read(), tag


def test_kernel_command(capsys):
    code, out, _ = run(capsys, "kernel", "--quandle", "o6", "--index", "0", "--cell", "3")
    assert code == 0 and "rank=0" in out


# An element outside 0..size-1 is an input error: a too-large one must not
# surface as a traceback, nor a negative one wrap round as a Python index.


@pytest.mark.parametrize("value", ["9", "-1"])
def test_kernel_index_out_of_range(capsys, value):
    code, out, err = run(capsys, "kernel", "--quandle", "o6", "--index", value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "index %s" % value in err


@pytest.mark.parametrize("value", ["9", "-1"])
def test_kernel_cell_out_of_range(capsys, value):
    code, out, err = run(capsys, "kernel", "--quandle", "o6", "--index", "0", "--cell", value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cell %s" % value in err


@pytest.mark.parametrize("value", ["9", "-1"])
def test_quandle_table1_base_out_of_range(capsys, value):
    code, out, err = run(capsys, "quandle", "table1", "--family", "octahedral", "--base", value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "base %s" % value in err


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "cycles")
    assert code == 0 and out.count("cycle ok") == 3
    code, out, _ = run(capsys, "verify", "cycles", "--name", "eta7", "--format", "json")
    assert code == 0 and json.loads(out)[0]["value"] == 2
    code, out, _ = run(capsys, "verify", "boundary")
    assert code == 0 and out.count(": ok") == 5


def test_search_command_writes_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys,
        "search",
        "--quandle",
        "r7",
        "--cocycle",
        "zeta7",
        "--max-length",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "EXHAUSTED" in out
    assert out_path.read_text() == out


@pytest.mark.parametrize(
    "quandle, cocycle, max_length, gaps", [("o6", "eta", "7", 0), ("r7", "zeta7", "8", 1)], ids=["o6-7", "r7-8"]
)
def test_search_json_lists_the_coverage_of_the_certificate(tmp_path, capsys, quandle, cocycle, max_length, gaps):
    # covered and gaps are the certificate's covered and gap lines, each
    # without its first word; the other keys stay.
    out_path = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys, "search", "--quandle", quandle, "--cocycle", cocycle, "--max-length", max_length,
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"found", "zero_value_cycles", "probes", "refused", "exhausted", "covered", "gaps"}
    lines = out_path.read_text().splitlines()
    for key, word in (("covered", "covered "), ("gaps", "gap ")):
        assert [word + note for note in payload[key]] == [line for line in lines if line.startswith(word)]
    assert payload["covered"] and len(payload["gaps"]) == gaps and not payload["exhausted"]


def test_search_refusal_exit_code(capsys):
    code, out, _ = run(
        capsys, "search", "--quandle", "o6", "--cocycle", "eta", "--max-length", "6",
        "--budget", "10",
    )
    assert code == 1 and "REFUSED" in out


def test_search_has_no_threads_option(capsys):
    # Every search runs in one process, so --threads is refused by argparse
    # like any unknown option.
    argv = ["search", "--quandle", "r7", "--cocycle", "zeta7", "--max-length", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def readme_commands():
    """The fenced block under "## Command line" in README.md, one argv per
    command line."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    return [argv for argv in commands if argv]


def fresh_process(*argv):
    """Exit code, stdout and stderr of `python -m quandlehom.cli argv` in a
    new interpreter, run from the repository root at 80 columns."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "quandlehom.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_readme_commands_run(capsys, monkeypatch):
    # The README command block, run line by line from the repository root:
    # every command must parse and exit 0.
    commands = readme_commands()
    assert len(commands) >= 10 and all(argv[0] == "quandlehom" for argv in commands)
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_repeated_calls_match_the_first(capsys, monkeypatch):
    # The tests and the benchmark run many commands in one process.  The
    # README commands but the two searches, run twice in two orders with an
    # argparse rejection and --help between the runs, give byte-identical
    # exit codes and output, and two of them print what a new process prints:
    # no call leaves state behind for the next.
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    commands = [argv[1:] for argv in readme_commands() if argv[1] != "search"]
    first = [run(capsys, *argv) for argv in commands]

    def rejected(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    frobnicate, usage = rejected("frobnicate"), rejected("--help")
    assert frobnicate[0] == 2 and "invalid choice: 'frobnicate'" in frobnicate[2]
    assert usage[0] == 0 and usage[1].startswith("usage: quandlehom")
    second = [run(capsys, *argv) for argv in reversed(commands)]
    assert second[::-1] == first
    assert (rejected("frobnicate"), rejected("--help")) == (frobnicate, usage)
    pairs = (["cocycle", "verify"], ["enumerate", "index-tables"])
    picked = [i for i, argv in enumerate(commands) if argv[:2] in pairs]
    assert len(picked) == 2
    for i in picked:
        assert fresh_process(*commands[i]) == first[i]


def parsers(parser):
    """Every parser of the tree below ``parser``, itself first, with the
    subcommand parsers that its fill has added so far."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


def parsed(parser, argv):
    """The namespace, or the exit code, and the output of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_parser_reads_as_the_full_tree(monkeypatch):
    # Each parser adds its arguments when it first parses.  Every --help and
    # usage error, and every README command's namespace, must be what a tree
    # with every parser filled in before parsing gives.
    monkeypatch.setenv("COLUMNS", "80")
    full = build_parser()
    for parser in parsers(full):  # reads each parser's subcommands after its fill
        parser.fill()
    leaves = [p.prog.split()[1:] for p in parsers(full) if p.get_default("func")]
    assert len(leaves) == 13
    argvs = [[], ["--help"], ["frobnicate"], ["--bogus"]]
    for path in map(list, sorted({tuple(leaf[:1]) for leaf in leaves} | {tuple(leaf) for leaf in leaves})):
        argvs += [path, path + ["--help"], path + ["--bogus"], path + ["frobnicate"], path + ["--format", "xml"]]
    argvs += [argv[1:] for argv in readme_commands()]
    for argv in argvs:
        assert parsed(build_parser(), argv) == parsed(full, argv), argv


def test_a_command_line_fills_only_the_parsers_it_reaches():
    # The cost of building the parser is paid on every command: a command
    # line builds the top level, one empty parser per command, and fills
    # only the parsers on its way.
    parser = build_parser()
    parser.parse_args(["quandle", "check", "--quandle", "o6"])
    built = {p.prog: p._fill is None for p in parsers(parser)}
    assert len(built) == 1 + 7 + 4
    assert {prog for prog, filled in built.items() if filled} == {
        "quandlehom",
        "quandlehom quandle",
        "quandlehom quandle check",
    }


def test_usage_errors(capsys):
    code, _, err = run(capsys, "quandle", "check")
    assert code == 2 and "family" in err
    code, _, err = run(capsys, "cocycle", "verify", "--cocycle", "mochizuki")
    assert code == 2
    code, _, err = run(capsys, "weight", "--cocycle", "eta", "no-such-file.tp")
    assert code == 2
    code, out, err = run(
        capsys, "search", "--quandle", "o6", "--cocycle", "eta", "--max-length", "5",
        "--window", "double", "--profile", "BC",
    )
    assert code == 2 and not out and "max_length 6" in err  # the window starts at length 6
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "enumerate", "index-tables", "--size", "5", "--shape", "4+1")
    _, out2, _ = run(capsys, "enumerate", "index-tables", "--size", "5", "--shape", "4+1")
    assert out1 == out2
    _, k1, _ = run(capsys, "kernel", "--quandle", "r7", "--index", "0", "--cell", "0")
    _, k2, _ = run(capsys, "kernel", "--quandle", "r7", "--index", "0", "--cell", "0")
    assert k1 == k2


# A malformed number token in an input file is an input error (exit 2 with
# "error: ..."), not a traceback.


def test_quandle_table_file_with_bad_token(tmp_path, capsys):
    path = tmp_path / "bad.table"
    path.write_text("x 1\n0 1\n")
    code, out, err = run(capsys, "quandle", "check", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'x' is not an integer" in err


# A well-formed table that fails an axiom is what `quandle check` reports on
# (exit 1); every other command refuses it as an input error (exit 2).
NOT_A_QUANDLE = "3\n0 0 0\n0 1 1\n2 2 2\n"


def test_quandle_check_reports_a_failing_table(tmp_path, capsys):
    path = tmp_path / "fail.table"
    path.write_text(NOT_A_QUANDLE)
    code, out, err = run(capsys, "quandle", "check", "--table", str(path))
    assert code == 1 and out == "columns not bijective: [0]\n" and err == ""
    code, out, _ = run(capsys, "quandle", "check", "--quandle", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "idempotence": [], "bijectivity": [0], "distributivity": []}


def test_other_commands_refuse_a_failing_table(tmp_path, capsys):
    path = tmp_path / "fail.table"
    path.write_text(NOT_A_QUANDLE)
    code, out, err = run(capsys, "quandle", "dual", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not a quandle: columns not bijective: [0]" in err


def test_quandle_spec_with_bad_size(capsys):
    code, _, err = run(capsys, "quandle", "check", "--quandle", "dihedral:x")
    assert code == 2 and err.startswith("error: ") and "'x'" in err


def test_chain_file_with_bad_color(tmp_path, capsys):
    path = tmp_path / "bad.chain"
    path.write_text("arity 3 graded\n1 0 0 0 y 2\n")
    code, out, err = run(capsys, "cocycle", "eval", "--cocycle", "eta", "--chain", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'y' is not an integer" in err


def test_triple_point_file_with_bad_color(tmp_path, capsys):
    path = tmp_path / "bad.tp"
    path.write_text("+ a 1 2\n")
    code, out, err = run(capsys, "weight", "--cocycle", "eta", "--modulus", "3", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'a' is not an integer" in err
