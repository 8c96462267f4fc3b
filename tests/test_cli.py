import hashlib
import json
import shlex
from pathlib import Path

import pytest

from quandlehom.cli import main

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


def test_readme_commands_run(capsys, monkeypatch):
    # The fenced block under "## Command line" in README.md, run line by line
    # from the repository root: every command must parse and exit 0.
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10 and all(argv[0] == "quandlehom" for argv in commands)
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


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
