import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from dvschur import cli
from dvschur.cli import build_parser, main
from dvschur.ext import ext_groups
from dvschur.koszul import OverrideError, load_overrides
from dvschur.partitions import weyl_dim
from dvschur.ring import ch_oracle
from dvschur.schur import MAX_DIM, MAX_RANK

# subprocesses run the package this session imported, in the checkout or installed
PACKAGE_PARENT = str(pathlib.Path(cli.__file__).parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_ext_exact_exit_zero(capsys):
    code, out = run(capsys, "ext", "--lambda", "1,1,0,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ext"] == [1, 20, 2, 20, 1]
    assert payload["chi"] == -36


def test_malformed_weight_exit_one(capsys):
    assert main(["ext", "--lambda", "3,two,1,0"]) == 1
    assert main(["ext", "--lambda", "1,2,3,4"]) == 1
    assert main(["cohomology", "--lambda", "5,5,2,0", "--twist", "-3",
                 "--overrides", "no-such-preset"]) == 1


USAGE_ERRORS = {  # argv: its error line, which names the flag at fault
    ("table1", "--jobs", "2"): "unrecognized arguments: --jobs 2",
    ("ext",): "the following arguments are required: --lambda",
    ("cohomology", "--lambda", "5,5,2,0", "--twist", "x"):
        "argument --twist: invalid int value: 'x'",
    # argparse takes a prefix of a declared flag for it by default; here a
    # flag is spelled in full (--m is sym's flag and a prefix of lr's --mu).
    # A stray flag is named, not the required one it leaves missing.
    ("lr", "--lambda", "1", "--m", "2", "--rank", "2"): "unrecognized arguments: --m",
    ("ext", "--lam", "1,0,0,0"): "unrecognized arguments: --lam",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in USAGE_ERRORS])
def test_usage_error_exit_one(capsys, argv):
    # exit 2 is reserved for bounded results; a usage error is an input error
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: dvschur")
    assert [line for line in lines if line.startswith("error: ")] == [lines[-1]]
    assert lines[-1] == f"error: {USAGE_ERRORS[tuple(argv)]}"


@pytest.mark.parametrize("rank", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["lr", "--lambda", "1,0", "--mu", "1"],
    ["lr", "--lambda", "0", "--mu", "0"],
    ["pieri", "--lambda", "1,0", "--boxes", "1"],
])
def test_non_positive_rank_exit_one(capsys, argv, rank):
    assert main([*argv, "--rank", rank]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be at least 1, got {rank}\n"


@pytest.mark.parametrize("argv", [
    ["lr", "--lambda", "1", "--mu", "1"],
    ["pieri", "--lambda", "1", "--boxes", "1"],
], ids=["lr", "pieri"])
def test_rank_above_the_bound_exit_one(capsys, argv):
    # refused before any work: rank 500 ran past 20 s with no word
    for rank in (MAX_RANK + 1, 500):
        assert main([*argv, "--rank", str(rank)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rank must be at most {MAX_RANK}, got {rank}\n"
    code, out = run(capsys, *argv, "--rank", str(MAX_RANK), "--format", "json")
    assert code == 0
    assert [term["weight"] for term in json.loads(out)["terms"]] == [
        [2] + [0] * (MAX_RANK - 1), [1, 1] + [0] * (MAX_RANK - 2)
    ]


def test_product_above_the_bound_exit_one(capsys):
    # refused before any work: the smaller factor's dimension 1,397,760 times
    # rank 64 ran past 30 s with no word, though both other bounds pass it
    assert main(["lr", "--lambda", "2,2", "--mu", "2,2", "--rank", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the smaller factor's dimension 1397760 times rank 64 is 89456640, "
        f"above the bound {4 * MAX_DIM} on their product\n"
    )
    # (2,1) x (2,1) at rank 64 takes seconds and stays allowed: its arithmetic
    small = weyl_dim((2, 1) + (0,) * (MAX_RANK - 2))
    assert small * MAX_RANK == 87360 * 64 == 5591040 <= 4 * MAX_DIM


def test_unknown_preset_rejected_before_computation(capsys):
    code = main(["table1", "--overrides", "bogus"])
    assert code == 1
    captured = capsys.readouterr()
    assert "unknown override preset" in captured.err


def test_override_file_missing_field_exit_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"overrides": [
        {"q_weight": [5, 5, 2, 0], "twist": -3, "rank": 220,
         "target": {"p": 9, "q": 11}},
    ]}))
    assert main(["ext", "--lambda", "2,1,0,0", "--overrides", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: override 0: missing field 'source'")


def test_override_file_non_integer_rank_exit_one(capsys, tmp_path):
    entry = {"q_weight": [5, 5, 2, 0], "twist": -3, "rank": 220,
             "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry, dict(entry, rank="220")]))
    assert main(["ext", "--lambda", "2,1,0,0", "--overrides", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: override 1: field 'rank' is not an integer")


@pytest.mark.parametrize("command", [
    ["ext", "--lambda", "2,1,0,0"], ["table1"], ["sym", "--m", "3"],
])
def test_override_file_non_string_note_exit_one(capsys, tmp_path, command):
    # the note ends up in the key of the chase cache, so it must be hashable
    entry = {"q_weight": [5, 5, 2, 0], "twist": -3, "rank": 220,
             "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}, "note": ["x"]}
    path = tmp_path / "note.json"
    path.write_text(json.dumps([entry]))
    assert main(command + ["--overrides", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: override 0: field 'note' is not a string: ['x']")


@pytest.mark.parametrize("ranks", [(220, 0), (0, 220)])
def test_override_file_duplicate_differential_exit_one(capsys, tmp_path, ranks):
    # a second entry for one differential would make the answer depend on order
    entry = {"q_weight": [5, 5, 2, 0], "twist": -3,
             "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([dict(entry, rank=r) for r in ranks]))
    assert main(["cohomology", "--lambda", "5,5,2,0", "--twist", "-3",
                 "--overrides", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: override 1: same differential as override 0")


@pytest.mark.parametrize("names", [
    [((5, 5, 2, 0), -3), ((6, 6, 3, 1), -4)],
    [((6, 6, 3, 1), -4), ((5, 5, 2, 0), -3)],
])
def test_override_file_one_differential_under_two_names_exit_one(capsys, tmp_path, names):
    # Sigma_(6,6,3,1) Q (-4) is Sigma_(5,5,2,0) Q (-3): det Q = O(1)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([
        {"q_weight": list(weight), "twist": twist, "rank": 220,
         "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}}
        for weight, twist in names
    ]))
    assert main(["cohomology", "--lambda", "5,5,2,0", "--twist", "-3",
                 "--overrides", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: override 1: same differential as override 0\n"


def test_cohomology_names_a_bundle_up_to_the_determinant(capsys):
    # the preset's entry for ((5,5,2,0), -3) closes the same page under either name
    answers = []
    for lam, twist in [("6,6,3,1", "-4"), ("5,5,2,0", "-3")]:
        code, out = run(capsys, "cohomology", "--lambda", lam, "--twist", twist,
                        "--overrides", "paper-4.2")
        assert code == 0, lam
        payload = json.loads(out)
        answers.append([payload[key] for key in ("values", "exact", "conflicts", "euler")])
    assert answers[0] == answers[1] == [[0, 0, 2730, 0, 0], True, [], 2730]


@pytest.mark.parametrize("name, reason", [
    ("missing.json", "No such file or directory"),
    ("", "Is a directory"),
])
def test_override_path_unreadable_exit_one(capsys, tmp_path, name, reason):
    path = str(tmp_path / name) if name else str(tmp_path)
    assert main(["ext", "--lambda", "1,0,0,0", "--overrides", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown override preset or unreadable override file: ")
    assert f"{path!r} ({reason}; presets: paper-4.2)" in err


@pytest.mark.parametrize("argv", [
    ["ext", "--lambda", "3,3,0,0"],
    ["cohomology", "--lambda", "5,5,2,0", "--twist", "-3"],
])
def test_empty_overrides_value_exit_one(capsys, argv):
    # a shell variable that expands to nothing is not a missing --overrides
    assert main([*argv, "--overrides", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: unknown override preset or unreadable override file: '' (")


def test_override_file_bad_json_exit_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"overrides": [')
    assert main(["ext", "--lambda", "1,0,0,0", "--overrides", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON: ")


def test_override_leaving_stray_cohomology_exit_one(capsys, tmp_path):
    path = tmp_path / "stray.json"
    path.write_text(json.dumps({"overrides": [
        {"q_weight": [3, 1, 1, 0], "twist": 0, "source": {"p": 12, "q": 11},
         "target": {"p": 0, "q": 0}, "rank": 4, "note": "x"},
    ]}))
    assert main(["cohomology", "--lambda", "3,1,1,0", "--twist", "0",
                 "--overrides", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: determinate chase left cohomology outside")
    assert captured.err.count("\n") == 1


def test_cohomology_of_the_first_ext_summand(capsys):
    # representation-level description of the first-Ext summand
    code, out = run(capsys, "cohomology", "--lambda", "2,2,0,0", "--twist", "-1")
    assert code == 0
    payload = json.loads(out)
    degree_one = [e for e in payload["entries"] if e["total_degree"] == 1]
    weights = {tuple(c["weight"]) for e in degree_one for c in e["constituents"]}
    assert weights == {
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 1),   # dual 10-space, up to twist
        (4, 3, 3, 3, 3, 3, 3, 3, 3, 3),   # the 10-space itself, up to twist
    }


def test_bwb_acyclic_json(capsys):
    code, out = run(capsys, "bwb", "--lambda", "0,0,0,0", "--mu", "1,1,1,0,0,0")
    assert code == 0
    assert json.loads(out) == {"acyclic": True}


def test_sym_exit_codes(capsys):
    code, out = run(capsys, "sym", "--m", "3", "--overrides", "paper-4.2")
    assert code == 0
    assert json.loads(out)["ext"] == [1, 0, 5545, 0, 1]
    code, _ = run(capsys, "sym", "--m", "5", "--overrides", "paper-4.2")
    assert code == 2


def test_table1_deterministic(capsys):
    code, out1 = run(capsys, "table1", "--overrides", "paper-4.2")
    assert code == 0
    code, out2 = run(capsys, "table1", "--overrides", "paper-4.2")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["unannotated_mismatches"] == 0
    statuses = {(tuple(c["lambda"]), c["column"]): c["status"] for c in payload["diff"]}
    assert statuses[((2, 0, 0, 0), "ext2")] == "annotated"
    assert statuses[((3, 1, 0, 0), "ext2")] == "annotated"
    assert statuses[((1, 1, 0, 0), "ext2")] == "match"


def test_chern_json(capsys):
    code, out = run(capsys, "chern", "--lambda", "1,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["ch"]["8"]["pt"] == "-1/4"
    assert payload["delta_as_multiple_of_c2"] == 1
    assert payload["chi"] == 3
    assert payload["atomic"]["atomic"] is True


@pytest.mark.parametrize("lam", [(1, 1, 1, 0), (2, 2, 2, 1), (-1, -1, -1, -1)])
def test_chern_of_input_not_of_canonical_form(capsys, lam):
    # Lambda^3 Q = Q^*(1): canonicalising moves the twist, but ch is the input's
    code, out = run(capsys, "chern", "--lambda=" + ",".join(map(str, lam)))
    assert code == 0
    payload = json.loads(out)
    ch = {key: Fraction(str(v)) for key, v in [
        ("one", payload["ch"]["0"]), ("h", payload["ch"]["2"]["h"]),
        ("h2", payload["ch"]["4"]["h2"]), ("ch2", payload["ch"]["4"]["ch2"]),
        ("ch3", payload["ch"]["6"]["ch3"]), ("pt", payload["ch"]["8"]["pt"]),
    ]}
    want = ch_oracle(lam)
    assert ch == {key: getattr(want, key) for key in ch}
    assert ch["h"] == Fraction(sum(lam) * payload["rank"], 4)


def test_atomic_json(capsys):
    code, out = run(capsys, "atomic", "--lambda", "2,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["atomic"] is True
    assert payload["necessary_test"] == "pass"
    assert payload["sym_certificate"] == "present"
    code, out = run(capsys, "atomic", "--lambda", "1,1,0,0")
    payload = json.loads(out)
    assert payload["atomic"] is False
    assert payload["ratio"] == "-1/3"
    assert payload["sym_certificate"] == "absent"


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_ext_summands_needs_json(capsys, fmt):
    # the breakdown exists only in JSON; a table format must not drop it silently
    assert main(["ext", "--lambda", "1,0,0,0", "--summands", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --summands needs --format json\n"


def test_sym_negative_degree_exit_one(capsys):
    assert main(["sym", "--m", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symmetric power degree must be nonnegative\n"


@pytest.mark.parametrize("argv, weight", [
    (["cohomology", "--lambda", "5,5,2,0", "--twist", "-3"], [1, 2]),
    (["ext", "--lambda", "2,1,0,0"], [0, 0, 0, 1]),
])
def test_override_file_bad_q_weight_exit_one(capsys, tmp_path, argv, weight):
    # no page has a weight of another length or a non-dominant one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"q_weight": weight, "twist": -3, "rank": 220,
         "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}},
    ]))
    assert main([*argv, "--overrides", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = {
        (1, 2): "expected a weight of length 4, got (1,2)",
        (0, 0, 0, 1): "weight entries must be weakly decreasing: (0,0,0,1)",
    }[tuple(weight)]
    assert captured.err == f"error: override 0: {message}\n"


def readme_commands():
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("dvschur ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_commands_run(capsys):
    # every documented invocation still parses and runs (2 means bounded)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2), argv


def test_closed_pipe_exits_one_quietly():
    # the report (about 0.7 MB) outgrows the pipe buffer, so a write fails
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.Popen(
        [sys.executable, "-m", "dvschur.cli", "ext", "--lambda", "8,4,2,0", "--summands"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "bound'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("note, code, err", [
    ("\u2013".encode(), 2, None),  # an en dash, valid UTF-8: the file loads
    (b"\xff", 1, "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
], ids=["utf-8", "not-utf-8"])
def test_override_file_is_utf8_in_an_ascii_locale(tmp_path, note, code, err):
    # the C locale without UTF-8 mode makes ASCII the default text encoding
    path = tmp_path / "ov.json"
    path.write_bytes(json.dumps([{
        "q_weight": [5, 5, 2, 0], "twist": -3, "source": {"p": 11, "q": 12},
        "target": {"p": 9, "q": 11}, "rank": 1, "note": "NOTE",
    }]).encode().replace(b"NOTE", note))
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT, LC_ALL="C",
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "dvschur.cli", "cohomology", "--lambda", "5,5,2,0",
         "--twist", "-3", "--overrides", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == code, proc.stderr
    if err:
        assert proc.stderr.startswith(f"error: {path}: {err}"), proc.stderr
    else:
        assert proc.stderr == ""


def override_file(tmp_path, weight, twist, rank=1):
    path = tmp_path / "ov.json"
    path.write_text(json.dumps([{
        "q_weight": list(weight), "twist": twist,
        "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}, "rank": rank,
    }]))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--lambda", "1,0,0,0"],
    ["ext", "--lambda", "1,0,0,0"],
    ["sym", "--m", "2"],
    ["table1"],
])
def test_unmatched_override_file_warns(capsys, tmp_path, argv):
    plain = run(capsys, *argv)
    path = override_file(tmp_path, (9, 9, 9, 0), -3)
    assert main([*argv, "--overrides", path]) == plain[0]
    captured = capsys.readouterr()
    assert captured.out == plain[1]
    assert captured.err == (
        "warning: override 0: no summand chased here has q_weight (9,9,9,0) and twist -3\n"
    )


def test_override_file_names_a_bundle_up_to_the_determinant(capsys, tmp_path):
    # End(Sigma_(3,2,0,0) Q) holds Sigma_(5,5,2,0) Q (-3), also named ((6,6,3,1), -4)
    plain = json.loads(run(capsys, "ext", "--lambda", "3,2,0,0")[1])["ext"]
    answers = []
    for weight, twist in [((6, 6, 3, 1), -4), ((5, 5, 2, 0), -3)]:
        path = override_file(tmp_path, weight, twist, rank=220)
        code = main(["ext", "--lambda", "3,2,0,0", "--overrides", path])
        captured = capsys.readouterr()
        assert "warning:" not in captured.err, weight
        answers.append((code, json.loads(captured.out)["ext"]))
    assert answers[0] == answers[1]
    assert answers[0][1] != plain


def test_matched_override_file_and_preset_are_silent(capsys, tmp_path):
    path = override_file(tmp_path, (5, 5, 2, 0), -3)
    assert main(["cohomology", "--lambda", "5,5,2,0", "--twist", "-3",
                 "--overrides", path]) == 2
    assert capsys.readouterr().err == ""
    # the same bundle under its other name
    assert main(["cohomology", "--lambda", "6,6,3,1", "--twist", "-4",
                 "--overrides", path]) == 2
    assert capsys.readouterr().err == ""
    # the preset matches none of the summands of Sym^18
    assert main(["sym", "--m", "18", "--overrides", "paper-4.2"]) == 2
    assert capsys.readouterr().err == ""


# Each subcommand's options in --help order: flags, dest, required, default,
# type, choices, action and metavar.
LAMBDA = ("--lambda", "lam", True, None, None, None, "store", "W")
MU = ("--mu", "mu", True, None, None, None, "store", "W")
RANK = ("--rank", "rank", False, 4, int, None, "store", None)
OVERRIDES = ("--overrides", "overrides", False, None, None, None, "store", "PRESET|FILE")
FORMAT = ("--format", "fmt", False, "json", None, ["json", "markdown", "csv"], "store", None)
PARSER_OPTIONS = {
    "lr": [LAMBDA, MU, RANK, FORMAT],
    "pieri": [LAMBDA, RANK, FORMAT,
              ("--boxes", "boxes", True, None, int, None, "store", "M")],
    "bwb": [LAMBDA, MU],
    "koszul-table": [FORMAT],
    "cohomology": [LAMBDA, ("--twist", "twist", False, 0, int, None, "store", None),
                   OVERRIDES],
    "ext": [LAMBDA, OVERRIDES, FORMAT,
            ("--summands", "summands", False, False, None, None, "store_true", None)],
    "table1": [OVERRIDES, FORMAT],
    "sym": [("--m", "m", True, None, int, None, "store", None), OVERRIDES, FORMAT],
    "chern": [LAMBDA],
    "atomic": [LAMBDA],
}
ACTIONS = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true"}


def option_sets(parser):
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [(*a.option_strings, a.dest, a.required, a.default, a.type, a.choices,
                ACTIONS[type(a)], a.metavar)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for name, sub in subs.choices.items()
    }


def test_parser_option_sets():
    assert list(option_sets(build_parser()).items()) == list(PARSER_OPTIONS.items())
    # main builds the invoked subcommand's parser alone, with the same options
    for name in cli._COMMANDS:
        assert option_sets(build_parser(name)) == {name: PARSER_OPTIONS[name]}


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument; a usage error still
    # lists every subcommand
    monkeypatch.setattr(sys, "argv", ["dvschur", "table1", "--bogus"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 1
    assert "{" + ",".join(cli._COMMANDS) + "}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "table1 --bogus", "ext", "ext --lambda", "ext --lambda 1,0,0,0 --format xml", "bogus",
    "", "sym --m x", "table1 --overrides paper-4.2 --format csv extra", "--help",
    "table1 --help", "-h table1",
])
def test_one_subparser_prints_what_the_full_parser_prints(capsys, argv):
    seen = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as info:
            parse(shlex.split(argv))
        seen.append((info.value.code, capsys.readouterr()))
    assert seen[0] == seen[1]


# keys and strings with non-ASCII characters, quotes, backslashes and control
# characters; ints beyond 64 bits of either sign; finite floats such as 91.0
JSON_TEXT = st.text() | st.text(alphabet='a"\\\n\t\x00\u00e9\u20ac\U0001f600')
JSON_LEAVES = (
    st.none() | st.booleans() | JSON_TEXT
    | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | st.floats(allow_nan=False, allow_infinity=False) | st.just(91.0)
)
# named tuples with keys out of order, a non-ASCII key, one field and none
Pair = namedtuple("Pair", "b a")
Mixed = namedtuple("Mixed", "z \u00e9 Z a")
One = namedtuple("One", "x")
Empty = namedtuple("Empty", "")
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)
                      | st.builds(Pair, children, children)
                      | st.builds(Mixed, children, children, children, children)
                      | st.builds(One, children) | st.builds(Empty)),
    max_leaves=40,
)


def plain(tree):
    """The tree with each named tuple replaced by its ``_asdict()``."""
    if hasattr(tree, "_asdict"):
        return {k: plain(v) for k, v in tree._asdict().items()}
    if isinstance(tree, dict):
        return {k: plain(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(map(plain, tree))
    return tree


# ints, floats and bools that compare equal at one depth, each alone in a
# tuple; a plain tuple equal to a named tuple; a tuple that holds a list
@example([(1,), (1.0,), (True,), (1,), (0,), (False,), (-0.0,), (0,), (1, 2), Pair(1, 2),
          ([1],), {"k": [(True,), (1,)]}])
@given(JSON_TREES)
def test_indented_json_is_json_dumps(tree):
    assert cli._dump(tree) == json.dumps(plain(tree), sort_keys=True, indent=2)


def test_indented_json_on_the_largest_report():
    report = ext_groups((8, 4, 2, 0), load_overrides("paper-4.2"))
    payload = cli._ext_json(report, True)
    assert cli._dump(payload) == json.dumps(plain(payload), sort_keys=True, indent=2)


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["ext", "--lambda", f"{HUGE},0,0,0"],
    ["sym", "--m", HUGE],
    ["atomic", "--lambda", f"{HUGE},0,0,0"],
    ["chern", "--lambda", f"{HUGE},0,0,0"],
    ["lr", "--lambda", f"{HUGE},0", "--mu", f"{HUGE},0", "--rank", "2"],
    ["ext", "--lambda", "60,30,15,0"],  # dimension 62,662,656: ran past 60 s
    ["chern", "--lambda", "34,17,8,0"],  # dimension 2,657,340
], ids=["ext-huge", "sym-huge", "atomic-huge", "chern-huge", "lr-huge", "ext-60",
        "chern-34"])
def test_weight_above_the_dimension_bound_exit_one(capsys, argv):
    # refused before its weight system is built: one error line, no traceback
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: weight (")
    assert f"above the bound {MAX_DIM} " in captured.err


def test_euler_overflow_exit_one(capsys):
    # the page's alternating sum multiplies its dimensions by a float sign
    assert main(["cohomology", "--lambda", "0,0,0,0", "--twist", HUGE]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: int too large to convert to float "
                            "(a page's Euler characteristic is a float)\n")


def test_weight_below_the_dimension_bound_runs(capsys):
    # (30,15,7,0) has dimension 1,346,400; ext walks the same weight system
    code, out = run(capsys, "chern", "--lambda", "30,15,7,0")
    assert code == 0
    assert json.loads(out)["rank"] == 1346400 <= MAX_DIM


# ---------------------------------------------------------------------------
# a generated-input net: argv drawn from the CLI's own declarations, with
# weight entries up to 12 so that every run is fast.  Each value is valid,
# one that every command refuses (``bad``), or out of range (a top entry of
# 10^7, a twist scaled by 10^19), for which any exit status 0, 1 or 2 is fine.

FILE = "<override file>"  # replaced by the path the file is written to
RARELY = st.integers(0, 9).map(lambda k: k == 9)


def either(good, bad):
    """(text, is_bad): a ``good`` value eight times in ten, else a ``bad`` one."""
    good, bad = good.map(lambda v: (v, False)), bad.map(lambda v: (v, True))
    return st.integers(0, 9).flatmap(lambda k: good if k < 8 else bad)


def joined(entries):
    return ",".join(map(str, entries))


def entries(sizes, low=-2, high=12):
    return st.one_of([st.lists(st.integers(low, high), min_size=n, max_size=n) for n in sizes])


def weights(length):
    """Weight strings of ``length`` entries (1..5 when None): dominant ones,
    rarely with a top entry of 10^7, or bad ones."""
    drawn = entries([length] if length else range(1, 6))
    dominant = st.tuples(drawn, RARELY).map(lambda pair: joined(
        [x + 10**7 * (pair[1] and not i) for i, x in enumerate(sorted(pair[0], reverse=True))]))
    rising = drawn.filter(lambda w: w != sorted(w, reverse=True)).map(joined)
    bad = [rising, st.sampled_from(["", "2.5,1,0,0", "3,two,1,0", "1,,0,0", "x"])]
    if length:
        other = entries([n for n in range(1, 8) if n != length], 0, 3)
        bad.append(other.map(lambda w: joined(sorted(w, reverse=True))))
    return either(dominant, st.one_of(bad))


def integers(good, bad):
    return either(good.map(str), st.one_of(bad.map(str), st.sampled_from(["x", "2.5", ""])))


# One override: a dominant weight and a legal differential position.
OVERRIDE = st.tuples(entries([4]), st.integers(-12, 12), st.integers(0, 400),
                     st.integers(1, 20), st.integers(0, 30), st.integers(1, 3)).map(
    lambda f: {"q_weight": sorted(f[0], reverse=True), "twist": f[1], "rank": f[2],
               "source": {"p": f[3], "q": f[4]},
               "target": {"p": f[3] - f[5], "q": f[4] - f[5] + 1}})
SPOILERS = [  # one bad field each
    lambda e: {**e, "q_weight": [e["q_weight"][0] + 0.5, *e["q_weight"][1:]]},
    lambda e: {**e, "q_weight": [float(e["q_weight"][0]), *e["q_weight"][1:]]},
    lambda e: {**e, "q_weight": e["q_weight"][:3]},
    lambda e: {**e, "q_weight": e["q_weight"][::-1] + [13]},
    lambda e: {**e, "q_weight": [str(x) for x in e["q_weight"]]},
    lambda e: {**e, "twist": 0.5},
    lambda e: {**e, "rank": -1},
    lambda e: {**e, "rank": True},
    lambda e: {**e, "target": e["source"]},
    lambda e: {k: v for k, v in e.items() if k != "rank"},
    lambda e: {**e, "note": 7},
    lambda e: {**e, "q_weight": joined(e["q_weight"])},
]


ENTRY = {"q_weight": [5, 5, 2, 0], "twist": -3, "rank": 220,
         "source": {"p": 11, "q": 12}, "target": {"p": 9, "q": 11}}


@pytest.mark.parametrize("spoil", SPOILERS, ids=[f"spoiler{i}" for i in range(len(SPOILERS))])
def test_every_spoiler_is_refused(tmp_path, spoil):
    # the generated net below parses too few override files to meet each one
    path = tmp_path / "ov.json"
    path.write_text(json.dumps([ENTRY]))
    assert len(load_overrides(str(path))) == 1
    path.write_text(json.dumps([spoil(ENTRY)]))
    with pytest.raises(OverrideError, match="^override 0: "):
        load_overrides(str(path))


def spoiled(spoilers):
    return st.tuples(OVERRIDE, st.sampled_from(spoilers)).map(
        lambda pair: json.dumps([pair[1](pair[0])]))


# (JSON text of an override list, is_bad): well-formed half the time, else
# with one bad field or not a list.  ``parse_weight`` calls ``int`` first, so
# a float reaches ``check_dominant`` only in a file's q_weight: one file in
# four has one there.
OVERRIDES_FILE = st.one_of(
    OVERRIDE.map(lambda e: (json.dumps([e]), False)),
    spoiled(SPOILERS[:2]).map(lambda text: (text, True)),
    st.one_of(spoiled(SPOILERS[2:]), st.sampled_from(["", "[", "{}", "3", '{"overrides": 3}'])
              ).map(lambda text: (text, True)),
)
VALUES = {
    "--lambda": dict.fromkeys(("bwb", "cohomology", "ext", "chern", "atomic"), weights(4)),
    "--mu": {"bwb": weights(6)},
    "--m": integers(st.integers(0, 12), st.integers(-3, -1)),
    "--rank": integers(st.integers(1, 6), st.sampled_from([-1, 0, MAX_RANK + 1])),
    "--boxes": integers(st.integers(0, 12), st.integers(-3, -1)),
    "--twist": either(st.tuples(st.integers(-12, 12), RARELY).map(
                          lambda pair: str(pair[0] * 10**19 if pair[1] else pair[0])),
                      st.sampled_from(["x", "1.5", ""])),
    "--format": either(st.sampled_from(["json", "markdown", "csv"]),
                       st.sampled_from(["xml", "JSON"])),
    "--overrides": either(st.sampled_from([FILE, FILE, "paper-4.2"]),
                          st.sampled_from(["no-such-preset", ""])),
}
ANY_LENGTH = weights(None)  # lr and pieri take weights of any length


@st.composite
def cli_inputs(draw):
    """(argv, bad, override file text or None)."""
    name = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    if name == "bogus":
        return [name], True, None
    argv, bad, text = [name], False, None
    flags = cli._COMMANDS[name][2]
    for flag in flags:
        spec = cli._OPTIONS[flag]
        if spec.get("action") == "store_true":
            argv += [flag] * draw(st.booleans())
            continue
        if draw(RARELY):  # leave the flag out
            bad |= spec.get("required", False)
            continue
        values = VALUES[flag]
        value, refused = draw(values.get(name, ANY_LENGTH) if isinstance(values, dict)
                              else values)
        if value == FILE:
            text, refused = draw(OVERRIDES_FILE)
        argv.append(f"{flag}={value}")
        bad |= refused
    fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "json")
    bad |= "--summands" in argv and fmt != "json"
    if draw(RARELY):  # a flag of another subcommand, or one of its own abbreviated
        others = [f for f in cli._OPTIONS if f not in flags]
        # (index, the argument with its flag cut to a proper prefix, value kept)
        short = [(i, a[:k] + a[a.index("="):]) for i, a in enumerate(argv) if "=" in a
                 for k in range(3, a.index("=")) if a[:k] not in flags]
        if short and draw(st.booleans()):
            i, abbreviated = draw(st.sampled_from(short))
            argv[i] = abbreviated
        else:
            argv.insert(draw(st.integers(1, len(argv))), f"{draw(st.sampled_from(others))}=1")
        bad = True
    return argv, bad, text


def check_report(out, fmt):
    if fmt == "json":
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    elif fmt == "markdown":
        rows = out.splitlines()
        assert rows[1] == "|" + "---|" * (rows[0].count(" | ") + 1)
        assert all(row.startswith("| ") and row.endswith(" |") for row in rows[:1] + rows[2:])
    else:
        assert len({len(row) for row in csv.reader(io.StringIO(out))}) == 1


@pytest.fixture(scope="module")
def override_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("overrides")


def spoiled_case(argv, spoiler):
    """A case whose override file holds ENTRY with one bad field."""
    return [*argv, f"--overrides={FILE}"], True, json.dumps([SPOILERS[spoiler](ENTRY)])


# without the explain phase, which traces every run of a failing case: minutes
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(case=cli_inputs())
# the drawn files seldom hold these refusals: a negative rank, a note that is
# not a string, no rank, and a q_weight that is a string
@example(case=spoiled_case(["ext", "--lambda=1,0,0,0"], 6))
@example(case=spoiled_case(["cohomology", "--lambda=5,5,2,0", "--twist=-3"], 10))
@example(case=spoiled_case(["sym", "--m=2"], 9))
@example(case=spoiled_case(["table1"], 11))
def test_generated_argv_exit_status_and_output(override_dir, case):
    # exit 0, 1 or 2 and no exception; a refused input exits 1 with one
    # error line (after the usage line on a usage error) and no report; a
    # report (exit 0 or 2, or table1's exit 1 on a mismatch with the published
    # table) is in the format --format asks for
    argv, bad, text = case
    if text is not None:  # each case rewrites one file; load_overrides reads it anew
        path = override_dir / "overrides.json"
        path.write_text(text, encoding="utf-8")
        argv = [a.replace(FILE, str(path)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, usage = main(argv), False
        except SystemExit as exc:  # only the parser exits
            status, usage = exc.code, True
    out, lines = out.getvalue(), err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert status in (0, 1, 2)
    if bad or usage or errors or status == 1 and argv[0] != "table1":
        assert status == 1 and out == ""
        assert len(errors) == 1 and lines[-1] == errors[0]
        assert lines[0].startswith("usage: dvschur") if usage else lines == errors
        return
    assert all(line.startswith("warning: ") for line in lines)
    check_report(out, next((a[9:] for a in argv if a.startswith("--format=")), "json"))
