"""Byte-for-byte CLI goldens: stdout and exit status of fixed invocations.

Each case's stdout is stored in ``tests/golden/<name>.out`` and every exit
status in ``tests/golden/status.json``.  A refactor that keeps the CLI's
output must leave all of them unchanged.  To record them afresh (only when
an output change is intended and listed in CHANGES.md), run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from dvschur.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

LR = ["lr", "--lambda", "2,1,0", "--mu", "2,2,0", "--rank", "3"]
EXT = ["ext", "--lambda", "3,3,0,0"]
TABLE1 = ["table1", "--overrides", "paper-4.2"]
FORMATS = ("json", "markdown", "csv")

CASES = {
    **{f"lr-{fmt}": LR + ["--format", fmt] for fmt in FORMATS},
    "lr-rank1-csv": ["lr", "--lambda", "3", "--mu", "2", "--rank", "1",
                     "--format", "csv"],
    "pieri-csv": ["pieri", "--lambda", "2,1,0", "--boxes", "3", "--rank", "3",
                  "--format", "csv"],
    "bwb": ["bwb", "--lambda", "2,2,0,0", "--mu", "4,4,2,2,2,1"],
    **{f"koszul-table-{fmt}": ["koszul-table", "--format", fmt] for fmt in FORMATS},
    "cohomology": ["cohomology", "--lambda", "5,5,2,0", "--twist", "-3",
                   "--overrides", "paper-4.2"],
    **{f"ext-{fmt}": EXT + ["--format", fmt] for fmt in FORMATS},
    "ext-summands": ["ext", "--lambda", "3,2,1,0", "--overrides", "paper-4.2",
                     "--summands"],
    **{f"table1-{fmt}": TABLE1 + ["--format", fmt] for fmt in FORMATS},
    "sym-5-markdown": ["sym", "--m", "5", "--format", "markdown"],
    "sym-18": ["sym", "--m", "18"],
    "chern": ["chern", "--lambda", "4,2,1,0"],
    "atomic": ["atomic", "--lambda", "3,0,0,0"],
    "atomic-trivial": ["atomic", "--lambda", "0,0,0,0"],  # O_X: ch1 = 0
}


def run_cli(argv) -> tuple[bytes, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    return out.getvalue().encode(), status


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    stdout, status = run_cli(CASES[name])
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert status == json.loads((GOLDEN / "status.json").read_text())[name]


@pytest.mark.parametrize("name", sorted(
    name for name, argv in CASES.items() if not {"markdown", "csv"} & set(argv)
))
def test_json_goldens_have_json_layout(name):
    # json's own layout, so re-recording the goldens cannot hide a drift in
    # the CLI's own JSON writer
    text = (GOLDEN / f"{name}.out").read_text()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_goldens_cover_every_case():
    recorded = {path.stem for path in GOLDEN.glob("*.out")}
    assert recorded == set(CASES)
    assert set(json.loads((GOLDEN / "status.json").read_text())) == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    statuses = {}
    for name, argv in sorted(CASES.items()):
        stdout, statuses[name] = run_cli(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    (GOLDEN / "status.json").write_text(json.dumps(statuses, indent=2, sort_keys=True) + "\n")
