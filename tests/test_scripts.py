"""The scripts under scripts/ run as a user runs them, in a fresh interpreter."""

import contextlib
import io
import pathlib
import subprocess
import sys

from dvschur.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


def test_reproduce_tables(tmp_path):
    proc = run_script("reproduce_tables.py", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "koszul table: 0 mismatched columns" in proc.stdout
    assert "ext table: 0 unannotated mismatches" in proc.stdout
    assert (tmp_path / "koszul_table.md").read_text().startswith("| p=0 |")
    assert "computed 190, printed 191" in (tmp_path / "ext_table.md").read_text()
    # the script and the CLI render through the same table writer
    for name, argv in [
        ("koszul_table.md", ["koszul-table", "--format", "markdown"]),
        ("ext_table.md", ["table1", "--overrides", "paper-4.2", "--format", "markdown"]),
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert (tmp_path / name).read_bytes() == out.getvalue().encode(), name


def test_derive_override_ranks():
    proc = run_script("derive_override_ranks.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("derivation matches the frozen preset")
