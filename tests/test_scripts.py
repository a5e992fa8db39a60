"""The scripts under scripts/ run as a user runs them, in a fresh interpreter."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


def test_derive_override_ranks():
    proc = run_script("derive_override_ranks.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("derivation matches the frozen preset")
