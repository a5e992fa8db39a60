"""Package modules use each other only through public names, and only the
CLI writes to standard output.

A private helper (a name with one leading underscore) belongs to its module:
``src/dvschur/*.py`` may neither import one from a sibling module
(``from .m import _x``, ``from dvschur.m import _x``) nor reach one through
a module (``m._x``, ``dvschur.m._x``).  Tests are exempt.

Standard output carries only the report, and ``cli.py`` renders it: no other
module in ``src/dvschur/`` may call ``print`` or reach ``sys.stdout``.

Pages are built as ``e1_page((q_weight, twist))``, the twist a power of O(1):
no module in ``src/dvschur/`` or ``tests/`` calls ``koszul.build_complex``,
which takes O(-d) and stays only for ``bench/child.py``.  Two tests pin it:
``test_build_complex_terms`` (the benchmark's call) and
``test_build_complex_rejects_bad_q_weight``, one call each.

The twist is a power of det Q, so a page raises its weight, not the factor
table: in ``src/dvschur/koszul.py`` only ``e1_page`` and ``constituents``
call ``koszul_factor_table``, once each.

Every report is written by one code path on every CPython: no module in
``src/dvschur/`` reads ``sys.version_info``.

All code of the package is in its source: no module in ``src/dvschur/``
calls ``exec`` or ``eval``.

The report writer ``cli._dump`` is the one place a named tuple becomes a
JSON object: no module in ``src/dvschur/`` reaches ``_asdict``.

A cold start imports only what the CLI runs: neither ``dataclasses`` (which
pulls in ``inspect``), ``importlib.resources`` nor ``typing``; the value
types are ``collections.namedtuple``s.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import dvschur

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dvschur"
TESTS = ROOT / "tests"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling(module: str | None, level: int) -> str | None:
    """The sibling module an import names (``.m`` or ``dvschur.m``), else None."""
    if module is None:
        return None
    parts = module.split(".")
    if level == 1 and len(parts) == 1:
        name = parts[0]
    elif level == 0 and len(parts) == 2 and parts[0] == "dvschur":
        name = parts[1]
    else:
        return None
    return name if name in MODULES else None


def private_uses(source: str) -> list[str]:
    """Every private name of a sibling module that the source uses."""
    tree = ast.parse(source)
    aliases = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = sibling(node.module, node.level)
            package = (node.level == 1 and node.module is None) or (
                node.level == 0 and node.module == "dvschur"
            )
            for alias in node.names:
                if owner and is_private(alias.name):
                    found.append(f"{owner}.{alias.name}")
                if package and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                owner = sibling(alias.name, 0)
                if owner and alias.asname:
                    aliases[alias.asname] = owner
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not is_private(node.attr):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            found.append(f"{aliases[base.id]}.{node.attr}")
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "dvschur"
            and base.attr in MODULES
        ):
            found.append(f"{base.attr}.{node.attr}")
    return found


def test_guard_catches_private_uses():
    source = """
from . import koszul, schur as s
from .plethysm import _layers, koszul_factor_table
from dvschur.ring import _POWER_SUM
import dvschur.bwb as b
import dvschur
koszul._override_from_json(s.__doc__, b._x, dvschur.partitions._staircase_product)
other._private, koszul.chase, s.__name__
"""
    assert sorted(private_uses(source)) == [
        "bwb._x",
        "koszul._override_from_json",
        "partitions._staircase_product",
        "plethysm._layers",
        "ring._POWER_SUM",
    ]


def stdout_uses(source: str) -> list[str]:
    """Every use of ``print`` and every reach of ``sys.stdout`` in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append(f"print@{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "stdout":
            found.append(f"stdout@{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"stdout@{node.lineno}" for a in node.names if a.name == "stdout"]
    return found


def test_guard_catches_stdout_uses():
    source = """
import sys
from sys import stdout as out
print("progress")
sys.stdout.write("x")
sys.stderr.write("fine")
log = print
"""
    assert sorted(stdout_uses(source)) == ["print@4", "print@7", "stdout@3", "stdout@5"]


def calls_of(name: str, tree: ast.AST) -> list[str]:
    """Every call of ``name`` in the tree, by name or as an attribute."""
    return [
        f"{name}@{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def callers(name: str, source: str) -> dict:
    """The number of calls of ``name`` in each top-level definition of the
    source that makes one (module level: None)."""
    found = {}
    for top in ast.parse(source).body:
        if n := len(calls_of(name, top)):
            key = getattr(top, "name", None)
            found[key] = found.get(key, 0) + n
    return found


def test_guard_catches_build_complex_calls():
    source = """
def build_complex(lam, d):
    return lam, -d
page = e1_page(build_complex(lam, -t))
koszul.build_complex(lam, 0)
f = koszul.build_complex
e1_page((lam, t))
"""
    assert sorted(calls_of("build_complex", ast.parse(source))) == [
        "build_complex@4", "build_complex@5"
    ]


def test_no_module_builds_a_page_with_the_down_twist():
    calls = {
        (path.relative_to(ROOT).as_posix(), top): n
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for top, n in callers("build_complex", path.read_text()).items()
    }
    assert calls == {
        ("tests/test_koszul.py", "test_build_complex_terms"): 1,
        ("tests/test_koszul.py", "test_build_complex_rejects_bad_q_weight"): 1,
    }


def test_guard_finds_each_reader_of_the_factor_table():
    source = """
@cache
def columns(t):
    return tuple(column for column in koszul_factor_table())
def e1_page(cx):
    for column in plethysm.koszul_factor_table():
        koszul_factor_table()[0]
    table = koszul_factor_table
COLUMNS = koszul_factor_table()
"""
    assert callers("koszul_factor_table", source) == {
        "columns": 1, "e1_page": 2, None: 1
    }


def test_only_the_page_and_constituents_read_the_factor_table_in_koszul():
    source = (PACKAGE / "koszul.py").read_text()
    assert callers("koszul_factor_table", source) == {"e1_page": 1, "constituents": 1}


def version_reads(source: str) -> list[str]:
    """Every reach of ``version_info``, as an attribute or imported from sys."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "version_info":
            found.append(f"version_info@{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"version_info@{node.lineno}" for a in node.names
                      if a.name == "version_info"]
    return found


def test_guard_catches_version_reads():
    source = """
import sys
from sys import version_info as v
if sys.version_info >= (3, 13):
    pass
sys.version
"""
    assert sorted(version_reads(source)) == ["version_info@3", "version_info@4"]


def dynamic_code(source: str) -> list[str]:
    """Every call of ``exec`` or ``eval``, by name or as an attribute."""
    return [
        f"{name}@{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in ("exec", "eval")
    ]


def test_guard_catches_dynamic_code():
    source = """
exec("def f(): pass", namespace)
value = eval(text, {})
builtins.exec(code)
run = exec
literal_eval(text)
"""
    assert sorted(dynamic_code(source)) == ["eval@3", "exec@2", "exec@4"]


def asdict_uses(source: str) -> list[str]:
    """Every reach of ``_asdict``, as an attribute or a ``getattr`` name."""
    return [
        f"_asdict@{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_asdict"
        or isinstance(node, ast.Constant) and node.value == "_asdict"
    ]


def test_guard_catches_asdict_uses():
    source = """
row = conflict._asdict()
rows = map(Conflict._asdict, conflicts)
getattr(canonical, "_asdict")()
"a named tuple's _asdict keys"
"""
    assert sorted(asdict_uses(source)) == ["_asdict@2", "_asdict@3", "_asdict@4"]


@pytest.mark.parametrize("finder, exempt", [
    (private_uses, set()),
    (stdout_uses, {"cli.py"}),
    (version_reads, set()),
    (dynamic_code, set()),
    (asdict_uses, set()),
], ids=["private-imports", "stdout", "version-branches", "code-from-strings", "asdict"])
def test_package_modules_pass_the_scan(finder, exempt):
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > len(MODULES) and exempt <= {path.name for path in files}
    violations = {
        path.name: found
        for path in files
        if path.name not in exempt and (found := finder(path.read_text()))
    }
    assert violations == {}


def test_cold_start_imports_none_of_dataclasses_importlib_resources_typing():
    # -S skips site, so no .pth file can have loaded any of them first;
    # the set-up reads all three data files
    code = (
        "import sys\n"
        "import dvschur.cli\n"
        "from dvschur import koszul, plethysm, reference\n"
        "plethysm.koszul_factor_table()\n"
        "koszul.load_overrides('paper-4.2')\n"
        "reference.table1_reference()\n"
        "loaded = {'dataclasses', 'inspect', 'importlib.resources', 'typing'}\n"
        "loaded &= set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    # the package this session imported, in the checkout or installed
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(dvschur.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
