"""No module of the package imports a name it never uses, no private
function, class or constant of the package goes unused, `zorro vote`
runs without numpy, and importing the CLI builds no fixed-base table.

__init__.py is the exception to the first: its imports are the package's
re-exports.  The import check reads each module with ast alone: every name
an import binds must appear as a name somewhere else in the module (an
attribute chain counts through its base, so `import a.b` is used by
`a.b.c`).  The second check reads the whole package: every module-level
function, class or one-name assignment whose name starts with `_` must be
named, as a name, an attribute or an imported name, somewhere outside its
own definition.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zorro"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _unused_imports(source: str) -> list:
    """The names the imports of `source` bind and nothing else in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport re\nfrom a import b as c, d\n\nos.path.join(d)\n"
    assert _unused_imports(source) == ["c", "re"]


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"groups", "sigma", "rangeproof", "protocol", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _names(node) -> Counter:
    """How often each name is named below `node`: as a name, an attribute or
    a name imported from a module."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defined_name(node):
    """The name a module-level statement defines: a function's, a class's or
    that of a one-name assignment (a constant); else None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return None
    return targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None


def _unreferenced_privates(sources: dict) -> list:
    """The module-level `_` functions, classes and constants of `sources`
    (module name -> source) that nothing outside their own definition names.
    Dunder names such as `__version__` are public."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        if (name := _defined_name(node))
        and name.startswith("_")
        and not name.startswith("__")
        and everywhere[name] == _names(node)[name]
    )


def test_the_check_finds_an_unreferenced_private():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b": "from a import _used\n\nclass _Spare:\n    pass\n",
    }
    assert _unreferenced_privates(sources) == ["a._recursive", "b._Spare"]


def test_the_check_finds_an_unreferenced_private_constant():
    sources = {
        "a": "_USED = 1\n_SPARE = 2\n_SELF: int = len([_SELF for _ in ()])\n__version__ = '1'\n",
        "b": "from a import _USED\n",
    }
    assert _unreferenced_privates(sources) == ["a._SELF", "a._SPARE"]


def test_every_private_function_and_class_is_referenced():
    assert _unreferenced_privates({path.stem: path.read_text() for path in PACKAGE}) == []


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """`script` run by a fresh interpreter that imports the package from src."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


def test_importing_the_cli_hashes_gamma_and_builds_no_table():
    # every group hashes gamma when it is built, and secp256k1's g and gamma
    # tables wait for their first exponentiation, so import stays cheap
    script = (
        "import zorro.cli\n"
        "from zorro import groups\n"
        "for group in groups._REGISTRY.values():\n"
        "    assert 'gamma' in vars(group) and group.contains(group.gamma), group\n"
        "tables = groups.prod_group()._tables\n"
        "assert len(tables) == 2 and set(tables.values()) == {None}, tables\n"
    )
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_vote_does_not_import_numpy(tmp_path):
    # numpy is for the demos' encoders; a vote session in a fresh interpreter
    # must not load it
    ballots = tmp_path / "ballots.csv"
    ballots.write_text("1,2\n3,0\n0,1\n")
    argv = ["vote", str(ballots), "--bound", "4", "--ledger", str(tmp_path / "vote.ledger")]
    script = (
        "import sys, zorro.cli\n"
        f"assert zorro.cli.main({argv!r}) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["candidate 0: 4 votes", "candidate 1: 3 votes"]
