"""No module of the package imports a name it never uses.

__init__.py is the exception: its imports are the package's re-exports.  The
check reads each module with ast alone: every name an import binds must
appear as a name somewhere else in the module (an attribute chain counts
through its base, so `import a.b` is used by `a.b.c`).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zorro"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


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
