"""Every module of the package reads each name it imports.

Each src/swinghedge/*.py but __init__.py (which imports to re-export) is
parsed with ast: a name an import binds and the module never loads is
dead, and fails here with its line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "swinghedge"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported(tree):
    """name -> line of every name an import binds; __future__ binds none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def loaded(tree):
    """Every name the module loads (a quoted annotation is a string, not a load)."""
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_the_package_has_modules_to_check():
    assert {"pwl.py", "shortfall.py", "swing.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    unused = {alias: line for alias, line in imported(tree).items() if alias not in loaded(tree)}
    assert unused == {}, f"{name} imports names it never reads: {unused}"
