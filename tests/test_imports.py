"""Every module of the package reads each name it imports, and every
private helper it defines is read somewhere in the package.

Each src/swinghedge/*.py but __init__.py (which imports to re-export) is
parsed with ast: a name an import binds and the module never loads is
dead, and fails here with its line. So is a module-level _name (a def, a
class or an assignment) that no statement of src/swinghedge reads, its
own definition aside.
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


def bound_names(stmt):
    """The names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return set()


def defined_privates(tree):
    """name -> line of every module-level _name a def, class or assignment binds."""
    return {
        name: stmt.lineno
        for stmt in tree.body for name in bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
    }


def reads(stmt):
    """Every name stmt reads, as a name or as an attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def read_outside_own_definition(tree):
    """Every name a module-level statement reads, except the names that
    statement itself binds (a helper that only calls itself is unread)."""
    return {name for stmt in tree.body for name in reads(stmt) if name not in bound_names(stmt)}


def test_every_private_helper_is_read():
    """Each module-level _name of src/swinghedge is read somewhere in src/."""
    trees = {path.name: ast.parse(path.read_text(), filename=path.name) for path in SRC.glob("*.py")}
    read = set().union(*(read_outside_own_definition(tree) for tree in trees.values()))
    dead = {
        f"{name}:{line} {helper}"
        for name, tree in trees.items()
        for helper, line in defined_privates(tree).items()
        if helper not in read
    }
    assert dead == set(), f"private helpers nothing in src/ reads: {sorted(dead)}"
