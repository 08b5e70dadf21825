"""Every module of the package reads each name it imports, every private
helper it defines is read somewhere in the package, and every public name
it defines has a caller outside the tests.

Each src/swinghedge/*.py but __init__.py (which imports to re-export) is
parsed with ast: a name an import binds and the module never loads is
dead, and fails here with its line. So is a module-level _name (a def, a
class or an assignment) that no statement of src/swinghedge reads, its
own definition aside. So is a public module-level def or class, or a
public method, that nothing in src/, scripts/ or the benchmark's worker
and tracer imports or reads, unless PUBLIC_WITHOUT_CALLER names it with
its reason; a name the package's __init__.py re-exports is its API, read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swinghedge"
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


# Public names that nothing outside the tests calls, each with its reason.
PUBLIC_WITHOUT_CALLER = {
    "certify_stopped_values": "the acceptance gate imports it",
    "infusion_minimizer": "the acceptance gate imports it",
    "portfolio_at": "oracle reference for the portfolio transform",
    "infusion_at": "oracle reference for the infusion transform",
    "grid_portfolio_value": "oracle reference for the portfolio value",
    "grid_infusion_value": "oracle reference for the infusion value",
    "SaddleCertificate.to_json_dict": "oracle reference: the certificate as JSON",
    "payoff_at": "leftover: a contract payoff read at one node",
    "MarketParams.to_dict": "leftover: the model block of a contract spec",
    "AdaptedProcess.constant": "leftover: the tests' constant games",
}

# The callers: the package, the scripts, and the benchmark's worker and
# tracer (the tracer names the functions it wraps as strings).
CALLERS = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
           ROOT / "perfbench" / "worker.py", ROOT / "perfbench" / "tracer.py"]


def statements(tree):
    """The statements whose reads count: each module-level statement, a
    class split into its decorators and bases and each statement of its
    body, so that a method reading only itself is unread."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield from stmt.decorator_list + stmt.bases + stmt.keywords
            yield from stmt.body
        else:
            yield stmt


def read_by_callers():
    """Every name a caller imports or reads outside its own definition, and
    each dotted part of every string the tracer holds."""
    read = set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(imported(tree))
        read.update(name for stmt in statements(tree) for name in reads(stmt)
                    if name not in bound_names(stmt))
        if path.name == "tracer.py":
            read.update(part for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                        for part in node.value.split("."))
    return read


def defined_publics(tree):
    """name -> line of every public module-level def or class, and of every
    public method as Class.method."""
    out = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        out[stmt.name] = stmt.lineno
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out[f"{stmt.name}.{item.name}"] = item.lineno
    return out


def test_every_public_name_has_a_caller():
    """Each public def, class and method of src/swinghedge is read by a
    caller outside the tests, or PUBLIC_WITHOUT_CALLER says why not."""
    read = read_by_callers()
    unread = set()
    for path in SRC.glob("*.py"):
        for name, line in defined_publics(ast.parse(path.read_text(), filename=path.name)).items():
            if name.split(".")[-1] not in read:
                unread.add((name, f"{path.name}:{line}"))
    unexplained = sorted(where + " " + name for name, where in unread
                         if name not in PUBLIC_WITHOUT_CALLER)
    assert unexplained == [], f"public names nothing outside the tests calls: {unexplained}"
    # an entry whose name gained a caller, or is gone, goes from the list
    assert {name for name, _ in unread} == set(PUBLIC_WITHOUT_CALLER)
