"""Static checks with the standard library's `ast`, so they need no linter.

Every module imports only names it uses (`__init__.py` files are exempt:
their imports are the package's exports), every private module-level name
of the package is used somewhere in the package, every public function or
class is exported or used by the package or the benchmark, and the test
oracles and the package never import each other.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def _imported_modules(path: Path) -> list:
    """(module, line) of each import in a file; a relative import is named
    by its leading dots and module, such as ".conftest"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""), node.lineno))
    return out


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level functions, classes and constants whose names start with
    one underscore, by name -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, line) for name, line in targets if name.startswith("_") and not name.startswith("__"))
    return out


def _public_undecorated(tree: ast.Module) -> dict:
    """Module-level functions and classes with public names and no
    decorator, by name -> line; a decorator (a click command) registers
    its function, so that function needs no other reader."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and not node.decorator_list}


def _references(tree: ast.Module) -> set:
    """Names read anywhere in a module, as bare names or as attributes."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []


def test_no_unreferenced_private_names():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    assert trees
    referenced = set().union(*(_references(t) for t in trees.values()))
    unreferenced = [f"{p.relative_to(ROOT)}:{line}: {name}"
                    for p, t in trees.items() for name, line in _private_definitions(t).items()
                    if name not in referenced]
    assert unreferenced == []


def test_no_orphan_public_definitions():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    assert trees
    exported = {alias.asname or alias.name for p, t in trees.items() if p.name == "__init__.py"
                for node in ast.walk(t) if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    referenced = set().union(*(_references(t) for t in [*trees.values(), *bench]))
    orphans = [f"{p.relative_to(ROOT)}:{line}: {name}"
               for p, t in trees.items() for name, line in _public_undecorated(t).items()
               if name not in exported and name not in referenced]
    assert orphans == []


def test_oracles_and_package_stay_independent():
    # the oracles import neither the package nor, through a relative import,
    # a test module that does; the package imports nothing from the tests
    oracles = ROOT / "tests" / "oracles.py"
    assert [f"oracles.py:{line}: {mod}" for mod, line in _imported_modules(oracles)
            if mod.split(".")[0] == "bbcsec" or mod.startswith(".")] == []
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert [f"{p.relative_to(ROOT)}:{line}: {mod}" for p in files for mod, line in _imported_modules(p)
            if mod.split(".")[0] == "tests"] == []
