"""Static checks with the standard library's `ast`, so they need no linter.

Every module imports only names it uses (`__init__.py` files are exempt:
their imports are the package's exports), every private module-level name
of the package is used somewhere in the package, every public function or
class is exported or used by the package or the benchmark, the test
oracles and the package never import each other, a resource-guard
error is constructed only by the one helper in `exceptions.py`, the
simulator builds no random generator inside a loop, and no array is cast
to an integer type without the check of `probability._as_indices`.
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


def test_guard_errors_are_built_in_one_place():
    # every resource guard raises through exceptions._guard, so a GuardError
    # is constructed at exactly one site of the package
    sites = [f"{p.relative_to(ROOT)}:{node.lineno}" for p in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Call) and "GuardError" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))]
    assert len(sites) == 1 and sites[0].startswith("src/bbcsec/exceptions.py:"), sites


def test_no_generator_built_in_a_loop():
    # the trials and Monte Carlo episodes read rows of one stream's uniform
    # matrix; a generator built per trial or per block would cost more than
    # its draws and tie results to the block size
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    builders = {"default_rng", "Generator", "PCG64"}
    sites = set()  # a call inside nested loops is found once per loop
    for name in ("simulate.py", "coding.py"):
        path = SRC / "bbcsec" / name
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(loop, loops):
                sites.update(f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(loop)
                             if isinstance(node, ast.Call)
                             and builders & {getattr(node.func, "id", None), getattr(node.func, "attr", None)})
    assert sorted(sites) == []


def test_no_silent_integer_casts():
    # np.asarray(x, dtype=np.int64) truncates 1.9 to 1; every index array
    # goes through probability._as_indices, which rejects non-integers
    def integer_dtype(node):
        name = getattr(node, "attr", getattr(node, "id", ""))
        return name == "int" or name.startswith(("int", "uint"))

    sites = []
    for p in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("asarray", "array"):
                dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
                if any(integer_dtype(d) for d in dtypes):
                    sites.append(f"{p.relative_to(ROOT)}:{node.lineno}")
    assert sites == []
