"""Package structure: every library function is reached from the package itself, and
every import is one that a numpy + scipy install provides."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcfprof"


def unreferenced_definitions(package: Path) -> set:
    """Top-level functions and classes whose name no package module uses.

    A use is a name or attribute reference anywhere in a module other than
    ``__init__.py``, outside the definition itself; imports and re-exports
    do not count.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = []
    for tree in trees.values():
        defined += [node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    inside = {id(sub): node.name for node in defined for sub in ast.walk(node)}
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else None)
            if ref is not None and inside.get(id(node)) != ref:
                used.add(ref)
    return {node.name for node in defined} - used


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(PACKAGE) == set()


def absolute_imports(package: Path) -> set:
    """Top-level names of the modules that the package's absolute imports load."""
    names = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_imports_need_only_numpy_and_scipy():
    """No optional-import fork: every machine with numpy and scipy runs the same code."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    assert absolute_imports(PACKAGE) - allowed == set()
