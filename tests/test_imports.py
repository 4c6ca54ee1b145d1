"""Every test module imports, and every package module uses what it imports.

The test suite may be run with --continue-on-collection-errors, under
which a module that stops importing drops all of its tests as one
collection error while the rest still pass. Importing each module here
turns that into a failed test that names the module.

An import that no code in its module reads is left over from an edit.
A name counts as used when the module loads it, or lists it in
__all__ (the package's re-exports). The one exception is geometry's
rank, which perfbench/selftest.py reads from geometry.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "kneser_tverberg").glob("*.py"))
UNUSED_ALLOWED = {("geometry", "rank")}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"imported_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        pytest.fail(f"{path.name} does not import: {type(exc).__name__}: {exc}")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_package_module_uses_its_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name for name in imported_names(tree) - used_names(tree) if (path.stem, name) not in UNUSED_ALLOWED}
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"
