"""Every test module imports.

The test suite may be run with --continue-on-collection-errors, under
which a module that stops importing drops all of its tests as one
collection error while the rest still pass. Importing each module here
turns that into a failed test that names the module.
"""

import importlib.util
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"imported_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        pytest.fail(f"{path.name} does not import: {type(exc).__name__}: {exc}")
