"""The package names the benchmark reaches for must exist.

A traced benchmark run rebinds every `LAYERS` entry of
`perfbench/tracing.py` and fails with `AttributeError` if one is gone,
and each workload of `perfbench/workloads.py` calls `kt.<name>`. Both
files are read here, not changed: tracing.py is loaded under a private
module name, workloads.py is only parsed.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import kneser_tverberg
from kneser_tverberg import geometry, linalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing_layers() -> dict:
    name = "_perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look the module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    assert module.PACKAGE == "kneser_tverberg"
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _tracing_layers()
    assert layers
    for span, (mod, attr, _) in layers.items():
        owner = getattr(kneser_tverberg, mod)
        for part in attr.split("."):  # "Class.method" is rebound on the class
            owner = getattr(owner, part)
        assert callable(owner), span


def test_geometry_holds_the_rank_a_traced_run_rebinds():
    assert geometry.rank is linalg.rank


def test_every_name_the_workloads_call_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kt"
    }
    assert "verify_avg_stable" in names
    missing = sorted(name for name in names if not hasattr(kneser_tverberg, name))
    assert missing == []
