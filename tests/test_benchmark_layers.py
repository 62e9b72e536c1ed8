"""Every hrcc name the benchmark uses must exist.

``perfbench/spans.py`` wraps each ``LAYERS`` entry by module attribute, so
a deleted or renamed function would break a traced benchmark run; the
workloads call hrcc through module attributes and imported names too.  The
benchmark's own tests sit outside the tier-1 test paths.  The first test
here runs ``spans.py`` to read its table; the second parses every
benchmark file with ``ast`` without running it.  Neither changes them.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_layer_is_a_callable_attribute_of_its_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file runs; and the
    # benchmark's directory gets no bytecode cache from this test.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    layers = spans.LAYERS
    assert layers
    missing = [
        f"hrcc.{module_name}.{func}"
        for module_name, funcs in layers.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"hrcc.{module_name}"), func, None))
    ]
    assert not missing


def _hrcc_names(source: str) -> set[tuple[str, ...]]:
    """Each ``from hrcc... import y`` as (module, y), and each ``y.attr`` read as (module, y, attr)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "hrcc"
        for alias in node.names
    }
    names = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
            names.add((*imported[node.value.id], node.attr))
    return names


def _exists(module: str, *attrs: str) -> bool:
    """Whether the chain of ``attrs`` resolves from ``module``; the first may be a submodule."""
    try:
        obj, attrs = importlib.import_module(f"{module}.{attrs[0]}"), attrs[1:]
    except ModuleNotFoundError:
        obj = importlib.import_module(module)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_hrcc_name_the_benchmark_uses_exists():
    used = {
        (path.name, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for name in _hrcc_names(path.read_text())
    }
    assert len(used) > 40  # workloads.py alone uses more; an empty scan checks nothing
    missing = sorted(f"{file}: {'.'.join(name)}" for file, name in used if not _exists(*name))
    assert not missing
