"""The functions the benchmark's tracer rebinds must exist on their modules.

``perfbench/spans.py`` wraps each ``LAYERS`` entry by module attribute, so
a deleted or renamed function would break a traced benchmark run.  The
benchmark's own tests sit outside the tier-1 test paths; this one reads
the table from that file without changing it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
