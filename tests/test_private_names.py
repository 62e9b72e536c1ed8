"""No hrcc module reads another hrcc module's private names.

A leading underscore marks a name that its module may change or delete
without notice, so a read from another module ties the two together.
The test parses ``src/hrcc/*.py`` with ``ast`` and runs none of it.  One
read is allowed: ``cli`` batches ``roundtrip`` by
``simulation._CHUNK_FRAMES``, a name the benchmark reads too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hrcc"
ALLOWED = {("cli", "simulation", "_CHUNK_FRAMES")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: Path) -> set[tuple[str, str, str]]:
    """(reader, module, name) for each private name ``path`` takes from another hrcc module."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> the hrcc module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "hrcc":
            continue
        for alias in node.names:
            if module in ("", "hrcc"):  # from . import coding
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):  # from .coding import _name
                reads.add((path.stem, module.split(".")[-1], alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and getattr(node.value, "id", None) in modules):
            reads.add((path.stem, modules[node.value.id], node.attr))
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = set().union(*(_private_reads(path) for path in sorted(SRC.glob("*.py"))))
    assert reads - ALLOWED == set()
    assert ALLOWED <= reads  # the scan sees the allowed read; drop it once no module needs it
