"""Only ``bits`` states the type and integer rules of hrcc's arguments.

``bits.check_type``, ``check_int`` and ``check_collection`` raise every
TypeError for a wrongly typed argument, with one message shape that names
it, and ``check_int`` is the one ``operator.index`` call.  A module that
raised its own TypeError or called ``operator.index`` itself would state a
second rule, which could drift from the first.  The test parses
``src/hrcc/*.py`` with ``ast`` and runs none of it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hrcc"


def _own_rules(path: Path) -> set[tuple[str, int, str]]:
    """(module, line, what) for each ``raise TypeError`` and ``operator.index`` in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "TypeError":
                found.add((path.stem, node.lineno, "raise TypeError"))
        elif (isinstance(node, ast.Attribute) and node.attr == "index"
              and getattr(node.value, "id", None) == "operator"):
            found.add((path.stem, node.lineno, "operator.index"))
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            found.add((path.stem, node.lineno, "from operator import"))
    return found


def test_only_bits_raises_type_errors_and_calls_operator_index():
    found = set().union(*(_own_rules(path) for path in sorted(SRC.glob("*.py"))))
    assert {rule for rule in found if rule[0] != "bits"} == set()
    # The scan sees the helpers' own rules; it would pass vacuously if it did not.
    assert {what for module, _, what in found} == {"raise TypeError", "operator.index"}
