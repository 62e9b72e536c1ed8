"""Only ``bits`` states the argument and array rules of hrcc.

``bits.check_type``, ``check_int`` and ``check_collection`` raise every
TypeError for a wrongly typed argument, with one message shape that names
it, and ``check_int`` is the one ``operator.index`` call.  A module that
raised its own TypeError or called ``operator.index`` itself would state a
second rule, which could drift from the first.  The array rules are
``bits.rows`` for the shape of a batch and of a single block,
``binary_uint8`` for bits (the compiled kernels report a bad bit by a
status code, which they raise with ``bits.NOT_BINARY``) and ``finite``
for soft values; their messages appear in no other module.  The tests
parse ``src/hrcc/*.py`` with ``ast`` and run none of it.
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


# The messages of the array rules: bits, soft values, a batch's shape and a single block's.
ARRAY_MESSAGES = ("bit block may only contain 0 and 1", "soft values must be finite",
                  "one row per frame; got shape", "one 1-D block of")


def _array_messages(path: Path) -> set[tuple[str, int, str]]:
    """(module, line, message) for each string literal in ``path`` holding an array rule's
    message, f-string parts included."""
    return {(path.stem, node.lineno, message) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for message in ARRAY_MESSAGES if message in node.value}


def test_only_bits_states_the_array_rules():
    found = set().union(*(_array_messages(path) for path in sorted(SRC.glob("*.py"))))
    assert {rule for rule in found if rule[0] != "bits"} == set()
    assert {message for _, _, message in found} == set(ARRAY_MESSAGES)  # not vacuous
