"""Every module-qualified hrcc name the README documents must exist.

The README names the API in backticks as ``module.name`` (`bits.rows`,
`hrcc.kernels.LANES`, `coding.conv_encode_batch`), so a rename or a
deletion in ``src`` that leaves the README behind fails here.  A name is
one of the package's modules followed by attributes, with an optional
``hrcc.`` in front, or ``hrcc.`` followed by what the package exports.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import hrcc

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(hrcc.__path__) if not m.name.startswith("_"))
NAME = re.compile(r"`(hrcc(?:\.\w+)+|(?:%s)(?:\.\w+)+)" % "|".join(MODULES))


def _resolves(dotted: str) -> bool:
    first, *attrs = dotted.removeprefix("hrcc.").split(".")
    if first in MODULES:
        obj = importlib.import_module(f"hrcc.{first}")
    elif hasattr(hrcc, first):
        obj = getattr(hrcc, first)
    else:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_module_qualified_name_in_the_readme_exists():
    names = set(NAME.findall(README.read_text(encoding="utf-8")))
    assert len(names) >= 25  # the README names more; an empty scan checks nothing
    assert sorted(name for name in names if not _resolves(name)) == []
