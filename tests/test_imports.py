"""No stratabench module uses another stratabench module's private names.

A private name starts with one underscore.  The check parses every
module under src/stratabench and flags `from .m import _x` as well as
`m._x` where `m` is bound to a sibling module or to a name imported
from one (`Polynomial._of` outside `poly`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratabench"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom) -> bool:
    module = node.module or ""
    return node.level == 1 or module == "stratabench" or module.startswith("stratabench.")


def violations(source: str):
    tree = ast.parse(source)
    imported = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("stratabench.") and alias.asname:
                    imported.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _private(node.attr)):
            found.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_checker_flags_offenders():
    source = ("from .bidouble import PLANE, _localize\n"
              "from . import bidouble, poly as polymod\n"
              "import stratabench.s2e as s\n"
              "from .poly import Polynomial as P\n"
              "def f():\n"
              "    return bidouble._KNOWN, polymod._x, s._y, bidouble.PLANE, self._z\n"
              "def g(r):\n"
              "    return PLANE._w, P._of(r, {}), P.__name__\n")
    assert violations(source) == ["line 1: imports _localize", "line 6: uses bidouble._KNOWN",
                                  "line 6: uses polymod._x", "line 6: uses s._y",
                                  "line 8: uses PLANE._w", "line 8: uses P._of"]
