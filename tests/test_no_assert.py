"""No stratabench module uses an `assert` statement.

`python -O` strips assert statements, so a check written as one does
not run there; a library check raises its module's error instead.  The
check parses every module under src/stratabench, so an `assert` inside
a string or a comment does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratabench"


def asserts(source: str):
    return [f"line {node.lineno}: assert" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.stem)
def test_no_assert_in_library(path):
    assert asserts(path.read_text(encoding="utf-8")) == []


def test_assert_checker_flags_offenders():
    source = ("def f(x):\n"
              "    assert x > 0, 'x must be positive'\n"
              "    note = 'assert x'  # assert x\n"
              "    if x:\n"
              "        assert x\n"
              "    return note\n")
    assert asserts(source) == ["line 2: assert", "line 5: assert"]
