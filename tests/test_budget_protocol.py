"""Every step budget is charged and refused through `stratabench.Budget`.

The check parses every module under src/stratabench and flags:

- a call that constructs `BudgetExceeded` outside `stratabench/__init__.py`,
  where `Budget.spend` is the one place that raises it;
- a call of `step_budget` outside `__init__` and `s2e`, whose packing
  reads the budget once for all its normal forms;
- a `Budget(...)` whose stage is not a string literal starting with the
  module's own name and a dot, such as "linalg.rref".

README must name every stage the code uses, since that is the name an
over-budget run prints.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stratabench"

STAGES = {"groebner.buchberger", "groebner.normal_form", "linalg.rref", "s2e.normal_form",
          "canring.hilbert_series", "gluing.enumerate"}


def _called(node: ast.Call) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _calls(source: str):
    """The calls in `source`, in source order."""
    return sorted((node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)),
                  key=lambda node: (node.lineno, node.col_offset))


def violations(source: str, module: str):
    found = []
    for node in _calls(source):
        name = _called(node)
        if name == "BudgetExceeded" and module != "__init__":
            found.append(f"line {node.lineno}: constructs BudgetExceeded")
        elif name == "step_budget" and module not in ("__init__", "s2e"):
            found.append(f"line {node.lineno}: calls step_budget")
        elif name == "Budget":
            stage = node.args[0] if node.args else None
            if not (isinstance(stage, ast.Constant) and isinstance(stage.value, str)):
                found.append(f"line {node.lineno}: Budget stage is not a string literal")
            elif not stage.value.startswith(f"{module}."):
                found.append(f"line {node.lineno}: Budget stage {stage.value!r} "
                             f"is not in {module}")
    return found


def stages(source: str):
    return {node.args[0].value for node in _calls(source)
            if _called(node) == "Budget" and node.args
            and isinstance(node.args[0], ast.Constant)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_budget_goes_through_one_protocol(path):
    assert violations(path.read_text(encoding="utf-8"), path.stem) == []


def test_readme_names_every_stage():
    used = set().union(*(stages(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    assert used == STAGES
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(s for s in used if f"`{s}`" not in readme) == []


def test_checker_flags_offenders():
    source = ("from . import Budget, BudgetExceeded, step_budget\n"
              "import stratabench\n"
              "def f(n, stage):\n"
              "    if n > step_budget():\n"
              "        raise BudgetExceeded('over')\n"
              "    raise stratabench.BudgetExceeded('over')\n"
              "def g(n, stage):\n"
              "    Budget('linalg.rref').spend(n)\n"
              "    Budget('gluing.enumerate', 5).spend(n)\n"
              "    Budget('rref')\n"
              "    Budget(stage)\n"
              "    stratabench.Budget('linalg.x', stratabench.step_budget())\n")
    assert violations(source, "gluing") == [
        "line 4: calls step_budget", "line 5: constructs BudgetExceeded",
        "line 6: constructs BudgetExceeded",
        "line 8: Budget stage 'linalg.rref' is not in gluing",
        "line 10: Budget stage 'rref' is not in gluing",
        "line 11: Budget stage is not a string literal",
        "line 12: Budget stage 'linalg.x' is not in gluing",
        "line 12: calls step_budget"]
    # the package root raises it, and s2e reads the budget once per packing
    assert violations(source, "__init__") == [
        "line 8: Budget stage 'linalg.rref' is not in __init__",
        "line 9: Budget stage 'gluing.enumerate' is not in __init__",
        "line 10: Budget stage 'rref' is not in __init__",
        "line 11: Budget stage is not a string literal",
        "line 12: Budget stage 'linalg.x' is not in __init__"]
    assert not any("step_budget" in v for v in violations(source, "s2e"))
    assert stages(source) == {"linalg.rref", "gluing.enumerate", "rref", "linalg.x"}
