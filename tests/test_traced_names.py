"""Every name the benchmark's traced run looks up still exists.

`perfbench/run.py --trace 1` reads the span of each function listed in
`perfbench/layers.json` and patches the class methods listed in
`perfbench/tracer.py`.  A deleted or renamed name would end that run in
a KeyError, so it is caught here.  Both files are only read.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_methods() -> dict:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no METHODS")


def test_traced_functions_exist():
    layers = json.loads((PERFBENCH / "layers.json").read_text(encoding="utf-8"))["layers"]
    methods = _tracer_methods()
    missing = []
    for layer, row in layers.items():
        mod = importlib.import_module(f"stratabench.{layer}")
        for name in row["functions"]:
            owner, _, attr = name.rpartition(".")
            if owner:
                if attr not in methods.get((layer, owner), ()):
                    missing.append(f"{layer}.{name}")
                continue
            fn = vars(mod).get(name)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                missing.append(f"{layer}.{name}")
    assert not missing


def test_traced_methods_exist():
    methods = _tracer_methods()
    missing = []
    for (layer, cls_name), attrs in methods.items():
        cls = vars(importlib.import_module(f"stratabench.{layer}")).get(cls_name)
        for attr in attrs:
            if cls is None or attr not in cls.__dict__:
                missing.append(f"{layer}.{cls_name}.{attr}")
    from stratabench.poly import Polynomial
    if "__init__" not in Polynomial.__dict__:
        missing.append("poly.Polynomial.__init__")
    assert not missing
