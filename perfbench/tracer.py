"""Span recorder for the benchmark's traced run.

``Tracer.instrument()`` wraps the public functions of every stratabench
module, plus the arithmetic of ``Polynomial`` and the public methods of
``s2e.Context``, from outside the program: every binding the program
calls through is replaced, including names imported into other modules
(``implicitize.eliminate``, ``canring.poly_gcd``), entries of module
level dicts (``cli.HANDLERS``) and class aliases (``Polynomial.__radd__``).
``restore()`` puts the originals back; instrumenting again reuses the
same wrappers, so spans accumulate across instrumented stretches.

Each call records a span (name, start, end, parent span, job id) in
flat arrays that stay in memory until ``write()``.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

LAYERS = ("poly", "groebner", "linalg", "s2e", "implicitize",
          "canring", "bidouble", "fibration", "gluing", "cli")

# Per-monomial helpers: a span per call would cost more than the work.
UNTRACED = {"poly.revlex_key", "poly.fraction_to_str", "poly.fraction_from_str"}

METHODS = {
    ("poly", "Polynomial"): ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                             "__rmul__", "__neg__", "__pow__", "scale", "differentiate",
                             "substitute", "evaluate"),
    ("s2e", "Context"): ("normal_form", "nf_mul", "swap_factors", "bidegree",
                         "t_generators", "s_elements"),
}

Measure = Callable[[Counter, tuple, object], None]


def _terms_out(counter: Counter, args: tuple, result) -> None:
    counter["poly.mul.terms_out"] += len(getattr(result, "terms", ()))


def _basis_size(counter: Counter, args: tuple, result) -> None:
    counter["groebner.buchberger.basis_size"] += len(result)


def _rref(counter: Counter, args: tuple, result) -> None:
    M = args[0]
    counter["linalg.rref.entries"] += len(M) * (len(M[0]) if M else 0)
    counter["linalg.rref.pivots"] += len(result[1])


def _normal_form(counter: Counter, args: tuple, result) -> None:
    counter["s2e.Context.normal_form.terms_in"] += len(args[1].terms)
    counter["s2e.Context.normal_form.terms_out"] += len(result.terms)


def _orbits(counter: Counter, args: tuple, result) -> None:
    counter["gluing.enumerate_gluings.orbits"] += len(result)


def _chi_pass(counter: Counter, args: tuple, result) -> None:
    counter["gluing.chi_check.passes"] += bool(result["holds"])


MEASURES: Dict[str, Measure] = {
    "poly.Polynomial.__mul__": _terms_out,
    "poly.Polynomial.__rmul__": _terms_out,
    "groebner.buchberger": _basis_size,
    "linalg.rref": _rref,
    "s2e.Context.normal_form": _normal_form,
    "gluing.enumerate_gluings": _orbits,
    "gluing.chi_check": _chi_pass,
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._undo: List[Callable[[], None]] = []
        self._wrappers: Dict[str, Callable] = {}

    # -- recording -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, measure: Optional[Measure] = None) -> Callable:
        """The recording wrapper of `fn`, made once per span name."""
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.job.append(tr.job_id)
            tr.end.append(0)
            tr.error.append(0)
            tr._stack.append(idx)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.error[idx] = 1
                raise
            finally:
                tr.end[idx] = perf_counter_ns()
                tr._stack.pop()
            if measure is not None:
                measure(tr.counters, args, result)
            return result

        self._wrappers[name] = traced
        return traced

    def _count_init(self, cls) -> None:
        init, counter = cls.__init__, self.counters

        def counted(*args, **kwargs):
            counter["poly.init.calls"] += 1
            return init(*args, **kwargs)

        self._set(cls, "__init__", counted)

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def instrument(self) -> None:
        modules = {layer: importlib.import_module(f"stratabench.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                full = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and full not in UNTRACED):
                    wrappers[fn] = self.wrap(fn, full, MEASURES.get(full))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, name, wrappers[value])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
                            self._undo.append(
                                lambda d=value, k=key, v=item: d.__setitem__(k, v))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                full = f"{layer}.{cls_name}.{attr}"
                self._set(cls, attr, self.wrap(cls.__dict__[attr], full, MEASURES.get(full)))
        self._count_init(modules["poly"].Polynomial)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """calls, self_ms and errors per span name (every wrapped name listed)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        errors = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            errors[nid] += self.error[i]
        return {name: {"calls": calls[k], "self_ms": self_ns[k] / 1e6, "errors": errors[k]}
                for k, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as flat little-endian arrays after a one-line JSON header."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name_id", "i"], ["parent", "i"], ["job", "i"],
                             ["start_ns", "q"], ["end_ns", "q"], ["error", "b"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.job, self.start, self.end, self.error):
                arr.tofile(fh)
