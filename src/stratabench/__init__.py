"""Exact computer algebra for Gorenstein stable surfaces with K^2 = 1,
chi = 2: canonical-ring models, bi-double covers, fibration numerics,
gluing combinatorics, quartic implicitization and the symmetric-square
pipeline.

The step budget bounds the Groebner engine, the row updates of exact
RREF and gluing enumeration.  It lives here so that linear algebra and
gluing can consult it without depending on the Groebner engine.  So do
the JSON type checks that the document loaders share.
"""

import os
from typing import Optional

__version__ = "0.1.0"

DEFAULT_STEP_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """A computation exceeded its step budget."""


class BudgetSettingError(ValueError):
    """STRATABENCH_STEP_BUDGET is not a non-negative integer."""


class Budget:
    """Steps left of one computation; `spend` raises once they run out."""

    __slots__ = ("stage", "steps", "left")

    def __init__(self, stage: str, steps: int):
        self.stage, self.steps, self.left = stage, steps, steps

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(
                f"{self.stage}: spent the step budget of {self.steps}; "
                f"raise STRATABENCH_STEP_BUDGET if intended")


def step_budget() -> int:
    env = os.environ.get("STRATABENCH_STEP_BUDGET")
    if not env:
        return DEFAULT_STEP_BUDGET
    if not env.strip().isdecimal():
        raise BudgetSettingError(
            f"STRATABENCH_STEP_BUDGET must be a non-negative integer, got {env!r}")
    return int(env)


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; TypeError for anything else,
    a boolean or a float included."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r:.40}")
    return value


def json_list(value, what: str, kind: Optional[type] = None,
              length: Optional[int] = None) -> tuple:
    """`value` as a tuple if it is a JSON list, of `length` items when that
    is given, each of type `kind` when that is given; TypeError otherwise."""
    if (type(value) is not list or length not in (None, len(value))
            or kind is not None and any(type(v) is not kind for v in value)):
        shape = "".join((f" {length}" if length is not None else "",
                         f" {kind.__name__}" if kind is not None else ""))
        raise TypeError(f"{what} must be a list of{shape} items, got {value!r:.40}")
    return tuple(value)
