"""Exact computer algebra for Gorenstein stable surfaces with K^2 = 1,
chi = 2: canonical-ring models, bi-double covers, fibration numerics,
gluing combinatorics, quartic implicitization and the symmetric-square
pipeline.

`StratabenchError` is the base of the errors that front ends report by
class: a polynomial that is malformed or mixes rings (a polynomial
document that does not parse among them) and a closed-form identity
that fails.  It lives here so that the CLI decides every exit code
without importing the modules that raise them.

The step budget is one protocol: `Budget(stage)` reads
STRATABENCH_STEP_BUDGET, and `Budget.spend` alone raises BudgetExceeded,
naming the stage and its steps.  It lives here so that every budgeted
module can use it without depending on the Groebner engine.  So do the
JSON type checks that the document loaders share, the exact rational
check of the parameter constructors, and `integer_terms`, the one way
rationals become the integer rows that the exact kernels work on.
"""

import os
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Tuple

__version__ = "0.1.0"

DEFAULT_STEP_BUDGET = 2_000_000


class StratabenchError(Exception):
    """Base of `poly.PolynomialError` and `s2e.IdentityError`."""


class BudgetExceeded(RuntimeError):
    """A computation exceeded its step budget."""


class BudgetSettingError(ValueError):
    """STRATABENCH_STEP_BUDGET is not a non-negative integer."""


class Budget:
    """Steps left of one stage out of `steps`, the step budget by default."""

    __slots__ = ("stage", "steps", "left")

    def __init__(self, stage: str, steps: Optional[int] = None):
        self.stage = stage
        self.steps = self.left = step_budget() if steps is None else steps

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(
                f"{self.stage}: {self.steps - self.left} steps exceed the step budget of "
                f"{self.steps}; raise STRATABENCH_STEP_BUDGET if intended")


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


def rational(value, what: str, error: type) -> Fraction:
    """`value` as a Fraction; `error` for a float, which holds a binary
    fraction rather than the decimal it was written as, or a boolean."""
    if isinstance(value, (float, bool)):
        raise error(f"{what} must be an exact rational, got {value!r:.40}")
    return Fraction(value)


def integer_terms(terms: Mapping) -> Tuple[dict, int]:
    """(row, den): the rational values of `terms` times the lcm `den` of
    their denominators, as ints under the same keys, zeros kept."""
    den = lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


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
