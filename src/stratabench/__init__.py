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
check of the parameter constructors, `bounded_rational`, the one digit
bound on rationals read from flags and documents, and `integer_terms`,
the one way rationals become the integer rows that the exact kernels
work on.
"""

import os
import re
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Tuple, Union

__version__ = "0.1.0"

DEFAULT_STEP_BUDGET = 2_000_000

# digits of a numerator or a denominator read from text or an integer
MAX_DIGITS = 100
_BOUND = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


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
    fraction rather than the decimal it was written as, a boolean, or a
    string or an int over the bound of `bounded_rational`."""
    if isinstance(value, (float, bool)):
        raise error(f"{what} must be an exact rational, got {value!r:.40}")
    if not isinstance(value, (str, int)):
        return Fraction(value)
    q = bounded_rational(value)
    if q is None:
        raise error(f"{what} has at most {MAX_DIGITS} digits in its numerator and its "
                    f"denominator, got {value!r:.60}")
    return q


def bounded_rational(value: Union[str, int]) -> Optional[Fraction]:
    """`value`, a string or an int, as a Fraction; None when its numerator
    or its denominator has more than MAX_DIGITS digits.

    The step budget does not count coefficient size, so this bound keeps
    the time of what is read from outside in check.  Fraction("1e<n>")
    builds 10**n first, so a five-digit exponent is refused unparsed: it
    puts any nonzero value over the bound, since at most 4300 digits are
    read each side of the point.  ValueError or ZeroDivisionError for a
    string that is not a rational."""
    if isinstance(value, str) and ("e" in value or "E" in value):
        exponent = _EXPONENT.search(value)
        if exponent and len(exponent[1].replace("_", "").lstrip("+-0")) > 4:
            return None
    q = Fraction(value)
    return q if -_BOUND < q.numerator < _BOUND and q.denominator < _BOUND else None


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
