"""Sparse multivariate polynomials over Q with a weighted grading.

A polynomial is a dict mapping exponent tuples (one entry per ring
variable) to nonzero Fraction coefficients.  All arithmetic is exact;
there is no floating point anywhere in this package.

The canonical term order is weight-graded reverse lexicographic: terms
are compared first by weighted degree (dot product of the exponent
vector with the ring weights), ties broken by revlex (the monomial
whose trailing exponent entries are smaller wins).  Serialisation lists
terms in descending canonical order, which makes the JSON form of a
polynomial deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import json_list

Exponent = Tuple[int, ...]


class PolynomialError(ValueError):
    """Raised on ill-formed polynomial operations (ring mismatch etc.)."""


@dataclass(frozen=True)
class WeightedRing:
    """An ordered list of variable names with positive integer weights."""

    names: Tuple[str, ...]
    weights: Tuple[int, ...]

    def __post_init__(self):
        names = tuple(self.names)
        weights = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        if len(names) != len(weights):
            raise PolynomialError("names and weights must have equal length")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise PolynomialError("variable names must be distinct and nonempty")
        if any(w < 1 for w in weights):
            raise PolynomialError("weights must be positive integers")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolynomialError(f"unknown variable {name!r}") from None

    def wdeg(self, exp: Exponent) -> int:
        return sum(e * w for e, w in zip(exp, self.weights))

    def zero(self) -> "Polynomial":
        return Polynomial._of(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._of(self, {(0,) * self.nvars: c} if c else {})

    def var(self, name: str) -> "Polynomial":
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Polynomial._of(self, {tuple(exp): Fraction(1)})

    def monomial(self, exp: Iterable[int], coeff=1) -> "Polynomial":
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise PolynomialError("bad exponent vector")
        c = Fraction(coeff)
        return Polynomial._of(self, {exp: c} if c else {})


def revlex_key(exp: Exponent) -> Tuple[int, ...]:
    """Tiebreak key: lexicographic comparison of this key realises revlex."""
    return tuple(-e for e in reversed(exp))


class Polynomial:
    """Immutable sparse polynomial attached to a WeightedRing.

    Supports +, -, *, ** with other polynomials of the same ring and
    with int/Fraction scalars.  Equality is exact equality of term maps.
    The constructor validates its input; arithmetic builds its results
    through `collect` and `_of`, which do not validate them again.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: WeightedRing, terms: Mapping[Exponent, Fraction]):
        clean: Dict[Exponent, Fraction] = {}
        for e, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(e) != ring.nvars or any(x < 0 for x in e):
                raise PolynomialError("exponent vector does not match ring")
            clean[tuple(e)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, ring: WeightedRing, terms: Dict[Exponent, Fraction]) -> "Polynomial":
        """Trusted constructor: keeps `terms` (nonzero Fractions, valid exponents) uncopied."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def variables_used(self) -> Tuple[str, ...]:
        used = [False] * self.ring.nvars
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(n for n, u in zip(self.ring.names, used) if u)

    def sorted_terms(self):
        """Terms in descending canonical (weight-graded revlex) order."""
        ring = self.ring
        return sorted(
            self.terms.items(),
            key=lambda t: (ring.wdeg(t[0]), revlex_key(t[0])),
            reverse=True,
        )

    def weighted_degree(self):
        """Common weighted degree of all terms, or "inhomogeneous".

        The zero polynomial has no degree and raises.
        """
        if not self.terms:
            raise PolynomialError("degree of zero undefined")
        degs = {self.ring.wdeg(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return "inhomogeneous"

    def is_homogeneous(self, degree=None) -> bool:
        if not self.terms:
            return True
        d = self.weighted_degree()
        if d == "inhomogeneous":
            return False
        return degree is None or d == degree

    def max_weighted_degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.ring.wdeg(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Degree in a single variable (-1 for the zero polynomial)."""
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise PolynomialError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return collect(self.ring, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return collect(self.ring, ((tuple(map(add, e1, e2)), c1 * c2)
                                   for e1, c1 in self.terms.items()
                                   for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial._of(self.ring, {e: c * v for e, v in self.terms.items()})

    # -- calculus and substitution --------------------------------------

    def differentiate(self, name: str) -> "Polynomial":
        i = self.ring.index(name)
        return collect(self.ring, ((e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                                   for e, c in self.terms.items() if e[i]))

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; images must share one target ring.

        Every variable actually occurring in self must be assigned.
        """
        used = self.variables_used()
        missing = [n for n in used if n not in assignment]
        if missing:
            raise PolynomialError(f"missing assignment for {missing}")
        targets = {p.ring for p in assignment.values() if isinstance(p, Polynomial)}
        if len(targets) > 1:
            raise PolynomialError("substitution images live in different rings")
        target = targets.pop() if targets else self.ring
        images = {}
        for n in used:
            img = assignment[n]
            if not isinstance(img, Polynomial):
                img = target.const(img)
            images[self.ring.index(n)] = img
        # cache powers per variable to keep repeated exponents cheap
        powcache: Dict[Tuple[int, int], Polynomial] = {}
        terms = []
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powcache:
                        powcache[i, k] = images[i] ** k
                    term = term * powcache[i, k]
            terms.extend(term.terms.items())
        return collect(target, terms)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a rational point; every used variable needs a value."""
        out = Fraction(0)
        idx = {self.ring.index(n): Fraction(v) for n, v in values.items()}
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i not in idx:
                    raise PolynomialError(
                        f"no value for variable {self.ring.names[i]!r}")
                t *= idx[i] ** k
            out += t
        return out

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def collect(ring: WeightedRing, pairs: Iterable[Tuple[Exponent, Fraction]]) -> Polynomial:
    """Sum (exponent, coefficient) pairs into a polynomial, dropping zeros.

    Trusted: exponents must be nonnegative int tuples of the ring's
    length and coefficients Fractions; neither is checked.
    """
    out: Dict[Exponent, Fraction] = {}
    get = out.get
    for e, c in pairs:
        prev = get(e)
        out[e] = c if prev is None else prev + c
    return Polynomial._of(ring, {e: c for e, c in out.items() if c})


def weighted_exponents(weights: Sequence[int], degree: int) -> List[Exponent]:
    """All exponent vectors of the given weighted degree, in lexicographic order."""
    partial = [((), degree)]
    for w in weights:
        partial = [(e + (k,), left - k * w)
                   for e, left in partial for k in range(left // w + 1)]
    return [e for e, left in partial if left == 0]


def scalar_ratio(p: Polynomial, q: Polynomial) -> Optional[Fraction]:
    """The c with p = c*q, or None if there is none (0 when p = 0)."""
    if p.ring != q.ring:
        raise PolynomialError("mixed rings")
    if p.is_zero():
        return Fraction(0)
    if q.is_zero():
        return None
    e, c = next(iter(q.terms.items()))
    if e not in p.terms:
        return None
    ratio = p.terms[e] / c
    return ratio if p == q.scale(ratio) else None


def rename_into(p: Polynomial, ring: WeightedRing) -> Polynomial:
    """Map p into `ring` by variable name; every variable p uses must exist there."""
    pos = [ring.index(n) if n in ring.names else None for n in p.ring.names]
    terms: Dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        out = [0] * ring.nvars
        for i, k in enumerate(e):
            if k == 0:
                continue
            if pos[i] is None:
                raise PolynomialError(
                    f"variable {p.ring.names[i]!r} does not exist in target ring")
            out[pos[i]] = k
        terms[tuple(out)] = c
    return Polynomial._of(ring, terms)


# -- JSON form --------------------------------------------------------------


def fraction_to_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def to_json(p: Polynomial) -> dict:
    """Canonical JSON form: terms in descending canonical order."""
    return {
        "vars": list(p.ring.names),
        "weights": list(p.ring.weights),
        "terms": [
            {"c": fraction_to_str(c), "e": list(e)} for e, c in p.sorted_terms()
        ],
    }


def from_json(doc: dict, ring: WeightedRing | None = None) -> Polynomial:
    """Raises TypeError for a ring of the wrong JSON type and
    PolynomialError for a term that does not parse; a coefficient is a
    string or an integer, never a float, which would read inexactly."""
    doc_ring = WeightedRing(json_list(doc["vars"], "vars", str),
                            json_list(doc["weights"], "weights", int))
    if ring is None:
        ring = doc_ring
    elif ring != doc_ring:
        raise PolynomialError("JSON ring does not match the supplied ring")
    terms: Dict[Exponent, Fraction] = {}
    for t in doc["terms"]:
        try:
            if type(t["c"]) not in (str, int):
                raise TypeError
            e, c = json_list(t["e"], "an exponent vector", int), fraction_from_str(t["c"])
        except (TypeError, ValueError, ZeroDivisionError):
            raise PolynomialError(f"malformed JSON term {t!r}") from None
        if e in terms:
            raise PolynomialError("duplicate exponent vector in JSON terms")
        terms[e] = c
    return Polynomial(ring, terms)
