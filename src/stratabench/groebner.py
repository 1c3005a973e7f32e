"""Groebner bases, normal forms, elimination, resultants and gcd over Q.

Buchberger's algorithm with the Gebauer-Moeller refinements of the two
classical pair-pruning criteria (coprime leading monomials, chain
criterion) and normal selection (minimal lcm in the term order).  The
workloads in this package stay below eight variables and total degree
about twelve, for which this implementation is entirely adequate.

Reduction runs on integers, fraction-free in the spirit of Bareiss
(Math. Comp. 1968), as `linalg.rref` does:

- inside `buchberger` every basis element is a primitive integer row:
  its leading monomial, its leading coefficient (made positive) and its
  other terms, divided by the gcd of all coefficients;
- the S-polynomial of rows i and j is (lc_j/g)*x^(L-lm_i)*row_i -
  (lc_i/g)*x^(L-lm_j)*row_j with g = gcd(lc_i, lc_j), a positive
  multiple of the S-polynomial of the monic elements;
- one kernel, `_reduce`, cancels a term c*x^e by the row (lm, lc) as
  work <- (lc/g)*work - (c/g)*x^(e-lm)*row with g = gcd(c, lc), so no
  Fraction is built in its loop, and it reports the product of the
  factors lc/g it applied;
- each nonzero remainder is divided by its content before it joins the
  basis, so the integers stay small;
- only the interreduction at the end divides by leading coefficients,
  which makes the reduced basis monic over Q; `normal_form` clears the
  denominators of its input and divides the remainder by that lcm times
  the kernel's factor, so its answer stays exact.

Every integer step is a positive multiple of the step over Q, so each
intermediate polynomial has the same terms as before and only its scale
differs.  A term therefore meets the same divisor, and pair selection,
the criteria and the step count are those of the rational algorithm.

The bookkeeping is kept cheap without changing the algorithm:

- each computation (`buchberger`, `normal_form`, `exact_divide`) builds
  each monomial's order key once, in a dict from exponent to negated
  key that lives only for that call;
- each computation also remembers, per monomial, the index of the first
  leading monomial that divides it, or how many it checked on a miss.
  Divisors are only ever appended, so a hit never changes and a miss
  rescans only the divisors added since: the divisor found is the first
  one in the list, as a full scan would find;
- the remainder of a reduction lists its leading term first;
- the next S-pair comes off a heap of (order key of the lcm, i, j), with
  entries of pairs the criteria have dropped skipped when popped, so
  ties still break on (i, j) and the pairs are processed in the same
  sequence as a scan for the minimum would give.

Every computation is budgeted: a step counter aborts with
BudgetExceeded instead of hanging on an unexpectedly hard input.  The
STRATABENCH_STEP_BUDGET environment variable overrides the default
budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from . import Budget, BudgetExceeded, step_budget
from .forms import determinant, sylvester
from .poly import (Exponent, Polynomial, PolynomialError, WeightedRing, collect,
                   rename_into, revlex_key)

@dataclass(frozen=True)
class MonomialOrder:
    """Weight-graded revlex, or a block elimination order.

    For a block order the first `split` ring variables form the
    eliminated block: any monomial containing one of them is larger
    than every monomial in the remaining variables alone.
    """

    kind: str = "weighted-graded-revlex"
    split: int = 0

    def __post_init__(self):
        if self.kind not in ("weighted-graded-revlex", "block-elimination"):
            raise PolynomialError(f"unknown order kind {self.kind!r}")
        if self.kind == "block-elimination" and self.split < 1:
            raise PolynomialError("block order needs a positive split")

    def key(self, exp: Exponent, weights: Sequence[int]):
        if self.kind == "weighted-graded-revlex":
            d = sum(e * w for e, w in zip(exp, weights))
            return (d,) + revlex_key(exp)
        s = self.split
        e1, e2 = exp[:s], exp[s:]
        d1 = sum(e * w for e, w in zip(e1, weights[:s]))
        d2 = sum(e * w for e, w in zip(e2, weights[s:]))
        return (d1,) + revlex_key(e1) + (d2,) + revlex_key(e2)


GREVLEX = MonomialOrder()


class _Keys(dict):
    """Exponent -> negated order key, filled on first lookup.

    One instance lives for one computation, so each monomial's key is
    built once; the negation makes the smallest key the largest monomial.
    """

    __slots__ = ("order", "weights")

    def __init__(self, order: MonomialOrder, weights: Sequence[int]):
        super().__init__()
        self.order = order
        self.weights = weights

    def __missing__(self, e: Exponent):
        k = self[e] = tuple(-x for x in self.order.key(e, self.weights))
        return k


def _leading(p: Polynomial, keys: _Keys) -> Tuple[Exponent, Fraction]:
    e = min(p.terms, key=keys.__getitem__)
    return e, p.terms[e]


def leading_monomial(p: Polynomial, order: MonomialOrder = GREVLEX) -> Exponent:
    if p.is_zero():
        raise PolynomialError("zero polynomial has no leading monomial")
    return _leading(p, _Keys(order, p.ring.weights))[0]


def monic(p: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    if p.is_zero():
        return p
    _, c = _leading(p, _Keys(order, p.ring.weights))
    return p.scale(1 / c)


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _mul_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


Row = Tuple[Exponent, int, List[Tuple[Exponent, int]]]


def _row(terms: Dict[Exponent, int], lm: Exponent) -> Row:
    """A nonzero integer term dict as a primitive row: its leading monomial,
    its leading coefficient made positive, and its other terms, all
    divided by the gcd of the coefficients taken with the sign of the
    leading one."""
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return lm, terms[lm] // g, [(e, c // g) for e, c in terms.items() if e != lm]


def _integer_terms(p: Polynomial) -> Tuple[Dict[Exponent, int], int]:
    """The terms of p times the lcm `den` of their denominators, and `den`."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


class _Divisors(dict):
    """The rows a computation reduces by, and for each exponent met the
    index of the first row whose leading monomial divides it.

    A miss is stored as ~n, n the number of rows checked.  `rows` is
    only ever appended to, so a hit never changes and a miss rescans only
    the rows appended since; the index found is the one a scan of the
    whole list from the start would find.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: List[Row]):
        super().__init__()
        self.rows = rows

    def first(self, e: Exponent) -> Optional[int]:
        k = self.get(e, -1)
        if k >= 0:
            return k
        rows = self.rows
        for k in range(~k, len(rows)):
            if all(map(le, rows[k][0], e)):
                self[e] = k
                return k
        self[e] = ~len(rows)
        return None


def _reduce(
    work: Dict[Exponent, int],
    divisors: _Divisors,
    keys: _Keys,
    budget: Budget,
) -> Tuple[Dict[Exponent, int], int]:
    """Full remainder of an integer term dict modulo primitive rows.

    A term c*x^e whose first divisor is the row (lm, lc, tail) turns
    `work` into a*work - b*x^(e-lm)*row with a = lc/g, b = c/g and
    g = gcd(c, lc), which cancels the term without leaving the integers.
    Returns (r, s): r is s times the remainder over Q, where s is the
    product of the factors a.  Terms leave the heap largest first, so the
    first key of r is its leading monomial.  `work` is consumed.
    """
    rows, first = divisors.rows, divisors.first
    heap = [(keys[e], e) for e in work]
    heapq.heapify(heap)
    left: List[Tuple[Exponent, int, int]] = []  # (e, c, scale when e was left)
    scale = 1
    while heap:
        _, e = heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        k = first(e)
        if k is None:
            left.append((e, c, scale))
            continue
        budget.spend()
        lm, lc, tail = rows[k]
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            scale *= a
            for m in work:
                work[m] *= a
        c //= g
        shift = _sub(e, lm)
        for ge, gc in tail:
            m = tuple(map(add, ge, shift))
            prev = work.get(m)
            if prev is None:
                work[m] = -c * gc
                heapq.heappush(heap, (keys[m], m))
                continue
            s = prev - c * gc
            if s:
                work[m] = s
            else:
                del work[m]
    return {e: c * (scale // s) for e, c, s in left}, scale


def normal_form(p: Polynomial, basis, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Remainder of multivariate division of p by a basis.

    When `basis` is a GroebnerBasis the remainder is the unique normal
    form, so `normal_form(p, gb) == 0` decides ideal membership.
    """
    if isinstance(basis, GroebnerBasis):
        gens = basis.generators
        order = basis.order if order is None else order
    else:
        gens = list(basis)
        order = order or GREVLEX
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return p
    ring = p.ring
    if any(g.ring != ring for g in gens):
        raise PolynomialError("mixed rings")
    b = Budget("normal_form", step_budget())
    keys = _Keys(order, ring.weights)
    rows = [_row(_integer_terms(g)[0], _leading(g, keys)[0]) for g in gens]
    work, den = _integer_terms(p)
    r, scale = _reduce(work, _Divisors(rows), keys, b)
    den *= scale
    return collect(ring, ((e, Fraction(c, den)) for e, c in r.items()))


@dataclass(frozen=True)
class GroebnerBasis:
    generators: Tuple[Polynomial, ...]
    order: MonomialOrder
    reduced_flag: bool = True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero()


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of (gens), deterministic for fixed input."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise PolynomialError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise PolynomialError("mixed rings")
    w = ring.weights
    b = Budget("buchberger", step_budget())
    keys = _Keys(order, w)

    G: List[Row] = []
    lmG: List[Exponent] = []
    divisors = _Divisors(G)
    pairs: Dict[Tuple[int, int], Exponent] = {}  # live pair -> lcm of its leading monomials
    queue: List[tuple] = []  # (order key of the lcm, i, j); entries of dropped pairs are stale

    def update(f: Row):
        """Gebauer-Moeller update of the pair set with the new basis element."""
        lmf = f[0]
        n = len(G)
        kept = {}
        for (i, j), lij in pairs.items():
            if (not _divides(lmf, lij)
                    or lij == _lcm(lmG[i], lmf)
                    or lij == _lcm(lmG[j], lmf)):
                kept[i, j] = lij
        new_lcms: Dict[Exponent, List[int]] = {}
        for i in range(n):
            new_lcms.setdefault(_lcm(lmG[i], lmf), []).append(i)
        minimal: List[Exponent] = []
        for L in sorted(new_lcms, key=keys.__getitem__, reverse=True):
            if all(not _divides(M, L) for M in minimal):
                minimal.append(L)
        for L in minimal:
            # coprime criterion: drop the pair if some representative is coprime
            if any(_lcm(lmG[i], lmf) == _mul_exp(lmG[i], lmf) for i in new_lcms[L]):
                continue
            i = min(new_lcms[L])
            kept[i, n] = L
            heapq.heappush(queue, (order.key(L, w), i, n))
        G.append(f)
        lmG.append(lmf)
        pairs.clear()
        pairs.update(kept)

    leads = [(_leading(g, keys)[0], g) for g in gens]
    for lm, g in sorted(leads, key=lambda t: keys[t[0]], reverse=True):
        update(_row(_integer_terms(g)[0], lm))

    while pairs:
        b.spend()
        _, i, j = heapq.heappop(queue)
        while (i, j) not in pairs:
            _, i, j = heapq.heappop(queue)
        L = pairs.pop((i, j))
        lm_i, lc_i, tail_i = G[i]
        lm_j, lc_j, tail_j = G[j]
        # (lc_j/g)*x^(L-lm_i)*G[i] - (lc_i/g)*x^(L-lm_j)*G[j]; the terms at L cancel
        g = gcd(lc_i, lc_j)
        f_i, f_j = lc_j // g, lc_i // g
        shift_i, shift_j = _sub(L, lm_i), _sub(L, lm_j)
        work = {_mul_exp(e, shift_i): f_i * c for e, c in tail_i}
        for e, c in tail_j:
            m = _mul_exp(e, shift_j)
            s = work.get(m, 0) - f_j * c
            if s:
                work[m] = s
            else:
                del work[m]
        r, _ = _reduce(work, divisors, keys, b)
        if r:
            update(_row(r, next(iter(r))))

    # minimalise
    idx = sorted(range(len(G)), key=lambda k: keys[lmG[k]], reverse=True)
    minimal_idx: List[int] = []
    for k in idx:
        if all(not _divides(lmG[m], lmG[k]) for m in minimal_idx):
            minimal_idx.append(k)
    # interreduce; no other leading monomial divides lmG[k], so it stays
    # leading, and dividing by its coefficient makes the element monic
    reduced: List[Tuple[Exponent, Polynomial]] = []
    for k in minimal_idx:
        others = [G[m] for m in minimal_idx if m != k]
        lm, lc, tail = G[k]
        work = {lm: lc}
        work.update(tail)
        r, _ = _reduce(work, _Divisors(others), keys, b)
        lead = r[lm]
        reduced.append((lm, collect(ring, ((e, Fraction(c, lead)) for e, c in r.items()))))
    reduced.sort(key=lambda t: keys[t[0]])
    return GroebnerBasis(tuple(g for _, g in reduced), order, True)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial of f and g; used by the self-checking tests."""
    if f.ring != g.ring:
        raise PolynomialError("mixed rings")
    keys = _Keys(order, f.ring.weights)
    lmf, lcf = _leading(f, keys)
    lmg, lcg = _leading(g, keys)
    L = _lcm(lmf, lmg)
    mf = f.ring.monomial(_sub(L, lmf), 1 / lcf)
    mg = f.ring.monomial(_sub(L, lmg), 1 / lcg)
    return mf * f - mg * g


# -- elimination -------------------------------------------------------------


def _restrict_ring(ring: WeightedRing, names: Sequence[str]) -> WeightedRing:
    return WeightedRing(tuple(names), tuple(ring.weights[ring.index(n)] for n in names))


def eliminate(gens: Sequence[Polynomial], drop_vars) -> List[Polynomial]:
    """Generators of (gens) intersected with the subring without drop_vars.

    Computed via a block elimination order with the dropped variables in
    front; the result lives in the kept-variable subring.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    drop = set(drop_vars)
    unknown = drop - set(ring.names)
    if unknown:
        raise PolynomialError(f"unknown variables {sorted(unknown)}")
    keep = [n for n in ring.names if n not in drop]
    if not keep:
        raise PolynomialError("cannot drop every variable")
    ordered = [n for n in ring.names if n in drop] + keep
    work_ring = _restrict_ring(ring, ordered)
    order = MonomialOrder("block-elimination", split=len(drop))
    gb = buchberger([rename_into(g, work_ring) for g in gens], order)
    keep_ring = _restrict_ring(ring, keep)
    out = []
    for g in gb:
        if all(n not in drop for n in g.variables_used()):
            out.append(rename_into(g, keep_ring))
    return out


# -- gcd via ideal intersection ----------------------------------------------


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g, raising if g does not divide f exactly."""
    if g.is_zero():
        raise PolynomialError("division by zero polynomial")
    ring = f.ring
    keys = _Keys(GREVLEX, ring.weights)
    lm, lc = _leading(g, keys)
    work = dict(f.terms)
    quot: Dict[Exponent, Fraction] = {}
    while work:
        e = min(work, key=keys.__getitem__)
        c = work[e]
        if not _divides(lm, e):
            raise PolynomialError("not an exact division")
        shift = _sub(e, lm)
        q = c / lc
        quot[shift] = quot.get(shift, 0) + q
        for ge, gc in g.terms.items():
            m = _mul_exp(ge, shift)
            s = work.get(m, 0) - q * gc
            if s:
                work[m] = s
            else:
                work.pop(m, None)
    return Polynomial(ring, quot)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd, via lcm computed from the intersection (f) ∩ (g).

    The intersection uses the classical tag construction: eliminate T
    from (T*f, (1-T)*g).  For principal ideals the reduced basis of the
    intersection is the single monic lcm, and gcd = f*g / lcm.
    """
    if f.is_zero() or g.is_zero():
        raise PolynomialError("gcd of zero polynomial undefined")
    ring = f.ring
    if g.ring != ring:
        raise PolynomialError("mixed rings")
    tag = "T#"
    while tag in ring.names:
        tag += "#"
    big = WeightedRing((tag,) + ring.names, (1,) + ring.weights)
    fb = rename_into(f, big)
    gb_ = rename_into(g, big)
    T = big.var(tag)
    inter = eliminate([T * fb, (big.one() - T) * gb_], {tag})
    inter = [q for q in inter if not q.is_zero()]
    if len(inter) != 1:
        raise PolynomialError(
            f"intersection of principal ideals not principal ({len(inter)} generators)")
    lcm = rename_into(inter[0], ring)
    return monic(exact_divide(f * g, lcm))


# -- projective emptiness ----------------------------------------------------


def projective_empty(gens: Sequence[Polynomial]) -> bool:
    """Is the projective zero set over C of homogeneous gens empty?

    True iff the quotient by the ideal is a finite-dimensional vector
    space, i.e. every variable has a pure power among the leading
    monomials of the reduced basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    ring = gens[0].ring
    if any(w != 1 for w in ring.weights):
        raise PolynomialError("projective test expects an all-weights-1 ring")
    for g in gens:
        if g.weighted_degree() == "inhomogeneous":
            raise PolynomialError("projective test expects homogeneous generators")
    gb = buchberger(gens, GREVLEX)
    keys = _Keys(gb.order, ring.weights)
    lms = [_leading(g, keys)[0] for g in gb]
    for i in range(ring.nvars):
        if not any(all(e[j] == 0 for j in range(ring.nvars) if j != i) and e[i] > 0
                   for e in lms):
            return False
    return True


# -- resultants --------------------------------------------------------------


def coefficients_in(p: Polynomial, name: str) -> List[Polynomial]:
    """Coefficients [c_0, ..., c_d] of p viewed as a polynomial in `name`."""
    i = p.ring.index(name)
    d = p.degree_in(name)
    if d < 0:
        return []
    buckets: List[list] = [[] for _ in range(d + 1)]
    for e, c in p.terms.items():
        buckets[e[i]].append((e[:i] + (0,) + e[i + 1:], c))
    return [collect(p.ring, b) for b in buckets]


def resultant(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Sylvester resultant of f and g with respect to one variable."""
    if f.ring != g.ring:
        raise PolynomialError("mixed rings")
    cf = coefficients_in(f, name)
    cg = coefficients_in(g, name)
    m, n = len(cf) - 1, len(cg) - 1
    if m < 1 or n < 1:
        raise PolynomialError(f"both inputs need positive degree in {name!r}")
    zero = f.ring.zero()
    return determinant(sylvester(cf, cg, zero), zero, f.ring.one(), exact_divide)
