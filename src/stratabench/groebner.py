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

The bookkeeping is kept cheap without changing the algorithm.  Inside
a computation each monomial is one int (`_Packing`), packed at entry
and unpacked at exit:

- the int holds fields of a fixed width: per block of the order the
  block's weighted degree d, then d minus the running sum of the
  exponents from the block's last variable back, and below them the
  exponents themselves.  Every field is a linear form with non-negative
  coefficients, because weights are at least 1, so the int of a product
  is the sum of the ints, a shift x^(m-lm) is m - lm, and comparing ints
  compares order keys (`MonomialOrder.key` is the specification);
- the reduction heap holds negated ints, the work dict, the divisor
  cache and the S-pair queue are keyed by them, and `update` computes
  each lcm once per basis element, from the unpacked exponents;
- the top bit of every field is a guard, clear in every monomial.  a
  divides b exactly when every field of b is at least a's, that is when
  (b with all guards set) - a keeps all guards set: no borrow crosses a
  field there;
- fields are sized from the inputs' degrees with room to spare.  A sum
  of two monomials whose guards are clear carries into no other field,
  so a monomial that no longer fits shows as a set guard bit when it is
  first stored.  The computation then raises `_Overflow` and runs again
  from the start with fields twice as wide and a fresh budget, so no
  field ever wraps;
- a `GroebnerBasis` from `buchberger` keeps its packing and its rows, so
  `normal_form` against it packs only its input;
- each computation also remembers, per monomial, the index of the first
  leading monomial that divides it, or how many it checked on a miss.
  Divisors are only ever appended, so a hit never changes and a miss
  rescans only the divisors added since: the divisor found is the first
  one in the list, as a full scan would find;
- the remainder of a reduction lists its leading term first;
- the next S-pair comes off a heap of (lcm, i, j), with entries of
  pairs the criteria have dropped skipped when popped, so ties still
  break on (i, j) and the pairs are processed in the same sequence as a
  scan for the minimum would give.

Every computation is budgeted: a step counter aborts with
BudgetExceeded instead of hanging on an unexpectedly hard input.  The
STRATABENCH_STEP_BUDGET environment variable overrides the default
budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
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


class _Overflow(Exception):
    """A packed monomial reached the guard bit of one of its fields."""


class _Packing:
    """The monomials of one ring under one order, each as one int.

    Fields of `width` bits, the most significant first:

    - per block of the order (all variables for weighted revlex; the
      eliminated, then the kept ones for a block order), the block's
      weighted degree d, then d - e_last, d - e_last - e_(last-1), ...
      down to the block's second variable;
    - then the exponents e_(n-1), ..., e_0 themselves.

    Every field is a linear form in the exponents with non-negative
    coefficients (weights are at least 1), so packing is additive and
    the packed product is the sum.  Comparing ints compares the order
    fields first, lexicographically, which is comparing the order keys:
    equal degree fields then d - e_last decides revlex, and the block's
    first exponent follows from the others.  The top bit of each field
    is a guard that stays clear while the field fits.
    """

    __slots__ = ("order", "weights", "width", "coeffs", "guard", "mask")

    def __init__(self, order: MonomialOrder, weights: Sequence[int], width: int):
        n = len(weights)
        s = min(order.split, n) if order.kind == "block-elimination" else n
        # the n order fields, then e_(n-1), ..., e_0 at the bottom
        unit = [1 << width * (2 * n - 1 - k) for k in range(n)]
        coeffs = []
        for lo, hi in ((0, s), (s, n)):
            block = sum(unit[lo:hi])
            for i in range(lo, hi):
                # w_i in every field of the block but those from d - e_last
                # down to d - e_last - ... - e_i, where it is w_i - 1
                coeffs.append(weights[i] * block - sum(unit[lo + hi - i:hi]) + (1 << width * i))
        self.order, self.weights, self.width = order, tuple(weights), width
        self.coeffs = tuple(coeffs)
        self.mask = (1 << width) - 1
        self.guard = ((1 << 2 * n * width) - 1) // self.mask << width - 1

    @classmethod
    def fitting(cls, order: MonomialOrder, ring: WeightedRing,
                polys: Sequence[Polynomial]) -> "_Packing":
        return cls(order, ring.weights, _width(ring, polys))

    def pack(self, e: Exponent) -> int:
        return sum(map(mul, e, self.coeffs))

    def unpack(self, m: int) -> Exponent:
        w, mask = self.width, self.mask
        return tuple(m >> w * i & mask for i in range(len(self.coeffs)))

    def divides(self, a: int, b: int) -> bool:
        """Does monomial a divide monomial b?  Each field of (b with its
        guards set) - a keeps its guard exactly when b's field is at
        least a's, and no borrow crosses a field."""
        g = self.guard
        return (b | g) - a & g == g


def _width(ring: WeightedRing, polys: Sequence[Polynomial]) -> int:
    """A field width with room to spare for every term of `polys`: no
    field of a monomial exceeds its weighted degree."""
    bound = max((ring.wdeg(e) for p in polys for e in p.terms), default=0)
    return max(8, bound.bit_length() + 2)


def _widening(run, packing: _Packing):
    """run(packing), again with fields twice as wide each time a packed
    monomial overflows, so no field ever wraps."""
    while True:
        try:
            return run(packing)
        except _Overflow:
            packing = _Packing(packing.order, packing.weights, 2 * packing.width)


def leading_monomial(p: Polynomial, order: MonomialOrder = GREVLEX) -> Exponent:
    if p.is_zero():
        raise PolynomialError("zero polynomial has no leading monomial")
    return max(p.terms, key=_Packing.fitting(order, p.ring, (p,)).pack)


def monic(p: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    if p.is_zero():
        return p
    return p.scale(1 / p.terms[leading_monomial(p, order)])


Row = Tuple[int, int, List[Tuple[int, int]]]


def _row(terms: Dict[int, int], lm: int) -> Row:
    """A nonzero integer term dict as a primitive row: its leading monomial,
    its leading coefficient made positive, and its other terms, all
    divided by the gcd of the coefficients taken with the sign of the
    leading one."""
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return lm, terms[lm] // g, [(e, c // g) for e, c in terms.items() if e != lm]


def _integer_terms(p: Polynomial, packing: _Packing) -> Tuple[Dict[int, int], int]:
    """The terms of p, packed, times the lcm `den` of their denominators,
    and `den`."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    pack = packing.pack
    return {pack(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


def _rows(polys: Sequence[Polynomial], packing: _Packing) -> List[Row]:
    out = []
    for p in polys:
        terms, _ = _integer_terms(p, packing)
        out.append(_row(terms, max(terms)))
    return out


class _Divisors(dict):
    """The rows a computation reduces by, and for each monomial met the
    index of the first row whose leading monomial divides it.

    A miss is stored as ~n, n the number of rows checked.  `rows` is
    only ever appended to, so a hit never changes and a miss rescans only
    the rows appended since; the index found is the one a scan of the
    whole list from the start would find.
    """

    __slots__ = ("rows", "guard")

    def __init__(self, rows: List[Row], guard: int):
        super().__init__()
        self.rows = rows
        self.guard = guard

    def first(self, m: int) -> Optional[int]:
        k = self.get(m, -1)
        if k >= 0:
            return k
        rows, g = self.rows, self.guard
        mg = m | g
        for k in range(~k, len(rows)):
            if mg - rows[k][0] & g == g:  # _Packing.divides(lm, m)
                self[m] = k
                return k
        self[m] = ~len(rows)
        return None


def _reduce(
    work: Dict[int, int],
    divisors: _Divisors,
    budget: Budget,
) -> Tuple[Dict[int, int], int]:
    """Full remainder of a packed integer term dict modulo primitive rows.

    A term c*x^m whose first divisor is the row (lm, lc, tail) turns
    `work` into a*work - b*x^(m-lm)*row with a = lc/g, b = c/g and
    g = gcd(c, lc), which cancels the term without leaving the integers.
    Returns (r, s): r is s times the remainder over Q, where s is the
    product of the factors a.  Terms leave the heap of negated monomials
    largest first, so the first key of r is its leading monomial.  `work`
    is consumed.  Raises _Overflow when a monomial met overflows a field.
    """
    rows, first, guard = divisors.rows, divisors.first, divisors.guard
    if any(m & guard for m in work):
        raise _Overflow
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop, heappush, get = heapq.heappop, heapq.heappush, work.get
    left: List[Tuple[int, int, int]] = []  # (m, c, scale when m was left)
    scale = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        k = first(m)
        if k is None:
            left.append((m, c, scale))
            continue
        budget.spend()
        lm, lc, tail = rows[k]
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            scale *= a
            for e in work:
                work[e] *= a
        c //= g
        shift = m - lm
        for ge, gc in tail:
            e = ge + shift
            prev = get(e)
            if prev is None:
                if e & guard:
                    raise _Overflow
                work[e] = -c * gc
                heappush(heap, -e)
                continue
            s = prev - c * gc
            if s:
                work[e] = s
            else:
                del work[e]
    return {m: c * (scale // s) for m, c, s in left}, scale


def normal_form(p: Polynomial, basis, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Remainder of multivariate division of p by a basis.

    When `basis` is a GroebnerBasis the remainder is the unique normal
    form, so `normal_form(p, gb) == 0` decides ideal membership; the
    basis then brings its packed rows along and only p is packed.
    """
    packed = None
    if isinstance(basis, GroebnerBasis):
        gens = basis.generators
        if order in (None, basis.order):
            packed = basis._packed
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

    def run(packing: _Packing) -> Polynomial:
        b = Budget("normal_form", step_budget())
        rows = packed[1] if packed and packed[0] is packing else _rows(gens, packing)
        work, den = _integer_terms(p, packing)
        r, scale = _reduce(work, _Divisors(rows, packing.guard), b)
        den *= scale
        unpack = packing.unpack
        return collect(ring, ((unpack(m), Fraction(c, den)) for m, c in r.items()))

    width = _width(ring, [p])
    if packed and packed[0].width >= width:
        start = packed[0]
    else:
        start = _Packing(order, ring.weights, max(width, _width(ring, gens)))
    return _widening(run, start)


@dataclass(frozen=True)
class GroebnerBasis:
    generators: Tuple[Polynomial, ...]
    order: MonomialOrder
    reduced_flag: bool = True
    # (packing, primitive integer rows of the generators in their order),
    # set by `buchberger` so that `normal_form` need not convert the basis
    _packed: Optional[Tuple[_Packing, List[Row]]] = field(
        default=None, init=False, repr=False, compare=False)

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

    def run(packing: _Packing) -> GroebnerBasis:
        rows = _buchberger_rows(gens, packing)
        unpack = packing.unpack
        gb = GroebnerBasis(tuple(
            collect(ring, ((unpack(m), Fraction(c, lc)) for m, c in [(lm, lc)] + tail))
            for lm, lc, tail in rows), order, True)
        object.__setattr__(gb, "_packed", (packing, rows))
        return gb

    return _widening(run, _Packing.fitting(order, ring, gens))


def _buchberger_rows(gens: Sequence[Polynomial], packing: _Packing) -> List[Row]:
    """The reduced Groebner basis of (gens) as primitive rows, largest
    leading monomial first."""
    b = Budget("buchberger", step_budget())
    guard, coeffs, unpack = packing.guard, packing.coeffs, packing.unpack

    G: List[Row] = []
    lmG: List[Exponent] = []  # the leading monomials of G, unpacked, for lcms
    divisors = _Divisors(G, guard)
    pairs: Dict[Tuple[int, int], int] = {}  # live pair -> lcm of its leading monomials
    queue: List[Tuple[int, int, int]] = []  # (lcm, i, j); entries of dropped pairs are stale

    def update(f: Row):
        """Gebauer-Moeller update of the pair set with the new basis element."""
        lmf = f[0]
        ef = unpack(lmf)
        n = len(G)
        lcms = [sum(map(mul, map(max, e, ef), coeffs)) for e in lmG]
        if any(L & guard for L in lcms):
            raise _Overflow
        kept = {}
        for (i, j), lij in pairs.items():
            # keep unless lm(f) divides the lcm and both lcms with lm(f) differ from it
            if ((lij | guard) - lmf & guard != guard
                    or lij == lcms[i]
                    or lij == lcms[j]):
                kept[i, j] = lij
        new_lcms: Dict[int, List[int]] = {}
        for i, L in enumerate(lcms):
            new_lcms.setdefault(L, []).append(i)
        minimal: List[int] = []
        for L in sorted(new_lcms):
            Lg = L | guard
            if all(Lg - M & guard != guard for M in minimal):
                minimal.append(L)
        for L in minimal:
            # coprime criterion: drop the pair if some representative is coprime
            if any(L == G[i][0] + lmf for i in new_lcms[L]):
                continue
            i = new_lcms[L][0]
            kept[i, n] = L
            heapq.heappush(queue, (L, i, n))
        G.append(f)
        lmG.append(ef)
        pairs.clear()
        pairs.update(kept)

    for row in sorted(_rows(gens, packing), key=lambda row: row[0]):
        update(row)

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
        shift_i, shift_j = L - lm_i, L - lm_j
        work = {e + shift_i: f_i * c for e, c in tail_i}
        for e, c in tail_j:
            m = e + shift_j
            s = work.get(m, 0) - f_j * c
            if s:
                work[m] = s
            else:
                del work[m]
        r, _ = _reduce(work, divisors, b)
        if r:
            update(_row(r, next(iter(r))))

    # minimalise, smallest leading monomial first
    minimal_idx: List[int] = []
    for k in sorted(range(len(G)), key=lambda k: G[k][0]):
        if all(not packing.divides(G[m][0], G[k][0]) for m in minimal_idx):
            minimal_idx.append(k)
    # interreduce; no other leading monomial divides G[k]'s, so it stays
    # leading, and the remainder's row is the reduced element's
    reduced: List[Row] = []
    for k in minimal_idx:
        others = [G[m] for m in minimal_idx if m != k]
        lm, lc, tail = G[k]
        work = {lm: lc}
        work.update(tail)
        r, _ = _reduce(work, _Divisors(others, guard), b)
        reduced.append(_row(r, lm))
    reduced.sort(key=lambda row: row[0], reverse=True)
    return reduced


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial of f and g; used by the self-checking tests."""
    if f.ring != g.ring:
        raise PolynomialError("mixed rings")
    lmf, lmg = leading_monomial(f, order), leading_monomial(g, order)
    L = tuple(map(max, lmf, lmg))
    mf = f.ring.monomial(tuple(map(sub, L, lmf)), 1 / f.terms[lmf])
    mg = f.ring.monomial(tuple(map(sub, L, lmg)), 1 / g.terms[lmg])
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
    # every monomial met has at most f's degree, so the fitting fields hold
    packing = _Packing.fitting(GREVLEX, ring, (f, g))
    pack = packing.pack
    terms = [(pack(e), c) for e, c in g.terms.items()]
    lm, lc = max(terms)
    work = {pack(e): c for e, c in f.terms.items()}
    quot: Dict[int, Fraction] = {}
    while work:
        m = max(work)
        c = work[m]
        if not packing.divides(lm, m):
            raise PolynomialError("not an exact division")
        shift = m - lm
        q = c / lc
        quot[shift] = quot.get(shift, 0) + q
        for ge, gc in terms:
            e = ge + shift
            s = work.get(e, 0) - q * gc
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return Polynomial(ring, {packing.unpack(m): q for m, q in quot.items()})


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
    packing, rows = gb._packed
    lms = [packing.unpack(lm) for lm, _, _ in rows]
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
