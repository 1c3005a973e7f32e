"""Invariant section rings on the symmetric square of an elliptic curve.

The ambient object is Q[z1,x1,y1,z2,x2,y2] modulo the two Weierstrass
relations y_i^2 = x_i^3 + a*x_i*z_i^4 + b*z_i^6.  That quotient is a
free module with basis {1,y1} x {1,y2} over the z,x-subring, so every
element has a unique y-reduced normal form and all the ring-theoretic
questions in this module become exact linear algebra on normal-form
coordinates; no Groebner machinery is needed or used here.

Conventions.  Per factor the variables z,x,y carry degrees 1,2,3; an
element of the m-th graded piece of the invariant ring has bidegree
(m,m).  The factor swap sigma exchanges the two variable groups.  The
gluing parameters alpha, beta can be rational numbers or, in symbolic
mode, two extra ring variables (degree 0 for the bidegree bookkeeping).

Everything between the t-generators and the report runs on integer
rows (see `_Packing`): the weighted rescaling z_i -> lam*z_i with
lam = lcm(den a, den b) is a ring isomorphism onto the curve with
integral coefficients lam^4*a and lam^6*b, so rewriting y_i^2 there
never brings in a denominator.  Every row is the image of its
polynomial, so a kernel vector of a system of rows holds the
coefficients of the polynomials themselves.  The s-elements, the two
identities and the theorem search are (row, den) pairs built from
closed forms with the normal-form kernel as the only product; alpha and
beta are rows like any other, constants or ring variables.  Polynomials
appear only at the library boundary: the t-generators are packed from
them, and what a caller gets back is unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import Budget, StratabenchError, integer_terms, linalg, rational, step_budget
from .poly import Polynomial, WeightedRing, collect, to_json, weighted_exponents

GEOM_VARS = ("z1", "x1", "y1", "z2", "x2", "y2")
FACTOR1_WEIGHTS = (1, 2, 3, 0, 0, 0)
FACTOR2_WEIGHTS = (0, 0, 0, 1, 2, 3)

NUMERIC_RING = WeightedRing(GEOM_VARS, (1, 2, 3, 1, 2, 3))
SYMBOLIC_RING = WeightedRing(GEOM_VARS + ("al", "be"), (1, 2, 3, 1, 2, 3, 1, 1))

# a row maps packed monomials to nonzero int coefficients
Row = Dict[int, int]
# (row, den): the element whose image under z_i -> lam*z_i is row/den
Elem = Tuple[Row, int]


class S2EError(ValueError):
    pass


@dataclass(frozen=True)
class WeierstrassParams:
    """Coefficients of y^2 = x^3 + a*x*z^4 + b*z^6 with nonzero discriminant."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a, "a", S2EError))
        object.__setattr__(self, "b", rational(self.b, "b", S2EError))
        if 4 * self.a ** 3 + 27 * self.b ** 2 == 0:
            raise S2EError("singular Weierstrass equation: 4a^3 + 27b^2 = 0")


@dataclass(frozen=True)
class GluingParams:
    """The (alpha, beta) of the conductor section; generic means both nonzero."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha, "alpha", S2EError))
        object.__setattr__(self, "beta", rational(self.beta, "beta", S2EError))
        if self.alpha == 0 and self.beta == 0:
            raise S2EError("(alpha, beta) must not both vanish")

    @property
    def generic(self) -> bool:
        return self.alpha != 0 and self.beta != 0


class _Packing:
    """A context's monomials as ints, and the normal-form kernel on rows.

    A packed monomial holds the exponents in fields of `width` bits, the
    first ring variable most significant, so integer order is exponent
    tuple order and the product of monomials is the sum of their ints.
    No exponent of a term exceeds its weighted degree, and rewriting
    y_i^2 keeps each term's bidegree, so a width that holds the largest
    weighted degree of the input holds every monomial the kernel makes.

    A row here stands for its image under z_i -> lam*z_i: the curve there
    has the integral coefficients A = lam^4*a and B = lam^6*b.

    The step budget is read when the packing is made; each normal form
    may form that many term products.
    """

    __slots__ = ("ring", "lam", "A", "B", "width", "mask", "units", "shifts",
                 "ymask", "high", "factor2", "steps", "_rhs")

    def __init__(self, ring: WeightedRing, params: WeierstrassParams, width: int):
        a, b = params.a, params.b
        lam = lcm(a.denominator, b.denominator)
        self.ring, self.lam, self.width = ring, lam, width
        self.steps = step_budget()
        self.A = a.numerator * (lam ** 4 // a.denominator)
        self.B = b.numerator * (lam ** 6 // b.denominator)
        n = ring.nvars
        self.mask = (1 << width) - 1
        self.shifts = tuple(width * (n - 1 - i) for i in range(n))
        self.units = tuple(1 << s for s in self.shifts)
        y1, y2 = self.shifts[2], self.shifts[5]
        self.ymask = self.mask << y1 | self.mask << y2
        # the bits of a y-field that are set only when its exponent is at least 2
        self.high = self.ymask ^ (1 << y1 | 1 << y2)
        self.factor2 = sum(self.mask << s for s in self.shifts[3:6])
        # y-part of a monomial -> its rewrite, a y-free row times y1^r1*y2^r2
        self._rhs: Dict[int, Row] = {}

    def pack_exponent(self, e: Sequence[int]) -> int:
        return sum(map(mul, e, self.units))

    def pack(self, p: Polynomial) -> Tuple[Row, int]:
        """(row, den) with row/den the image of p under z_i -> lam*z_i."""
        if p.ring != self.ring:
            raise S2EError("polynomial from a different context")
        row, den = integer_terms(p.terms)
        lam, units = self.lam, self.units
        return {sum(map(mul, e, units)): c * lam ** (e[0] + e[3]) for e, c in row.items()}, den

    def unpack(self, row: Mapping[int, int], den: int = 1) -> Polynomial:
        """The polynomial whose image under z_i -> lam*z_i is row/den."""
        shifts, mask, lam = self.shifts, self.mask, self.lam
        out = []
        for m, c in row.items():
            e = tuple(m >> s & mask for s in shifts)
            out.append((e, Fraction(c, den * lam ** (e[0] + e[3]))))
        return collect(self.ring, out)

    def reduce(self, row: Row, by: Optional[Row] = None) -> Row:
        """The normal form of row*by (of row alone by default), multiplied
        and reduced in one pass; an already reduced row comes back as is.

        y1^(2*k1+r1) * y2^(2*k2+r2) becomes y1^r1 * y2^r2 * rhs1^k1 * rhs2^k2;
        rhs1 and rhs2 are y-free, so one pass leaves every y-exponent at most 1.
        A call with more term products than the step budget is refused
        before the first, under the stage "s2e.normal_form".
        """
        if by is None:
            if not any(m & self.high for m in row):
                return row
            by = {0: 1}
        steps = len(row) * len(by)
        if steps > self.steps:
            Budget("s2e.normal_form", self.steps).spend(steps)  # raises BudgetExceeded
        ymask, rhs = self.ymask, self._rhs
        out: Row = {}
        get = out.get
        for m1, c1 in row.items():
            for m2, c2 in by.items():
                m = m1 + m2
                y = m & ymask
                rewrite = rhs.get(y) or self._rewrite(y)
                m -= y
                c = c1 * c2
                for d, k in rewrite.items():
                    t = m + d
                    out[t] = get(t, 0) + c * k
        return {m: c for m, c in out.items() if c}

    def mul(self, p: Elem, q: Elem) -> Elem:
        """The normal form of the product of two (row, den) elements."""
        return self.reduce(p[0], q[0]), p[1] * q[1]

    def _rewrite(self, y: int) -> Row:
        """What the y-part y = y1^(2*k1+r1) * y2^(2*k2+r2) rewrites to; cached."""
        mask, sh = self.mask, self.shifts
        k1, r1 = divmod(y >> sh[2] & mask, 2)
        k2, r2 = divmod(y >> sh[5] & mask, 2)
        rest = r1 * self.units[2] + r2 * self.units[5]
        p2 = self._rhs_power(k2, 3)
        row = self._rhs[y] = {rest + m1 + m2: c1 * c2
                              for m1, c1 in self._rhs_power(k1, 0).items()
                              for m2, c2 in p2.items()}
        return row

    def _rhs_power(self, k: int, first: int) -> Row:
        """(x^3 + A*x*z^4 + B*z^6)^k in the factor whose z is variable
        `first`, by the multinomial theorem over (x^3)^i (A*x*z^4)^j (B*z^6)^l."""
        z, x = self.units[first], self.units[first + 1]
        A, B = self.A, self.B
        out: Row = {}
        for j in range(k + 1):
            for l in range(k - j + 1):
                c = comb(k, j) * comb(k - j, l) * A ** j * B ** l
                m = (3 * (k - j - l) + j) * x + (4 * j + 6 * l) * z
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}


class Context:
    """Weierstrass data plus the choice of numeric or symbolic gluing."""

    def __init__(self, params: WeierstrassParams,
                 glue: Optional[GluingParams] = None, symbolic: bool = False):
        self.params = params
        self.glue = glue
        self.symbolic = symbolic
        self.ring = SYMBOLIC_RING if symbolic else NUMERIC_RING
        R = self.ring
        if symbolic:
            self.alpha = R.var("al")
            self.beta = R.var("be")
        elif glue is not None:
            self.alpha = R.const(glue.alpha)
            self.beta = R.const(glue.beta)
        else:
            self.alpha = self.beta = None
        # field width -> packing, made on first use
        self._packings: Dict[int, _Packing] = {}
        # t_generators, s_elements and check_identities, built on first use
        self._t = self._s = self._identities = None

    @cached_property
    def rhs1(self) -> Polynomial:
        """What y1^2 rewrites to."""
        R, a, b = self.ring, self.params.a, self.params.b
        x1, z1 = R.var("x1"), R.var("z1")
        return x1 ** 3 + x1 * z1 ** 4 * a + z1 ** 6 * b

    @cached_property
    def rhs2(self) -> Polynomial:
        """What y2^2 rewrites to."""
        return self.swap_factors(self.rhs1)

    def _packing(self, bound: int) -> _Packing:
        """The packing whose fields hold every exponent up to `bound`."""
        width = max(8, bound.bit_length())
        packing = self._packings.get(width)
        if packing is None:
            packing = self._packings[width] = _Packing(self.ring, self.params, width)
        return packing

    # -- normal form -----------------------------------------------------

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Unique representative with y-exponents at most 1."""
        P = self._packing(p.max_weighted_degree())
        row, den = P.pack(p)
        out = P.reduce(row)
        # already reduced, and the normal form is unique
        return p if out is row else P.unpack(out, den)

    def nf_mul(self, p: Polynomial, q: Polynomial) -> Polynomial:
        P = self._packing(p.max_weighted_degree() + q.max_weighted_degree())
        (rp, dp), (rq, dq) = P.pack(p), P.pack(q)
        return P.unpack(P.reduce(rp, rq), dp * dq)

    def swap_factors(self, p: Polynomial) -> Polynomial:
        """The involution sigma exchanging the two elliptic-curve factors."""
        return collect(self.ring, ((e[3:6] + e[:3] + e[6:], c) for e, c in p.terms.items()))

    def bidegree(self, p: Polynomial):
        """Per-factor weighted degrees (d1, d2); parameters count zero."""
        if p.is_zero():
            raise S2EError("bidegree of zero undefined")
        w1 = FACTOR1_WEIGHTS + (0,) * (self.ring.nvars - 6)
        w2 = FACTOR2_WEIGHTS + (0,) * (self.ring.nvars - 6)
        ds = {(sum(a * w for a, w in zip(e, w1)),
               sum(a * w for a, w in zip(e, w2))) for e in p.terms}
        if len(ds) > 1:
            return "inhomogeneous"
        return ds.pop()

    # -- generators --------------------------------------------------------

    def t_generators(self) -> Tuple[Polynomial, ...]:
        """The seven invariant generators t0..t6 of the section ring."""
        if self._t is not None:
            return self._t
        R = self.ring
        z1, x1, y1 = R.var("z1"), R.var("x1"), R.var("y1")
        z2, x2, y2 = R.var("z2"), R.var("x2"), R.var("y2")
        t0 = z1 * z2
        t1 = x1 * x2
        t2 = z1 ** 2 * x2 + x1 * z2 ** 2
        t3 = y1 * y2
        t4 = z1 * x1 * y2 + y1 * z2 * x2
        t5 = z1 ** 3 * y2 + y1 * z2 ** 3
        t6 = z1 * y1 * x2 ** 2 + x1 ** 2 * z2 * y2
        self._t = (t0, t1, t2, t3, t4, t5, t6)
        return self._t

    @cached_property
    def _elements(self) -> "_Elements":
        """t0..t5, s0..s4, l1 and l2 as rows; built once per context."""
        if self.alpha is None:
            raise S2EError("gluing parameters required")
        return _Elements(self)

    def s_elements(self) -> dict:
        """s0..s4 and the two degree-4 conductor elements l1, l2 (see
        `_closed_forms`), unpacked once from the context's rows; every
        call returns a fresh dict."""
        if self._s is None:
            E = self._elements
            self._s = {k: E.P.unpack(*E.rows[k]) for k in S_NAMES}
        return dict(self._s)


# -- elements as rows ------------------------------------------------------------

# A packing for this bound holds every element built below: weighted
# degree 12 in the curve variables and at most 8 in alpha, beta.
ELEMENT_DEGREE = 20
S_NAMES = ("s0", "s1", "s2", "s3", "s4", "l1", "l2")


def _lin(terms: Iterable[Tuple[Fraction, Elem]]) -> Elem:
    """sum(c * row/den) over the pairs (c, (row, den)), c an int or a
    Fraction, as one (row, den)."""
    terms = [(c, row, den * c.denominator) for c, (row, den) in terms if c]
    den = lcm(*(d for _, _, d in terms))
    out: Row = {}
    get = out.get
    for c, row, d in terms:
        f = c.numerator * (den // d)
        for m, v in row.items():
            out[m] = get(m, 0) + f * v
    return {m: v for m, v in out.items() if v}, den


def _ratio(p: Elem, q: Elem) -> Optional[Fraction]:
    """The c with p = c*q, or None if there is none (0 when p = 0)."""
    (rp, dp), (rq, dq) = p, q
    if not rp:
        return Fraction(0)
    m = next(iter(rq), None)
    if m not in rp:
        return None
    c = Fraction(rp[m] * dq, rq[m] * dp)
    return None if _lin([(1, p), (-c, q)])[0] else c


class _Products:
    """Products of the elements `gens`, each normal form built once, from
    one generator times a stored product of lower degree.  A product is
    named by the sorted tuple of its factors' indices; () is 1."""

    def __init__(self, P: _Packing, gens: Sequence[Elem]):
        self.P, self.gens = P, gens
        self._built: Dict[tuple, Elem] = {(): ({0: 1}, 1)}
        self._built.update(((k,), g) for k, g in enumerate(gens))

    def __getitem__(self, key: tuple) -> Elem:
        elem = self._built.get(key)
        if elem is None:
            elem = self._built[key] = self.P.mul(self.gens[key[0]], self[key[1:]])
        return elem


def _closed_forms(a, b) -> dict:
    """Each closed form as a pattern {ab: {g: c}}, the sum of c * ab * g
    over its entries: ab is a product of alpha, beta (indices 0, 1) and g
    a product of the generators it is evaluated at, each written as the
    string of its factors' indices ("" is 1), and c is an int or a
    Fraction in a, b.

    s0..s4, l1 and l2 in t0..t5 (indices 0..5):
      s0 = t0,  s1 = al*t1 + be*t2,  s4 = al*t4 + be*t5,
      s2 = al*be*2b*t0^2 + be^2*(t1 - a*t0^2) + al^2*(b*t2 + a*t1),
      s3 = al^3*(b^2*t0^3 + a*b*t0*t2 + a^2*t0*t1 - b*t3) + al^2*be*(3b*t0*t1 + a*t3)
           + al*be^2*3b*t0*t2 + be^3*(b*t0^3 - a*t0*t2 + t3),
      l1 = al*(b*t0^4 - t1*t2 - t0*t3) + be*(t0^2*t1 - a*t0^4 - t2^2),
      l2 = al*(a*t0^2*t1 + b*t0^2*t2 - t1^2) + be*(b*t0^4 - t1*t2 + t0*t3).
    The coefficients are pinned by the requirements that l1, l2 vanish on
    the conductor curve, that s1, s2, s3 restrict there to A*B, B^2, B^3
    for suitable generators A, B of the quotient ring of the conductor,
    and by the two exact identities checked in check_identities.  (Swapping
    the roles of t1 and t2 in every formula produces a second family that
    satisfies the same two identities but fails the vanishing requirement;
    the convention here is the geometrically consistent one.)

    The left sides of the two identities of check_identities, in s0..s4, l1,
    l2 and t0 (indices 0..7):
      identity I  = s0^2*s2 - s1^2 - be*l1 - al*l2,
      identity II = s1*s2 + al^2*(b*l1 + a*l2) + be^2*l2 - t0*s3.

    The parts of the two defining relations of the canonical model, in
    W = x^2, y1, y2 (indices 0..2); x has weight 1 and y1, y2 weight 2,
    so these parts of weight 6 and 2 hold x in even powers only:
      b1 = -(b^2 W^3 + a b W^2 y1 + b y1^3 + a^2 W^2 y2 - 3b W y1 y2
             + a y1^2 y2 - 2a W y2^2 + y2^3),
      a2 = -2(be^2 W + al be y1 + al^2 y2),
      b2 = -(be^2 (2b W^3 + a W^2 y1 + y1^3 - 3 W y1 y2)
             + al be (2b W^2 y1 + 4a W^2 y2 + 2 y1^2 y2 - 4 W y2^2)
             + al^2 (b W y1^2 - 2b W^2 y2 + a W y1 y2 + y1 y2^2)).
    """
    return {
        "s0": {"": {"0": 1}},
        "s1": {"0": {"1": 1}, "1": {"2": 1}},
        "s2": {"01": {"00": 2 * b}, "11": {"1": 1, "00": -a},
               "00": {"2": b, "1": a}},
        "s3": {"000": {"000": b * b, "02": a * b, "01": a * a, "3": -b},
               "001": {"01": 3 * b, "3": a},
               "011": {"02": 3 * b},
               "111": {"000": b, "02": -a, "3": 1}},
        "s4": {"0": {"4": 1}, "1": {"5": 1}},
        "l1": {"0": {"0000": b, "12": -1, "03": -1},
               "1": {"001": 1, "0000": -a, "22": -1}},
        "l2": {"0": {"001": a, "002": b, "11": -1},
               "1": {"0000": b, "12": -1, "03": 1}},
        "identity I": {"": {"002": 1, "11": -1}, "1": {"5": -1}, "0": {"6": -1}},
        "identity II": {"": {"12": 1, "37": -1}, "00": {"5": b, "6": a}, "11": {"6": 1}},
        "b1": {"": {"000": -b * b, "001": -a * b, "111": -b, "002": -a * a,
                    "012": 3 * b, "112": -a, "022": 2 * a, "222": -1}},
        "a2": {"11": {"0": -2}, "01": {"1": -2}, "00": {"2": -2}},
        "b2": {"11": {"000": -2 * b, "001": -a, "111": -1, "012": 3},
               "01": {"001": -2 * b, "002": -4 * a, "112": -2, "022": 4},
               "00": {"011": -b, "002": 2 * b, "012": -a, "122": -1}},
    }


class _Elements:
    """A context's t0..t5, s0..s4, l1 and l2 as (row, den) pairs on one
    packing, with the closed forms and the products of alpha and beta
    they were built from."""

    def __init__(self, ctx: Context):
        P = self.P = ctx._packing(ELEMENT_DEGREE)
        self.forms = _closed_forms(ctx.params.a, ctx.params.b)
        self.ab = _Products(P, (P.pack(ctx.alpha), P.pack(ctx.beta)))
        t = _Products(P, [P.pack(g) for g in ctx.t_generators()[:6]])
        self.rows = {f"t{k}": g for k, g in enumerate(t.gens)}
        self.rows.update((k, self.evaluate(k, t)) for k in S_NAMES)

    def evaluate(self, name: str, gens: _Products) -> Elem:
        """The closed form `name` at the generators of `gens`."""
        parts = []
        for ab, terms in self.forms[name].items():
            part = _lin((c, gens[tuple(map(int, g))]) for g, c in terms.items())
            parts.append((1, self.P.mul(self.ab[tuple(map(int, ab))], part) if ab else part))
        return _lin(parts)


# -- single-factor monomial basis --------------------------------------------


def factor_basis(m: int) -> List[Tuple[int, int, int]]:
    """Exponents (i,j,k) with i+2j+3k = m and k <= 1: a basis of the
    degree-m piece of one Weierstrass section ring.  Has m elements."""
    return sorted(e for e in weighted_exponents((1, 2, 3), m) if e[2] <= 1)


def invariant_basis(ctx: Context, m: int) -> List[Polynomial]:
    """Basis of the sigma-invariants of bidegree (m,m): the elements
    v_i (x) v_i and v_i (x) v_j + v_j (x) v_i.  Size m(m+1)/2."""
    one = Fraction(1)
    return [collect(ctx.ring, ((e, one) for e in exps))
            for exps in _invariant_exponents(ctx, m)]


def _invariant_exponents(ctx: Context, m: int) -> List[Tuple[tuple, ...]]:
    """The exponent vectors of each invariant_basis element, in order."""
    if m < 1:
        raise S2EError("m must be at least 1")
    mons = factor_basis(m)
    pad = (0,) * (ctx.ring.nvars - 6)
    return [(u + v + pad,) if u == v else (u + v + pad, v + u + pad)
            for p, u in enumerate(mons) for v in mons[p:]]


def _invariant_rows(P: _Packing, exps: Sequence[Tuple[tuple, ...]]) -> List[Row]:
    """The invariants as rows: an invariant of z-degree d has the
    coefficient lam^d at each of its monomials."""
    return [{P.pack_exponent(e): P.lam ** (e[0] + e[3]) for e in es} for es in exps]


# -- coordinates --------------------------------------------------------------


def _transpose(rows: Sequence[Mapping]) -> List[dict]:
    """The rows indexed by monomial: for each monomial of their joint
    support, in sorted order (packed monomials sort as their exponent
    tuples do), the map input index -> coefficient."""
    by_monomial: Dict[object, dict] = {}
    for j, row in enumerate(rows):
        for mono, c in row.items():
            by_monomial.setdefault(mono, {})[j] = c
    return [by_monomial[mono] for mono in sorted(by_monomial)]


def _coordinates(rows: Sequence[Mapping]):
    """`_transpose` as a dense matrix, absent entries 0, for the callers of
    the dense `linalg` API: `_try_assignment`'s `solve` and some tests."""
    return [[t.get(j, 0) for j in range(len(rows))] for t in _transpose(rows)]


# -- the operations ------------------------------------------------------------


def antidiagonal_kernel(ctx: Context, m: int) -> List[Polynomial]:
    """Invariants of bidegree (m,m) vanishing on the antidiagonal.

    The antidiagonal is the image of p -> (p, -p); in Weierstrass
    coordinates the substitution is (z2,x2,y2) -> (z1,x1,-y1) followed
    by reduction modulo the single remaining relation.
    """
    exps = _invariant_exponents(ctx, m)
    P = ctx._packing(2 * m)
    rows = _transpose([_restrict_antidiagonal(P, r) for r in _invariant_rows(P, exps)])
    return [_combine(ctx, v, exps) for v in linalg.kernel(rows, range(len(exps)))]


def _combine(ctx: Context, coeffs: Sequence[Fraction],
             exps: Sequence[Tuple[tuple, ...]]) -> Polynomial:
    """The linear combination sum(c * p) of invariant_basis elements."""
    return collect(ctx.ring, ((e, c) for c, es in zip(coeffs, exps) if c for e in es))


def _restrict_antidiagonal(P: _Packing, row: Row) -> Row:
    """(z2,x2,y2) -> (z1,x1,-y1), then reduced."""
    f2, up, y2 = P.factor2, 3 * P.width, P.shifts[5]
    folded: Row = {}
    for m, c in row.items():
        g = m & f2
        t = m - g + (g << up)
        folded[t] = folded.get(t, 0) + (-c if m >> y2 & 1 else c)
    return P.reduce({m: c for m, c in folded.items() if c})


def conductor_vanishing_basis(ctx: Context, m: int) -> List[Polynomial]:
    """Invariants p of bidegree (m,m) vanishing on the conductor curve.

    Criterion: p vanishes on the conductor iff p*t4 = s4*h for some
    invariant h of bidegree (m,m), an identity of divisors valid for
    generic gluing parameters.  Solved as exact linear algebra in
    normal-form coordinates; refuses non-generic glue.
    """
    if not 2 <= m <= 5:
        raise S2EError("m out of range (2..5)")
    if ctx.symbolic:
        raise S2EError("conductor basis needs numeric gluing parameters")
    if ctx.glue is None or not ctx.glue.generic:
        raise S2EError("non-generic conductor")
    exps = _invariant_exponents(ctx, m)
    # the products have weighted degree 2m + 6, below ELEMENT_DEGREE
    E = ctx._elements
    P, t4 = E.P, E.rows["t4"][0]
    minus_s4 = {mono: -c for mono, c in E.rows["s4"][0].items()}
    basis = _invariant_rows(P, exps)
    rows = _transpose([P.reduce(p, t4) for p in basis] + [P.reduce(p, minus_s4) for p in basis])
    seen_rows = [v[:len(basis)] for v in linalg.kernel(rows, range(2 * len(basis)))]
    if not all(map(any, seen_rows)):
        # a kernel vector with p = 0 means s4*h = 0 with h != 0; impossible in a domain
        raise S2EError("degenerate conductor system")
    # canonicalise the p-projection
    reduced, pivots = linalg.rref(seen_rows) if seen_rows else ([], [])
    return [_combine(ctx, reduced[r], exps) for r in range(len(pivots))]


class IdentityError(StratabenchError, RuntimeError):
    """A closed-form coefficient identity failed; carries the residual."""

    def __init__(self, message: str, residual: Polynomial):
        super().__init__(f"{message}: residual {residual!r}")
        self.residual = residual


def check_identities(ctx: Context) -> dict:
    """The two exact identities tying s0..s4 to l1, l2 and the degree-4
    kernel, as identity1_ok, identity1_scalar and identity2_ok.

    Identity I:  s0^2*s2 - s1^2 - (beta*l1 + alpha*l2) is a scalar
    multiple of t0*s4 (the scalar is solved for; it comes out 0).
    Identity II: s1*s2 + b*alpha^2*l1 + (a*alpha^2+beta^2)*l2 = t0*s3.
    Both are verified on the context's rows; failure raises IdentityError.
    Checked once per context; every call returns a fresh dict.
    """
    if ctx._identities is None:
        E = ctx._elements
        gens = _Products(E.P, [E.rows[k] for k in S_NAMES + ("t0",)])
        lhs1 = E.evaluate("identity I", gens)
        scalar = _ratio(lhs1, gens[(4, 7)])  # t0*s4
        if scalar is None:
            raise IdentityError("identity I (degree-4 kernel) failed", E.P.unpack(*lhs1))
        lhs2 = E.evaluate("identity II", gens)
        if lhs2[0]:
            raise IdentityError("identity II (s3 pinning) failed", E.P.unpack(*lhs2))
        ctx._identities = {"identity1_ok": True, "identity1_scalar": scalar,
                           "identity2_ok": True}
    return dict(ctx._identities)


def s_generators(ctx: Context) -> dict:
    """The elements s0..s4, l1 and l2 of `Context.s_elements` plus the
    identity keys of `check_identities`, which is checked first."""
    identities = check_identities(ctx)
    return {**ctx.s_elements(), **identities}


# -- theorem relations ---------------------------------------------------------


class _SystemRows:
    """One image (X, Y1, Y2) of the model generators x, y1, y2, with b1,
    and a2 and b2 on first use; all three share the products of W, Y1, Y2."""

    def __init__(self, E: _Elements, X: Elem, Y1: Elem, Y2: Elem):
        self.E, self.X = E, X
        self.gens = _Products(E.P, (E.P.mul(X, X), Y1, Y2))
        self.b1 = E.evaluate("b1", self.gens)

    @cached_property
    def a2(self) -> Elem:
        return self.E.evaluate("a2", self.gens)

    @cached_property
    def b2(self) -> Elem:
        return self.E.evaluate("b2", self.gens)


def verify_theorem_relations(ctx: Context) -> dict:
    """Search the generator assignments realising the model relations.

    The target presentation is r1 = z1^2 + b1(x,y1,y2) and
    r2 = z2^2 + x*z1*a2(x,y1,y2) + b2(x,y1,y2).  Candidate images: the
    constructed generator system (s0,s1,s2) with z-pair (s3,s4) or
    (s4,s3), and the equivalent raw system (t0,t2,t1) with z-pair
    (t3,s4) or (s4,t3).  Each candidate gets a z-rescaling z1->l*z1,
    z2->u*z2 solved linearly from the rows; success means both relations
    reduce exactly to zero.  Each relation part is built once per
    generator system (b1 always, a2 and b2 only when some assignment of
    that system passes r1), and each z-square once, so the four
    assignments share them.  Exactly one assignment is expected to
    succeed.  A symbolic context runs the same search exactly in
    Q[alpha, beta] and reports only the success.
    """
    if ctx.alpha is None:
        raise S2EError("gluing parameters required")
    if not ctx.symbolic and not ctx.glue.generic:
        raise S2EError("non-generic conductor")
    check_identities(ctx)  # raises IdentityError unless both identities hold
    E = ctx._elements
    rows = E.rows
    systems = {"s-system": _SystemRows(E, rows["s0"], rows["s1"], rows["s2"]),
               "t-system": _SystemRows(E, rows["t0"], rows["t2"], rows["t1"])}
    squares = {k: E.P.mul(rows[k], rows[k]) for k in ("s3", "s4", "t3")}

    results = []
    for label, z1, z2 in (("s-system", "s3", "s4"), ("s-system", "s4", "s3"),
                          ("t-system", "t3", "s4"), ("t-system", "s4", "t3")):
        res = _try_assignment(E.P, systems[label], rows[z1], squares[z1], squares[z2])
        res["assignment"] = f"{label} z=({z1},{z2})"
        results.append(res)
    successes = [r for r in results if r["success"]]
    if len(successes) != 1:
        raise S2EError(
            f"expected exactly one succeeding assignment, "
            f"got {[r['assignment'] for r in successes]}; "
            f"residual report: {[(r['assignment'], r['reason']) for r in results]}")
    winner = successes[0]["assignment"]
    if ctx.symbolic:
        successes[0]["reason"] = "symbolic identity"
        return {"assignments": successes, "succeeding": winner, "symbolic": True}
    return {"assignments": results, "succeeding": winner}


def _try_assignment(P: _Packing, system: _SystemRows, Z1: Elem,
                    z1sq: Elem, z2sq: Elem) -> dict:
    b1 = system.b1
    # r1: lam2 * z1^2 + b1 = 0
    ratio = _ratio(b1, z1sq)
    if ratio is None or ratio == 0:
        return {"success": False, "reason": "no z1-rescaling solves r1",
                "lambda2": None, "mu2": None, "lambda": None}
    lam2 = -ratio
    # r2: mu2 * z2^2 + lam * (x*z1*a2) + b2 = 0, linear in (mu2, lam); on the
    # numerators the unknowns are mu2*db/dz and lam*db/dc
    b2 = system.b2
    cross = P.mul(P.mul(system.X, Z1), system.a2)
    (rz, dz), (rc, dc), (rb, db) = z2sq, cross, b2
    M = _coordinates([rz, rc, rb])
    sol = linalg.solve([row[:2] for row in M], [-row[2] for row in M])
    if sol is None:
        return {"success": False, "reason": "r2 has no (mu^2, lambda) solution",
                "lambda2": str(lam2), "mu2": None, "lambda": None}
    mu2, lam = sol[0] * dz / db, sol[1] * dc / db
    if mu2 == 0 or lam * lam != lam2:
        return {"success": False,
                "reason": "r2 solution inconsistent with r1 rescaling",
                "lambda2": str(lam2), "mu2": str(mu2), "lambda": str(lam)}
    # final exact check
    r1 = _lin([(lam2, z1sq), (1, b1)])
    r2 = _lin([(mu2, z2sq), (lam, cross), (1, b2)])
    ok = not r1[0] and not r2[0]
    return {"success": ok, "reason": "ok" if ok else "nonzero residual",
            "lambda2": str(lam2), "mu2": str(mu2), "lambda": str(lam)}


def generation_check(ctx: Context, upto: int,
                     generators: Optional[Sequence[Polynomial]] = None) -> bool:
    """Do monomials in t0..t6 span every graded piece up to degree `upto`?"""
    gens = list(generators) if generators is not None else list(ctx.t_generators())
    # a product of generators has at most `upto` factors
    P = ctx._packing(upto * max((g.max_weighted_degree() for g in gens), default=0))
    rows, degs = [], []
    for g in gens:
        row = P.reduce(P.pack(g)[0])
        d = ctx.bidegree(P.unpack(row))
        if d == "inhomogeneous" or d[0] != d[1] or d[0] < 1:
            raise S2EError("generators must have positive diagonal bidegree")
        degs.append(d[0])
        rows.append((row, 1))
    products = _Products(P, rows)
    for m in range(1, upto + 1):
        # rescaling rows and columns by nonzero scalars keeps the rank
        if linalg.rank_rows([products[tuple(k for k, e in enumerate(exps) for _ in range(e))][0]
                             for exps in weighted_exponents(degs, m)]) != m * (m + 1) // 2:
            return False
    return True


# -- convenience: full pipeline report ----------------------------------------


def pipeline_report(params: WeierstrassParams, glue: GluingParams) -> dict:
    """Everything the verification needs for one parameter tuple."""
    ctx = Context(params, glue)
    # invariant_basis has one element per pair of factor_basis monomials
    sizes = {m: len(factor_basis(m)) for m in range(1, 7)}
    dims = {m: n * (n + 1) // 2 for m, n in sizes.items()}
    anti3 = antidiagonal_kernel(ctx, 3)
    cond = {m: conductor_vanishing_basis(ctx, m) for m in range(2, 6)}
    gens = check_identities(ctx)
    thm = verify_theorem_relations(ctx)
    return {
        "params": {"a": str(params.a), "b": str(params.b),
                   "alpha": str(glue.alpha), "beta": str(glue.beta)},
        "invariant_dims": {str(m): d for m, d in dims.items()},
        "antidiagonal_kernel_dim_3": len(anti3),
        "antidiagonal_kernel_3": [to_json(p) for p in anti3],
        "conductor_dims": {str(m): len(v) for m, v in cond.items()},
        "conductor_bases": {str(m): [to_json(p) for p in v]
                            for m, v in cond.items()},
        "identity1_ok": gens["identity1_ok"],
        "identity1_scalar": str(gens["identity1_scalar"]),
        "identity2_ok": gens["identity2_ok"],
        "generation_upto_6": generation_check(ctx, 6),
        "theorem": thm,
    }
