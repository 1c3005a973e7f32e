"""Weighted complete-intersection models of canonical rings.

Two model families live here: the (1,2,2,3,3) complete intersections of
bidegree (6,6) with relations

    f1 = z1^2 + z2*x*a1(x,y1,y2) + b1(x,y1,y2)
    f2 = z2^2 + z1*x*a2(x,y1,y2) + b2(x,y1,y2)

and the degree-1 del Pezzo rings C[x1,x2,y,z]/(f6) with weights
(1,1,2,3) and f6 = z^2 + a0*y^3 + a2*y^2 + a4*y + a6, together with
their Hilbert-series and Riemann-Roch bookkeeping, quadruple-cover
fiber counting, and the coordinate-bound automorphism classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import BudgetExceeded, poly, step_budget
from .forms import distinct_roots, resultant
from .groebner import poly_gcd
from .poly import Polynomial, WeightedRing, rename_into, weighted_exponents

CANONICAL_RING = WeightedRing(("x", "y1", "y2", "z1", "z2"), (1, 2, 2, 3, 3))
XY_RING = WeightedRing(("x", "y1", "y2"), (1, 2, 2))
DEL_PEZZO_RING = WeightedRing(("x1", "x2", "y", "z"), (1, 1, 2, 3))
BINARY_RING = WeightedRing(("x1", "x2"), (1, 1))


class ModelError(ValueError):
    """Raised for ill-formed canonical-ring or del Pezzo models."""


# -- Hilbert series ----------------------------------------------------------


def ci_hilbert_series(weights: Sequence[int], relation_degrees: Sequence[int],
                      upto: int) -> List[int]:
    """Coefficients of prod(1-t^d) / prod(1-t^w) through degree `upto`.

    This is the Hilbert function of a complete intersection with the
    given generator weights and relation degrees, computed by exact
    integer power-series arithmetic.

    Raises BudgetExceeded, before any arithmetic, when its cost of at
    most (upto + 1) coefficient updates per weight and per relation
    exceeds the step budget.
    """
    if upto < 0:
        raise ModelError("upto must be non-negative")
    if any(w < 1 for w in weights) or any(d < 1 for d in relation_degrees):
        raise ModelError("weights and relation degrees must be positive")
    cost, budget = (len(weights) + len(relation_degrees)) * (upto + 1), step_budget()
    if cost > budget:
        raise BudgetExceeded(
            f"hilbert series: {cost} coefficient updates exceed the step budget "
            f"of {budget}; raise STRATABENCH_STEP_BUDGET if intended")
    series = [0] * (upto + 1)
    series[0] = 1
    # 1 / (1 - t^w) is a cumulative sum with stride w
    for w in weights:
        for i in range(w, upto + 1):
            series[i] += series[i - w]
    for d in relation_degrees:
        # multiply by (1 - t^d), in place from the top
        for i in range(upto, d - 1, -1):
            series[i] -= series[i - d]
    if series[0] != 1:
        raise ModelError("Hilbert series must start with 1")
    return series


def rr_prediction(K2: int, chi: int, pg: int, m: int) -> int:
    """h^0(mK) for a stable surface: pg at m=1, chi + m(m-1)/2*K2 for m>=2."""
    if m <= 0:
        raise ModelError("m must be positive")
    if m == 1:
        return pg
    return chi + m * (m - 1) // 2 * K2


# -- canonical ring models ---------------------------------------------------


def _into_full_ring(p: Polynomial) -> Polynomial:
    """Accept a polynomial in the (x,y1,y2) subring or the full ring."""
    if p.ring == CANONICAL_RING:
        if any(n in ("z1", "z2") for n in p.variables_used()):
            raise ModelError("model coefficients must not involve z1, z2")
        return p
    if tuple(p.ring.names) == tuple(XY_RING.names):
        return rename_into(p, CANONICAL_RING)
    raise ModelError("expected a polynomial in (x, y1, y2)")


@dataclass(frozen=True)
class CanonicalRingModel:
    """The (a1, a2, b1, b2) data of a bidegree-(6,6) model."""

    a1: Polynomial
    a2: Polynomial
    b1: Polynomial
    b2: Polynomial

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            object.__setattr__(self, name, _into_full_ring(getattr(self, name)))
        for name, deg in (("a1", 2), ("a2", 2), ("b1", 6), ("b2", 6)):
            p = getattr(self, name)
            if not p.is_homogeneous(deg):
                raise ModelError(f"{name} must be weighted homogeneous of degree {deg}")

    @property
    def ring(self) -> WeightedRing:
        return CANONICAL_RING

    def relations(self) -> Tuple[Polynomial, Polynomial]:
        R = CANONICAL_RING
        x, z1, z2 = R.var("x"), R.var("z1"), R.var("z2")
        f1 = z1 * z1 + z2 * x * self.a1 + self.b1
        f2 = z2 * z2 + z1 * x * self.a2 + self.b2
        return f1, f2

    def to_json(self) -> dict:
        return {k: poly.to_json(getattr(self, k)) for k in ("a1", "a2", "b1", "b2")}

    @staticmethod
    def from_json(doc: dict) -> "CanonicalRingModel":
        return CanonicalRingModel(*(poly.from_json(doc[k]) for k in ("a1", "a2", "b1", "b2")))


@dataclass(frozen=True)
class CanRingValidation:
    shape_ok: bool
    coprime_ok: bool
    ambient_ok: bool
    detail: str = ""

    @property
    def valid(self) -> bool:
        return self.shape_ok and self.coprime_ok and self.ambient_ok

    def to_json(self) -> dict:
        return {
            "shape_ok": self.shape_ok,
            "coprime_ok": self.coprime_ok,
            "ambient_ok": self.ambient_ok,
            "valid": self.valid,
            "detail": self.detail,
        }


def validate_canring(model: CanonicalRingModel) -> CanRingValidation:
    """Shape, coprimality and ambient-smooth-locus checks for a model.

    (i)  the relations are weighted homogeneous of degree 6 (enforced
         structurally by the model constructor, re-checked here);
    (ii) gcd(b1, b2) = 1;
    (iii) the surface avoids the singular locus of the ambient space:
         on x = 0 the binary forms b1(0,y1,y2), b2(0,y1,y2) have no
         common projective zero (nonzero resultant), and on the
         z-locus x = y1 = y2 = 0 the relations force z1 = z2 = 0.

    (iii) implies (ii), so the Groebner gcd runs only where (iii) fails.
    If G = gcd(b1, b2) != 1, then G is weighted homogeneous of positive
    degree.  Either x | G, and both b_i vanish on x = 0; or G(0,y1,y2)
    is a nonconstant binary form dividing both cubics b_i|x=0, which
    then share a root, so their resultant is 0.
    """
    f1, f2 = model.relations()
    shape_ok = f1.is_homogeneous(6) and f2.is_homogeneous(6)

    if model.b1.is_zero() or model.b2.is_zero():
        return CanRingValidation(shape_ok, False, False, "a b_i vanishes identically")

    # restrict to x = 0: b_i has degree 6, so its x-free terms are the
    # binary cubic sum c_i * y1^i * y2^(3-i)
    b1_0, b2_0 = ([b.coeff((0, i, 3 - i, 0, 0)) for i in range(4)]
                  for b in (model.b1, model.b2))
    if not any(b1_0) or not any(b2_0):
        ambient_ok = False
        detail = "a b_i vanishes on the x=0 locus"
    else:
        res = resultant(b1_0, b2_0)
        ambient_ok = res != 0
        detail = f"res(b1|x=0, b2|x=0) = {res}"
    coprime_ok = ambient_ok or poly_gcd(model.b1, model.b2) == CANONICAL_RING.one()
    # z-locus: f1, f2 restricted to x=y1=y2=0 are z1^2 and z2^2, which
    # only vanish at the irrelevant point; holds for every model shape.
    return CanRingValidation(shape_ok, coprime_ok, ambient_ok, detail)


# -- quadruple cover fiber counting ------------------------------------------


class NonGenericBase(ValueError):
    """Base point on the branch/non-finite locus of the bicanonical cover."""


def bicanonical_fiber_count(model: CanonicalRingModel,
                            base: Tuple[Fraction, Fraction, Fraction], *,
                            validation: Optional[CanRingValidation] = None) -> int:
    """Number of distinct points of X above a base point of P^2.

    The bicanonical map is induced by (x^2 : y1 : y2).  Working in the
    affine chart u0 = 1 fixes the square root x = 1; the residual +-x
    identification is the weighted scalar action, so distinct
    (z1, z2)-solutions of the two relations count fiber points exactly
    once.  Generically there are four.  An invalid model raises
    ModelError; `validation`, if given, is `validate_canring(model)`.
    """
    report = validate_canring(model) if validation is None else validation
    if not report.valid:
        raise ModelError(f"invalid model: {report.to_json()}")
    u0, u1, u2 = (Fraction(c) for c in base)
    if u0 == 0:
        raise NonGenericBase("base point lies on u0 = 0; outside the affine chart")
    pt = {"x": Fraction(1), "y1": u1 / u0, "y2": u2 / u0}
    alpha1 = model.a1.evaluate(pt)
    alpha2 = model.a2.evaluate(pt)
    beta1 = model.b1.evaluate(pt)
    beta2 = model.b2.evaluate(pt)

    if alpha1 != 0:
        # z2 is determined by z1; eliminate z2 from f2
        # (z1^2+beta1)^2 + alpha1^2*(alpha2*z1 + beta2) = 0, monic of degree 4
        q = [beta1 * beta1 + alpha1 * alpha1 * beta2,
             alpha1 * alpha1 * alpha2,
             2 * beta1,
             Fraction(0),
             Fraction(1)]
        return distinct_roots(q)
    if alpha2 != 0:
        # f1 = z1^2 + beta1 is pure; each distinct z1 root gives the pure
        # quadric z2^2 = -(alpha2*z1 + beta2), which degenerates to a
        # single point at the one root r = -beta2/alpha2 of the linear form
        r = -beta2 / alpha2
        return 2 * distinct_roots([beta1, Fraction(0), Fraction(1)]) - (r * r + beta1 == 0)
    # both relations are pure quadrics; the solution set is a product
    s1 = distinct_roots([beta1, Fraction(0), Fraction(1)])
    s2 = distinct_roots([beta2, Fraction(0), Fraction(1)])
    return s1 * s2


def classify_relative_automorphisms(model: CanonicalRingModel) -> str:
    """Read the automorphism group over P^2 off the given normal form.

    Z2xZ2 iff a1 = a2 = 0, Z2 iff exactly one a_i vanishes.  Detection
    is coordinate-bound: no search for normalising coordinate changes.
    """
    z1 = model.a1.is_zero()
    z2 = model.a2.is_zero()
    if z1 and z2:
        return "Z2xZ2"
    if z1 or z2:
        return "Z2"
    return "trivial-in-given-coordinates"


# -- del Pezzo models --------------------------------------------------------


def _into_binary(p: Polynomial, degree: int, what: str) -> Polynomial:
    if tuple(p.ring.names) == tuple(DEL_PEZZO_RING.names):
        if any(n in ("y", "z") for n in p.variables_used()):
            raise ModelError(f"{what} must only involve x1, x2")
        terms = {(e[0], e[1]): c for e, c in p.terms.items()}
        p = Polynomial(BINARY_RING, terms)
    elif tuple(p.ring.names) != tuple(BINARY_RING.names):
        raise ModelError(f"{what} must be a polynomial in (x1, x2)")
    if not p.is_homogeneous(degree):
        raise ModelError(f"{what} must be homogeneous of degree {degree}")
    return p


@dataclass(frozen=True)
class DelPezzoModel:
    """Anticanonical ring data of a degree-1 del Pezzo surface."""

    a0: Fraction
    a2: Polynomial
    a4: Polynomial
    a6: Polynomial

    def __post_init__(self):
        object.__setattr__(self, "a0", Fraction(self.a0))
        object.__setattr__(self, "a2", _into_binary(self.a2, 2, "a2"))
        object.__setattr__(self, "a4", _into_binary(self.a4, 4, "a4"))
        object.__setattr__(self, "a6", _into_binary(self.a6, 6, "a6"))

    @property
    def ring(self) -> WeightedRing:
        return DEL_PEZZO_RING

    def relation(self) -> Polynomial:
        R = DEL_PEZZO_RING
        y, z = R.var("y"), R.var("z")
        a2, a4, a6 = (rename_into(p, R) for p in (self.a2, self.a4, self.a6))
        return z * z + y ** 3 * self.a0 + y * y * a2 + y * a4 + a6

    def to_json(self) -> dict:
        return {
            "a0": poly.fraction_to_str(self.a0),
            "a2": poly.to_json(self.a2),
            "a4": poly.to_json(self.a4),
            "a6": poly.to_json(self.a6),
        }

    @staticmethod
    def from_json(doc: dict) -> "DelPezzoModel":
        return DelPezzoModel(
            poly.fraction_from_str(doc["a0"]),
            poly.from_json(doc["a2"]),
            poly.from_json(doc["a4"]),
            poly.from_json(doc["a6"]),
        )


def del_pezzo_report(model: DelPezzoModel, upto: int) -> dict:
    """Hilbert data of the anticanonical ring and its genus-2 restriction.

    The full ring C[1,1,2,3]/(f6) must realise m(m+1)/2 + 1 in each
    degree; the restriction to y = 0 is C[x1,x2,z]/(z^2 + a6), the
    canonical ring of a genus-2 curve, with h^0(m K) = 2m - 1 for
    m >= 2.
    """
    if upto < 1:
        raise ModelError("upto must be at least 1")
    f6 = model.relation()
    if not f6.is_homogeneous(6):
        raise ModelError("f6 is not weighted homogeneous of degree 6")
    full = ci_hilbert_series((1, 1, 2, 3), (6,), upto)
    full_expected = [1] + [m * (m + 1) // 2 + 1 for m in range(1, upto + 1)]
    restricted = ci_hilbert_series((1, 1, 3), (6,), upto)
    genus2_ok = all(restricted[m] == 2 * m - 1 for m in range(2, upto + 1))
    return {
        "hilbert": full,
        "hilbert_expected": full_expected,
        "hilbert_ok": full == full_expected,
        "restricted_hilbert": restricted,
        "genus2_ok": genus2_ok,
        "restricted_relation": "z^2 + a6",
    }


def elliptic_involution_a6(l1, l2, l3) -> Polynomial:
    """a6 = -(x1^2 - l1 x2^2)(x1^2 - l2 x2^2)(x1^2 - l3 x2^2).

    The genus-2 curve z^2 + a6 = 0 carries the elliptic involution
    x1 -> -x1; distinct nonzero branch parameters keep it nonsingular.
    """
    ls = [Fraction(v) for v in (l1, l2, l3)]
    if any(v == 0 for v in ls) or len(set(ls)) != 3:
        raise ModelError("degenerate sextic")
    x1, x2 = BINARY_RING.var("x1"), BINARY_RING.var("x2")
    out = -BINARY_RING.one()
    for v in ls:
        out = out * (x1 * x1 - x2 * x2 * v)
    return out


# -- random sampling (tests and the quadruple-cover acceptance run) ----------


def random_model(rng, coeff_range: int = 5, max_tries: int = 200) -> CanonicalRingModel:
    """A random valid CanonicalRingModel with small integer coefficients."""
    R = XY_RING
    deg2 = [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
    deg6 = weighted_exponents((1, 2, 2), 6)
    for _ in range(max_tries):
        def rand_poly(exps):
            return Polynomial(R, {e: Fraction(rng.randint(-coeff_range, coeff_range))
                                  for e in exps})
        a1 = rand_poly(deg2)
        a2 = rand_poly(deg2)
        b1 = rand_poly(deg6)
        b2 = rand_poly(deg6)
        try:
            model = CanonicalRingModel(a1, a2, b1, b2)
        except ModelError:
            continue
        if validate_canring(model).valid:
            return model
    raise ModelError("random model sampling failed; widen the coefficient range")

