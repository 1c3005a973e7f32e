"""The three-nodal plane quartic from its rational parametrization.

For parameters (a, b) the curve is the image of P^1 under three binary
quartics; the defining equation is recovered by eliminating the
parameters from the graph ideal, normalised so that the y^2 z^2
coefficient equals b^2 - b.  The closed-form coefficient polynomials
serve as the golden reference, and `verify_node` certifies the three
coordinate points as honest nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .forms import (PLANE, form_coeffs, initial_form, is_squarefree_form, localize,
                    vanishing_order)
from .groebner import eliminate
from .poly import Polynomial, WeightedRing, rename_into, scalar_ratio

UV = WeightedRing(("u", "v"), (1, 1))
GRAPH_RING = WeightedRing(("u", "v", "x", "y", "z"), (1, 1, 1, 1, 1))


class ImplicitizeError(ValueError):
    pass


@dataclass(frozen=True)
class ParametrizationInput:
    """Parameters (a, b) with a, b not in {0, 1}, a != b, a != b^2 and
    a^2 - a*b^2 - a*b + b^2 != 0.

    The first constraints keep the six marked points of P^1 pairwise
    distinct.  On the curve a^2 - a*b^2 - a*b + b^2 = 0, for example at
    (3/4, 3/2) and (3, -3), the map is 2:1 onto a conic and the
    closed-form quartic is the square of that conic: each of
    c_x2yz^2 - 4*c_x2y2*c_x2z2, c_xy2z^2 - 4*c_x2y2*c_y2z2 and
    c_xyz2^2 - 4*c_x2z2*c_y2z2 is divisible by the square of the
    polynomial.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a in (0, 1) or b in (0, 1) or a == b or a == b * b:
            raise ImplicitizeError("degenerate parameters")
        if a * a - a * b * b - a * b + b * b == 0:
            raise ImplicitizeError(
                "degenerate parameters: a^2 - a*b^2 - a*b + b^2 = 0 maps P^1 2:1 onto a conic")

    def marked_points(self):
        """The six marked points of P^1, as (u, v) pairs."""
        a, b = self.a, self.b
        return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(1)), (a, Fraction(1)),
                (b, Fraction(1)), (a, b)]


def build_parametrization(inp: ParametrizationInput) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """The three binary quartics (x, y, z) of the parametrization map."""
    a, b = inp.a, inp.b
    u, v = UV.var("u"), UV.var("v")
    x = u * v * (u - v) * (u - v * b)
    y = u * (u - v) * (u - v * a) * (u * b - v * a)
    z = v * (u - v * a) * (u - v * b) * (u * b - v * a)
    return x, y, z


@dataclass(frozen=True)
class PlaneQuartic:
    poly: Polynomial

    def __post_init__(self):
        if self.poly.ring != PLANE:
            raise ImplicitizeError("quartic must live in the plane ring")
        if self.poly.is_zero() or not self.poly.is_homogeneous(4):
            raise ImplicitizeError("not a homogeneous quartic")


def closed_form_quartic(a, b) -> PlaneQuartic:
    """The closed-form six-coefficient quartic f_{a,b}."""
    a, b = Fraction(a), Fraction(b)
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    c = {
        "x2y2": -a * b ** 3 + b ** 4 + a * a * b - a * b * b,
        "x2yz": a * a * b ** 3 - a ** 3 * b - a * b ** 3 - a ** 3 + 3 * a * a * b - a * b * b,
        "xy2z": a * b * b - 2 * b ** 3 - a * a + a * b + b * b,
        "x2z2": a ** 4 - a ** 3 * b - a ** 3 + a * a * b,
        "xyz2": 2 * a * a * b - a * b * b - a * a - a * b + b * b,
        "y2z2": b * b - b,
    }
    q = (x * x * y * y * c["x2y2"] + x * x * y * z * c["x2yz"]
         + x * y * y * z * c["xy2z"] + x * x * z * z * c["x2z2"]
         + x * y * z * z * c["xyz2"] + y * y * z * z * c["y2z2"])
    return PlaneQuartic(q)


def implicitize(inp: ParametrizationInput) -> Tuple[PlaneQuartic, dict]:
    """Equation of the image curve by graph-ideal elimination.

    Returns the quartic (normalised so its y^2z^2 coefficient is
    b^2 - b) and a verification block: homogeneity, the pullback
    identity f(x(u,v), y(u,v), z(u,v)) = 0, and node checks at the
    three coordinate points.
    """
    xf, yf, zf = build_parametrization(inp)
    gens = [GRAPH_RING.var(n) - rename_into(p, GRAPH_RING)
            for n, p in zip(("x", "y", "z"), (xf, yf, zf))]
    basis = eliminate(gens, {"u", "v"})
    if len(basis) != 1:
        raise ImplicitizeError(
            f"unexpected image degree: elimination ideal has {len(basis)} generators")
    g = basis[0]
    if g.weighted_degree() != 4:
        raise ImplicitizeError("unexpected image degree: generator is not a quartic")

    target = inp.b * inp.b - inp.b
    e_y2z2 = (0, 2, 2)
    lead = g.coeff(e_y2z2)
    if lead != 0:
        g = g.scale(target / lead)
        scalar = target / lead
        anchored = True
    else:
        lm_coeff = g.sorted_terms()[0][1]
        g = g.scale(1 / lm_coeff)
        scalar = 1 / lm_coeff
        anchored = False
    quartic = PlaneQuartic(g)

    pullback = g.substitute({"x": xf, "y": yf, "z": zf})
    coords = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    verification = {
        "pullback_zero": pullback.is_zero(),
        "anchored_y2z2": anchored,
        "normalising_scalar": str(scalar),
        "nodes": {f"({p[0]}:{p[1]}:{p[2]})": verify_node(quartic, p) for p in coords},
        "matches_closed_form": compare_up_to_scalar(
            g, closed_form_quartic(inp.a, inp.b).poly),
    }
    return quartic, verification


def verify_node(q: PlaneQuartic, point: Sequence[Fraction]) -> bool:
    """Is the point an ordinary node of the quartic?

    Requires q to vanish to order exactly 2 at the point and the
    degree-2 initial form there to be a squarefree binary quadratic.
    Order 2 already says that q and both affine partials vanish at the
    point; Euler's relation x*q_x + y*q_y + z*q_z = 4q gives the third
    projective partial.
    """
    pt = [Fraction(c) for c in point]
    chart = next(i for i in range(3) if pt[i] != 0)
    local = localize(q.poly, pt, chart)
    if vanishing_order(local) != 2:
        return False
    return is_squarefree_form(form_coeffs(initial_form(local)))


def compare_up_to_scalar(f: Polynomial, g: Polynomial) -> bool:
    """f = lambda * g for some nonzero rational lambda?"""
    return bool(scalar_ratio(f, g))
