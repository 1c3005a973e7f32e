"""Building data for (Z/2)^2-covers of the plane.

A cover is determined by a line D0 and two cubics D1, D2 whose triple
intersection is empty.  This module validates such data, classifies the
local singularity type of the cover at a given rational point of the
branch locus, and implements the two-step normalisation algorithm on
the pulled-back divisor multisets of a blown-up cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import json_int, json_list, poly
from .forms import (AFFINE, PLANE, form_coeffs, initial_form, is_squarefree_form,
                    localize, vanishing_order)
from .groebner import projective_empty
from .poly import Polynomial


class BuildingDataError(ValueError):
    pass


@dataclass(frozen=True)
class BuildingData:
    """A line and two cubics in the plane."""

    D0: Polynomial
    D1: Polynomial
    D2: Polynomial

    def __post_init__(self):
        for name, deg in (("D0", 1), ("D1", 3), ("D2", 3)):
            p = getattr(self, name)
            if p.ring != PLANE:
                raise BuildingDataError(f"{name} must live in the plane ring (x,y,z)")
            if p.is_zero() or not p.is_homogeneous(deg):
                raise BuildingDataError(f"{name} must be homogeneous of degree {deg}")

    def divisors(self) -> Tuple[Polynomial, Polynomial, Polynomial]:
        return (self.D0, self.D1, self.D2)

    def to_json(self) -> dict:
        return {k: poly.to_json(getattr(self, k)) for k in ("D0", "D1", "D2")}

    @staticmethod
    def from_json(doc: dict) -> "BuildingData":
        return BuildingData(*(poly.from_json(doc[k], PLANE) for k in ("D0", "D1", "D2")))


def validate_building_data(bd: BuildingData) -> dict:
    """Degree check plus emptiness of the triple intersection.

    Log-canonicity of the Hurwitz divisor is not decided globally; use
    classify_point at the singular points of interest.
    """
    empty = projective_empty(list(bd.divisors()))
    return {
        "degrees_ok": True,  # enforced by the constructor
        "triple_intersection_empty": empty,
        "valid": empty,
    }


# -- local classification -----------------------------------------------------


@dataclass(frozen=True)
class LocalSingularityClass:
    tag: str  # branch-smooth | elliptic-degree-1 | elliptic-degree-4 | other
    multiplicities: Tuple[int, int, int]
    diagnostic: str = ""


def classify_point(bd: BuildingData, point: Sequence[Fraction]) -> LocalSingularityClass:
    """Local singularity class of the bi-double cover above a branch point.

    The point is moved to the origin of an affine chart; the orders of
    vanishing of the three divisors and the squarefreeness of the
    product of initial forms (the ordinarity condition) decide the tag:

    * total multiplicity <= 2 and ordinary       -> branch-smooth
    * quadruple point, three branches in one D_i -> elliptic-degree-1
    * D1 and D2 both nodal, D0 off the point     -> elliptic-degree-4
    * anything else                               -> other
    """
    pt = [Fraction(c) for c in point]
    if all(c == 0 for c in pt):
        raise BuildingDataError("not a projective point")
    chart = next(i for i in range(3) if pt[i] != 0)
    local = [localize(D, pt, chart) for D in bd.divisors()]
    mults = tuple(vanishing_order(p) for p in local)
    if all(m == 0 for m in mults):
        raise BuildingDataError("point does not lie on the branch divisor")
    product_initial = AFFINE.one()
    for p, m in zip(local, mults):
        if m > 0:
            product_initial = product_initial * initial_form(p)
    ordinary = is_squarefree_form(form_coeffs(product_initial))
    total = sum(mults)
    if not ordinary:
        return LocalSingularityClass("other", mults,
                                     "non-ordinary: initial form not squarefree")
    if total == 4 and sorted(mults) == [0, 1, 3]:
        return LocalSingularityClass("elliptic-degree-1", mults)
    if total == 4 and mults == (0, 2, 2):
        return LocalSingularityClass("elliptic-degree-4", mults)
    if total <= 2:
        return LocalSingularityClass("branch-smooth", mults)
    return LocalSingularityClass("other", mults, "unlisted multiplicity pattern")


# -- normalisation of divisor multisets ---------------------------------------


@dataclass(frozen=True)
class DivisorMultiset:
    """Labelled components with multiplicities of the three pullbacks."""

    D0: Tuple[Tuple[str, int], ...]
    D1: Tuple[Tuple[str, int], ...]
    D2: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        for name in ("D0", "D1", "D2"):
            entries = tuple((l, m) for l, m in getattr(self, name))
            if any(type(l) is not str or type(m) is not int for l, m in entries):
                raise BuildingDataError(
                    f"{name} entries must be (string label, integer multiplicity)")
            labels = [l for l, _ in entries]
            if len(set(labels)) != len(labels):
                raise BuildingDataError(f"duplicate label in {name}")
            if any(m < 0 for _, m in entries):
                raise BuildingDataError("negative multiplicity")
            object.__setattr__(self, name, entries)

    def lists(self) -> List[Dict[str, int]]:
        return [dict(self.D0), dict(self.D1), dict(self.D2)]

    @staticmethod
    def from_lists(lists: Sequence[Dict[str, int]]) -> "DivisorMultiset":
        return DivisorMultiset(*(tuple(sorted(d.items())) for d in lists))

    def to_json(self) -> dict:
        return {"D0": [list(e) for e in self.D0],
                "D1": [list(e) for e in self.D1],
                "D2": [list(e) for e in self.D2]}

    @staticmethod
    def from_json(doc: dict) -> "DivisorMultiset":
        """Raises TypeError for a value of the wrong JSON type."""
        def entry(e):
            label, mult = json_list(e, "a divisor entry", length=2)
            if type(label) is not str:
                raise TypeError(f"a divisor label must be a string, got {label!r:.40}")
            return label, json_int(mult, "a multiplicity")

        return DivisorMultiset(*(tuple(entry(e) for e in json_list(doc[k], k))
                                 for k in ("D0", "D1", "D2")))


def normalize_building_data(d: DivisorMultiset) -> DivisorMultiset:
    """Two-step normalisation of pulled-back building data.

    Step 1 reduces all multiplicities mod 2.  Step 2 repeatedly picks
    the lexicographically smallest label present in two of the lists,
    removes it there and toggles it in the third.  The result has
    pairwise disjoint supports and multiplicities in {0,1}.
    """
    lists = [{l: m % 2 for l, m in lst.items() if m % 2} for lst in d.lists()]
    while True:
        shared = sorted(
            l for l in set().union(*lists)
            if sum(l in lst for lst in lists) >= 2)
        if not shared:
            break
        label = shared[0]
        present = [i for i in range(3) if label in lists[i]]
        i, j = present[0], present[1]
        k = ({0, 1, 2} - {i, j}).pop()
        del lists[i][label]
        del lists[j][label]
        if label in lists[k]:
            del lists[k][label]
        else:
            lists[k][label] = 1
    return DivisorMultiset.from_lists(lists)


# -- the catalogue of named configurations ------------------------------------


def _known_table():
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    return {
        # three lines of D1 through P=(0:0:1) on the cubic D2; D0 generic
        "Z1": (x + y + z, x * y * (x - y), (x + y) * z ** 2 + x ** 3 + y ** 3),
        # three lines of D1 through P on the line D0; D2 generic
        "Z1prime": (x + 2 * y, x * y * (x - y), x ** 3 + y ** 3 + z ** 3),
        # D0 through P=(1:0:0) and Q=(0:1:0); D1 three lines through P,
        # D2 three lines through Q
        "torus": (z, y * (y + z) * (y + 2 * z), x * (x + z) * (x + 2 * z)),
        # D1 three lines through P=(0:0:1) on D0; D2 three lines through
        # Q=(1:0:0) on D1
        "bielliptic": (x, y * (x + y) * (x - y), z * (y + z) * (y - z)),
        # D1, D2 nodal cubics sharing the node P=(0:0:1), four distinct tangents
        "Z4": (x + y + z, x * y * z + x ** 3 + y ** 3,
               (x ** 2 - y ** 2) * z + x ** 3 + 2 * y ** 3),
    }


_KNOWN = _known_table()
EXAMPLE_NAMES = tuple(sorted(_KNOWN))

SPECIAL_POINTS = {
    "Z1": [(Fraction(0), Fraction(0), Fraction(1))],
    "Z1prime": [(Fraction(0), Fraction(0), Fraction(1))],
    "torus": [(Fraction(1), Fraction(0), Fraction(0)),
              (Fraction(0), Fraction(1), Fraction(0))],
    "bielliptic": [(Fraction(0), Fraction(0), Fraction(1)),
                   (Fraction(1), Fraction(0), Fraction(0))],
    "Z4": [(Fraction(0), Fraction(0), Fraction(1))],
}


def known_examples(name: str) -> BuildingData:
    """A concrete rational instance of a named configuration."""
    if name not in _KNOWN:
        raise BuildingDataError(
            f"unknown example {name!r}; choose from {sorted(_KNOWN)}")
    return BuildingData(*_KNOWN[name])
