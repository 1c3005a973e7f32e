"""Integer and lattice arithmetic for elliptic-fibration strata.

Canonical-bundle-formula evaluations, pluricanonical section counts on
a genus-0 or genus-1 base, the exhaustive multiple-fibre solver, the
admissibility test over the seven bielliptic types, the rank-2 lattice
computation pinning the ramification class on the Hirzebruch surface
F_1, and Euler-characteristic bookkeeping against the stratum table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import List, Optional, Sequence, Tuple


class FibrationError(ValueError):
    pass


@dataclass(frozen=True)
class FibrationData:
    """Numerical data of a minimal elliptic fibration with a multisection.

    deg_L is the degree of L = (R^1 pi_* O)^dual; `multiplicities` are
    the multiple-fibre multiplicities; k is the multisection degree.
    On a genus-1 base a degree-0 L can be trivial or torsion, which the
    divisor degree cannot see, hence the explicit flag.
    """

    base_genus: int
    deg_L: int
    multiplicities: Tuple[int, ...] = ()
    k: int = 1
    L_torsion: bool = False

    def __post_init__(self):
        if any(type(n) is not int for n in
               (self.base_genus, self.deg_L, self.k, *self.multiplicities)):
            raise FibrationError("genus, deg_L, k and multiplicities must be integers")
        if self.base_genus not in (0, 1):
            raise FibrationError("base genus must be 0 or 1")
        if self.deg_L < 0 or self.k < 1:
            raise FibrationError("need deg_L >= 0 and k >= 1")
        ms = tuple(sorted(self.multiplicities))
        if any(m < 2 for m in ms):
            raise FibrationError("multiple-fibre multiplicities must be >= 2")
        object.__setattr__(self, "multiplicities", ms)


def k_dot_multisection(fd: FibrationData) -> Fraction:
    """K.E for a k-multisection E via the canonical bundle formula:
    k*(2g-2+deg L) + sum (m_i-1)*k/m_i, exactly."""
    base = fd.k * (2 * fd.base_genus - 2 + fd.deg_L)
    return Fraction(base) + sum(
        Fraction((m - 1) * fd.k, m) for m in fd.multiplicities)


def plurigenus(fd: FibrationData, m: int) -> int:
    """h^0 of m(K_B + L) + sum floor(m(m_i-1)/m_i) p_i on the base."""
    if m < 1:
        raise FibrationError("m must be positive")
    d = m * (2 * fd.base_genus - 2 + fd.deg_L) \
        + sum(m * (mi - 1) // mi for mi in fd.multiplicities)
    if fd.base_genus == 0:
        return max(d + 1, 0)
    if d > 0:
        return d
    if d == 0:
        return 0 if fd.L_torsion else 1
    return 0


def solve_multiple_fibres(k_min: int,
                          r_fixed: Optional[int] = None,
                          bound: int = 12) -> List[Tuple[int, Tuple[int, ...]]]:
    """All (k, multiplicity multiset) with k(-1 + sum (m_i-1)/m_i) = 1.

    Exhaustive over 2 <= m_i <= bound and k_min <= k <= bound; the
    multiplicity count r is r_fixed when given, otherwise free (it is
    forced into {3, 4} by the equation).  Sorted canonically.
    """
    if bound < 2:
        raise FibrationError("bound must be at least 2")
    rs = [r_fixed] if r_fixed is not None else list(range(0, 5))
    out = set()
    for r in rs:
        for ms in combinations_with_replacement(range(2, bound + 1), r):
            s = Fraction(-1) + sum(Fraction(m - 1, m) for m in ms)
            if s <= 0:
                continue
            inv = 1 / s
            if inv.denominator != 1:
                continue
            k = int(inv)
            if k_min <= k <= bound:
                out.add((k, tuple(sorted(ms))))
    return sorted(out)


# -- bielliptic surfaces -------------------------------------------------------


@dataclass(frozen=True)
class BiellipticRow:
    """One row of the classification table of bielliptic surfaces."""

    type_index: int
    group: str
    group_order: int
    multiplicities: Tuple[int, ...]

    @property
    def mu(self) -> int:
        return lcm(*self.multiplicities)


BIELLIPTIC_TABLE: Tuple[BiellipticRow, ...] = (
    BiellipticRow(1, "Z2", 2, (2, 2, 2, 2)),
    BiellipticRow(2, "Z2xZ2", 4, (2, 2, 2, 2)),
    BiellipticRow(3, "Z4", 4, (2, 4, 4)),
    BiellipticRow(4, "Z4xZ2", 8, (2, 4, 4)),
    BiellipticRow(5, "Z3", 3, (3, 3, 3)),
    BiellipticRow(6, "Z3xZ3", 9, (3, 3, 3)),
    BiellipticRow(7, "Z6", 6, (2, 3, 6)),
)


def bielliptic_admissible(row: BiellipticRow) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Does the surface carry elliptic curves E1, E2 with E1.E2 = 1?

    In the numerical lattice with basis A/mu and (mu/gamma)B one has
    E1 = a*A/mu, E2 = b*(mu/gamma)*B and E1.E2 = ab, forcing a = b = 1;
    effectivity of (mu/gamma)B then requires mu/gamma = 1.  Returns the
    verdict and the witness (a, b) = (1, 1) in the admissible cases.
    """
    if row not in BIELLIPTIC_TABLE:
        raise FibrationError("row is not one of the seven bielliptic types")
    ratio = Fraction(row.mu, row.group_order)
    if ratio == 1:
        return True, (1, 1)
    return False, None


# -- rank-2 lattice arithmetic -------------------------------------------------


@dataclass(frozen=True)
class LatticeClass:
    """A divisor class in a fixed rational lattice basis."""

    coordinates: Tuple[Fraction, ...]
    pairing: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coordinates)
        matrix = tuple(tuple(Fraction(x) for x in row) for row in self.pairing)
        if any(len(row) != len(coords) for row in matrix) or len(matrix) != len(coords):
            raise FibrationError("pairing matrix has wrong shape")
        if any(matrix[i][j] != matrix[j][i]
               for i in range(len(coords)) for j in range(len(coords))):
            raise FibrationError("pairing matrix must be symmetric")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "pairing", matrix)

    def dot(self, other: "LatticeClass") -> Fraction:
        if self.pairing != other.pairing:
            raise FibrationError("classes live in different lattices")
        return sum(
            a * self.pairing[i][j] * b
            for i, a in enumerate(self.coordinates)
            for j, b in enumerate(other.coordinates))

    def __add__(self, other):
        return LatticeClass(
            tuple(a + b for a, b in zip(self.coordinates, other.coordinates)),
            self.pairing)

    def __neg__(self):
        return LatticeClass(tuple(-a for a in self.coordinates), self.pairing)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LatticeClass":
        c = Fraction(c)
        return LatticeClass(tuple(c * a for a in self.coordinates), self.pairing)


# Hirzebruch surface F_1: basis (C0, F) with C0^2 = -1, C0.F = 1, F^2 = 0
F1_PAIRING = ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(0)))
C0 = LatticeClass((Fraction(1), Fraction(0)), F1_PAIRING)
FIB = LatticeClass((Fraction(0), Fraction(1)), F1_PAIRING)


def hirzebruch_branch_solve() -> dict:
    """Solve chi(L^-1) = 3 for the fibre coefficient of the branch class.

    With L = 2C0 + (k/2)F on F_1 and K = -2C0 - 3F, Riemann-Roch reads
    chi = 1 + (1/2) D.(D - K) for D = -2C0 - (k/2)F.  chi is linear in
    k, so two exact lattice evaluations determine it; the solution must
    be k = 10, i.e. the branch curve lies in |4C0 + 10F|.
    """
    K = (-C0.scale(2)) - FIB.scale(3)

    def chi(k: Fraction) -> Fraction:
        D = -C0.scale(2) - FIB.scale(Fraction(k, 2))
        return 1 + Fraction(1, 2) * D.dot(D - K)

    c0, c2 = chi(Fraction(0)), chi(Fraction(2))
    slope = (c2 - c0) / 2
    k = (3 - c0) / slope
    if k.denominator != 1:
        raise FibrationError("no integral solution for the branch class")
    k = int(k)
    assert chi(k) == 3
    # the rewriting 4C0 + 7F = 7(C0 + F) - 3C0 used to pass to the plane
    residual = (C0.scale(4) + FIB.scale(7)) - (C0 + FIB).scale(7) + C0.scale(3)
    identity_ok = all(c == 0 for c in residual.coordinates)
    section_check = (C0 + FIB).dot(C0) == 0
    return {"k": k, "branch_class": f"4C0 + {k}F",
            "rewrite_identity_ok": identity_ok,
            "disjoint_section_check": section_check}


# -- chi bookkeeping -----------------------------------------------------------

# stratum table rows: (kappa, degrees pattern, chi of resolution, type)
NORMAL_STRATA: Tuple[dict, ...] = (
    {"kappa": "2", "degrees": "()", "chi_resolution": 2, "type": "general type"},
    {"kappa": "1", "degrees": "(1)", "chi_resolution": 1, "type": "minimal properly elliptic"},
    {"kappa": "0", "degrees": "(2)", "chi_resolution": 1, "type": "Enriques"},
    {"kappa": "0", "degrees": "(1,1)", "chi_resolution": 0, "type": "torus"},
    {"kappa": "0", "degrees": "(1,1)", "chi_resolution": 0, "type": "bielliptic"},
    {"kappa": "-infinity", "degrees": "(d)", "chi_resolution": 1, "type": "rational"},
    {"kappa": "-infinity", "degrees": "(d1,d2)", "chi_resolution": 0,
     "type": "ruled over elliptic curve"},
)


def chi_bookkeeping(chi_X: int, elliptic_singularity_degrees: Sequence[int]) -> dict:
    """chi of the minimal resolution and the matching stratum rows.

    Each elliptic singularity drops chi by one; local complete
    intersections exclude elliptic singularities of degree above 4.
    Invalid combinations are flagged, never raised; a value that is not
    an integer raises FibrationError.
    """
    degs = tuple(elliptic_singularity_degrees)
    if any(type(n) is not int for n in (chi_X, *degs)):
        raise FibrationError("chi and the singularity degrees must be integers")
    degs = tuple(sorted(degs))
    r = len(degs)
    chi_resolution = chi_X - r
    degree_ok = all(1 <= d <= 4 for d in degs)
    matches: List[str] = []
    if r == 0:
        matches.append("general type")
    elif r == 1:
        if degs[0] == 1:
            matches.append("minimal properly elliptic")
        if degs[0] == 2:
            matches.append("Enriques")
        matches.append("rational")
    elif r == 2:
        if degs == (1, 1):
            matches.extend(["torus", "bielliptic"])
        matches.append("ruled over elliptic curve")
    return {
        "r": r,
        "chi_resolution": chi_resolution,
        "degrees": list(degs),
        "degree_bound_ok": degree_ok,
        "matching_types": matches,
        "valid": degree_ok and bool(matches),
    }


def stratum_catalog() -> dict:
    """The static catalogue of strata with their recorded invariants."""
    return {
        "moduli_dimension": 18,
        "normal_strata": list(NORMAL_STRATA),
        "normal_strata_count": len(NORMAL_STRATA),
        "bielliptic_strata_dimensions": [1, 1, 1, 2],
        "del_pezzo_stratum": {
            "parameter_count": 12, "torus_action": 2, "dimension": 10},
        "non_normal_strata": [
            {"normalisation": "plane", "conductor": "quartic with >= 3 nodes"},
            {"normalisation": "del Pezzo of degree 1 (possibly one elliptic singularity)",
             "conductor": "bi-elliptic curve in |-2K|"},
            {"normalisation": "symmetric square of an elliptic curve",
             "conductor": "genus-2 curve in |3C0 - F|"},
        ],
        "open": ["kappa = -infinity: can the minimal resolution be ruled "
                 "over an elliptic curve?"],
    }
