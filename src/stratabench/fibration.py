"""Integer and lattice arithmetic for elliptic-fibration strata.

Canonical-bundle-formula evaluations, pluricanonical section counts on
a genus-0 or genus-1 base, the exhaustive multiple-fibre solver, the
admissibility test over the seven bielliptic types, the intersection
form of the Hirzebruch surface F_1 (a class c*C0 + f*F is the pair
(c, f)) pinning the ramification class there, and Euler-characteristic
bookkeeping that reads its matches from the stratum table
`NORMAL_STRATA`.
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
    # with D = lcm(2..bound), s = D*(-1 + sum (m_i-1)/m_i) is an integer and k = D/s
    D = lcm(*range(2, bound + 1))
    out = []
    for r in rs:
        for ms in combinations_with_replacement(range(2, bound + 1), r):
            s = sum(D - D // m for m in ms) - D
            if s > 0 and D % s == 0 and k_min <= D // s <= bound:
                out.append((D // s, ms))
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
    if row.mu == row.group_order:
        return True, (1, 1)
    return False, None


# -- the Hirzebruch surface F_1 -----------------------------------------------

# A divisor class c*C0 + f*F on F_1 is the pair (c, f).
C0 = (1, 0)
FIB = (0, 1)


def f1_intersection(x: Tuple, y: Tuple):
    """The intersection number x.y on F_1: C0^2 = -1, C0.F = 1, F^2 = 0."""
    (c, f), (d, g) = x, y
    return -c * d + c * g + f * d


def _combine(*terms) -> Tuple:
    """The class sum of n * D over (n, D) terms, as a pair."""
    return tuple(sum(n * D[i] for n, D in terms) for i in (0, 1))


def hirzebruch_branch_solve() -> dict:
    """Solve chi(L^-1) = 3 for the fibre coefficient of the branch class.

    With L = 2C0 + (k/2)F on F_1 and K = -2C0 - 3F, Riemann-Roch reads
    chi = 1 + (1/2) D.(D - K) for D = -2C0 - (k/2)F.  chi is linear in
    k, so two exact evaluations determine it; the solution must be
    k = 10, i.e. the branch curve lies in |4C0 + 10F|.
    """
    K = _combine((-2, C0), (-3, FIB))

    def chi(k) -> Fraction:
        D = _combine((-2, C0), (Fraction(-k, 2), FIB))
        return 1 + Fraction(f1_intersection(D, _combine((1, D), (-1, K))), 2)

    c0, c2 = chi(0), chi(2)
    k = (3 - c0) / ((c2 - c0) / 2)
    if k.denominator != 1 or chi(k) != 3:
        raise FibrationError("no integral solution for the branch class")
    k = int(k)
    # the rewriting 4C0 + 7F = 7(C0 + F) - 3C0 used to pass to the plane
    section = _combine((1, C0), (1, FIB))
    residual = _combine((4, C0), (7, FIB), (-7, section), (3, C0))
    return {"k": k, "branch_class": f"4C0 + {k}F",
            "rewrite_identity_ok": residual == (0, 0),
            "disjoint_section_check": f1_intersection(section, C0) == 0}


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


def _slots(pattern: str) -> Tuple[Optional[int], ...]:
    """The slots of a `degrees` pattern such as "(1,1)" or "(d1,d2)", one
    per singularity: a digit slot is that degree, a letter slot (None) any
    degree."""
    return tuple(int(s) if s.isdigit() else None
                 for s in pattern.strip("()").split(",") if s)


# (type, slots) of each row of NORMAL_STRATA, in table order
_STRATUM_SLOTS = tuple((row["type"], _slots(row["degrees"])) for row in NORMAL_STRATA)


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
    matches = [kind for kind, slots in _STRATUM_SLOTS if len(slots) == r and all(
        s is None or s == d for s, d in zip(slots, degs))]
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
